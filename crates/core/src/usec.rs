//! Executable USEC / USEC-LS reductions — Section 6.1 (Lemmas 1 and 2).
//!
//! The paper's hardness result (Theorem 2) shows that a fully-dynamic
//! ρ-approximate DBSCAN algorithm with fast updates *and* queries would
//! solve the Unit-Spherical Emptiness Checking (USEC) problem in
//! `o(n^{4/3})` time, which is believed impossible for `d >= 3`. The proof
//! is constructive, and this module makes it runnable:
//!
//! * [`solve_usec_ls_via_clustering`] is the Lemma 2 algorithm verbatim: a
//!   dynamic clustering instance with `eps = 1`, `MinPts = 3` solves
//!   USEC-LS using `O(n)` updates and `n` two-point C-group-by queries.
//! * [`solve_usec`] is the Lemma 1 divide-and-conquer, reducing USEC to
//!   `O(log n)` levels of USEC-LS instances.
//!
//! Run with `rho = 0` (exact core semantics): the reduction's correctness
//! argument relies on the *exact* core-point definition — the dummy point
//! must be non-core because `B(p', 1)` holds exactly two points. Under
//! ρ-double-approximation the dummy may legally fall in the don't-care
//! zone, and the reduction breaks: that is precisely *why* double
//! approximation escapes the lower bound while keeping the sandwich
//! guarantee. The `usec_reduction` example demonstrates both sides.

use crate::api::DynamicClusterer;
use crate::full::FullDynDbscan;
use crate::params::Params;
use dydbscan_geom::{dist_sq, Point};

/// A USEC instance: red and blue point sets; the question is whether some
/// red-blue pair lies within distance 1.
#[derive(Debug, Clone)]
pub struct UsecInstance<const D: usize> {
    /// The red points.
    pub red: Vec<Point<D>>,
    /// The blue points.
    pub blue: Vec<Point<D>>,
}

impl<const D: usize> UsecInstance<D> {
    /// Brute-force `O(|red| * |blue|)` answer; ground truth for tests.
    pub fn brute_force(&self) -> bool {
        self.red
            .iter()
            .any(|r| self.blue.iter().any(|b| dist_sq(r, b) <= 1.0))
    }
}

/// Solves USEC **with line separation** (all reds strictly left of all
/// blues on dimension 1) through a fully-dynamic clustering instance —
/// the Lemma 2 algorithm.
///
/// Uses `rho = 0` (exact semantics); see the module docs for why.
pub fn solve_usec_ls_via_clustering<const D: usize>(red: &[Point<D>], blue: &[Point<D>]) -> bool {
    debug_assert!(
        red.iter().all(|r| blue.iter().all(|b| r[0] < b[0])),
        "inputs must be separated on dimension 1"
    );
    // eps = 1, MinPts = 3, rho = 0 — exactly the proof's setup.
    let params = Params::new(1.0, 3);
    let mut algo = FullDynDbscan::<D>::new(params);
    for r in red {
        algo.insert(*r);
    }
    for b in blue {
        let p = algo.insert(*b);
        let mut dummy = *b;
        dummy[0] += 1.0;
        let p_dummy = algo.insert(dummy);
        let groups = algo.group_by(&[p, p_dummy]);
        let same = groups.same_cluster(p, p_dummy);
        if same {
            return true;
        }
        algo.delete(p_dummy);
        algo.delete(p);
    }
    false
}

/// Solves USEC by the Lemma 1 divide-and-conquer over USEC-LS instances.
///
/// Requires all points to have distinct coordinates on dimension 1 (as the
/// USEC formulation in Section 2 assumes). `base` is the subproblem size
/// below which brute force takes over.
pub fn solve_usec<const D: usize>(instance: &UsecInstance<D>, base: usize) -> bool {
    // tag points: true = red
    let mut pts: Vec<(Point<D>, bool)> = instance
        .red
        .iter()
        .map(|&p| (p, true))
        .chain(instance.blue.iter().map(|&p| (p, false)))
        .collect();
    // Radix on the order-preserving key transform — same order as
    // `sort_by(total_cmp)` on dimension 1, in linear time.
    dydbscan_geom::radix_sort_by_key(&mut pts, |&(p, _)| dydbscan_geom::f64_key(p[0]));
    solve_usec_rec(&pts, base.max(2))
}

fn solve_usec_rec<const D: usize>(pts: &[(Point<D>, bool)], base: usize) -> bool {
    if pts.len() <= base {
        return pts
            .iter()
            .any(|(p, pr)| *pr && pts.iter().any(|(q, qr)| !*qr && dist_sq(p, q) <= 1.0));
    }
    let mid = pts.len() / 2;
    let (p1, p2) = pts.split_at(mid);
    // recurse on the halves
    if solve_usec_rec(p1, base) || solve_usec_rec(p2, base) {
        return true;
    }
    // cross instances: (red of P1, blue of P2) and (blue of P1, red of P2),
    // both separated by the split plane on dimension 1.
    let red1: Vec<Point<D>> = p1.iter().filter(|(_, r)| *r).map(|(p, _)| *p).collect();
    let blue1: Vec<Point<D>> = p1.iter().filter(|(_, r)| !*r).map(|(p, _)| *p).collect();
    let red2: Vec<Point<D>> = p2.iter().filter(|(_, r)| *r).map(|(p, _)| *p).collect();
    let blue2: Vec<Point<D>> = p2.iter().filter(|(_, r)| !*r).map(|(p, _)| *p).collect();
    if !red1.is_empty() && !blue2.is_empty() && solve_usec_ls_via_clustering(&red1, &blue2) {
        return true;
    }
    if !blue1.is_empty() && !red2.is_empty() {
        // Reds of P2 lie on the *right* of blues of P1; reflect dimension 1
        // (an isometry) so the LS precondition (reds left) holds.
        let red_m: Vec<Point<D>> = red2.iter().map(|p| mirror(*p)).collect();
        let blue_m: Vec<Point<D>> = blue1.iter().map(|p| mirror(*p)).collect();
        if solve_usec_ls_via_clustering(&red_m, &blue_m) {
            return true;
        }
    }
    false
}

/// Reflection on dimension 1 (distance-preserving).
fn mirror<const D: usize>(mut p: Point<D>) -> Point<D> {
    p[0] = -p[0];
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use dydbscan_geom::SplitMix64;

    fn random_instance<const D: usize>(
        rng: &mut SplitMix64,
        n: usize,
        extent: f64,
        separated: bool,
    ) -> UsecInstance<D> {
        let mut red = Vec::new();
        let mut blue = Vec::new();
        for i in 0..n {
            let mut p: Point<D> = std::array::from_fn(|_| rng.next_f64() * extent);
            // distinct coordinates on dim 1 via deterministic jitter
            p[0] += i as f64 * 1e-7;
            if separated {
                if i % 2 == 0 {
                    p[0] = -1.0 - rng.next_f64() * extent; // reds strictly left
                    red.push(p);
                } else {
                    p[0] = rng.next_f64() * extent; // blues right of 0... shifted
                    blue.push(p);
                }
            } else if rng.next_below(2) == 0 {
                red.push(p);
            } else {
                blue.push(p);
            }
        }
        UsecInstance { red, blue }
    }

    #[test]
    fn usec_ls_matches_bruteforce_2d() {
        for seed in 0..8u64 {
            let mut rng = SplitMix64::new(seed * 7 + 3);
            let inst = random_instance::<2>(&mut rng, 40, 2.5, true);
            if inst.red.is_empty() || inst.blue.is_empty() {
                continue;
            }
            let got = solve_usec_ls_via_clustering(&inst.red, &inst.blue);
            assert_eq!(got, inst.brute_force(), "seed {seed}");
        }
    }

    #[test]
    fn usec_ls_matches_bruteforce_3d() {
        for seed in 0..5u64 {
            let mut rng = SplitMix64::new(seed * 11 + 5);
            let inst = random_instance::<3>(&mut rng, 30, 2.0, true);
            if inst.red.is_empty() || inst.blue.is_empty() {
                continue;
            }
            let got = solve_usec_ls_via_clustering(&inst.red, &inst.blue);
            assert_eq!(got, inst.brute_force(), "seed {seed}");
        }
    }

    #[test]
    fn usec_divide_and_conquer_matches_bruteforce() {
        for seed in 0..8u64 {
            let mut rng = SplitMix64::new(seed * 13 + 7);
            let inst = random_instance::<2>(&mut rng, 50, 3.0, false);
            let got = solve_usec(&inst, 4);
            assert_eq!(got, inst.brute_force(), "seed {seed}");
        }
    }

    #[test]
    fn usec_all_far_is_no() {
        let inst = UsecInstance::<2> {
            red: vec![[-5.0, 0.0], [-6.0, 1.0]],
            blue: vec![[5.0, 0.0], [6.0, 1.0]],
        };
        assert!(!inst.brute_force());
        assert!(!solve_usec(&inst, 2));
        assert!(!solve_usec_ls_via_clustering(&inst.red, &inst.blue));
    }

    #[test]
    fn usec_touching_pair_is_yes() {
        let inst = UsecInstance::<2> {
            red: vec![[-0.4, 0.0]],
            blue: vec![[0.6, 0.0]], // distance exactly 1.0
        };
        assert!(inst.brute_force());
        assert!(solve_usec_ls_via_clustering(&inst.red, &inst.blue));
    }
}
