//! Property-style tests over the system's contracts, driven by a
//! deterministic SplitMix64 case generator (the workspace is
//! dependency-free, so no proptest):
//!
//! * the sandwich guarantee (Theorem 3) for arbitrary point sets,
//!   parameters and update orders;
//! * exactness of every variant at `rho = 0`;
//! * C-group-by consistency: any sub-query must equal the restriction of
//!   the full clustering (the problem definition's "same C(P)" rule);
//! * internal invariant audits of the fully-dynamic structure after
//!   arbitrary interleavings of insertions and deletions.

use dydbscan::core::full::FullDynDbscan;
use dydbscan::geom::SplitMix64;
use dydbscan::{
    brute_force_exact, check_sandwich, relabel, DynamicClusterer, Params, PointId, SemiDynDbscan,
};

const CASES: u64 = 48;

/// Quantized coordinates (ties and exact boundary hits are common) so
/// clusters actually form at eps = 1.
fn arb_points(rng: &mut SplitMix64, max_len: usize) -> Vec<[f64; 2]> {
    let n = 1 + rng.next_below(max_len as u64 - 1) as usize;
    (0..n)
        .map(|_| {
            [
                rng.next_below(60) as f64 * 0.25,
                rng.next_below(60) as f64 * 0.25,
            ]
        })
        .collect()
}

/// Deletes a random subset (possibly empty) of the inserted points;
/// returns the surviving (points, ids).
fn churn_deletions(
    rng: &mut SplitMix64,
    algo: &mut FullDynDbscan<2>,
    pts: &[[f64; 2]],
    ids: &[PointId],
    max_dels: usize,
) -> (Vec<[f64; 2]>, Vec<PointId>) {
    let mut alive = vec![true; pts.len()];
    let n_dels = rng.next_below(max_dels as u64 + 1) as usize;
    for _ in 0..n_dels {
        let k = rng.next_below(pts.len() as u64) as usize;
        if alive[k] {
            algo.delete(ids[k]);
            alive[k] = false;
        }
    }
    let live_pts = pts
        .iter()
        .zip(&alive)
        .filter(|(_, &a)| a)
        .map(|(p, _)| *p)
        .collect();
    let live_ids = ids
        .iter()
        .zip(&alive)
        .filter(|(_, &a)| a)
        .map(|(i, _)| *i)
        .collect();
    (live_pts, live_ids)
}

#[test]
fn semi_exact_matches_bruteforce() {
    let mut rng = SplitMix64::new(0xA11CE);
    for case in 0..CASES {
        let pts = arb_points(&mut rng, 120);
        let min_pts = 1 + rng.next_below(5) as usize;
        let params = Params::new(1.0, min_pts);
        let mut semi = SemiDynDbscan::<2>::new(params);
        let ids: Vec<PointId> = pts.iter().map(|p| semi.insert(*p)).collect();
        let got = semi.group_all();
        let want = relabel(&brute_force_exact(&pts, &params), &ids);
        assert_eq!(got, want, "case {case}");
    }
}

#[test]
fn full_exact_matches_bruteforce_with_deletions() {
    let mut rng = SplitMix64::new(0xB0B);
    for case in 0..CASES {
        let pts = arb_points(&mut rng, 90);
        let min_pts = 1 + rng.next_below(5) as usize;
        let params = Params::new(1.0, min_pts);
        let mut algo = FullDynDbscan::<2>::new(params);
        let ids: Vec<PointId> = pts.iter().map(|p| algo.insert(*p)).collect();
        let (live_pts, live_ids) = churn_deletions(&mut rng, &mut algo, &pts, &ids, 40);
        let got = algo.group_all();
        let want = relabel(&brute_force_exact(&live_pts, &params), &live_ids);
        assert_eq!(got, want, "case {case}");
    }
}

#[test]
fn sandwich_guarantee_under_churn() {
    let mut rng = SplitMix64::new(0x5A4D);
    for case in 0..CASES {
        let pts = arb_points(&mut rng, 80);
        let rho = (1 + rng.next_below(39)) as f64 / 100.0;
        let params = Params::new(1.0, 3).with_rho(rho);
        let mut algo = FullDynDbscan::<2>::new(params);
        let ids: Vec<PointId> = pts.iter().map(|p| algo.insert(*p)).collect();
        let (live_pts, live_ids) = churn_deletions(&mut rng, &mut algo, &pts, &ids, 30);
        let got = algo.group_all();
        let c1 = relabel(
            &brute_force_exact(&live_pts, &Params::new(1.0, 3)),
            &live_ids,
        );
        let c2 = relabel(
            &brute_force_exact(&live_pts, &Params::new(1.0 + rho, 3)),
            &live_ids,
        );
        check_sandwich(&c1, &got, &c2).unwrap_or_else(|e| panic!("case {case}: {e}"));
        algo.validate_invariants();
    }
}

#[test]
fn group_by_equals_restriction_of_group_all() {
    let mut rng = SplitMix64::new(0x6E57);
    for case in 0..CASES {
        let pts = arb_points(&mut rng, 70);
        let rho = rng.next_below(30) as f64 / 100.0;
        let params = Params::new(1.0, 3).with_rho(rho);
        let mut algo = FullDynDbscan::<2>::new(params);
        let ids: Vec<PointId> = pts.iter().map(|p| algo.insert(*p)).collect();
        let q: Vec<PointId> = ids
            .iter()
            .filter(|_| rng.next_below(2) == 1)
            .copied()
            .collect();
        let all = algo.group_all();
        let sub = algo.group_by(&q);
        assert_eq!(sub, all.restrict(&q), "case {case}");
    }
}

#[test]
fn insertion_order_is_irrelevant_at_rho_zero() {
    let mut rng = SplitMix64::new(0x0D5E);
    for case in 0..CASES {
        let pts = arb_points(&mut rng, 80);
        let params = Params::new(1.0, 3);
        let mut a = SemiDynDbscan::<2>::new(params);
        let ids_a: Vec<PointId> = pts.iter().map(|p| a.insert(*p)).collect();
        // shuffled order
        let mut order: Vec<usize> = (0..pts.len()).collect();
        rng.shuffle(&mut order);
        let mut b = SemiDynDbscan::<2>::new(params);
        let mut ids_b = vec![0 as PointId; pts.len()];
        for &k in &order {
            ids_b[k] = b.insert(pts[k]);
        }
        // map both to the original indices and compare
        let ga = a.group_all();
        let gb = b.group_all();
        let inv_a: std::collections::HashMap<PointId, u32> = ids_a
            .iter()
            .enumerate()
            .map(|(k, &i)| (i, k as u32))
            .collect();
        let inv_b: std::collections::HashMap<PointId, u32> = ids_b
            .iter()
            .enumerate()
            .map(|(k, &i)| (i, k as u32))
            .collect();
        let norm = |g: &dydbscan::GroupBy, inv: &std::collections::HashMap<PointId, u32>| {
            let mut out = dydbscan::GroupBy {
                groups: g
                    .groups
                    .iter()
                    .map(|grp| grp.iter().map(|p| inv[p]).collect())
                    .collect(),
                noise: g.noise.iter().map(|p| inv[p]).collect(),
            };
            out.normalize();
            out
        };
        assert_eq!(norm(&ga, &inv_a), norm(&gb, &inv_b), "case {case}");
    }
}
