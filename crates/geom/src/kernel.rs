//! Branch-free distance kernels — the vectorizable inner loops of range
//! counting, emptiness probing, and range reporting.
//!
//! Every hot sweep in the system reduces to "compare a contiguous block
//! of points against one query point and a squared radius". Which
//! formulation vectorizes is an empirical question, and the answer —
//! settled by the `kernels` microbench (`cargo bench -p dydbscan-bench
//! --bench kernels`), never by asm eyeballing — splits by whether the
//! sweep can exit early:
//!
//! - **Counting** has no early exit, so the branch-free reduction
//!   (`hits += (dist_sq(p, q) <= r_sq) as usize`) already autovectorizes
//!   as written: LLVM unrolls the point loop and emits packed
//!   subtract/multiply/add plus a packed compare + mask accumulate. An
//!   explicit chunk-of-8 lane-array rewrite of the same loop measures at
//!   parity under baseline x86-64 and *regresses* (~0.7x) under AVX2,
//!   where the lane accumulator array spills; [`count_within_sq`]
//!   therefore keeps the simple form.
//! - **Probing** (`any`/`find`) wants to stop at the first hit, and a
//!   per-element `return` defeats vectorization outright. Those kernels
//!   restructure the sweep into [`LANES`]-wide chunks: accumulate all
//!   eight squared distances dimension-major with no branches
//!   (`lane_dist_sq`), fold the lane compares into one chunk-level hit
//!   flag, and only branch per chunk. Measured on miss-heavy probes
//!   (the common case — most cell pairs are *not* within range) the
//!   chunked probe runs 1.2–1.5x the scalar sweep at baseline flags and
//!   1.5–1.8x under AVX2, while keeping an eight-point exit granularity.
//!
//! No `unsafe`, intrinsics, or per-target code paths anywhere — the
//! kernels are plain loops shaped so the autovectorizer cannot miss.
//!
//! # Bit-identical results
//!
//! The lane accumulation performs, per point, *exactly* the floating-
//! point operations of [`dist_sq`] in the same
//! order: `acc += (a[i] - b[i]) * (a[i] - b[i])` with `i` ascending,
//! plain multiply-then-add (never `mul_add`: a fused multiply-add
//! rounds once where the scalar path rounds twice, which would split
//! the chunked and scalar answers on borderline points). Chunking only
//! changes *which point's* accumulation happens when — each point's own
//! value is bitwise identical — so every kernel returns exactly what
//! its scalar reference returns, hit-for-hit and in slot order. The
//! property suites assert this equivalence on random blocks.

use crate::point::{dist_sq, Point};

/// Lane width of the chunked kernels. Eight `f64` lanes fill two AVX2
/// registers (or four SSE2 ones) and give LLVM's SLP vectorizer an
/// even, power-of-two trip count; the remainder (`< LANES` points) is
/// swept scalar.
pub const LANES: usize = 8;

/// Squared distances from `q` to all [`LANES`] points of `chunk`,
/// accumulated dimension-major so the lane array vectorizes.
#[inline(always)]
fn lane_dist_sq<const D: usize>(chunk: &[Point<D>; LANES], q: &Point<D>) -> [f64; LANES] {
    let mut acc = [0.0f64; LANES];
    for i in 0..D {
        let qi = q[i];
        for j in 0..LANES {
            let d = chunk[j][i] - qi;
            acc[j] += d * d;
        }
    }
    acc
}

#[inline(always)]
fn as_chunk<const D: usize>(chunk: &[Point<D>]) -> &[Point<D>; LANES] {
    chunk
        .try_into()
        .expect("chunks_exact yields LANES-sized slices")
}

/// Counts the points of `pts` within squared distance `r_sq` of `q`
/// (inclusive). Branch-free twin of [`count_within_sq_scalar`];
/// identical result on every input.
///
/// Deliberately *not* chunked: with no early exit to preserve, LLVM
/// vectorizes this form fully on its own, and the explicit lane-array
/// variant measured slower on wide ISAs (see the module docs).
#[inline]
pub fn count_within_sq<const D: usize>(pts: &[Point<D>], q: &Point<D>, r_sq: f64) -> usize {
    let mut hits = 0usize;
    for p in pts {
        hits += (dist_sq(p, q) <= r_sq) as usize;
    }
    hits
}

/// Returns `true` if any point of `pts` lies within squared distance
/// `r_sq` of `q`. Chunked twin of [`any_within_sq_scalar`]; per-chunk
/// early exit preserves the short-circuit payoff of the scalar sweep.
#[inline]
pub fn any_within_sq<const D: usize>(pts: &[Point<D>], q: &Point<D>, r_sq: f64) -> bool {
    let mut chunks = pts.chunks_exact(LANES);
    for chunk in &mut chunks {
        let acc = lane_dist_sq(as_chunk(chunk), q);
        let mut hit = false;
        for &a in &acc {
            hit |= a <= r_sq;
        }
        if hit {
            return true;
        }
    }
    any_within_sq_scalar(chunks.remainder(), q, r_sq)
}

/// First point of `pts` (in slot order) within squared distance `hi_sq`
/// of `q`, as `(slot, dist_sq)`. Chunked twin of
/// [`find_within_sq_scalar`]: a branch-free chunk-level hit flag keeps
/// the all-miss fast path vectorized, and only a hit chunk pays the
/// lane scan, which picks the lowest qualifying lane — "first in slot
/// order" is preserved exactly.
#[inline]
pub fn find_within_sq<const D: usize>(
    pts: &[Point<D>],
    q: &Point<D>,
    hi_sq: f64,
) -> Option<(usize, f64)> {
    let mut chunks = pts.chunks_exact(LANES);
    let mut base = 0usize;
    for chunk in &mut chunks {
        let acc = lane_dist_sq(as_chunk(chunk), q);
        let mut any_hit = false;
        for &a in &acc {
            any_hit |= a <= hi_sq;
        }
        if any_hit {
            for (j, &a) in acc.iter().enumerate() {
                if a <= hi_sq {
                    return Some((base + j, a));
                }
            }
        }
        base += LANES;
    }
    find_within_sq_scalar(chunks.remainder(), q, hi_sq).map(|(j, d)| (base + j, d))
}

/// Calls `hit(slot, dist_sq)` for every point of `pts` within squared
/// distance `r_sq` of `q`, in slot order. Chunked twin of the scalar
/// collect sweep; emission order and values are identical. Like
/// [`find_within_sq`], an all-miss chunk is dismissed with one
/// branch-free flag and never pays the per-lane scan.
#[inline]
pub fn for_each_within_sq<const D: usize>(
    pts: &[Point<D>],
    q: &Point<D>,
    r_sq: f64,
    mut hit: impl FnMut(usize, f64),
) {
    let mut chunks = pts.chunks_exact(LANES);
    let mut base = 0usize;
    for chunk in &mut chunks {
        let acc = lane_dist_sq(as_chunk(chunk), q);
        let mut any_hit = false;
        for &a in &acc {
            any_hit |= a <= r_sq;
        }
        if any_hit {
            for (j, &a) in acc.iter().enumerate() {
                if a <= r_sq {
                    hit(base + j, a);
                }
            }
        }
        base += LANES;
    }
    for (j, p) in chunks.remainder().iter().enumerate() {
        let d = dist_sq(p, q);
        if d <= r_sq {
            hit(base + j, d);
        }
    }
}

/// Scalar reference for [`count_within_sq`]: the pre-chunking sweep,
/// kept as the differential-test oracle and the `kernels` microbench
/// baseline.
#[inline]
pub fn count_within_sq_scalar<const D: usize>(pts: &[Point<D>], q: &Point<D>, r_sq: f64) -> usize {
    pts.iter().filter(|p| dist_sq(p, q) <= r_sq).count()
}

/// Scalar reference for [`any_within_sq`].
#[inline]
pub fn any_within_sq_scalar<const D: usize>(pts: &[Point<D>], q: &Point<D>, r_sq: f64) -> bool {
    pts.iter().any(|p| dist_sq(p, q) <= r_sq)
}

/// Scalar reference for [`find_within_sq`].
#[inline]
pub fn find_within_sq_scalar<const D: usize>(
    pts: &[Point<D>],
    q: &Point<D>,
    hi_sq: f64,
) -> Option<(usize, f64)> {
    for (j, p) in pts.iter().enumerate() {
        let d = dist_sq(p, q);
        if d <= hi_sq {
            return Some((j, d));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn random_block<const D: usize>(rng: &mut SplitMix64, n: usize) -> Vec<Point<D>> {
        (0..n)
            .map(|_| std::array::from_fn(|_| rng.next_f64() * 4.0 - 2.0))
            .collect()
    }

    fn check_dim<const D: usize>(seed: u64) {
        let mut rng = SplitMix64::new(seed);
        // Sweep lengths around the chunk boundary plus bigger blocks.
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 257] {
            let pts = random_block::<D>(&mut rng, n);
            for _ in 0..20 {
                let q: Point<D> = std::array::from_fn(|_| rng.next_f64() * 4.0 - 2.0);
                let r = rng.next_f64() * 2.0;
                let r_sq = r * r;
                assert_eq!(
                    count_within_sq(&pts, &q, r_sq),
                    count_within_sq_scalar(&pts, &q, r_sq),
                    "count mismatch D={D} n={n}"
                );
                assert_eq!(
                    any_within_sq(&pts, &q, r_sq),
                    any_within_sq_scalar(&pts, &q, r_sq),
                    "any mismatch D={D} n={n}"
                );
                assert_eq!(
                    find_within_sq(&pts, &q, r_sq),
                    find_within_sq_scalar(&pts, &q, r_sq),
                    "find mismatch D={D} n={n}"
                );
                let mut chunked = Vec::new();
                for_each_within_sq(&pts, &q, r_sq, |j, d| chunked.push((j, d)));
                let scalar: Vec<(usize, f64)> = pts
                    .iter()
                    .enumerate()
                    .filter_map(|(j, p)| {
                        let d = dist_sq(p, &q);
                        (d <= r_sq).then_some((j, d))
                    })
                    .collect();
                assert_eq!(chunked, scalar, "collect mismatch D={D} n={n}");
            }
        }
    }

    #[test]
    fn chunked_matches_scalar_bitwise_all_dims() {
        check_dim::<2>(1);
        check_dim::<3>(2);
        check_dim::<5>(3);
        check_dim::<7>(4);
    }

    #[test]
    fn borderline_radii_agree() {
        // Points exactly on the radius must land on the same side in
        // both paths (no FMA: identical rounding).
        let pts: Vec<Point<2>> = (0..19).map(|i| [i as f64 * 0.1, 0.3]).collect();
        let q = [0.95, 0.3];
        for p in &pts {
            let r_sq = dist_sq(p, &q); // exact boundary per point
            assert_eq!(
                count_within_sq(&pts, &q, r_sq),
                count_within_sq_scalar(&pts, &q, r_sq)
            );
        }
    }

    #[test]
    fn find_returns_first_slot() {
        // Two qualifying points; the lower slot must win in both paths,
        // in the same chunk and across chunks.
        let mut pts: Vec<Point<2>> = (0..20).map(|i| [100.0 + i as f64, 0.0]).collect();
        pts[3] = [0.1, 0.0];
        pts[12] = [0.05, 0.0];
        let hit = find_within_sq(&pts, &[0.0, 0.0], 1.0);
        assert_eq!(hit.map(|(j, _)| j), Some(3));
        assert_eq!(hit, find_within_sq_scalar(&pts, &[0.0, 0.0], 1.0));
    }

    #[test]
    fn empty_block() {
        let pts: Vec<Point<3>> = Vec::new();
        assert_eq!(count_within_sq(&pts, &[0.0; 3], 1.0), 0);
        assert!(!any_within_sq(&pts, &[0.0; 3], 1.0));
        assert_eq!(find_within_sq(&pts, &[0.0; 3], 1.0), None);
    }
}
