//! Seeded input generators. The same seed gives the same inputs.

use dydbscan::geom::{Point, SplitMix64};
use dydbscan::seed_spreader;

/// Derives an independent stream seed from the run seed and a salt.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut r = SplitMix64::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    r.next_u64()
}

/// `chunks` independent seed-spreader datasets of `n` points each,
/// concatenated. Each dataset holds about ten walked clusters over
/// `[0, 10^5]^D`. A live set spanning several datasets averages over
/// dozens of clusters, so its cost varies little from seed to seed; a
/// churn that deletes the oldest rows and inserts the next ones keeps
/// its shape stationary, and consecutive rows stay spatially local
/// (the regime where batching pays).
pub fn spreader_chunks<const D: usize>(
    seed: u64,
    first: u64,
    chunks: usize,
    n: usize,
) -> Vec<Point<D>> {
    let mut out = Vec::with_capacity(chunks * n);
    for k in 0..chunks as u64 {
        out.extend(seed_spreader::<D>(n, mix(seed, first + k)));
    }
    out
}

/// The seed-spreader walk with its restarts fixed instead of random:
/// `clusters` clusters of exactly `per_cluster` points, each walked from
/// a fresh uniform location over `[0, 10^5]^D` (a point every tick
/// uniform in a ball of radius 25, a step of 50 every 100 ticks), in
/// random order. The spreader's random restarts make cluster sizes
/// geometric, so a few long clusters set a dataset's cost; equal sizes
/// leave the walks' own shapes as the only cost that varies with the
/// seed.
pub fn walked_clusters<const D: usize>(
    seed: u64,
    clusters: usize,
    per_cluster: usize,
) -> Vec<Point<D>> {
    use dydbscan::workload::spreader::{EXTENT, PER_STATION, STEP, VICINITY};
    let mut rng = SplitMix64::new(seed);
    // A uniform point of the cube `[-1, 1]^D` inside the unit ball.
    let in_ball = |rng: &mut SplitMix64| loop {
        let v: [f64; D] = std::array::from_fn(|_| rng.next_f64() * 2.0 - 1.0);
        let norm_sq: f64 = v.iter().map(|x| x * x).sum();
        if norm_sq > 1e-12 && norm_sq <= 1.0 {
            return (v, norm_sq.sqrt());
        }
    };
    let mut out = Vec::with_capacity(clusters * per_cluster);
    for _ in 0..clusters {
        let mut pos: Point<D> = std::array::from_fn(|_| rng.next_f64() * EXTENT);
        for tick in 1..=per_cluster {
            let (v, _) = in_ball(&mut rng);
            out.push(std::array::from_fn(|i| {
                (pos[i] + v[i] * VICINITY).clamp(0.0, EXTENT)
            }));
            if tick % PER_STATION == 0 {
                let (v, norm) = in_ball(&mut rng);
                pos = std::array::from_fn(|i| (pos[i] + v[i] / norm * STEP).clamp(0.0, EXTENT));
            }
        }
    }
    rng.shuffle(&mut out);
    out
}

/// `count` points uniform in `[0, extent]^2`.
pub fn uniform_box(seed: u64, count: usize, extent: f64) -> Vec<Point<2>> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| [rng.next_f64() * extent, rng.next_f64() * extent])
        .collect()
}

/// `count` query sets of `k` distinct indices below `n`.
pub fn query_sets(seed: u64, count: usize, k: usize, n: usize) -> Vec<Vec<usize>> {
    assert!(k <= n, "query larger than the population");
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            let mut q: Vec<usize> = Vec::with_capacity(k);
            while q.len() < k {
                let i = rng.next_below(n as u64) as usize;
                if !q.contains(&i) {
                    q.push(i);
                }
            }
            q
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_repeat_per_seed() {
        assert_eq!(
            spreader_chunks::<2>(5, 1, 2, 300),
            spreader_chunks::<2>(5, 1, 2, 300)
        );
        assert_ne!(
            spreader_chunks::<3>(5, 1, 1, 300),
            spreader_chunks::<3>(6, 1, 1, 300)
        );
        assert_eq!(uniform_box(3, 50, 10.0), uniform_box(3, 50, 10.0));
        let q = query_sets(9, 4, 8, 20);
        assert_eq!(q, query_sets(9, 4, 8, 20));
        for s in &q {
            let mut d = s.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 8);
        }
    }
}
