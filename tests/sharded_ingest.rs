//! Tier-1 sharded-ingest differential suite (ISSUE 10): the sharded
//! wrapper must be *bit-identical* to the unsharded engine it wraps —
//! same ids, same clusters, same noise — after **every** flush, for
//! every engine × approximation level × shard count combination the
//! builder accepts.
//!
//! Three workloads:
//!
//! * a clustered random workload spread across the whole cell space
//!   (every shard owns interior *and* boundary cells),
//! * a boundary-straddling chain along axis 0 that crosses every slab
//!   boundary and must stitch into a single cluster,
//! * a ghost-refresh churn workload (fully-dynamic only): blobs packed
//!   at regular axis-0 intervals are inserted, partially deleted, and
//!   re-inserted, so ghost-cell populations decay to zero and are
//!   re-created across flushes.
//!
//! Global ids are arrival-order in both the sharded wrapper and the raw
//! engines, so the *same* id sets feed `group_by` on both sides and
//! [`GroupBy::normalize`] makes the partitions directly comparable.

use dydbscan::core::ShardEngine;
use dydbscan::geom::SplitMix64;
use dydbscan::{
    Algorithm, DbscanBuilder, DynamicClusterer, FullDynDbscan, Params, SemiDynDbscan, ShardedDbscan,
};

const EPS: f64 = 1.0;
const MIN_PTS: usize = 4;

/// Shard counts exercised against every reference (1 = the wrapper's
/// own degenerate case, still distinct code from the raw engine; see
/// [`build_sharded`]).
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Approximation levels: exact and a coarse ρ that changes `eps_hi`,
/// the ghost reach, and the aBCP probe geometry.
const RHOS: [f64; 2] = [0.0, 0.25];

/// The CI matrix sweeps this (1/2/4 on 4-vCPU runners): every
/// equality below is also a bit-identical-at-every-thread-count claim
/// about the wrapper's concurrent shard flushes.
fn test_threads() -> Option<usize> {
    std::env::var("DYDBSCAN_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map(|t| t.max(1))
}

fn build(algo: Algorithm, rho: f64, shards: Option<usize>) -> Box<dyn DynamicClusterer<2>> {
    let mut b = DbscanBuilder::new(EPS, MIN_PTS).rho(rho).algorithm(algo);
    if let Some(s) = shards {
        b = b.shards(s);
    }
    if let Some(t) = test_threads() {
        b = b.threads(t);
    }
    b.build::<2>().expect("valid configuration")
}

/// The sharded subject for `shards`. The builder turns `.shards(1)` into
/// the raw engine, so the S = 1 leg builds the wrapper directly (same
/// engines, same thread budget) to keep covering its degenerate case.
fn build_sharded(algo: Algorithm, rho: f64, shards: usize) -> Box<dyn DynamicClusterer<2>> {
    if shards > 1 {
        return build(algo, rho, Some(shards));
    }
    fn one_shard<E: ShardEngine<2> + 'static>(
        params: Params,
        make: impl Fn(&Params) -> E,
    ) -> Box<dyn DynamicClusterer<2>> {
        let c = ShardedDbscan::new_with(params, 1, make);
        Box::new(match test_threads() {
            Some(t) => c.with_threads(t),
            None => c,
        })
    }
    let params = Params::new(EPS, MIN_PTS).with_rho(rho);
    match algo {
        Algorithm::SemiDynamic => one_shard(params, |p| SemiDynDbscan::new(*p).with_threads(1)),
        Algorithm::FullyDynamic => one_shard(params, |p| FullDynDbscan::new(*p).with_threads(1)),
        Algorithm::IncDbscan => unreachable!("IncDBSCAN does not shard"),
    }
}

/// Asserts the subject and the reference agree exactly: same alive ids
/// and the same normalized cluster partition over them.
fn assert_equiv(ctx: &str, subject: &dyn DynamicClusterer<2>, reference: &dyn DynamicClusterer<2>) {
    let ids = reference.alive_ids();
    assert_eq!(subject.alive_ids(), ids, "{ctx}: alive id sets diverge");
    let got = subject.group_by(&ids).normalized();
    let want = reference.group_by(&ids).normalized();
    assert_eq!(got, want, "{ctx}: cluster partitions diverge");
}

/// Clustered random batch: points scattered tightly around centers that
/// span the whole `[0, extent)²` box, so every axis-0 slab owns both
/// cluster cores and sparse noise.
fn clustered_batch(rng: &mut SplitMix64, n: usize, extent: f64) -> Vec<[f64; 2]> {
    (0..n)
        .map(|_| {
            let cx = rng.next_f64() * extent;
            let cy = rng.next_f64() * extent;
            // ~70% of points hug a center (dense, cluster-forming);
            // the rest land anywhere (noise + bridges).
            if rng.next_below(10) < 7 {
                [
                    cx + (rng.next_f64() - 0.5) * 1.2,
                    cy + (rng.next_f64() - 0.5) * 1.2,
                ]
            } else {
                [cx, cy]
            }
        })
        .collect()
}

#[test]
fn sharded_matches_unsharded_on_clustered_workload() {
    for &(algo, name) in &[
        (Algorithm::SemiDynamic, "semi"),
        (Algorithm::FullyDynamic, "full"),
    ] {
        for &rho in &RHOS {
            let mut reference = build(algo, rho, None);
            let mut subjects: Vec<(usize, Box<dyn DynamicClusterer<2>>)> = SHARD_COUNTS
                .iter()
                .map(|&s| (s, build_sharded(algo, rho, s)))
                .collect();
            let mut rng = SplitMix64::new(0x10_5EED ^ (rho.to_bits().rotate_left(7)));
            for round in 0..6 {
                let batch = clustered_batch(&mut rng, 96, 96.0);
                let ids = reference.insert_batch(&batch);
                for (s, subject) in &mut subjects {
                    let got = subject.insert_batch(&batch);
                    assert_eq!(got, ids, "{name} rho={rho} S={s}: ids diverge");
                    assert_equiv(
                        &format!("{name} rho={rho} S={s} round={round} (insert)"),
                        subject.as_ref(),
                        reference.as_ref(),
                    );
                }
                if reference.supports_deletion() && round % 2 == 1 {
                    // Delete a deterministic third of everything alive.
                    let doomed: Vec<_> = reference
                        .alive_ids()
                        .into_iter()
                        .filter(|id| id % 3 == 0)
                        .collect();
                    reference.delete_batch(&doomed);
                    for (s, subject) in &mut subjects {
                        subject.delete_batch(&doomed);
                        assert_equiv(
                            &format!("{name} rho={rho} S={s} round={round} (delete)"),
                            subject.as_ref(),
                            reference.as_ref(),
                        );
                    }
                }
            }
        }
    }
}

/// A chain along axis 0 with sub-`eps` spacing crosses every slab
/// boundary: the stitched composed snapshot must report one cluster,
/// and the partition must match the raw engine after every chunk.
#[test]
fn boundary_straddling_chain_matches_and_stitches() {
    for &(algo, name) in &[
        (Algorithm::SemiDynamic, "semi"),
        (Algorithm::FullyDynamic, "full"),
    ] {
        for &rho in &RHOS {
            let mut reference = build(algo, rho, None);
            let mut subjects: Vec<(usize, Box<dyn DynamicClusterer<2>>)> = SHARD_COUNTS
                .iter()
                .map(|&s| (s, build_sharded(algo, rho, s)))
                .collect();
            // 160 links at 0.4 spacing = 64 units of chain: several
            // slab widths at every shard count and both ρ levels.
            let chain: Vec<[f64; 2]> = (0..160)
                .map(|i| [i as f64 * 0.4, (i % 3) as f64 * 0.05])
                .collect();
            let mut all_ids = Vec::new();
            for (c, chunk) in chain.chunks(32).enumerate() {
                let ids = reference.insert_batch(chunk);
                all_ids.extend_from_slice(&ids);
                for (s, subject) in &mut subjects {
                    assert_eq!(
                        subject.insert_batch(chunk),
                        ids,
                        "{name} rho={rho} S={s}: chain ids diverge"
                    );
                    assert_equiv(
                        &format!("{name} rho={rho} S={s} chunk={c} (chain)"),
                        subject.as_ref(),
                        reference.as_ref(),
                    );
                }
            }
            for (s, subject) in &subjects {
                let groups = subject.group_by(&all_ids);
                assert_eq!(
                    groups.num_groups(),
                    1,
                    "{name} rho={rho} S={s}: the chain must stitch into one cluster"
                );
                assert!(groups.same_cluster(all_ids[0], *all_ids.last().unwrap()));
            }
        }
    }
}

/// Ghost-refresh churn: dense blobs at regular axis-0 intervals (many
/// of them exactly on slab boundaries) are inserted, partially deleted
/// until their ghost populations decay, then re-inserted. Exercises
/// ghost-cell create → drain → re-create across flushes.
#[test]
fn ghost_refresh_churn_matches_unsharded() {
    for &rho in &RHOS {
        let mut reference = build(Algorithm::FullyDynamic, rho, None);
        let mut subjects: Vec<(usize, Box<dyn DynamicClusterer<2>>)> = SHARD_COUNTS
            .iter()
            .map(|&s| (s, build_sharded(Algorithm::FullyDynamic, rho, s)))
            .collect();
        let blob = |x0: f64| -> Vec<[f64; 2]> {
            (0..12)
                .map(|i| [x0 + (i % 4) as f64 * 0.3, (i / 4) as f64 * 0.3])
                .collect()
        };
        let mut era_ids: Vec<Vec<dydbscan::PointId>> = Vec::new();
        for era in 0..3 {
            // Blobs every ~4 cells along axis 0 across 64 units: some
            // land on a slab boundary at every shard count.
            let mut ids = Vec::new();
            for k in 0..16 {
                let batch = blob(k as f64 * 4.0 + era as f64 * 0.1);
                let got = reference.insert_batch(&batch);
                ids.extend_from_slice(&got);
                for (s, subject) in &mut subjects {
                    assert_eq!(
                        subject.insert_batch(&batch),
                        got,
                        "rho={rho} S={s} era={era}: blob ids diverge"
                    );
                }
            }
            for (s, subject) in &subjects {
                assert_equiv(
                    &format!("rho={rho} S={s} era={era} (blobs in)"),
                    subject.as_ref(),
                    reference.as_ref(),
                );
            }
            era_ids.push(ids);
            // Delete the previous era wholesale: every ghost replica
            // created for it must drain without disturbing survivors.
            if era > 0 {
                let doomed = era_ids[era - 1].clone();
                reference.delete_batch(&doomed);
                for (s, subject) in &mut subjects {
                    subject.delete_batch(&doomed);
                    assert_equiv(
                        &format!("rho={rho} S={s} era={era} (era-{} out)", era - 1),
                        subject.as_ref(),
                        reference.as_ref(),
                    );
                }
            }
        }
    }
}

/// The one engine sharding does not apply to: the IncDBSCAN baseline
/// keeps no cell-partitionable state, and the builder must say so
/// rather than silently ignoring `.shards`.
#[test]
fn incdbscan_rejects_sharding() {
    let err = DbscanBuilder::new(EPS, MIN_PTS)
        .rho(0.0)
        .algorithm(Algorithm::IncDbscan)
        .shards(4)
        .check()
        .expect_err("IncDBSCAN + shards must be rejected");
    assert!(
        err.to_string().contains("shard"),
        "rejection must name the sharding conflict: {err}"
    );
}
