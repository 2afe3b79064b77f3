//! One stats type per call: every engine reports [`ClustererStats`]
//! through the `DynamicClusterer` trait, and the counters that used to
//! live on per-engine stats types keep their readers. perfbench's
//! `abcp.*` metrics read `instances_created`/`instances_destroyed` off a
//! concrete `FullDynDbscan`; if those fields stopped being filled they
//! would silently read 0.

use dydbscan::geom::SplitMix64;
use dydbscan::{
    ClustererStats, DynamicClusterer, FullDynDbscan, IncDbscan, Params, PointId, SemiDynDbscan,
    ShardedDbscan,
};

fn cloud(n: usize, seed: u64, extent: f64) -> Vec<[f64; 2]> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| [rng.next_f64() * extent, rng.next_f64() * extent])
        .collect()
}

/// Inserts `pts` in batches, deleting every third alive point after each.
fn churn(c: &mut dyn DynamicClusterer<2>, pts: &[[f64; 2]]) {
    let mut alive: Vec<PointId> = Vec::new();
    for chunk in pts.chunks(100) {
        alive.extend(c.insert_batch(chunk));
        let doomed: Vec<PointId> = alive.iter().copied().step_by(3).collect();
        alive.retain(|id| !doomed.contains(id));
        c.delete_batch(&doomed);
    }
}

#[test]
fn every_concrete_engine_reports_clusterer_stats() {
    // Each annotation fails to compile if an inherent `stats` returning
    // another type comes back to shadow the trait's.
    let params = Params::new(1.0, 3);
    let semi = SemiDynDbscan::<2>::new(params);
    let full = FullDynDbscan::<2>::new(params);
    let inc = IncDbscan::<2>::new(params);
    let sharded = ShardedDbscan::<2, FullDynDbscan<2>>::new_full(params, 2);
    let all: [ClustererStats; 4] = [semi.stats(), full.stats(), inc.stats(), sharded.stats()];
    for s in all {
        assert_eq!(
            s,
            ClustererStats::default(),
            "a fresh engine counts nothing"
        );
    }
}

#[test]
fn full_reports_abcp_instances_through_the_trait() {
    let mut full = FullDynDbscan::<2>::new(Params::new(1.0, 3)).with_threads(1);
    churn(&mut full, &cloud(800, 7, 12.0));
    let s: ClustererStats = full.stats();
    assert!(s.instances_created > 0, "{s:?}");
    assert!(s.instances_destroyed > 0, "{s:?}");
    let dynamic: &dyn DynamicClusterer<2> = &full;
    assert_eq!(
        dynamic.stats(),
        s,
        "one stats type, whichever way it is called"
    );
}

#[test]
fn semi_counts_emptiness_probes_and_incdbscan_bfs_expansions() {
    let mut semi = SemiDynDbscan::<2>::new(Params::new(1.0, 3));
    semi.insert_batch(&cloud(600, 11, 15.0));
    let s = semi.stats();
    assert!(s.emptiness_probes > 0, "{s:?}");
    assert!(
        s.range_queries >= s.emptiness_probes,
        "probes are range queries"
    );

    // Two blobs joined by a bridge; deleting the bridge forces a split.
    let mut inc = IncDbscan::<2>::new(Params::new(1.0, 3));
    for i in 0..6 {
        inc.insert([i as f64 * 0.3, 0.0]);
        inc.insert([4.0 + i as f64 * 0.3, 0.0]);
    }
    let bridge = [inc.insert([2.4, 0.0]), inc.insert([3.2, 0.0])];
    assert_eq!(inc.stats().bfs_expansions, 0);
    inc.delete(bridge[0]);
    inc.delete(bridge[1]);
    let s = inc.stats();
    assert!(s.splits >= 1 && s.bfs_expansions > 0, "{s:?}");
    assert!(s.points_touched >= s.range_queries, "{s:?}");
}

#[test]
fn sharded_sums_shard_counters_and_reports_parallel_flushes() {
    let params = Params::new(1.0, 3);
    // A 100 x 4 strip: dense enough to form clusters, and wide enough
    // along axis 0 that every batch lands in both shards' slabs.
    let pts: Vec<[f64; 2]> = cloud(800, 23, 100.0)
        .into_iter()
        .map(|[x, y]| [x, y * 0.04])
        .collect();
    for threads in [1usize, 2] {
        let mut c = ShardedDbscan::<2, FullDynDbscan<2>>::new_full(params, 2).with_threads(threads);
        churn(&mut c, &pts);
        let s = c.stats();
        assert!(s.instances_created > 0, "threads {threads}: {s:?}");
        if threads == 1 {
            assert_eq!(s.shard_parallel_flushes, 0, "{s:?}");
        } else {
            assert!(s.shard_parallel_flushes > 0, "{s:?}");
        }
    }
}
