//! Lifecycle of the persistent flush crew: lazily spawned by the first
//! flush phase that goes parallel, parked between flushes and reused,
//! rebuilt when the thread budget changes, joined cleanly on drop — and
//! semantically invisible throughout: interleaved batched updates
//! through the shared `FlushPipeline` must match the looped sequential
//! path on all three engines.

use dydbscan::geom::{Point, SplitMix64};
use dydbscan::{
    seed_spreader, Algorithm, DbscanBuilder, DynamicClusterer, FullDynDbscan, IncDbscan, Params,
    PointId, SemiDynDbscan,
};

const EPS: f64 = 200.0; // PaperGrid::default_eps(2)
const MIN_PTS: usize = 10;

fn params() -> Params {
    Params::new(EPS, MIN_PTS)
}

#[test]
fn pool_spawn_is_lazy_and_reused_between_flushes() {
    let pts = seed_spreader::<2>(20_000, 11);
    let mut c = FullDynDbscan::<2>::new(params()).with_threads(4);
    assert!(!c.pool_spawned(), "nothing spawned at construction");
    c.insert(pts[0]);
    assert!(!c.pool_spawned(), "per-op updates never touch the pool");
    c.insert_batch(&pts[1..10_001]);
    assert!(c.pool_spawned(), "a big flush spawns the crew");
    let after_first = c.stats().pool_reuse_count;
    c.insert_batch(&pts[10_001..]);
    assert!(
        c.stats().pool_reuse_count > after_first,
        "the second flush must reuse the parked crew, not respawn it"
    );
    assert!(c.stats().phase1_parallel_tasks > 0, "placement pools");
    assert!(c.stats().parallel_cell_tasks > 0, "cell scans pool");
}

#[test]
fn sequential_budget_never_spawns() {
    let pts = seed_spreader::<2>(8_000, 3);
    let mut semi = SemiDynDbscan::<2>::new(params()).with_threads(1);
    semi.insert_batch(&pts);
    assert!(!semi.pool_spawned(), "threads(1) is the inline path");
    let s = semi.stats();
    assert_eq!(s.parallel_workers, 0);
    assert_eq!(s.pool_reuse_count, 0);
    assert_eq!(s.phase1_parallel_tasks, 0);
    assert_eq!(s.gum_parallel_rounds, 0);
}

#[test]
fn threads_change_rebuilds_the_crew() {
    let pts = seed_spreader::<2>(24_000, 7);
    let mut c = SemiDynDbscan::<2>::new(params()).with_threads(2);
    c.insert_batch(&pts[..8_000]);
    assert!(c.pool_spawned());
    c = c.with_threads(4);
    assert_eq!(c.threads(), 4);
    assert!(
        !c.pool_spawned(),
        "a budget change tears the old crew down immediately"
    );
    c.insert_batch(&pts[8_000..16_000]);
    assert!(c.pool_spawned(), "the next flush respawns at the new size");
    c = c.with_threads(4); // same budget: the parked crew survives
    assert!(c.pool_spawned());
    c.insert_batch(&pts[16_000..]);
    assert!(c.stats().parallel_workers > 0);
}

#[test]
fn drop_joins_the_parked_crew() {
    // Dropping a clusterer whose crew is parked must terminate promptly
    // (the test hangs otherwise); dropping one that never spawned is a
    // no-op.
    let pts = seed_spreader::<2>(10_000, 5);
    let mut c = FullDynDbscan::<2>::new(params()).with_threads(4);
    let ids = c.insert_batch(&pts);
    c.delete_batch(&ids[..5_000]);
    assert!(c.pool_spawned());
    drop(c);
    let c2 = FullDynDbscan::<2>::new(params()).with_threads(4);
    drop(c2);
}

#[test]
fn incdbscan_pools_its_batched_range_queries() {
    let pts = seed_spreader::<2>(4_000, 9);
    let mut c = IncDbscan::<2>::new(Params::new(EPS, MIN_PTS)).with_threads(4);
    let ids = c.insert_batch(&pts);
    let s = c.stats();
    assert!(s.parallel_workers > 0, "insert flush pools its queries");
    c.delete_batch(&ids[..2_000]);
    assert!(c.stats().parallel_workers > s.parallel_workers);
    let mut seq = IncDbscan::<2>::new(Params::new(EPS, MIN_PTS)).with_threads(1);
    seq.insert_batch(&pts);
    assert_eq!(seq.stats().parallel_workers, 0);
}

/// Deterministic property test: interleaved `insert_batch` /
/// `delete_batch` flushes through the shared `FlushPipeline` must
/// produce the same clustering and core flags as the looped per-op
/// path, for every engine, after every round (`rho = 0`: exactness
/// forces equality, don't-cares included).
fn batched_matches_looped(algo: Algorithm, seed: u64) {
    let pool = seed_spreader::<2>(1_500, seed);
    let build = || {
        DbscanBuilder::new(EPS, MIN_PTS)
            .algorithm(algo)
            .threads(3)
            .build::<2>()
            .unwrap()
    };
    let mut batched = build();
    let mut looped = build();
    let deletions = batched.supports_deletion();
    let mut rng = SplitMix64::new(seed ^ 0xBEEF);
    let mut next = 0usize;
    let mut alive: Vec<PointId> = Vec::new();
    for round in 0..24 {
        let label = format!("{algo:?} seed={seed} round={round}");
        if deletions && alive.len() > 100 && rng.next_below(10) < 4 {
            let take = (1 + rng.next_below(140) as usize).min(alive.len());
            let mut chunk = Vec::with_capacity(take);
            for _ in 0..take {
                let i = rng.next_below(alive.len() as u64) as usize;
                chunk.push(alive.swap_remove(i));
            }
            batched.delete_batch(&chunk);
            for &id in &chunk {
                looped.delete(id);
            }
        } else {
            let take = (1 + rng.next_below(180) as usize).min(pool.len() - next);
            if take == 0 {
                break;
            }
            let chunk: &[Point<2>] = &pool[next..next + take];
            next += take;
            let a = batched.insert_batch(chunk);
            let b: Vec<PointId> = chunk.iter().map(|p| looped.insert(*p)).collect();
            assert_eq!(a, b, "{label}: id sequences must align");
            alive.extend(a);
        }
        assert_eq!(batched.group_all(), looped.group_all(), "{label}");
        for &id in &alive {
            assert_eq!(
                batched.is_core(id),
                looped.is_core(id),
                "{label}: core of {id}"
            );
        }
    }
    assert!(next > 0, "workload must have run");
}

#[test]
fn flush_pipeline_matches_looped_on_all_engines() {
    for algo in [
        Algorithm::SemiDynamic,
        Algorithm::FullyDynamic,
        Algorithm::IncDbscan,
    ] {
        for seed in [41u64, 42] {
            batched_matches_looped(algo, seed);
        }
    }
}
