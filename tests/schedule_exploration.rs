//! Tier-1 schedule-exploration suite (ISSUE 6): drives the
//! deterministic mini-shuttle in `dydbscan_core::sched` against the two
//! concurrency protocols the system's performance story rests on — the
//! `WorkerPool` claim/park/panic protocol and the `SnapshotState`
//! dirt-collect → refresh → `Arc`-publish protocol.
//!
//! Every replay *internally* asserts the protocol invariants (each task
//! index claimed exactly once, no result leaked on a task panic, check-in
//! never exceeds the cap, epochs strictly increasing, published
//! snapshots never written through); the tests here choose which
//! schedules to explore:
//!
//! * a 64-random-seed property sweep per protocol (seeds derived from a
//!   pinned master seed, so "random" is still reproducible),
//! * one pinned-seed regression test per invariant — a failure
//!   reproduces deterministically from the seed in the test name,
//! * an acceptance test exploring ≥ 1000 interleavings per protocol and
//!   checking they are genuinely distinct schedules (hash diversity)
//!   and deterministic (same seed ⇒ identical run).

use dydbscan_core::sched::{
    replay_handle_protocol, replay_pool_protocol, replay_shard_stitch_protocol,
    replay_snapshot_protocol, run_schedule, Actor, HandleScenario, PoolScenario,
    ShardStitchScenario, SnapScenario, Yielder,
};
use dydbscan_geom::SplitMix64;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};

/// Master seed of the "random" sweeps — change deliberately, never
/// per-run (a failing derived seed must stay reproducible).
const MASTER_SEED: u64 = 0x15_5EED_2017_0006;

#[test]
fn property_pool_lifecycle_64_random_seeds() {
    let mut rng = SplitMix64::new(MASTER_SEED);
    for round in 0..64 {
        let seed = rng.next_u64();
        let workers = 1 + (rng.next_below(3) as usize); // 1..=3
        let tasks = 4 + (rng.next_below(13) as usize); // 4..=16
        let panic_task = match rng.next_below(4) {
            0 => Some(rng.next_below(tasks as u64) as usize),
            _ => None,
        };
        let sc = PoolScenario {
            seed,
            workers,
            tasks,
            panic_task,
        };
        let report = replay_pool_protocol(&sc);
        assert_eq!(
            report.panicked,
            panic_task.is_some(),
            "round {round}, seed {seed}: panic propagation mismatch"
        );
        if panic_task.is_none() {
            assert_eq!(
                report.executed, tasks,
                "round {round}, seed {seed}: every task must execute"
            );
        }
    }
}

#[test]
fn property_snapshot_refresh_under_readers_64_random_seeds() {
    let mut rng = SplitMix64::new(MASTER_SEED ^ 0xA5A5_A5A5);
    for round in 0..64 {
        let seed = rng.next_u64();
        let sc = SnapScenario {
            seed,
            readers: 1 + (rng.next_below(3) as usize), // 1..=3
            rounds: 3 + (rng.next_below(6) as usize),  // 3..=8
            keys: 4 + (rng.next_below(8) as u32),      // 4..=11
        };
        let report = replay_snapshot_protocol(&sc);
        assert!(
            report.final_epoch >= 1,
            "round {round}, seed {seed}: the writer must refresh at least once"
        );
        assert_eq!(
            report.refreshes, report.final_epoch,
            "round {round}, seed {seed}: refresh count must equal the final epoch"
        );
    }
}

/// ISSUE 9 satellite (e): `EpochHandle` readers under a flushing writer.
/// The replay internally asserts per-reader epoch monotonicity, that a
/// loaded snapshot's checksum agrees with every other observation of
/// the same epoch (a torn load could not agree), and that `changed_since`
/// answers span-consistent feeds — here we sweep 64 derived seeds.
#[test]
fn property_epoch_handle_readers_64_random_seeds() {
    let mut rng = SplitMix64::new(MASTER_SEED ^ 0x4A17_D1E5);
    for round in 0..64 {
        let seed = rng.next_u64();
        let sc = HandleScenario {
            seed,
            readers: 1 + (rng.next_below(3) as usize), // 1..=3
            rounds: 3 + (rng.next_below(6) as usize),  // 3..=8
            keys: 4 + (rng.next_below(8) as u32),      // 4..=11
        };
        let report = replay_handle_protocol(&sc);
        assert!(
            report.final_epoch >= 1,
            "round {round}, seed {seed}: the writer must publish at least once"
        );
        assert!(
            report.loads >= 1,
            "round {round}, seed {seed}: readers must load through the handle"
        );
    }
}

/// ISSUE 10 satellite: the sharded-ingest stitch protocol (concurrent
/// per-shard edge-tap production, flush barrier, ascending-shard
/// refcounted application into the global CC structure) swept over 64
/// derived schedule seeds. Each replay internally asserts refcounts
/// never exceed a pair's observer multiplicity and that the stitched
/// components equal a serial reference after every round; here we
/// additionally assert the label-trace fingerprint is *identical*
/// across every schedule of the same workload — the wrapper's
/// bit-identical-at-every-thread-count claim, at the protocol level.
#[test]
fn property_shard_stitch_64_random_seeds() {
    let mut rng = SplitMix64::new(MASTER_SEED ^ 0x5742_D010);
    for workload in 0..8 {
        let script_seed = rng.next_u64();
        let shards = 2 + (rng.next_below(3) as usize); // 2..=4
        let rounds = 2 + (rng.next_below(3) as usize); // 2..=4
        let events_per_round = 6 + (rng.next_below(11) as usize); // 6..=16
        let verts = 6 + (rng.next_below(7) as u32); // 6..=12
        let mut traces = BTreeSet::new();
        let mut schedules = BTreeSet::new();
        for _ in 0..8 {
            let sc = ShardStitchScenario {
                seed: rng.next_u64(),
                script_seed,
                shards,
                rounds,
                events_per_round,
                verts,
            };
            let report = replay_shard_stitch_protocol(&sc);
            traces.insert(report.label_trace);
            schedules.insert(report.schedule_hash);
            assert!(
                report.stitch_ops >= 1,
                "workload {workload}: the script must drive the stitch"
            );
        }
        assert_eq!(
            traces.len(),
            1,
            "workload {workload}: stitched components depend on the schedule"
        );
        assert!(
            schedules.len() > 1,
            "workload {workload}: the sweep explored only one schedule"
        );
    }
}

// ---------------------------------------------------------------------
// Pinned-seed regressions: one per invariant, so a violation found by
// any sweep can be frozen here and reproduces forever.
// ---------------------------------------------------------------------

/// Invariant: every task index is claimed exactly once, whatever the
/// interleaving (the atomic-cursor hand-out protocol).
#[test]
fn pinned_seed_pool_claims_each_task_exactly_once() {
    let report = replay_pool_protocol(&PoolScenario {
        seed: 0xC1A1_0001,
        workers: 3,
        tasks: 16,
        panic_task: None,
    });
    assert_eq!(report.claims, vec![1; 16]);
    assert_eq!(report.executed, 16);
    assert!(!report.panicked);
}

/// Invariant: the crew check-in never exceeds the job's worker cap
/// (late wakers must not join a drained job).
#[test]
fn pinned_seed_pool_checkin_respects_cap() {
    let report = replay_pool_protocol(&PoolScenario {
        seed: 0xC1A1_0002,
        workers: 2,
        tasks: 12,
        panic_task: None,
    });
    assert!(report.checked_in_peak <= 2);
}

/// Invariant: a task panic propagates to the coordinator AND results
/// already written into claimed slots are dropped, not leaked (the
/// ISSUE 6 satellite bug — drop-balance is asserted inside the replay).
#[test]
fn pinned_seed_pool_panic_propagates_without_leaking_slots() {
    let report = replay_pool_protocol(&PoolScenario {
        seed: 0xC1A1_0003,
        workers: 3,
        tasks: 12,
        panic_task: Some(7),
    });
    assert!(report.panicked, "the injected panic must reach the caller");
    assert!(
        report.executed < 12,
        "poisoning must stop handing out work after the panic"
    );
}

/// Invariant: snapshot epochs increase strictly under refresh and stay
/// put under clean reads (asserted by the writer and readers in the
/// replay; the report cross-checks refreshes == final epoch).
#[test]
fn pinned_seed_snapshot_epochs_strictly_increase() {
    let report = replay_snapshot_protocol(&SnapScenario {
        seed: 0x5A4A_0001,
        readers: 2,
        rounds: 8,
        keys: 8,
    });
    assert_eq!(report.final_epoch, report.refreshes);
    assert!(report.final_epoch >= 8, "every writer round must refresh");
}

/// Invariant: a published `Arc<ClusterSnapshot>` is never written
/// through — every reader re-verifies the checksum of every snapshot it
/// ever held after later refreshes (asserted inside the replay).
#[test]
fn pinned_seed_snapshot_published_arcs_are_frozen() {
    let report = replay_snapshot_protocol(&SnapScenario {
        seed: 0x5A4A_0002,
        readers: 3,
        rounds: 6,
        keys: 6,
    });
    assert!(report.acquisitions >= report.refreshes);
}

/// Invariant: a handle reader never observes a decreasing epoch and
/// never observes a torn snapshot (its checksum must agree with the
/// shared epoch→checksum record), even while the writer is mid-flush.
/// Asserted inside the replay; this pins one witness schedule.
#[test]
fn pinned_seed_handle_readers_never_see_torn_or_decreasing_epochs() {
    let report = replay_handle_protocol(&HandleScenario {
        seed: 0x4A17_0001,
        readers: 3,
        rounds: 8,
        keys: 8,
    });
    assert!(report.final_epoch >= 8, "every writer round must publish");
    assert!(report.loads > 0);
}

/// Invariant: a cross-slab edge observed by both endpoint owners is
/// forwarded to the CC structure exactly once (per-pair refcount 0→1),
/// and a delete only reaches it when the last observer retracts —
/// whatever order the two shards' taps drain in. Asserted inside the
/// replay; this pins one witness schedule.
#[test]
fn pinned_seed_stitch_refcounts_cross_slab_edges() {
    let report = replay_shard_stitch_protocol(&ShardStitchScenario {
        seed: 0x57C4_0001,
        script_seed: 2017,
        shards: 3,
        rounds: 4,
        events_per_round: 12,
        verts: 9,
    });
    assert!(report.stitch_ops >= 1);
    // Re-running the same scenario must reproduce the run exactly.
    let again = replay_shard_stitch_protocol(&ShardStitchScenario {
        seed: 0x57C4_0001,
        script_seed: 2017,
        shards: 3,
        rounds: 4,
        events_per_round: 12,
        verts: 9,
    });
    assert_eq!(report, again);
}

/// Invariant: `changed_since` through the handle answers either a delta
/// starting exactly at the asked-for epoch or an honest reset whose
/// window excludes it — never a gapped span (asserted in the replay).
#[test]
fn pinned_seed_handle_change_feed_spans_are_gapless() {
    let report = replay_handle_protocol(&HandleScenario {
        seed: 0x4A17_0002,
        readers: 2,
        rounds: 6,
        keys: 11,
    });
    assert!(report.final_epoch >= 6);
}

// ---------------------------------------------------------------------
// Lock-order regression (ISSUE 8): the snapshot-refresh vs. pool-mutex
// interleaving, replayed at the levels `xtask/lock_registry.toml`
// assigns, must never acquire the two locks in inverted order under any
// explored schedule.
// ---------------------------------------------------------------------

/// The checked-in registry, compiled into the test so the replayed
/// levels can never drift from what the linter enforces.
const LOCK_REGISTRY: &str = include_str!("../xtask/lock_registry.toml");

/// Extracts `field`'s level from the registry TOML (same tiny subset the
/// linter parses: `[[lock]]` blocks of `key = value` lines).
fn registry_level(field: &str) -> i64 {
    let mut matched = false;
    for line in LOCK_REGISTRY.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with("[[") {
            matched = false;
        } else if let Some((k, v)) = line.split_once('=') {
            let (k, v) = (k.trim(), v.trim().trim_matches('"'));
            if k == "field" {
                matched = v == field;
            } else if k == "level" && matched {
                return v.parse().expect("registry level parses");
            }
        }
    }
    panic!("lock_registry.toml has no entry for `{field}`");
}

/// A replayed lock at a registry level: actors try-acquire (yielding
/// between attempts, so a holder is never parked by the turnstile) and
/// assert on every acquisition that each level already held is strictly
/// greater — the registry's descent discipline, checked dynamically
/// under every explored schedule.
struct LevelLock {
    level: i64,
    name: &'static str,
    busy: AtomicBool,
}

impl LevelLock {
    fn new(name: &'static str, level: i64) -> Self {
        Self {
            level,
            name,
            busy: AtomicBool::new(false),
        }
    }

    fn acquire(&self, y: &Yielder<'_>, held: &mut Vec<(i64, &'static str)>) {
        for &(lvl, name) in held.iter() {
            assert!(
                lvl > self.level,
                "acquiring `{}` (level {}) while holding `{name}` (level {lvl}): \
                 nested acquisitions must descend strictly",
                self.name,
                self.level
            );
        }
        // ORDERING: Relaxed — the turnstile serializes actor execution;
        // the atomic only models occupancy, it synchronizes nothing.
        while self.busy.swap(true, Ordering::Relaxed) {
            y.point(); // never spin while scheduled: hand the CPU over
        }
        held.push((self.level, self.name));
        y.point();
    }

    fn release(&self, held: &mut Vec<(i64, &'static str)>) {
        let top = held.pop().expect("release without acquire");
        assert_eq!(top.1, self.name, "locks must release in LIFO order");
        // ORDERING: Relaxed — same as acquire: occupancy model only.
        self.busy.store(false, Ordering::Relaxed);
    }
}

#[test]
fn registry_levels_keep_snapshot_refresh_above_pool_fanout() {
    let inner_level = registry_level("SnapshotState.inner");
    let pool_level = registry_level("FlushPipeline.pool");
    assert!(
        inner_level > pool_level,
        "the registry must order the snapshot drain (inner, {inner_level}) \
         above the pool fan-out (pool, {pool_level})"
    );

    let mut rng = SplitMix64::new(MASTER_SEED ^ 0x10C8);
    for round in 0..64 {
        let seed = rng.next_u64();
        let inner = LevelLock::new("SnapshotState.inner", inner_level);
        let pool = LevelLock::new("FlushPipeline.pool", pool_level);
        // The narrowed pooled read_with protocol: drain under `inner`
        // alone, fan out under `pool` alone, publish under `inner`
        // alone — plus two concurrent group_all readers on the pool.
        let mut actors: Vec<Actor<'_>> = vec![Box::new(|y| {
            let mut held = Vec::new();
            for _ in 0..3 {
                inner.acquire(y, &mut held); // drain the dirt
                inner.release(&mut held);
                pool.acquire(y, &mut held); // fan out, inner released
                pool.release(&mut held);
                inner.acquire(y, &mut held); // publish the new epoch
                inner.release(&mut held);
            }
        })];
        for _ in 0..2 {
            actors.push(Box::new(|y| {
                let mut held = Vec::new();
                for _ in 0..3 {
                    pool.acquire(y, &mut held);
                    pool.release(&mut held);
                }
            }));
        }
        let outcome = run_schedule(seed, actors);
        assert!(
            outcome.panics.is_empty(),
            "round {round}, seed {seed}: lock-order violation under an \
             explored schedule: {:?}",
            outcome.panics
        );
    }
}

/// Negative control: an actor that *does* invert the order (acquiring
/// the snapshot lock while holding the pool lock) must be caught by the
/// level assertion under every schedule — proving the regression test
/// can actually fail.
#[test]
fn inverted_acquisition_is_caught_by_the_level_model() {
    let inner = LevelLock::new("SnapshotState.inner", registry_level("SnapshotState.inner"));
    let pool = LevelLock::new("FlushPipeline.pool", registry_level("FlushPipeline.pool"));
    let inverted: Actor<'_> = Box::new(|y| {
        let mut held = Vec::new();
        pool.acquire(y, &mut held);
        inner.acquire(y, &mut held); // climbs 15 -> 25: must panic
        inner.release(&mut held);
        pool.release(&mut held);
    });
    let outcome = run_schedule(MASTER_SEED, vec![inverted]);
    assert!(
        !outcome.panics.is_empty(),
        "the level model failed to catch an inverted acquisition"
    );
}

// ---------------------------------------------------------------------
// Acceptance: ≥ 1000 interleavings per protocol, deterministic and
// genuinely distinct.
// ---------------------------------------------------------------------

#[test]
fn pool_protocol_explores_1000_distinct_interleavings() {
    let mut rng = SplitMix64::new(MASTER_SEED ^ 0x1000);
    let mut hashes = BTreeSet::new();
    for _ in 0..1000 {
        let seed = rng.next_u64();
        let report = replay_pool_protocol(&PoolScenario {
            seed,
            workers: 2,
            tasks: 8,
            panic_task: None,
        });
        hashes.insert(report.schedule_hash);
    }
    assert!(
        hashes.len() >= 950,
        "1000 seeds explored only {} distinct pool schedules",
        hashes.len()
    );
    // Determinism: replaying the first seed reproduces its run exactly.
    let mut rng = SplitMix64::new(MASTER_SEED ^ 0x1000);
    let seed = rng.next_u64();
    let sc = PoolScenario {
        seed,
        workers: 2,
        tasks: 8,
        panic_task: None,
    };
    assert_eq!(replay_pool_protocol(&sc), replay_pool_protocol(&sc));
}

#[test]
fn snapshot_protocol_explores_1000_distinct_interleavings() {
    let mut rng = SplitMix64::new(MASTER_SEED ^ 0x2000);
    let mut hashes = BTreeSet::new();
    for _ in 0..1000 {
        let seed = rng.next_u64();
        let report = replay_snapshot_protocol(&SnapScenario {
            seed,
            readers: 2,
            rounds: 4,
            keys: 6,
        });
        hashes.insert(report.schedule_hash);
    }
    assert!(
        hashes.len() >= 950,
        "1000 seeds explored only {} distinct snapshot schedules",
        hashes.len()
    );
    let mut rng = SplitMix64::new(MASTER_SEED ^ 0x2000);
    let seed = rng.next_u64();
    let sc = SnapScenario {
        seed,
        readers: 2,
        rounds: 4,
        keys: 6,
    };
    assert_eq!(replay_snapshot_protocol(&sc), replay_snapshot_protocol(&sc));
}

#[test]
fn handle_protocol_explores_1000_distinct_interleavings() {
    let mut rng = SplitMix64::new(MASTER_SEED ^ 0x3000);
    let mut hashes = BTreeSet::new();
    for _ in 0..1000 {
        let seed = rng.next_u64();
        let report = replay_handle_protocol(&HandleScenario {
            seed,
            readers: 2,
            rounds: 4,
            keys: 6,
        });
        hashes.insert(report.schedule_hash);
    }
    assert!(
        hashes.len() >= 950,
        "1000 seeds explored only {} distinct handle schedules",
        hashes.len()
    );
    let mut rng = SplitMix64::new(MASTER_SEED ^ 0x3000);
    let seed = rng.next_u64();
    let sc = HandleScenario {
        seed,
        readers: 2,
        rounds: 4,
        keys: 6,
    };
    assert_eq!(replay_handle_protocol(&sc), replay_handle_protocol(&sc));
}
