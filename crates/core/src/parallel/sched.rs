//! Deterministic **schedule-exploration harness** for the concurrency
//! protocols of this crate — a miniature "shuttle".
//!
//! The worker pool (the private parent module) and the epoch read path
//! ([`crate::snapshot`]) promise bit-identical clusterings at every
//! thread count. Running the test suites at threads {1,2,4,8} samples a
//! handful of schedules the OS happens to pick; this module instead
//! *controls* the schedule: real threads run the real protocol steps,
//! but a seeded-PRNG **turnstile** lets exactly one thread run between
//! yield points and picks the next runnable thread deterministically
//! from the seed. Every seed is one reproducible interleaving; a few
//! thousand seeds are a few thousand *adversarial* interleavings, and a
//! failing seed replays forever.
//!
//! Two protocol replays are provided, each asserting its invariants on
//! every run:
//!
//! * [`replay_pool_protocol`] — the `WorkerPool` claim/park/panic
//!   protocol, driven through the *same* step functions the production
//!   pool uses (`try_pickup`, `checkout`, `claim`, `poison` from the
//!   parent module, and the real result-slot
//!   store). Invariants: every task index is claimed exactly once, the
//!   crew check-in never exceeds the job's cap, `active` drains to
//!   zero, an injected task panic is propagated, and **no result
//!   produced before a panic is leaked** (drop-balance counting).
//! * [`replay_snapshot_protocol`] — the `SnapshotState`
//!   dirt-collect → refresh → `Arc`-publish protocol, driven through the
//!   real [`crate::snapshot::SnapshotState`]. Invariants: epochs are
//!   strictly increasing under refresh and stable under clean reads,
//!   snapshots of the same epoch are bit-identical (checksummed), and a
//!   published snapshot is **never written through** — every held `Arc`
//!   re-verifies its checksum after later refreshes.
//!
//! This module is test support: it ships in the library (integration
//! suites and downstream crates drive it), costs nothing unless called,
//! and has no unsafe of its own beyond the result-slot store it borrows
//! from the pool. The rules for writing actors: **never yield while
//! holding a lock** (the turnstile would deadlock — the lock holder
//! parks while the next thread blocks on the lock), and make every
//! scheduling-visible step a single locked region between yields.
//!
//! Run it locally via the tier-1 suites
//! (`cargo test --release --test schedule_exploration`) or under Miri
//! (`cargo +nightly miri test -p dydbscan-core sched`).

use super::{checkout, claim, poison, try_pickup, Job, Pickup, Slots, State};
use crate::snapshot::{Anchors, ChangeFeed, ClusterSnapshot, EpochHandle, SnapshotState};
use dydbscan_conn::{DynConnectivity, HdtConnectivity};
use dydbscan_geom::{FxHashMap, SplitMix64};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Sentinel for "no thread is scheduled" (before kickoff / after the
/// last actor finishes).
const NOBODY: usize = usize::MAX;

/// Hard cap on scheduling decisions per run: a protocol that cannot
/// finish within this budget has livelocked, which the harness surfaces
/// as a panic naming the seed instead of hanging the test.
const MAX_STEPS: u64 = 1_000_000;

/// Mixes one value into a running schedule fingerprint (SplitMix64
/// finalizer over the XOR-folded state).
fn mix(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct TurnState {
    /// Actor currently allowed to run (`NOBODY` before kickoff / at end).
    current: usize,
    alive: Vec<bool>,
    rng: SplitMix64,
    /// Fingerprint of every scheduling decision taken so far.
    hash: u64,
    steps: u64,
    /// Panics that escaped an actor body: `(actor id, message)`.
    panics: Vec<(usize, String)>,
}

/// The turnstile: one mutex + condvar gate all actors; between two yield
/// points exactly one actor makes progress, so the run is a pure
/// function of the seed (and the actors' own determinism).
struct Turnstile {
    // LOCK: 60 — the outermost lock: the harness scheduler may hold it
    // while an actor is parked, but actors themselves only touch it at
    // yield points with every replayed lock released.
    st: Mutex<TurnState>,
    // LOCK: 60 — gates `st`; a wait releases it while parked.
    gate: Condvar,
}

impl Turnstile {
    fn new(seed: u64, actors: usize) -> Self {
        Self {
            st: Mutex::new(TurnState {
                current: NOBODY,
                alive: vec![true; actors],
                rng: SplitMix64::new(seed ^ 0x5EED_5C4E_D01E_D0C5),
                hash: mix(0, seed),
                steps: 0,
                panics: Vec::new(),
            }),
            gate: Condvar::new(),
        }
    }

    /// Picks the next runnable actor (or `NOBODY`), recording the
    /// decision in the schedule fingerprint. Caller holds the lock.
    fn pick_next(&self, st: &mut TurnState) {
        st.steps += 1;
        assert!(
            st.steps < MAX_STEPS,
            "schedule exploration stalled after {} steps — protocol livelock?",
            st.steps
        );
        let runnable: Vec<usize> = (0..st.alive.len()).filter(|&i| st.alive[i]).collect();
        if runnable.is_empty() {
            st.current = NOBODY;
        } else {
            let k = st.rng.next_below(runnable.len() as u64) as usize;
            st.current = runnable[k];
            st.hash = mix(st.hash, st.current as u64);
        }
    }

    /// Blocks until this actor is scheduled for the first time.
    fn wait_first(&self, id: usize) {
        let mut st = self.st.lock().unwrap();
        while st.current != id {
            st = self.gate.wait(st).unwrap();
        }
    }

    fn yield_from(&self, id: usize) {
        let mut st = self.st.lock().unwrap();
        debug_assert_eq!(st.current, id, "only the scheduled actor may yield");
        self.pick_next(&mut st);
        if st.current != id {
            self.gate.notify_all();
            while st.current != id {
                st = self.gate.wait(st).unwrap();
            }
        }
    }

    fn finish(&self, id: usize, panic_msg: Option<String>) {
        let mut st = self.st.lock().unwrap();
        st.alive[id] = false;
        if let Some(msg) = panic_msg {
            st.panics.push((id, msg));
        }
        self.pick_next(&mut st);
        self.gate.notify_all();
    }
}

/// The handle an actor yields through. Calling [`point`](Self::point)
/// marks a scheduling boundary: the turnstile may hand the CPU to any
/// other runnable actor there.
pub struct Yielder<'a> {
    ts: &'a Turnstile,
    id: usize,
}

impl Yielder<'_> {
    /// A yield point: hands control to the scheduler, which resumes this
    /// actor (possibly immediately) according to the seeded PRNG.
    pub fn point(&self) {
        self.ts.yield_from(self.id);
    }
}

/// One actor of a schedule: a closure run on its own thread, gated by
/// the turnstile, yielding at every protocol step.
pub type Actor<'env> = Box<dyn FnOnce(&Yielder<'_>) + Send + 'env>;

/// The outcome of one explored interleaving.
#[derive(Debug)]
pub struct ScheduleOutcome {
    /// Fingerprint of the scheduling decisions — two runs with the same
    /// seed and actors produce the same hash (determinism), different
    /// seeds overwhelmingly produce different hashes (coverage).
    pub schedule_hash: u64,
    /// Scheduling decisions taken.
    pub steps: u64,
    /// Panics that escaped actor bodies: `(actor id, message)`.
    pub panics: Vec<(usize, String)>,
}

impl ScheduleOutcome {
    /// Fails the run loudly if any actor panicked (invariant assertions
    /// inside actors surface here).
    pub fn assert_clean(&self, seed: u64) {
        assert!(
            self.panics.is_empty(),
            "seed {seed}: actor panics under explored schedule: {:?}",
            self.panics
        );
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs `actors` under one seeded interleaving and returns its outcome.
///
/// Exactly one actor runs between two yield points; the next runnable
/// actor is picked by a PRNG seeded with `seed`, so the interleaving is
/// a deterministic function of the seed. Actors may borrow from the
/// caller's stack (the run joins every thread before returning).
pub fn run_schedule<'env>(seed: u64, actors: Vec<Actor<'env>>) -> ScheduleOutcome {
    let ts = Turnstile::new(seed, actors.len());
    std::thread::scope(|s| {
        for (id, actor) in actors.into_iter().enumerate() {
            let ts = &ts;
            s.spawn(move || {
                let y = Yielder { ts, id };
                ts.wait_first(id);
                let result = catch_unwind(AssertUnwindSafe(|| actor(&y)));
                ts.finish(id, result.err().map(panic_message));
            });
        }
        let mut st = ts.st.lock().unwrap();
        assert_eq!(st.current, NOBODY, "kickoff races an actor");
        ts.pick_next(&mut st);
        drop(st);
        ts.gate.notify_all();
    });
    let st = ts.st.into_inner().unwrap();
    ScheduleOutcome {
        schedule_hash: st.hash,
        steps: st.steps,
        panics: st.panics,
    }
}

// ---------------------------------------------------------------------
// Pool protocol replay
// ---------------------------------------------------------------------

/// One pool-protocol exploration: `workers` pool workers plus the
/// coordinator replay publish → pickup → claim → execute → checkout →
/// retract → shutdown over `tasks` tasks, optionally with one task
/// injected to panic.
#[derive(Debug, Clone, Copy)]
pub struct PoolScenario {
    /// Schedule seed (one seed = one interleaving).
    pub seed: u64,
    /// Pool workers (the coordinator joins on top, as in the real pool).
    pub workers: usize,
    /// Task indices `0..tasks` to claim and execute.
    pub tasks: usize,
    /// If `Some(i)`, task `i` panics — exercising poison + propagation +
    /// the drop-on-panic path of the result slots.
    pub panic_task: Option<usize>,
}

/// What one pool replay observed (all invariants already asserted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolReport {
    /// Schedule fingerprint (determinism / coverage accounting).
    pub schedule_hash: u64,
    /// Scheduling decisions taken.
    pub steps: u64,
    /// Per-task claim counts — each exactly 1 (a task is never claimed
    /// twice; without a panic every task is claimed).
    pub claims: Vec<u32>,
    /// Task bodies that ran to a stored result.
    pub executed: usize,
    /// Whether the injected panic was observed and propagated.
    pub panicked: bool,
    /// Highest simultaneous check-in observed (≤ the job's worker cap).
    pub checked_in_peak: usize,
}

/// A result value that participates in drop-balance accounting: the
/// replay asserts every constructed result is dropped exactly once —
/// the regression surface of the panic-path slot leak.
struct Tracked {
    live: Arc<AtomicIsize>,
}

impl Tracked {
    fn new(live: &Arc<AtomicIsize>) -> Self {
        // ORDERING: Relaxed — the balance is only read after the
        // schedule joined every actor thread (happens-before via join).
        live.fetch_add(1, Ordering::Relaxed);
        Self {
            live: Arc::clone(live),
        }
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        // ORDERING: Relaxed — see `Tracked::new`.
        self.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Replays the worker-pool claim/park/panic protocol under the
/// interleaving picked by `sc.seed`, asserting its invariants (see the
/// module docs). Panics (failing the calling test) on any violation.
pub fn replay_pool_protocol(sc: &PoolScenario) -> PoolReport {
    assert!(sc.workers >= 1, "the protocol needs at least one worker");
    let state = Mutex::new(State::idle());
    let cursor = AtomicUsize::new(0);
    let slots = Slots::<Tracked>::new(sc.tasks);
    let live = Arc::new(AtomicIsize::new(0));
    let claims: Vec<AtomicUsize> = (0..sc.tasks).map(|_| AtomicUsize::new(0)).collect();
    let executed = AtomicUsize::new(0);
    let checked_in_peak = AtomicUsize::new(0);
    let panic_box: Mutex<Option<String>> = Mutex::new(None);

    // The real task body shape (`WorkerPool::run`'s `body`): run the
    // task under `catch_unwind`; a panic records its payload and poisons
    // the cursor, success stores the result in the claimed slot.
    let body = |i: usize| {
        let task = || {
            if Some(i) == sc.panic_task {
                panic!("sched: injected panic in task {i}");
            }
            Tracked::new(&live)
        };
        match catch_unwind(AssertUnwindSafe(task)) {
            Ok(r) => {
                // ORDERING: Relaxed — executed/claims are test counters
                // read after every actor joined.
                executed.fetch_add(1, Ordering::Relaxed);
                // Defense-in-depth: if the protocol ever double-handed
                // an index, fail the run *before* aliasing the slot.
                // ORDERING: Relaxed — the claim increment precedes this
                // body call on the same actor thread.
                assert_eq!(
                    claims[i].load(Ordering::Relaxed),
                    1,
                    "task {i} claimed more than once"
                );
                // SAFETY: `i` was claimed from the cursor exactly once
                // (just asserted via `claims`), so this thread is the
                // slot's unique writer.
                unsafe { slots.write(i, r) };
            }
            Err(payload) => {
                *panic_box.lock().unwrap() = Some(panic_message(payload));
                poison(&cursor, sc.tasks);
            }
        }
    };

    // The replay actors invoke `body` through their borrow (the
    // dispatch trampoline is exercised by the pool's own unit suite and
    // Miri); the published `Job` carries the real cursor and cap so the
    // pickup protocol under test is the production one.
    fn unused_trampoline(_ctx: *const (), _i: usize) {}
    let job = Job {
        run: unused_trampoline,
        ctx: std::ptr::null(),
        tasks: sc.tasks,
        cursor: &cursor,
        max_workers: sc.workers,
    };

    let state_ref = &state;
    let cursor_ref = &cursor;
    let claims_ref = &claims;
    let peak_ref = &checked_in_peak;
    let body_ref = &body;
    let mut actors: Vec<Actor<'_>> = Vec::new();
    // Coordinator: publish, steal until drained, barrier, retract,
    // shutdown — each lock region a single scheduling step.
    actors.push(Box::new(move |y: &Yielder<'_>| {
        state_ref.lock().unwrap().publish(job);
        y.point();
        while let Some(i) = claim(cursor_ref, sc.tasks) {
            // ORDERING: Relaxed — claim accounting, read after joins.
            claims_ref[i].fetch_add(1, Ordering::Relaxed);
            y.point();
            body_ref(i);
            y.point();
        }
        // Completion barrier: poll `active` (the condvar wait of the
        // real pool, turnstile-friendly), then retract and shut down in
        // the same locked region the real pool uses.
        loop {
            {
                let mut st = state_ref.lock().unwrap();
                if st.active() == 0 {
                    st.retract();
                    st.request_shutdown();
                    break;
                }
            }
            y.point();
        }
    }));
    for _ in 0..sc.workers {
        actors.push(Box::new(move |y: &Yielder<'_>| {
            let mut seen_epoch = 0u64;
            loop {
                y.point();
                let pickup = {
                    let mut st = state_ref.lock().unwrap();
                    let p = try_pickup(&mut st, &mut seen_epoch);
                    if matches!(p, Pickup::Work(_)) {
                        // ORDERING: Relaxed — test peak accounting.
                        peak_ref.fetch_max(st.checked_in(), Ordering::Relaxed);
                    }
                    p
                };
                match pickup {
                    Pickup::Exit => return,
                    // A parked worker retrying models a condvar wakeup
                    // (including spurious ones).
                    Pickup::Park => continue,
                    Pickup::Work(job) => {
                        loop {
                            y.point();
                            let Some(i) = claim(cursor_ref, job.tasks) else {
                                break;
                            };
                            // ORDERING: Relaxed — claim accounting.
                            claims_ref[i].fetch_add(1, Ordering::Relaxed);
                            y.point();
                            body_ref(i);
                        }
                        y.point();
                        // (The real worker notifies `done` here; the
                        // coordinator above polls instead.)
                        let _ = checkout(&mut state_ref.lock().unwrap());
                    }
                }
            }
        }));
    }

    let outcome = run_schedule(sc.seed, actors);
    outcome.assert_clean(sc.seed);

    // ---- invariants ----
    let claims: Vec<u32> = claims
        .into_iter()
        // ORDERING: (load) Relaxed — all actors joined.
        .map(|c| c.into_inner() as u32)
        .collect();
    for (i, &c) in claims.iter().enumerate() {
        assert!(c <= 1, "seed {}: task {i} claimed {c} times", sc.seed);
        if sc.panic_task.is_none() {
            assert_eq!(c, 1, "seed {}: task {i} never claimed", sc.seed);
        }
    }
    let panicked = panic_box.into_inner().unwrap().is_some();
    assert_eq!(
        panicked,
        sc.panic_task.is_some_and(|p| p < sc.tasks),
        "seed {}: injected panic must propagate to the panic slot",
        sc.seed
    );
    let st = state.into_inner().unwrap();
    assert_eq!(st.active(), 0, "seed {}: active workers leaked", sc.seed);
    let peak = checked_in_peak.into_inner();
    assert!(
        peak <= sc.workers,
        "seed {}: check-in peak {peak} exceeds the worker cap {}",
        sc.seed,
        sc.workers
    );
    let executed = executed.into_inner();
    // Drop-balance: every result produced must be dropped when the slots
    // drop — the panic path used to leak them.
    // ORDERING: Relaxed — all actors were joined by `run_schedule`, so no
    // concurrent writers remain for either read below.
    assert_eq!(
        live.load(Ordering::Relaxed),
        executed as isize,
        "seed {}: results alive before slot teardown",
        sc.seed
    );
    drop(slots);
    assert_eq!(
        // ORDERING: Relaxed — single-threaded by now, see above.
        live.load(Ordering::Relaxed),
        0,
        "seed {}: slot teardown leaked results (claimed slots not dropped)",
        sc.seed
    );

    PoolReport {
        schedule_hash: outcome.schedule_hash,
        steps: outcome.steps,
        claims,
        executed,
        panicked,
        checked_in_peak: peak,
    }
}

// ---------------------------------------------------------------------
// Snapshot protocol replay
// ---------------------------------------------------------------------

/// One snapshot-protocol exploration: a writer dirtying keys and
/// refreshing, `readers` readers acquiring snapshots concurrently and
/// re-verifying every `Arc` they ever held.
#[derive(Debug, Clone, Copy)]
pub struct SnapScenario {
    /// Schedule seed (one seed = one interleaving).
    pub seed: u64,
    /// Concurrent reader actors.
    pub readers: usize,
    /// Writer commit rounds (each: mutate + mark dirty, later refresh).
    pub rounds: usize,
    /// Key/point universe (`point id == key`, one point per key).
    pub keys: u32,
}

/// What one snapshot replay observed (all invariants already asserted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapReport {
    /// Schedule fingerprint (determinism / coverage accounting).
    pub schedule_hash: u64,
    /// Scheduling decisions taken.
    pub steps: u64,
    /// The last epoch published.
    pub final_epoch: u64,
    /// Refreshes performed (must equal `final_epoch`: every refresh
    /// advances the epoch by exactly one from zero).
    pub refreshes: u64,
    /// Snapshot acquisitions across all actors.
    pub acquisitions: u64,
}

/// The writer-owned ground truth the refresh closures read: which
/// points are alive/core right now. Mutated and marked dirty in the
/// same scheduling step, exactly like an engine update under
/// `&mut self`.
struct SnapModel {
    alive: Vec<bool>,
    core: Vec<bool>,
    /// Label epoch: exported labels are a function of commits so far,
    /// so two refreshes at different commit counts export different
    /// tables.
    commits: u32,
}

/// Everything the snapshot replay actors share. The `SnapshotState`
/// sits behind a mutex because `mark`/`mark_dead` need `&mut` (the
/// engine's update path); every lock region is a single scheduling
/// step, so the turnstile never parks a lock holder.
struct SnapWorld {
    // LOCK: 50 — acquired first by every replay actor; `model` nests
    // under it so snapshot and model advance atomically together.
    state: Mutex<SnapshotState>,
    // LOCK: 40 — nests strictly under `state`.
    model: Mutex<SnapModel>,
    /// epoch → checksum: all observers of an epoch must agree.
    // LOCK: 30 — recorded after `state`/`model` are released (leaf).
    seen: Mutex<std::collections::BTreeMap<u64, u64>>,
    acquisitions: AtomicUsize,
}

impl SnapWorld {
    /// Vends the wait-free epoch handle (with delta tracking on) for
    /// the handle-protocol replay.
    fn vend_handle(&self) -> EpochHandle {
        let mut st = self.state.lock().unwrap();
        st.set_track_deltas(true);
        st.epoch_handle()
    }

    /// Acquires the current snapshot through the real refresh protocol
    /// (dirt-driven, label export + re-anchoring from the model) and
    /// cross-checks epoch agreement. One scheduling step.
    fn acquire(&self, keys: u32) -> Arc<ClusterSnapshot> {
        let st = self.state.lock().unwrap();
        let model = self.model.lock().unwrap();
        let snap = st.read_with(
            keys as usize,
            || {
                (0..keys)
                    .map(|v| u64::from(v + model.commits * keys))
                    .collect()
            },
            |key, emit| {
                let k = key as usize;
                if model.alive[k] {
                    emit(key, model.core[k], Anchors::One(key));
                }
            },
            // Vertex `v` is point `v`'s own: nothing else anchors to it.
            |relabeled, emit| relabeled.iter().for_each(|&v| emit(v)),
            None,
        );
        drop(model);
        drop(st);
        // ORDERING: Relaxed — totals read after every actor joined.
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        let sum = snap.checksum();
        let mut seen = self.seen.lock().unwrap();
        if let Some(&prior) = seen.get(&snap.epoch()) {
            assert_eq!(
                prior,
                sum,
                "epoch {} observed with two different contents",
                snap.epoch()
            );
        } else {
            seen.insert(snap.epoch(), sum);
        }
        snap
    }
}

/// Replays the snapshot dirt-collect → refresh → publish protocol under
/// the interleaving picked by `sc.seed`, asserting its invariants (see
/// the module docs). Panics (failing the calling test) on any violation.
pub fn replay_snapshot_protocol(sc: &SnapScenario) -> SnapReport {
    assert!(sc.keys >= 1, "the protocol needs at least one key");
    let world = SnapWorld {
        state: Mutex::new(SnapshotState::new()),
        model: Mutex::new(SnapModel {
            alive: vec![false; sc.keys as usize],
            core: vec![false; sc.keys as usize],
            commits: 0,
        }),
        seen: Mutex::new(std::collections::BTreeMap::new()),
        acquisitions: AtomicUsize::new(0),
    };
    // The writer's command stream is derived from the seed but disjoint
    // from the schedule PRNG, so "what happens" and "when it happens"
    // vary independently across seeds.
    let mut cmd_rng = SplitMix64::new(sc.seed ^ 0xD1A7_0000_5EED_0001);
    let commands: Vec<(u32, bool)> = (0..sc.rounds)
        .map(|_| {
            let key = cmd_rng.next_below(sc.keys as u64) as u32;
            let kill = cmd_rng.next_below(4) == 0;
            (key, kill)
        })
        .collect();

    let mut actors: Vec<Actor<'_>> = Vec::new();
    let world_ref = &world;
    let commands_ref = &commands;
    // Writer: commit → (yield) → refresh → assert the refresh advanced
    // the epoch exactly when dirt existed.
    actors.push(Box::new(move |y: &Yielder<'_>| {
        let mut last_epoch = 0u64;
        for &(key, kill) in commands_ref {
            {
                // One step: mutate the model and mark the dirt, the
                // engine-update (`&mut self`) half of the protocol.
                let mut st = world_ref.state.lock().unwrap();
                let mut model = world_ref.model.lock().unwrap();
                let k = key as usize;
                if kill && model.alive[k] {
                    model.alive[k] = false;
                    st.mark_dead(key);
                } else {
                    model.alive[k] = true;
                    model.core[k] = !model.core[k];
                    st.mark(key);
                }
                model.commits += 1;
            }
            y.point();
            let snap = world_ref.acquire(sc.keys);
            assert!(
                snap.epoch() > last_epoch,
                "writer refresh after dirt must advance the epoch strictly \
                 ({} -> {})",
                last_epoch,
                snap.epoch()
            );
            last_epoch = snap.epoch();
            y.point();
        }
    }));
    for _ in 0..sc.readers {
        actors.push(Box::new(move |y: &Yielder<'_>| {
            let mut held: Vec<(Arc<ClusterSnapshot>, u64)> = Vec::new();
            let mut last_epoch = 0u64;
            for _ in 0..commands_ref.len() {
                y.point();
                let snap = world_ref.acquire(sc.keys);
                assert!(
                    snap.epoch() >= last_epoch,
                    "reader observed the epoch moving backwards"
                );
                last_epoch = snap.epoch();
                // Clean double-read in the same step: no dirt was added
                // in between, so the epoch must not advance.
                let again = world_ref.acquire(sc.keys);
                assert_eq!(
                    again.epoch(),
                    snap.epoch(),
                    "a clean read must not advance the epoch"
                );
                let sum = snap.checksum();
                held.push((snap, sum));
                y.point();
                // COW invariant: every snapshot this reader ever held is
                // frozen — later refreshes never write through the Arc.
                for (old, sum) in &held {
                    assert_eq!(
                        old.checksum(),
                        *sum,
                        "published snapshot at epoch {} was written through",
                        old.epoch()
                    );
                }
            }
        }));
    }

    let outcome = run_schedule(sc.seed, actors);
    outcome.assert_clean(sc.seed);

    let state = world.state.into_inner().unwrap();
    let (refreshes, _, _, _) = state.counter_values();
    let final_epoch = state
        .read_with(sc.keys as usize, Vec::new, |_, _| {}, |_, _| {}, None)
        .epoch();
    assert_eq!(
        refreshes, final_epoch,
        "seed {}: every refresh must advance the epoch by exactly one",
        sc.seed
    );
    SnapReport {
        schedule_hash: outcome.schedule_hash,
        steps: outcome.steps,
        final_epoch,
        refreshes,
        acquisitions: world.acquisitions.into_inner() as u64,
    }
}

// ---------------------------------------------------------------------
// Epoch-handle protocol replay (ISSUE 9)
// ---------------------------------------------------------------------

/// One epoch-handle exploration: a flushing writer publishing epochs
/// through the wait-free handle slot, `readers` readers that *only*
/// touch the handle (`load` / `epoch` / `changed_since`) — never the
/// `SnapshotState` mutex — under the interleaving picked by `seed`.
#[derive(Debug, Clone, Copy)]
pub struct HandleScenario {
    /// Schedule seed (one seed = one interleaving).
    pub seed: u64,
    /// Concurrent handle-reader actors.
    pub readers: usize,
    /// Writer commit rounds (each: mutate + mark dirty, then refresh).
    pub rounds: usize,
    /// Key/point universe (`point id == key`, one point per key).
    pub keys: u32,
}

/// What one epoch-handle replay observed (invariants already asserted:
/// per-reader epoch monotonicity, loaded-snapshot consistency against
/// the shared epoch→checksum map — a torn load could not agree — and
/// change-feed span sanity).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandleReport {
    /// Schedule fingerprint (determinism / coverage accounting).
    pub schedule_hash: u64,
    /// Scheduling decisions taken.
    pub steps: u64,
    /// The last epoch published through the handle.
    pub final_epoch: u64,
    /// Handle loads across all reader actors.
    pub loads: u64,
}

/// Replays the wait-free publication protocol (`EpochHandle` readers
/// vs. a flushing writer) under the interleaving picked by `sc.seed`.
/// Reader actors never acquire `SnapWorld.state` — their whole protocol
/// is the handle's pin/load/unpin — so the schedules explored here are
/// exactly the reader-vs-publisher races the `SeqCst` fences in
/// `EpochShared` exist for. Panics (failing the calling test) on any
/// violation: a decreasing epoch, a load older than an epoch observed
/// before it, two observers disagreeing on an epoch's contents (how a
/// torn load would surface), or a change feed answering a broken span.
pub fn replay_handle_protocol(sc: &HandleScenario) -> HandleReport {
    assert!(sc.keys >= 1, "the protocol needs at least one key");
    let world = SnapWorld {
        state: Mutex::new(SnapshotState::new()),
        model: Mutex::new(SnapModel {
            alive: vec![false; sc.keys as usize],
            core: vec![false; sc.keys as usize],
            commits: 0,
        }),
        seen: Mutex::new(std::collections::BTreeMap::new()),
        acquisitions: AtomicUsize::new(0),
    };
    let handle = world.vend_handle();
    let loads = AtomicUsize::new(0);

    let mut cmd_rng = SplitMix64::new(sc.seed ^ 0xD1A7_0000_5EED_0009);
    let commands: Vec<(u32, bool)> = (0..sc.rounds)
        .map(|_| {
            let key = cmd_rng.next_below(sc.keys as u64) as u32;
            let kill = cmd_rng.next_below(4) == 0;
            (key, kill)
        })
        .collect();

    let mut actors: Vec<Actor<'_>> = Vec::new();
    let world_ref = &world;
    let commands_ref = &commands;
    let handle_ref = &handle;
    let loads_ref = &loads;
    // Writer: commit, then refresh through the real read path — which
    // publishes into the handle slot before `acquire` returns.
    actors.push(Box::new(move |y: &Yielder<'_>| {
        for &(key, kill) in commands_ref {
            {
                let mut st = world_ref.state.lock().unwrap();
                let mut model = world_ref.model.lock().unwrap();
                let k = key as usize;
                if kill && model.alive[k] {
                    model.alive[k] = false;
                    st.mark_dead(key);
                } else {
                    model.alive[k] = true;
                    model.core[k] = !model.core[k];
                    st.mark(key);
                }
                model.commits += 1;
            }
            y.point();
            let snap = world_ref.acquire(sc.keys);
            // The handle must already serve this epoch (publish happens
            // before the refresh returns its Arc).
            assert!(
                handle_ref.epoch() >= snap.epoch(),
                "refresh returned before its epoch reached the handle"
            );
            y.point();
        }
    }));
    for _ in 0..sc.readers {
        actors.push(Box::new(move |y: &Yielder<'_>| {
            let mut last_epoch = 0u64;
            for _ in 0..commands_ref.len() {
                y.point();
                // The wait-free read protocol: epoch, then load. The
                // load must be at least as new as the epoch observed
                // before it, and epochs never go backwards per handle.
                let before = handle_ref.epoch();
                let snap = handle_ref.load();
                loads_ref.fetch_add(1, Ordering::Relaxed); // ORDERING: Relaxed — totals read after join.
                assert!(
                    before >= last_epoch,
                    "handle epoch moved backwards ({last_epoch} -> {before})"
                );
                assert!(
                    snap.epoch() >= before,
                    "handle load (epoch {}) older than the epoch observed \
                     before it ({before})",
                    snap.epoch()
                );
                last_epoch = snap.epoch();
                // Torn-load detector: all observers of an epoch — the
                // writer through the state, readers through the handle —
                // must agree on its checksum.
                let sum = snap.checksum();
                let mut seen = world_ref.seen.lock().unwrap();
                if let Some(&prior) = seen.get(&snap.epoch()) {
                    assert_eq!(
                        prior,
                        sum,
                        "epoch {} observed with two different contents through \
                         the handle",
                        snap.epoch()
                    );
                } else {
                    seen.insert(snap.epoch(), sum);
                }
                drop(seen);
                y.point();
                // Change-feed sanity off the handle: a delta must span
                // from exactly the asked epoch forward; a reset must
                // name a window not containing it.
                match handle_ref.changed_since(last_epoch) {
                    ChangeFeed::Delta(d) => {
                        assert_eq!(d.from, last_epoch, "feed delta must start at the ask");
                        assert!(d.to >= d.from, "feed delta span inverted");
                    }
                    ChangeFeed::Reset { oldest, current } => {
                        assert!(
                            last_epoch < oldest || last_epoch > current,
                            "feed reset although {last_epoch} is inside \
                             [{oldest}, {current}]"
                        );
                    }
                }
            }
        }));
    }

    let outcome = run_schedule(sc.seed, actors);
    outcome.assert_clean(sc.seed);

    let final_epoch = handle.epoch();
    let state = world.state.into_inner().unwrap();
    let (refreshes, _, _, _) = state.counter_values();
    assert_eq!(
        refreshes, final_epoch,
        "seed {}: the handle's final epoch must equal the refresh count",
        sc.seed
    );
    HandleReport {
        schedule_hash: outcome.schedule_hash,
        steps: outcome.steps,
        final_epoch,
        loads: loads.into_inner() as u64,
    }
}

// ---------------------------------------------------------------------
// Shard-stitch protocol replay (ISSUE 10)
// ---------------------------------------------------------------------

/// One shard-stitch exploration: `shards` flush actors concurrently
/// producing grid-graph edge events (their [`crate::shard::ShardTaps`]),
/// a coordinator that barriers per flush round and applies the taps in
/// ascending shard order through the real per-pair refcount and a real
/// [`HdtConnectivity`] — the exact composition protocol of
/// [`crate::shard::ShardedDbscan`].
///
/// The workload script is derived from `script_seed` and the
/// interleaving from `seed`, independently: a sweep holds the script
/// fixed and varies only the schedule, asserting the composed
/// connectivity is a pure function of the script (bit-identical
/// `label_trace` across seeds).
#[derive(Debug, Clone, Copy)]
pub struct ShardStitchScenario {
    /// Schedule seed (one seed = one interleaving).
    pub seed: u64,
    /// Workload seed — fixed across a sweep so only the schedule varies.
    pub script_seed: u64,
    /// Concurrent shard flush actors.
    pub shards: usize,
    /// Flush rounds (each: concurrent tap production, one barrier, one
    /// in-order application).
    pub rounds: usize,
    /// Edge events per round.
    pub events_per_round: usize,
    /// Stitch vertex universe (cell-coordinate stand-ins).
    pub verts: u32,
}

/// What one shard-stitch replay observed (all invariants already
/// asserted: refcounts stay within the observer multiplicity, deletes
/// never underflow, and after every round the stitched components equal
/// a serially-applied reference).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStitchReport {
    /// Schedule fingerprint (determinism / coverage accounting).
    pub schedule_hash: u64,
    /// Scheduling decisions taken.
    pub steps: u64,
    /// Fingerprint of the canonical component labels after every round:
    /// schedule-independent for a fixed `script_seed`.
    pub label_trace: u64,
    /// Stitch edge transitions actually forwarded to the CC structure.
    pub stitch_ops: u64,
}

/// The stitch replay's shared world: a single lock at one level, so
/// every actor region is one acquisition and the lock DAG is trivial.
struct StitchWorld {
    // LOCK: 50 — the replay's only lock; every region is one step.
    st: Mutex<StitchState>,
}

/// Per-round tap slots shared between the shard actors and the
/// coordinator.
struct StitchState {
    /// Round currently open for production.
    round: usize,
    /// Per-shard tap buffers of the open round.
    taps: Vec<Vec<(u32, u32, bool)>>,
    /// Per-shard "flush returned" flags of the open round.
    done: Vec<bool>,
}

/// Canonical (first-occurrence dense renumbering) component labels, so
/// two CC structures can be compared without agreeing on raw ids.
fn canon_labels(labels: &[u64]) -> Vec<u32> {
    let mut map: FxHashMap<u64, u32> = FxHashMap::default();
    labels
        .iter()
        .map(|&l| {
            let next = map.len() as u32;
            *map.entry(l).or_insert(next)
        })
        .collect()
}

/// Replays the sharded-ingest stitch protocol (concurrent per-shard tap
/// production, barrier, ascending-shard-order application through the
/// per-pair refcount) under the interleaving picked by `sc.seed`.
/// Panics (failing the calling test) on any violation: a refcount
/// exceeding the pair's observer multiplicity, an unbalanced delete, or
/// any round after which the stitched components differ from applying
/// the global event script serially.
pub fn replay_shard_stitch_protocol(sc: &ShardStitchScenario) -> ShardStitchReport {
    assert!(sc.shards >= 1 && sc.verts >= 2, "degenerate scenario");
    let s = sc.shards as u32;
    // A vertex's owning shard (the axis-0 slab map stand-in): each edge
    // event is observed by one shard (both endpoints owned) or two (a
    // cross-slab pair) — exactly the wrapper's owned-endpoint filter.
    let owner = |v: u32| (v % s) as usize;

    // The global event script: alternating insert/delete transitions per
    // pair, exactly what the engines' edge taps emit for the grid graph.
    let mut rng = SplitMix64::new(sc.script_seed ^ 0xD1A7_0000_5EED_0010);
    let mut present: std::collections::BTreeSet<(u32, u32)> = std::collections::BTreeSet::new();
    let script: Vec<Vec<(u32, u32, bool)>> = (0..sc.rounds)
        .map(|_| {
            (0..sc.events_per_round)
                .map(|_| {
                    let (u, v) = loop {
                        let u = rng.next_below(u64::from(sc.verts)) as u32;
                        let v = rng.next_below(u64::from(sc.verts)) as u32;
                        if u != v {
                            break if u < v { (u, v) } else { (v, u) };
                        }
                    };
                    let ins = present.insert((u, v));
                    if !ins {
                        present.remove(&(u, v));
                    }
                    (u, v, ins)
                })
                .collect()
        })
        .collect();

    let world = StitchWorld {
        st: Mutex::new(StitchState {
            round: 0,
            taps: vec![Vec::new(); sc.shards],
            done: vec![false; sc.shards],
        }),
    };
    let label_trace = AtomicUsize::new(0);
    let stitch_ops = AtomicUsize::new(0);

    let world_ref = &world;
    let script_ref = &script;
    let trace_ref = &label_trace;
    let ops_ref = &stitch_ops;
    let mut actors: Vec<Actor<'_>> = Vec::new();
    // Coordinator: barrier on all shards' flush returns, apply taps in
    // ascending shard order (the protocol's serialization point), check
    // the stitched components against the serial reference, open the
    // next round.
    actors.push(Box::new(move |y: &Yielder<'_>| {
        let mut stitch = HdtConnectivity::new();
        let mut reference = HdtConnectivity::new();
        for v in 0..sc.verts {
            stitch.ensure_vertex(v);
            reference.ensure_vertex(v);
        }
        let mut refs: FxHashMap<(u32, u32), u8> = FxHashMap::default();
        let mut trace = mix(0, sc.script_seed);
        let mut ops = 0u64;
        for (r, round_script) in script_ref.iter().enumerate() {
            let taken = loop {
                {
                    // LOCK: 50 — single-step region (see SnapWorld).
                    let mut st = world_ref.st_lock();
                    if st.done.iter().all(|&d| d) {
                        let taken = std::mem::replace(&mut st.taps, vec![Vec::new(); sc.shards]);
                        st.done.iter_mut().for_each(|d| *d = false);
                        break taken;
                    }
                }
                y.point();
            };
            for shard_taps in &taken {
                for &(u, v, ins) in shard_taps {
                    let cnt = refs.entry((u, v)).or_insert(0);
                    // One or two shards observe a pair, and their event
                    // streams are identical: the count never exceeds the
                    // observer multiplicity.
                    let observers = if owner(u) == owner(v) { 1 } else { 2 };
                    if ins {
                        *cnt += 1;
                        assert!(
                            *cnt <= observers,
                            "seed {}: refcount {cnt} exceeds {observers} \
                             observers of ({u},{v})",
                            sc.seed
                        );
                        if *cnt == 1 {
                            stitch.insert_edge(u, v);
                            ops += 1;
                        }
                    } else {
                        assert!(*cnt > 0, "seed {}: unbalanced stitch delete", sc.seed);
                        *cnt -= 1;
                        if *cnt == 0 {
                            stitch.delete_edge(u, v);
                            ops += 1;
                        }
                    }
                }
            }
            // Serial reference: the same round's events, global order,
            // applied exactly once each.
            for &(u, v, ins) in round_script {
                if ins {
                    reference.insert_edge(u, v);
                } else {
                    reference.delete_edge(u, v);
                }
            }
            let got = canon_labels(&stitch.export_labels());
            let want = canon_labels(&reference.export_labels());
            assert_eq!(
                got, want,
                "seed {}: stitched components diverged from the serial \
                 reference after round {r}",
                sc.seed
            );
            for &l in &got {
                trace = mix(trace, u64::from(l));
            }
            {
                let mut st = world_ref.st_lock();
                st.round = r + 1;
            }
            y.point();
        }
        // ORDERING: Relaxed — read after every actor joined.
        trace_ref.store(trace as usize, Ordering::Relaxed);
        // ORDERING: Relaxed — read after every actor joined.
        ops_ref.store(ops as usize, Ordering::Relaxed);
    }));
    for t in 0..sc.shards {
        actors.push(Box::new(move |y: &Yielder<'_>| {
            for (r, round_script) in script_ref.iter().enumerate() {
                // Wait for the coordinator to open round `r`.
                loop {
                    {
                        let st = world_ref.st_lock();
                        if st.round == r {
                            break;
                        }
                    }
                    y.point();
                }
                // Produce this shard's taps: the sub-sequence of the
                // global script this shard observes, one scheduling step
                // per event — the flush-task timing the pool gives them.
                for &(u, v, ins) in round_script {
                    if owner(u) != t && owner(v) != t {
                        continue;
                    }
                    {
                        let mut st = world_ref.st_lock();
                        st.taps[t].push((u, v, ins));
                    }
                    y.point();
                }
                {
                    let mut st = world_ref.st_lock();
                    st.done[t] = true;
                }
                y.point();
            }
        }));
    }

    let outcome = run_schedule(sc.seed, actors);
    outcome.assert_clean(sc.seed);

    ShardStitchReport {
        schedule_hash: outcome.schedule_hash,
        steps: outcome.steps,
        // ORDERING: Relaxed — all actors joined.
        label_trace: label_trace.into_inner() as u64,
        stitch_ops: stitch_ops.into_inner() as u64,
    }
}

/// Tiny ergonomic shim so the replay reads like the other protocols.
trait StLock {
    fn st_lock(&self) -> std::sync::MutexGuard<'_, StitchState>;
}

impl StLock for StitchWorld {
    fn st_lock(&self) -> std::sync::MutexGuard<'_, StitchState> {
        // LOCK: 50 — the replay's only lock; every region is one step.
        self.st.lock().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let sc = PoolScenario {
            seed: 42,
            workers: 2,
            tasks: 12,
            panic_task: None,
        };
        let a = replay_pool_protocol(&sc);
        let b = replay_pool_protocol(&sc);
        assert_eq!(a, b, "a seed must replay to the identical run");
        assert!(a.steps > 0);
    }

    #[test]
    fn different_seeds_explore_different_schedules() {
        let mut hashes = std::collections::BTreeSet::new();
        for seed in 0..32u64 {
            let r = replay_pool_protocol(&PoolScenario {
                seed,
                workers: 2,
                tasks: 12,
                panic_task: None,
            });
            hashes.insert(r.schedule_hash);
        }
        assert!(
            hashes.len() >= 30,
            "32 seeds produced only {} distinct schedules",
            hashes.len()
        );
    }

    #[test]
    fn pool_replay_with_panic_balances_drops() {
        for seed in 0..16u64 {
            let r = replay_pool_protocol(&PoolScenario {
                seed,
                workers: 3,
                tasks: 10,
                panic_task: Some(6),
            });
            assert!(r.panicked);
            // (leak-freedom and exactly-once claims asserted inside)
        }
    }

    #[test]
    fn snapshot_replay_holds_invariants() {
        for seed in [7u64, 1234, 0xFEED] {
            let r = replay_snapshot_protocol(&SnapScenario {
                seed,
                readers: 2,
                rounds: 6,
                keys: 8,
            });
            assert!(r.final_epoch >= 1, "at least one refresh must happen");
            assert!(r.acquisitions >= r.refreshes);
        }
    }

    #[test]
    fn handle_replay_holds_invariants() {
        for seed in [3u64, 77, 0xBEEF] {
            let r = replay_handle_protocol(&HandleScenario {
                seed,
                readers: 2,
                rounds: 6,
                keys: 8,
            });
            assert!(r.final_epoch >= 1, "the writer must publish at least once");
            assert!(r.loads >= 1, "readers must load through the handle");
        }
    }

    #[test]
    fn shard_stitch_replay_is_schedule_independent() {
        let mut traces = std::collections::BTreeSet::new();
        for seed in 0..8u64 {
            let r = replay_shard_stitch_protocol(&ShardStitchScenario {
                seed,
                script_seed: 2017,
                shards: 3,
                rounds: 3,
                events_per_round: 12,
                verts: 9,
            });
            assert!(r.stitch_ops >= 1, "the script must drive the stitch");
            traces.insert(r.label_trace);
        }
        assert_eq!(
            traces.len(),
            1,
            "stitched components must not depend on the schedule"
        );
    }

    #[test]
    fn turnstile_surfaces_actor_panics() {
        let out = run_schedule(
            9,
            vec![
                Box::new(|y: &Yielder<'_>| {
                    y.point();
                }),
                Box::new(|y: &Yielder<'_>| {
                    y.point();
                    panic!("deliberate actor failure");
                }),
            ],
        );
        assert_eq!(out.panics.len(), 1);
        assert_eq!(out.panics[0].0, 1);
        assert!(out.panics[0].1.contains("deliberate"));
    }
}
