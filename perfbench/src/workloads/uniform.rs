//! `batch_churn_uniform`: `FullDynDbscan<2>` on uniform data (eps 1,
//! MinPts 10, rho 0, two flush threads) in a box of extent `sqrt(n)/2`.
//! It bulk-loads `n` points in batches, then churns: insert a fresh
//! batch, delete the oldest. No snapshot is taken in the window, so the
//! flush phases do nearly all the work.
//!
//! The traced run makes a fixed number of churn steps per pass, not a
//! timed window. It also replays its rounds on `ShardedDbscan` (two
//! shards, a two-thread pool; spans `shard.*`): the sharding layer's
//! cost over the raw engine on the same batches. A sharded churn is not
//! a gated workload of its own: its fork-join over two shards on a
//! two-CPU host moved its throughput by a third between runs of the
//! same code.

use super::{check_live, check_repeat, churn, churn_run, finish_trace, load, Stop};
use crate::metrics::Layers;
use crate::trace::Tracer;
use crate::{data, Config, Counters, Outcome, FRESH_FACTOR};
use dydbscan::{DynamicClusterer, FullDynDbscan, Params, ShardedDbscan};
use std::time::Instant;

const NAMES: [&str; 2] = ["flush.insert_batch", "flush.delete_batch"];
const SHARD_NAMES: [&str; 2] = ["shard.insert_batch", "shard.delete_batch"];
/// Churn steps per pass of the traced run: the fewest that give a p90
/// with ten samples beyond it.
const TRACED_ROUNDS: usize = 100;

pub fn run(cfg: &Config) -> Outcome {
    let sc = &cfg.scale;
    let n = sc.preload;
    let batch = sc.churn_batch;
    let extent = (n as f64).sqrt() / 2.0;
    let rows = data::uniform_box(data::mix(cfg.seed, 11), n * (1 + FRESH_FACTOR), extent);
    let params = Params::new(1.0, 10);
    let setup = || {
        let mut e = FullDynDbscan::<2>::new(params).with_threads(2);
        let live = load(&mut e, &rows, n, batch);
        (e, live)
    };
    let mut out = Outcome::default();

    if !cfg.trace {
        churn_run(cfg, setup, &rows, NAMES, &params, &mut out);
        return out;
    }

    // Untraced pass, then the same rounds traced on a fresh engine.
    let (mut e, mut live) = setup();
    let before = Counters::of_full(&e);
    let stop = Stop::Rounds(TRACED_ROUNDS);
    let u = churn(
        &mut e,
        &mut live,
        &rows,
        n,
        batch,
        stop,
        &mut Tracer::off(),
        NAMES,
    );
    let cu = Counters::of_full(&e).since(&before);
    drop((e, live));

    let (mut e, mut live) = setup();
    let before = Counters::of_full(&e);
    let mut tr = Tracer::new(true, Instant::now());
    let t = churn(&mut e, &mut live, &rows, n, batch, stop, &mut tr, NAMES);
    let ct = Counters::of_full(&e).since(&before);
    out.attempted = 2 * (u.rounds + t.rounds) as u64;
    check_repeat(&mut out, &cu, &ct);

    let mut l = Layers::new();
    let mut ins = tr.durations_us(NAMES[0]);
    let mut del = tr.durations_us(NAMES[1]);
    l.set_pct("flush.insert_batch_p50_us", &mut ins, 50.0);
    l.set_pct("flush.insert_batch_p90_us", &mut ins, 90.0);
    l.set_pct("flush.delete_batch_p50_us", &mut del, 50.0);
    l.set_pct("flush.delete_batch_p90_us", &mut del, 90.0);
    l.set_counters(&ct, t.points);
    l.set_workers_per_flush(&ct);
    l.set_overhead(u.elapsed_s, t.elapsed_s);
    check_live(&mut out, &e, &live, &rows, &params);
    let raw = e.group_all().normalized();
    drop((e, live));

    let mut s = ShardedDbscan::<2, FullDynDbscan<2>>::new_with(params, 2, |p| {
        FullDynDbscan::new(*p).with_threads(1)
    })
    .with_threads(2);
    let mut s_live = load(&mut s, &rows, n, batch);
    let r = churn(
        &mut s,
        &mut s_live,
        &rows,
        n,
        batch,
        stop,
        &mut tr,
        SHARD_NAMES,
    );
    out.attempted += 2 * r.rounds as u64;
    let same = if s.group_all().normalized() == raw {
        Ok(())
    } else {
        Err("the sharded clustering differs".to_string())
    };
    out.check("sharded end state equals the unsharded engine's", same);
    let mut s_ins = tr.durations_us(SHARD_NAMES[0]);
    let mut s_del = tr.durations_us(SHARD_NAMES[1]);
    l.set_pct("shard.insert_batch_p50_us", &mut s_ins, 50.0);
    l.set_pct("shard.delete_batch_p50_us", &mut s_del, 50.0);
    l.set(
        "shard.overhead_ratio",
        (s_ins.sum() + s_del.sum()) / (ins.sum() + del.sum()),
    );
    let (metrics, notes) = l.into_metrics();
    out.metrics = metrics;
    out.notes.extend(notes);
    finish_trace(cfg, "batch_churn_uniform", &tr, &mut out);
    out
}
