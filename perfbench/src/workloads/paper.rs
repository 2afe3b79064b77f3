//! `paper_mixed_d3`: the paper's fully-dynamic stream
//! (`WorkloadSpec::full`: 5/6 insertions, a C-group-by query every
//! 0.03 N updates) in 3-d, one op at a time through
//! `DynamicClusterer::apply`, on Double-Approx (eps 300, MinPts 10,
//! rho 0.001, HDT, one thread).
//!
//! A run plays a few streams (sub-seeds), each `REPS` times on a fresh
//! engine, in rotation: set-up applies the stream's first
//! `paper_prefix_updates` updates, the measured part applies the rest.
//! The number of streams follows from `--seconds` alone (see
//! `stream_count`), so any two builds measure the same streams however
//! fast they run.
//!
//! `update_pts_per_s` is the streams' updates over the sum of their
//! segment times, each segment of `SEGMENT_OPS` ops timed at the
//! fastest of its repetitions, `update_p50_us` is the median over
//! updates of each one's fastest repetition, and `setup_s` the median
//! over streams of each one's fastest set-up: a stretch in which a shared
//! host runs the process slower then costs a repetition, not the figure,
//! as long as another repetition of the same ops ran at full speed.
//!
//! Before each query the loop calls `snapshot()`, so the in-place
//! refresh is timed apart from the group-by itself; `apply` then finds
//! the read path clean.

use super::{check_repeat, fastest, finish_trace, report_e2e, report_extra};
use crate::check;
use crate::metrics::{Layers, Metric};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{data, peak_rss_mb, stats, Config, Counters, Outcome};
use dydbscan::geom::Point;
use dydbscan::{
    DbscanBuilder, DynamicClusterer, FullDynDbscan, Op, Params, PointId, Workload, WorkloadSpec,
};
use std::time::Instant;

const EPS: f64 = 300.0;
const MIN_PTS: usize = 10;
const RHO: f64 = 0.001;

/// Times the untraced run plays each stream.
const REPS: usize = 3;

/// Measured ops per timed segment.
const SEGMENT_OPS: usize = 4096;

/// `WorkloadSpec::full`'s stream number `index`, with its insertion
/// points replaced (in order) by [`data::walked_clusters`] of
/// `paper_cluster` points each: the spec draws one seed-spreader dataset
/// of about ten clusters of random sizes, whose cost varies by more than
/// half from seed to seed.
/// Returns the stream and the index where its measured part starts.
fn stream(cfg: &Config, index: u64) -> (Workload<3>, usize) {
    let sc = &cfg.scale;
    let seed = data::mix(cfg.seed, 40 + index);
    let mut w = WorkloadSpec::full(sc.paper_updates, seed).build::<3>();
    let clusters = w.n_insertions.div_ceil(sc.paper_cluster);
    let pts = data::walked_clusters::<3>(data::mix(seed, 41), clusters, sc.paper_cluster);
    let mut fresh = pts.into_iter();
    for op in &mut w.ops {
        if let Op::Insert(p) = op {
            *p = fresh.next().expect("enough points for every insertion");
        }
    }
    let mut updates = 0;
    let prefix = w
        .ops
        .iter()
        .position(|op| {
            updates += usize::from(!matches!(op, Op::Query(_)));
            updates > sc.paper_prefix_updates
        })
        .unwrap_or(w.ops.len());
    (w, prefix)
}

/// Streams for a window of `seconds` played `reps` times each: at least
/// one, else one per `paper_round_s * reps`.
fn stream_count(cfg: &Config, seconds: f64, reps: usize) -> usize {
    let per_stream = cfg.scale.paper_round_s * reps as f64;
    1.max((seconds / per_stream).round() as usize)
}

/// What the rounds measured, pooled.
#[derive(Debug, Default)]
struct Totals {
    rounds: usize,
    setup_s: Vec<f64>,
    /// Peak RSS at the end of round 0's measured stream.
    rss_mb: f64,
    ops: usize,
    updates: u64,
    elapsed_s: f64,
    /// Per round: each measured op as (updates, seconds), in order.
    op_s: Vec<Vec<(f64, f64)>>,
    query_us: Samples,
    counters: Counters,
}

impl Totals {
    /// Every stream at the fastest of its repetitions (round `r` played
    /// stream `r % streams`): its least set-up seconds; per segment of
    /// `SEGMENT_OPS` ops, its updates and least seconds; per update, its
    /// least microseconds.
    fn fastest(&self, streams: usize) -> (Vec<f64>, Vec<(f64, f64)>, Samples) {
        let mut setup_s = Vec::with_capacity(streams);
        let mut segments = Vec::new();
        let mut update_us = Samples::new();
        for s in 0..streams {
            let setups = self.setup_s.iter().skip(s).step_by(streams);
            setup_s.push(setups.copied().fold(f64::INFINITY, f64::min));
            let reps: Vec<&Vec<(f64, f64)>> = self.op_s.iter().skip(s).step_by(streams).collect();
            for op in fastest(&reps) {
                if op.0 > 0.0 {
                    update_us.push(op.1 * 1e6);
                }
            }
            let segs: Vec<Vec<(f64, f64)>> = reps
                .iter()
                .map(|r| r.chunks(SEGMENT_OPS).map(stats::rate_parts).collect())
                .collect();
            segments.extend(fastest(&segs));
        }
        (setup_s, segments, update_us)
    }
}

fn apply_ops<E: DynamicClusterer<3> + ?Sized>(
    e: &mut E,
    ids: &mut Vec<PointId>,
    ops: &[Op<3>],
    round: u64,
    tr: &mut Tracer,
    t: &mut Totals,
    out: &mut Outcome,
) {
    let t0 = Instant::now();
    let mut op_s = Vec::with_capacity(ops.len());
    for (k, op) in ops.iter().enumerate() {
        let req = (round << 32) | k as u64;
        let a = Instant::now();
        let updates = match op {
            Op::Insert(_) => {
                tr.span("engine.insert", req, || e.apply(op, ids));
                1.0
            }
            Op::Delete(_) => {
                tr.span("engine.delete", req, || e.apply(op, ids));
                1.0
            }
            Op::Query(ordinals) => {
                tr.span("snapshot.refresh", req, || e.snapshot());
                let g = tr.span("snapshot.group_by", req, || e.apply(op, ids));
                t.query_us.push(a.elapsed().as_secs_f64() * 1e6);
                let q: Vec<PointId> = ordinals.iter().map(|&o| ids[o as usize]).collect();
                let verdict = g
                    .ok_or_else(|| "query returned no groups".to_string())
                    .and_then(|g| check::covers(&g, &q));
                if let Err(err) = verdict {
                    out.failed += 1;
                    out.errors.push(format!("round {round} query {k}: {err}"));
                }
                0.0
            }
        };
        op_s.push((updates, a.elapsed().as_secs_f64()));
    }
    t.ops += ops.len();
    t.updates += op_s.iter().map(|op| op.0 as u64).sum::<u64>();
    t.elapsed_s += t0.elapsed().as_secs_f64();
    t.op_s.push(op_s);
}

/// The stream's alive points after `ops`, with their ids.
fn alive(ops: &[Op<3>], ids: &[PointId]) -> (Vec<Point<3>>, Vec<PointId>) {
    let mut rows: Vec<Option<Point<3>>> = Vec::with_capacity(ids.len());
    for op in ops {
        match op {
            Op::Insert(p) => rows.push(Some(*p)),
            Op::Delete(o) => rows[*o as usize] = None,
            Op::Query(_) => {}
        }
    }
    rows.iter()
        .zip(ids)
        .filter_map(|(p, &id)| p.map(|p| (p, id)))
        .unzip()
}

/// Plays `streams` streams `reps` times each, in rotation, on engines
/// from `build`, reading counters with `count`, and checks the last
/// round's end state.
fn rounds<E: DynamicClusterer<3> + ?Sized>(
    cfg: &Config,
    build: impl Fn() -> Box<E>,
    count: impl Fn(&E) -> Counters,
    streams: usize,
    reps: usize,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Totals {
    let ws: Vec<(Workload<3>, usize)> = (0..streams).map(|i| stream(cfg, i as u64)).collect();
    let mut t = Totals::default();
    let mut last = None;
    while t.rounds < streams * reps {
        drop(last.take());
        let round = t.rounds as u64;
        let (w, prefix) = &ws[t.rounds % streams];
        let t0 = Instant::now();
        let mut e = build();
        let mut ids = Vec::new();
        for op in &w.ops[..*prefix] {
            e.apply(op, &mut ids);
        }
        t.setup_s.push(t0.elapsed().as_secs_f64());
        let before = count(&e);
        apply_ops(&mut *e, &mut ids, &w.ops[*prefix..], round, tr, &mut t, out);
        if round == 0 {
            t.rss_mb = peak_rss_mb();
        }
        t.counters = t.counters.plus(&count(&e).since(&before));
        t.rounds += 1;
        last = Some((e, ids, &w.ops));
    }
    if let Some((e, ids, ops)) = last {
        let (pts, alive_ids) = alive(ops, &ids);
        let params = Params::new(EPS, MIN_PTS).with_rho(RHO);
        out.check(
            "last round's end-state clustering vs static DBSCAN (sandwich)",
            check::against_static(&pts, &alive_ids, &e.group_all(), &params),
        );
    }
    out.attempted += t.ops as u64;
    t
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    if !cfg.trace {
        let built = || {
            DbscanBuilder::new(EPS, MIN_PTS)
                .rho(RHO)
                .threads(1)
                .build::<3>()
                .expect("valid configuration")
        };
        let count = |e: &(dyn DynamicClusterer<3> + 'static)| Counters::of(e);
        let n = stream_count(cfg, cfg.seconds, REPS);
        let mut t = rounds(cfg, built, count, n, REPS, &mut Tracer::off(), &mut out);
        let (setup_s, segments, mut updates) = t.fastest(n);
        report_e2e(
            &mut out,
            &setup_s,
            t.rss_mb,
            stats::rate(&segments),
            &mut updates,
        );
        report_extra(&mut out, "update_p99_us", &mut updates, 99.0);
        report_extra(&mut out, "query_p50_us", &mut t.query_us, 50.0);
        out.extra.push(Metric::new(
            "avg_op_cost_us",
            t.elapsed_s * 1e6 / t.ops as f64,
            "us",
        ));
        let rates: Vec<String> = t
            .op_s
            .iter()
            .map(|r| format!("{:.0}", stats::rate(r)))
            .collect();
        out.notes.push(format!(
            "{} streams x {REPS} reps, {} ops; updates/s per round: {}",
            n,
            t.ops,
            rates.join(" ")
        ));
        return out;
    }

    // The traced run uses the concrete engine the builder would build, so
    // the aBCP counters (`FullStats`) are readable.
    let concrete = || {
        let params = Params::new(EPS, MIN_PTS).with_rho(RHO);
        Box::new(FullDynDbscan::<3>::new(params).with_threads(1))
    };
    let count = |e: &FullDynDbscan<3>| Counters::of_full(e);
    let n = stream_count(cfg, cfg.seconds / 2.0, 1);
    let u = rounds(cfg, concrete, count, n, 1, &mut Tracer::off(), &mut out);
    let mut tr = Tracer::new(true, Instant::now());
    let t = rounds(cfg, concrete, count, n, 1, &mut tr, &mut out);
    check_repeat(&mut out, &u.counters, &t.counters);

    let mut l = Layers::new();
    let mut ins = tr.durations_us("engine.insert");
    let mut del = tr.durations_us("engine.delete");
    l.set_pct("engine.insert_p50_us", &mut ins, 50.0);
    l.set_pct("engine.insert_p99_us", &mut ins, 99.0);
    l.set_pct("engine.delete_p50_us", &mut del, 50.0);
    l.set_pct("engine.delete_p99_us", &mut del, 99.0);
    l.set_pct(
        "snapshot.refresh_p50_us",
        &mut tr.durations_us("snapshot.refresh"),
        50.0,
    );
    l.set_pct(
        "snapshot.group_by_p50_us",
        &mut tr.durations_us("snapshot.group_by"),
        50.0,
    );
    l.set_counters(&t.counters, t.updates);
    l.set_overhead(u.elapsed_s, t.elapsed_s);
    let (metrics, notes) = l.into_metrics();
    out.metrics = metrics;
    out.notes.extend(notes);
    finish_trace(cfg, "paper_mixed_d3", &tr, &mut out);
    out
}
