//! The three workloads and the pieces they share: batch churn, set-up
//! timing, end-to-end reporting and trace output.

pub mod paper;
pub mod serve;
pub mod uniform;

use crate::check;
use crate::metrics::Metric;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{peak_rss_mb, stats, Config, Counters, Outcome, SETUP_REPS};
use dydbscan::geom::Point;
use dydbscan::{DynamicClusterer, Params, PointId};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Churn rounds every timed window runs at least. `peak_rss_mb` is read
/// once the first window has run them: the figure then covers the
/// update path, and does not grow with throughput (churn mints ids that
/// are never reused).
pub const RSS_ROUNDS: usize = 32;

/// When a measured loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// At the first round boundary past this instant, and not before
    /// [`RSS_ROUNDS`] rounds.
    At(Instant),
    /// After exactly this many rounds (a replay of an earlier pass).
    Rounds(usize),
}

impl Stop {
    pub fn after(seconds: f64) -> Self {
        Stop::At(Instant::now() + Duration::from_secs_f64(seconds))
    }

    pub fn done(&self, round: usize) -> bool {
        match *self {
            Stop::At(t) => round >= RSS_ROUNDS && Instant::now() >= t,
            Stop::Rounds(n) => round >= n,
        }
    }
}

/// A live batch: the row range it was inserted from and its ids.
pub type Batch = (usize, Vec<PointId>);

/// Loads `rows[..n]` in batches of `batch`, returning the live batches
/// oldest first.
pub fn load<E: DynamicClusterer<2> + ?Sized>(
    e: &mut E,
    rows: &[Point<2>],
    n: usize,
    batch: usize,
) -> VecDeque<Batch> {
    (0..n)
        .step_by(batch)
        .map(|start| {
            let end = (start + batch).min(n);
            (start, e.insert_batch(&rows[start..end]))
        })
        .collect()
}

/// What a churn window measured.
#[derive(Debug, Default)]
pub struct Churn {
    pub rounds: usize,
    pub insert_us: Samples,
    pub delete_us: Samples,
    pub points: u64,
    pub elapsed_s: f64,
    /// Per step (the `insert_batch` plus the `delete_batch`), in order:
    /// points and seconds.
    pub calls: Vec<(f64, f64)>,
    /// Peak RSS after [`RSS_ROUNDS`] rounds (0 if the loop stopped
    /// sooner).
    pub rss_mb: f64,
}

impl Churn {
    /// Notes the insert and delete medians apart.
    pub fn note_split(&mut self, out: &mut Outcome) {
        out.notes.push(format!(
            "{} churn steps; insert_batch p50 {:?} us, delete_batch p50 {:?} us",
            self.rounds,
            self.insert_us.percentile(50.0),
            self.delete_us.percentile(50.0)
        ));
    }

    fn absorb(&mut self, w: Churn) {
        self.rounds += w.rounds;
        self.insert_us.extend(&w.insert_us);
        self.delete_us.extend(&w.delete_us);
        self.points += w.points;
        self.elapsed_s += w.elapsed_s;
    }
}

/// Row offset of fresh batch `round`: batches cycle through
/// `rows[first..]`, which is far larger than the live set, so a row
/// comes back (under a new id) long after its previous copy was deleted.
pub fn fresh_start(rows: usize, first: usize, batch: usize, round: usize) -> usize {
    let cycle = (rows - first) / batch;
    assert!(cycle > 0, "no room for one fresh batch");
    first + (round % cycle) * batch
}

/// Batch churn on a freshly loaded engine: every step inserts the next
/// fresh batch of `rows[first..]` and deletes the oldest live batch,
/// each call inside a span named by `names` (insert, delete).
#[allow(clippy::too_many_arguments)]
pub fn churn<E: DynamicClusterer<2> + ?Sized>(
    e: &mut E,
    live: &mut VecDeque<Batch>,
    rows: &[Point<2>],
    first: usize,
    batch: usize,
    stop: Stop,
    tr: &mut Tracer,
    names: [&'static str; 2],
) -> Churn {
    let mut w = Churn::default();
    let t0 = Instant::now();
    while !stop.done(w.rounds) {
        let start = fresh_start(rows.len(), first, batch, w.rounds);
        let req = w.rounds as u64;
        let a = Instant::now();
        let ids = tr.span(names[0], req, || {
            e.insert_batch(&rows[start..start + batch])
        });
        let b = Instant::now();
        let (_, old) = live.pop_front().expect("churn keeps batches live");
        tr.span(names[1], req, || e.delete_batch(&old));
        let c = Instant::now();
        live.push_back((start, ids));
        w.insert_us.push((b - a).as_secs_f64() * 1e6);
        w.delete_us.push((c - b).as_secs_f64() * 1e6);
        w.points += (batch + old.len()) as u64;
        w.calls
            .push(((batch + old.len()) as f64, (c - a).as_secs_f64()));
        w.rounds += 1;
        if w.rounds == RSS_ROUNDS {
            w.rss_mb = peak_rss_mb();
        }
    }
    w.elapsed_s = t0.elapsed().as_secs_f64();
    w
}

/// The untraced run of a churn workload: [`SETUP_REPS`] set-ups of the
/// same engine, each followed by an equal share of the window. Every
/// window replays the same churn steps, so each step is timed at the
/// fastest of its repetitions (see [`fastest`]), over the steps every
/// window reached. Reports the end-to-end metrics and checks the last
/// engine's end state.
pub fn churn_run<E: DynamicClusterer<2>>(
    cfg: &Config,
    mut setup: impl FnMut() -> (E, VecDeque<Batch>),
    rows: &[Point<2>],
    names: [&'static str; 2],
    params: &Params,
    out: &mut Outcome,
) {
    let sc = &cfg.scale;
    let mut total = Churn::default();
    let mut reps = Vec::with_capacity(SETUP_REPS);
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut rss = 0.0;
    let mut last = None;
    for rep in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        let (mut e, mut live) = setup();
        times.push(t.elapsed().as_secs_f64());
        let stop = Stop::after(cfg.seconds / SETUP_REPS as f64);
        let mut w = churn(
            &mut e,
            &mut live,
            rows,
            sc.preload,
            sc.churn_batch,
            stop,
            &mut Tracer::off(),
            names,
        );
        if rep == 0 {
            rss = w.rss_mb;
        }
        reps.push(std::mem::take(&mut w.calls));
        total.absorb(w);
        last = Some((e, live));
    }
    out.attempted = 2 * total.rounds as u64;
    total.note_split(out);
    let best = fastest(&reps);
    let mut step_us = Samples::new();
    for c in &best {
        step_us.push(c.1 * 1e6);
    }
    report_e2e(out, &times, rss, stats::rate(&best), &mut step_us);
    let (e, live) = last.expect("at least one set-up");
    check_live(out, &e, &live, rows, params);
}

/// Checks a churned engine's end state against static DBSCAN.
pub fn check_live<E: DynamicClusterer<2> + ?Sized>(
    out: &mut Outcome,
    e: &E,
    live: &VecDeque<Batch>,
    rows: &[Point<2>],
    params: &Params,
) {
    let mut pts = Vec::new();
    let mut ids = Vec::new();
    for (start, b) in live {
        pts.extend_from_slice(&rows[*start..*start + b.len()]);
        ids.extend_from_slice(b);
    }
    let got = e.group_all();
    out.check(
        "end-state clustering vs static DBSCAN",
        check::against_static(&pts, &ids, &got, params),
    );
}

/// Per call, the fastest of several repetitions of the same calls
/// (work, seconds), over the calls every repetition reached: a stretch
/// in which a shared host runs the process slower then costs one
/// repetition, not the figure.
pub fn fastest<R: AsRef<[(f64, f64)]>>(reps: &[R]) -> Vec<(f64, f64)> {
    let n = reps.iter().map(|r| r.as_ref().len()).min().unwrap_or(0);
    (0..n)
        .map(|k| {
            let secs = reps
                .iter()
                .map(|r| r.as_ref()[k].1)
                .fold(f64::INFINITY, f64::min);
            (reps[0].as_ref()[k].0, secs)
        })
        .collect()
}

/// Pushes the gated end-to-end metrics, and the p90 of `latency_us` as
/// a workload figure. `rss_mb` is read at a point fixed by the
/// workload's operations, never by elapsed time.
pub fn report_e2e(
    out: &mut Outcome,
    setup: &[f64],
    rss_mb: f64,
    rate: f64,
    latency_us: &mut Samples,
) {
    out.metrics
        .push(Metric::new("setup_s", stats::median(setup), "s"));
    out.metrics
        .push(Metric::new("update_pts_per_s", rate, "1/s"));
    let p50 = latency_us.percentile(50.0).unwrap_or_else(|| {
        out.notes.push(format!(
            "update_p50_us: {} samples, too few (reported as 0)",
            latency_us.len()
        ));
        0.0
    });
    out.metrics.push(Metric::new("update_p50_us", p50, "us"));
    out.metrics.push(Metric::new("peak_rss_mb", rss_mb, "MiB"));
    report_extra(out, "update_p90_us", latency_us, 90.0);
    out.notes.push(format!(
        "setup_s over {} set-ups: {:?}; {} update calls",
        setup.len(),
        setup,
        latency_us.len()
    ));
}

/// Pushes a workload-only percentile, if the beyond-rule allows it.
pub fn report_extra(out: &mut Outcome, name: &'static str, s: &mut Samples, p: f64) {
    match s.percentile(p) {
        Some(v) => out.extra.push(Metric::new(name, v, "us")),
        None => out
            .notes
            .push(format!("{name}: {} samples, too few for p{p}", s.len())),
    }
}

/// Stats deltas are deterministic for a fixed seed: the untraced and
/// traced passes over the same operations must agree exactly.
pub fn check_repeat(out: &mut Outcome, untraced: &Counters, traced: &Counters) {
    let r = if untraced == traced {
        Ok(())
    } else {
        Err(format!("{untraced:?} != {traced:?}"))
    };
    out.check("stats deltas repeat exactly across passes", r);
}

/// Writes the spans (if asked to) and notes the per-name self times.
pub fn finish_trace(cfg: &Config, workload: &str, tr: &Tracer, out: &mut Outcome) {
    for (name, count, total, own) in tr.summary() {
        out.notes.push(format!(
            "span {name}: {count} spans, total {:.3} ms, self {:.3} ms",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    if let Some(dir) = &cfg.trace_dir {
        let path = dir.join(format!("{workload}.spans.tsv"));
        match tr.write_tsv(&path) {
            Ok(()) => out.notes.push(format!(
                "{} spans written to {}",
                tr.spans().len(),
                path.display()
            )),
            Err(e) => out.notes.push(format!("could not write spans: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fastest;

    #[test]
    fn fastest_takes_each_calls_least_time_over_the_common_prefix() {
        let a = vec![(2.0, 1.0), (3.0, 5.0), (1.0, 2.0)];
        let b = vec![(2.0, 4.0), (3.0, 2.0)];
        assert_eq!(fastest(&[a.clone(), b]), [(2.0, 1.0), (3.0, 2.0)]);
        assert_eq!(fastest(std::slice::from_ref(&a)), a);
        assert!(fastest::<Vec<(f64, f64)>>(&[]).is_empty());
    }
}
