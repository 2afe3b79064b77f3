//! The dydbscan benchmark: three workloads driven through the public API,
//! each with an output check, reporting end-to-end metrics from an
//! untraced run and per-layer metrics from a separate traced run.
//!
//! Every input is generated from the seed before timing starts, every
//! engine thread budget is pinned (no `available_parallelism`, no
//! environment lookups), and layers are measured from outside: spans
//! wrap the calls into each layer's public functions, and counters are
//! deltas of the public stats over the measured window.

pub mod check;
pub mod data;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod workloads;

use dydbscan::core::FullDynDbscan;
use dydbscan::{ClustererStats, DynamicClusterer};
use metrics::Metric;
use std::path::PathBuf;

/// Fresh rows the churn workloads cycle through, as a multiple of the
/// preload.
pub const FRESH_FACTOR: usize = 4;

/// Set-ups per untraced run of the churn workloads, each followed by an
/// equal share of the window; `setup_s` is their median.
/// (`paper_mixed_d3` sets up once per round.)
pub const SETUP_REPS: usize = 3;

/// Input sizes. [`Scale::full`] is the benchmark; [`Scale::tiny`] runs
/// the same code paths in well under a second for the self-tests.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Points preloaded before the measured window (every workload but
    /// `paper_mixed_d3`).
    pub preload: usize,
    /// Points per seed-spreader dataset; clustered inputs concatenate
    /// `preload / spreader_chunk` of them (see `data::spreader_chunks`).
    pub spreader_chunk: usize,
    /// Rows per serve preload request.
    pub serve_preload_chunk: usize,
    /// Rows per served write.
    pub serve_batch: usize,
    /// Open-loop reader rate (queries per second).
    pub query_rate: f64,
    /// Preload ids per served `group_by`.
    pub query_ids: usize,
    /// Rows per batch call in the batch workloads.
    pub churn_batch: usize,
    /// Updates in the paper stream (`WorkloadSpec::full`).
    pub paper_updates: usize,
    /// Updates of the paper stream applied during set-up.
    pub paper_prefix_updates: usize,
    /// Points per cluster of the paper stream's insertions.
    pub paper_cluster: usize,
    /// Seconds of window per `paper_mixed_d3` round: a run plays
    /// `seconds / (paper_round_s * REPS)` streams `REPS` times each, a
    /// count fixed by its arguments so that every build measures the
    /// same streams.
    pub paper_round_s: f64,
}

impl Scale {
    pub fn full() -> Self {
        Self {
            preload: 200_000,
            spreader_chunk: 25_000,
            serve_preload_chunk: 8192,
            serve_batch: 256,
            query_rate: 250.0,
            query_ids: 64,
            churn_batch: 1024,
            paper_updates: 300_000,
            paper_prefix_updates: 100_000,
            paper_cluster: 2_500,
            paper_round_s: 2.0,
        }
    }

    pub fn tiny() -> Self {
        Self {
            preload: 3_000,
            spreader_chunk: 1_000,
            serve_preload_chunk: 1024,
            serve_batch: 64,
            query_rate: 200.0,
            query_ids: 16,
            churn_batch: 128,
            paper_updates: 6_000,
            paper_prefix_updates: 2_000,
            paper_cluster: 100,
            paper_round_s: 0.1,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    /// Length of the measured window (a traced run splits it between
    /// its untraced and traced passes).
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Where traced runs write their spans; `None` keeps them in memory.
    pub trace_dir: Option<PathBuf>,
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any entry fails the run.
    pub errors: Vec<String>,
    /// The gated end-to-end metrics (untraced run) or every per-layer
    /// metric (traced run).
    pub metrics: Vec<Metric>,
    /// End-to-end figures that exist on this workload only; printed, not
    /// gated.
    pub extra: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    pub fn check(&mut self, what: &str, r: Result<(), String>) {
        match r {
            Ok(()) => self.notes.push(format!("check passed: {what}")),
            Err(e) => self.errors.push(format!("{what}: {e}")),
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Public engine counters, as one comparable record. Fields an engine
/// does not expose stay 0.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    pub range_queries: u64,
    pub promotions: u64,
    pub demotions: u64,
    pub edge_inserts: u64,
    pub edge_removes: u64,
    pub instances_created: u64,
    pub instances_destroyed: u64,
    pub batched_updates: u64,
    pub batch_flushes: u64,
    pub batch_cell_scans: u64,
    pub parallel_workers: u64,
    pub snapshot_refreshes: u64,
    pub snapshot_cells_relabeled: u64,
}

impl Counters {
    /// The counters every engine reports through [`ClustererStats`].
    pub fn of<const D: usize>(e: &dyn DynamicClusterer<D>) -> Self {
        let s: ClustererStats = e.stats();
        Self {
            range_queries: s.range_queries,
            promotions: s.promotions,
            demotions: s.demotions,
            edge_inserts: s.edge_inserts,
            edge_removes: s.edge_removes,
            instances_created: 0,
            instances_destroyed: 0,
            batched_updates: s.batched_updates,
            batch_flushes: s.batch_flushes,
            batch_cell_scans: s.batch_cell_scans,
            parallel_workers: s.parallel_workers,
            snapshot_refreshes: s.snapshot_refreshes,
            snapshot_cells_relabeled: s.snapshot_cells_relabeled,
        }
    }

    /// [`Counters::of`] plus the fully-dynamic engine's aBCP counters
    /// (`FullStats`).
    pub fn of_full<const D: usize>(e: &FullDynDbscan<D>) -> Self {
        let full = e.stats();
        Self {
            instances_created: full.instances_created,
            instances_destroyed: full.instances_destroyed,
            ..Self::of::<D>(e)
        }
    }

    /// `self - before`, field by field.
    pub fn since(&self, before: &Self) -> Self {
        self.zip(before, |a, b| a - b)
    }

    /// `self + other`, field by field.
    pub fn plus(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a + b)
    }

    fn zip(&self, o: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        Self {
            range_queries: f(self.range_queries, o.range_queries),
            promotions: f(self.promotions, o.promotions),
            demotions: f(self.demotions, o.demotions),
            edge_inserts: f(self.edge_inserts, o.edge_inserts),
            edge_removes: f(self.edge_removes, o.edge_removes),
            instances_created: f(self.instances_created, o.instances_created),
            instances_destroyed: f(self.instances_destroyed, o.instances_destroyed),
            batched_updates: f(self.batched_updates, o.batched_updates),
            batch_flushes: f(self.batch_flushes, o.batch_flushes),
            batch_cell_scans: f(self.batch_cell_scans, o.batch_cell_scans),
            parallel_workers: f(self.parallel_workers, o.parallel_workers),
            snapshot_refreshes: f(self.snapshot_refreshes, o.snapshot_refreshes),
            snapshot_cells_relabeled: f(self.snapshot_cells_relabeled, o.snapshot_cells_relabeled),
        }
    }
}

/// Runs one workload by name.
pub fn run_workload(name: &str, cfg: &Config) -> Result<Outcome, String> {
    let out = match name {
        "serve_churn_clustered" => workloads::serve::run(cfg),
        "batch_churn_uniform" => workloads::uniform::run(cfg),
        "paper_mixed_d3" => workloads::paper::run(cfg),
        other => return Err(format!("unknown workload {other:?}")),
    };
    Ok(out)
}

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = [
    "serve_churn_clustered",
    "batch_churn_uniform",
    "paper_mixed_d3",
];
