//! The metric catalogue and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] mirror `BENCHMARK.json` (a self-test
//! keeps them equal) and add, per metric, the layer it measures and which
//! end-to-end metric it should move on which workload.

use crate::stats::Samples;
use crate::Counters;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// One catalogue entry.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The module (or modules) the metric measures.
    pub layer: &'static str,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn spec(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> Spec {
    Spec {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

/// Gated end-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: [Spec; 4] = [
    spec(
        "setup_s",
        "s",
        "lower",
        "all",
        "engine or server construction plus preload, input generation excluded; median of the run's set-ups (paper_mixed_d3: of each stream's fastest set-up)",
    ),
    spec(
        "update_pts_per_s",
        "1/s",
        "higher",
        "all",
        "points inserted plus deleted (acknowledged, for serve) per second. serve: median over ten consecutive segments of the window's writes; batch churn: each churn step at the fastest of the run's three windows, which replay the same steps; paper: each 4096-op segment of a stream at the fastest of its three repetitions",
    ),
    spec(
        "update_p50_us",
        "us",
        "lower",
        "all",
        "one update: served write until ack; one churn step (insert_batch plus delete_batch) in the batch workloads, at the fastest of its windows; one paper update, at the fastest of its repetitions",
    ),
    spec(
        "peak_rss_mb",
        "MiB",
        "lower",
        "all",
        "peak resident set of the benchmark process (VmHWM), inputs included: after the first window's first 32 churn rounds, or at the end of paper_mixed_d3's first measured stream",
    ),
];

const FLUSH_MOVES: &str = "update_pts_per_s and update_p50_us on batch_churn_uniform; on serve_churn_clustered only once publish is cheap";
const PER_UPDATE_MOVES: &str =
    "update_p50_us and update_p99_us on paper_mixed_d3; update_pts_per_s on batch_churn_uniform";

/// Per-layer metrics, reported by every workload's traced run. A layer a
/// workload does not exercise reports 0, as does a percentile with fewer
/// than ten samples beyond it (the run prints a note for each).
pub const PER_LAYER: [Spec; 31] = [
    spec("flush.insert_batch_p50_us", "us", "lower", "core::batch", FLUSH_MOVES),
    spec("flush.insert_batch_p90_us", "us", "lower", "core::batch", FLUSH_MOVES),
    spec("flush.delete_batch_p50_us", "us", "lower", "core::batch", FLUSH_MOVES),
    spec("flush.delete_batch_p90_us", "us", "lower", "core::batch", FLUSH_MOVES),
    spec(
        "flush.cell_scans_per_pt",
        "count",
        "lower",
        "core::batch",
        "update_pts_per_s on batch_churn_uniform",
    ),
    spec(
        "parallel.workers_per_flush",
        "count",
        "higher",
        "core::parallel",
        "update_pts_per_s on batch_churn_uniform",
    ),
    spec(
        "engine.insert_p50_us",
        "us",
        "lower",
        "core::full",
        "update_p50_us, update_p99_us and avg_op_cost_us on paper_mixed_d3",
    ),
    spec(
        "engine.insert_p99_us",
        "us",
        "lower",
        "core::full",
        "update_p99_us and avg_op_cost_us on paper_mixed_d3",
    ),
    spec(
        "engine.delete_p50_us",
        "us",
        "lower",
        "core::full",
        "update_p50_us, update_p99_us and avg_op_cost_us on paper_mixed_d3",
    ),
    spec(
        "engine.delete_p99_us",
        "us",
        "lower",
        "core::full",
        "update_p99_us and avg_op_cost_us on paper_mixed_d3",
    ),
    spec("grid.range_queries_per_update", "count", "lower", "grid, spatial", PER_UPDATE_MOVES),
    spec("abcp.instances_created_per_update", "count", "lower", "core::abcp", PER_UPDATE_MOVES),
    spec("abcp.instances_destroyed_per_update", "count", "lower", "core::abcp", PER_UPDATE_MOVES),
    spec("conn.edge_ops_per_update", "count", "lower", "conn (HDT)", PER_UPDATE_MOVES),
    spec(
        "core.status_changes_per_update",
        "count",
        "lower",
        "core::full",
        "explanatory (promotions plus demotions); must not move under a pure speed change",
    ),
    spec(
        "snapshot.publish_p50_us",
        "us",
        "lower",
        "core::snapshot (handle path)",
        "update_p50_us and update_pts_per_s on serve_churn_clustered; not run on batch_churn_uniform",
    ),
    spec(
        "snapshot.publish_p90_us",
        "us",
        "lower",
        "core::snapshot (handle path)",
        "update_p90_us on serve_churn_clustered",
    ),
    spec(
        "snapshot.publish_share_pct",
        "%",
        "lower",
        "core::snapshot (handle path)",
        "share of the served write round trip (p50 over p50); update_p50_us on serve_churn_clustered",
    ),
    spec(
        "snapshot.refresh_p50_us",
        "us",
        "lower",
        "core::snapshot (in-place path)",
        "query_p50_us and avg_op_cost_us on paper_mixed_d3",
    ),
    spec(
        "snapshot.keys_relabeled_per_refresh",
        "count",
        "lower",
        "core::snapshot",
        "the changed-key base publish cost is compared against (serve_churn_clustered, paper_mixed_d3)",
    ),
    spec(
        "snapshot.handle_load_p50_ns",
        "ns",
        "lower",
        "core::snapshot (read path)",
        "query_p50_us and query_p99_us on serve_churn_clustered",
    ),
    spec(
        "snapshot.group_by_p50_us",
        "us",
        "lower",
        "core::snapshot, core::query (read path)",
        "query_p50_us and query_p99_us on serve_churn_clustered; query_p50_us on paper_mixed_d3",
    ),
    spec(
        "shard.insert_batch_p50_us",
        "us",
        "lower",
        "core::shard",
        "traced run of batch_churn_uniform only (same batches on ShardedDbscan S = 2); no gated workload runs core::shard",
    ),
    spec(
        "shard.delete_batch_p50_us",
        "us",
        "lower",
        "core::shard",
        "traced run of batch_churn_uniform only (same batches on ShardedDbscan S = 2); no gated workload runs core::shard",
    ),
    spec(
        "shard.overhead_ratio",
        "ratio",
        "lower",
        "core::shard",
        "sharded (S = 2) over raw FullDynDbscan time on the same uniform batches, traced run of batch_churn_uniform",
    ),
    spec(
        "proto.encode_p50_us",
        "us",
        "lower",
        "serve::proto",
        "query_p50_us on serve_churn_clustered",
    ),
    spec(
        "proto.decode_p50_us",
        "us",
        "lower",
        "serve::proto",
        "query_p50_us on serve_churn_clustered",
    ),
    spec(
        "serve.write_wire_queue_p50_us",
        "us",
        "lower",
        "serve::server, loopback",
        "served write round trip minus in-process layer spans (p50s); update_p50_us on serve_churn_clustered",
    ),
    spec(
        "serve.query_wire_p50_us",
        "us",
        "lower",
        "serve::server, loopback",
        "served query round trip minus in-process layer spans (p50s); query_p50_us on serve_churn_clustered",
    ),
    spec(
        "gen.lateness_p99_us",
        "us",
        "lower",
        "benchmark generator",
        "how late the open-loop reader sent; if large, serve query figures are void",
    ),
    spec(
        "trace.overhead_pct",
        "%",
        "lower",
        "benchmark tracer",
        "traced over untraced time of the same operations, minus one",
    ),
];

fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
        .unit
}

/// Collects per-layer values; unset metrics report 0.
#[derive(Debug)]
pub struct Layers {
    values: Vec<(&'static str, f64)>,
    pub notes: Vec<String>,
}

impl Default for Layers {
    fn default() -> Self {
        Self::new()
    }
}

impl Layers {
    pub fn new() -> Self {
        Self {
            values: PER_LAYER.iter().map(|s| (s.name, 0.0)).collect(),
            notes: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        let slot = self
            .values
            .iter_mut()
            .find(|(n, _)| *n == name)
            .expect("catalogued");
        slot.1 = value;
    }

    /// Sets a percentile of `samples`, or leaves 0 with a note when the
    /// beyond-rule refuses it.
    pub fn set_pct(&mut self, name: &'static str, samples: &mut Samples, p: f64) {
        match samples.percentile(p) {
            Some(v) => self.set(name, v),
            None => self.notes.push(format!(
                "{name}: {} samples, too few for p{p} (reported as 0)",
                samples.len()
            )),
        }
    }

    /// Per-update ratios of a counter delta.
    pub fn set_counters(&mut self, d: &Counters, updates: u64) {
        let per = |x: u64| x as f64 / updates.max(1) as f64;
        self.set("grid.range_queries_per_update", per(d.range_queries));
        self.set(
            "abcp.instances_created_per_update",
            per(d.instances_created),
        );
        self.set(
            "abcp.instances_destroyed_per_update",
            per(d.instances_destroyed),
        );
        self.set(
            "conn.edge_ops_per_update",
            per(d.edge_inserts + d.edge_removes),
        );
        self.set(
            "core.status_changes_per_update",
            per(d.promotions + d.demotions),
        );
        if d.batched_updates > 0 {
            self.set(
                "flush.cell_scans_per_pt",
                d.batch_cell_scans as f64 / d.batched_updates as f64,
            );
        }
        if d.snapshot_refreshes > 0 {
            self.set(
                "snapshot.keys_relabeled_per_refresh",
                d.snapshot_cells_relabeled as f64 / d.snapshot_refreshes as f64,
            );
        }
    }

    pub fn set_workers_per_flush(&mut self, d: &Counters) {
        if d.batch_flushes > 0 {
            self.set(
                "parallel.workers_per_flush",
                d.parallel_workers as f64 / d.batch_flushes as f64,
            );
        }
    }

    pub fn set_overhead(&mut self, untraced_s: f64, traced_s: f64) {
        self.set("trace.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0);
    }

    pub fn into_metrics(self) -> (Vec<Metric>, Vec<String>) {
        let metrics = self
            .values
            .into_iter()
            .map(|(n, v)| Metric::new(n, v, unit_of(n)))
            .collect();
        (metrics, self.notes)
    }
}

/// Formats a number as JSON: all significant digits, never NaN or
/// infinity (those become 0, which the caller has already noted).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Extracts `"name": "<value>"` strings from one JSON array section
    /// of `BENCHMARK.json`, in order.
    fn names_in(section: &str) -> Vec<String> {
        section
            .split("\"name\":")
            .skip(1)
            .map(|s| s.trim_start().trim_start_matches('"'))
            .map(|s| s[..s.find('"').expect("closing quote")].to_string())
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let e2e_at = text.find("\"end_to_end\"").expect("end_to_end section");
        let layer_at = text.find("\"per_layer\"").expect("per_layer section");
        assert!(e2e_at < layer_at, "end_to_end precedes per_layer");
        let e2e = names_in(&text[e2e_at..layer_at]);
        let layer = names_in(&text[layer_at..]);
        let want_e2e: Vec<&str> = END_TO_END.iter().map(|s| s.name).collect();
        let want_layer: Vec<&str> = PER_LAYER.iter().map(|s| s.name).collect();
        assert_eq!(e2e, want_e2e);
        assert_eq!(layer, want_layer);
        for s in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                s.name, s.unit, s.better
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn result_line_shape() {
        let line = result_json(true, 3, 0, &[Metric::new("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn unset_layers_report_zero() {
        let mut l = Layers::new();
        l.set("trace.overhead_pct", 1.5);
        let mut few = Samples::new();
        few.push(1.0);
        l.set_pct("engine.insert_p99_us", &mut few, 99.0);
        let (m, notes) = l.into_metrics();
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(
            m.iter()
                .find(|m| m.name == "trace.overhead_pct")
                .unwrap()
                .value,
            1.5
        );
        assert_eq!(
            m.iter()
                .find(|m| m.name == "engine.insert_p99_us")
                .unwrap()
                .value,
            0.0
        );
        assert_eq!(notes.len(), 1);
    }
}
