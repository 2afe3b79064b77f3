//! Every workload, at tiny scale, in both modes: it must pass its own
//! output checks and report exactly the catalogued metrics.

use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::{run_workload, Config, Scale, WORKLOADS};

#[test]
fn every_workload_passes_its_checks_at_tiny_scale() {
    for w in WORKLOADS {
        for trace in [false, true] {
            let cfg = Config {
                seed: 3,
                seconds: 0.3,
                trace,
                scale: Scale::tiny(),
                trace_dir: None,
            };
            let out = run_workload(w, &cfg).expect("known workload");
            assert!(
                out.correct(),
                "{w} (trace {trace}) failed: {:?}",
                out.errors
            );
            assert!(out.attempted > 0, "{w} (trace {trace}) attempted nothing");
            let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
            let catalogue = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            let want: Vec<&str> = catalogue.iter().map(|s| s.name).collect();
            assert_eq!(names, want, "{w} (trace {trace}) metric names");
            if !trace {
                for m in &out.metrics {
                    let never_zero = ["setup_s", "update_pts_per_s", "peak_rss_mb"];
                    if never_zero.contains(&m.name) {
                        assert!(m.value > 0.0, "{w}: {} is {}", m.name, m.value);
                    }
                }
            }
        }
    }
}

#[test]
fn unknown_workload_is_refused() {
    let cfg = Config {
        seed: 1,
        seconds: 0.1,
        trace: false,
        scale: Scale::tiny(),
        trace_dir: None,
    };
    assert!(run_workload("no_such_workload", &cfg).is_err());
}
