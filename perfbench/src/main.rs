//! Command line:
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints notes (lines starting with `#`), the workload-only end-to-end
//! figures, and as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the gated end-to-end metrics
//! with `--trace 0`, every per-layer metric with `--trace 1`. Exits 1
//! when an output check fails, 2 on a usage error.

use perfbench::metrics::{json_num, result_json};
use perfbench::{run_workload, Config, Scale, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(a)
}

/// Spans go next to the build output, inside the checkout.
fn trace_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from)
        .join("perfbench-trace")
}

fn run_one(a: &Args) -> ExitCode {
    let cfg = Config {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        scale: Scale::full(),
        trace_dir: a.trace.then(trace_dir),
    };
    println!(
        "# workload {} seed {} seconds {} trace {} on {} CPUs",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let out = match run_workload(&a.workload, &cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    for n in &out.notes {
        println!("# {n}");
    }
    for e in &out.errors {
        println!("# FAILED {e}");
    }
    for m in out.extra.iter().chain(&out.metrics) {
        println!("# {} = {} {}", m.name, json_num(m.value), m.unit);
    }
    println!(
        "{}",
        result_json(out.correct(), out.attempted, out.failed, &out.metrics)
    );
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in its own process (so each has its own peak
/// RSS), passing each one's output through unchanged; fails if any of
/// them fails.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let mut args: Vec<String> = argv.to_vec();
        let at = args.iter().position(|s| s == "--workload").expect("parsed") + 1;
        args[at] = w.to_string();
        match Command::new(&exe).args(&args).status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("cannot run {w}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nusage: perfbench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&argv)
    } else {
        run_one(&args)
    }
}
