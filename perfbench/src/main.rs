//! Repository benchmark: runs one named workload with a given seed,
//! checks every answer against an independent oracle, and prints every
//! metric by name with its unit as one JSON object on the last line of
//! standard output. Exits non-zero when any correctness check fails.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload read_heavy --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, measured with tracing
//! off. `--trace 1` reports the per-layer ledger from a traced run that
//! records a span around each public call into a layer. All load comes
//! from this one thread. See `perfbench/README.md` for the workloads,
//! the metrics and which layer metric should move which end-to-end one.

mod cluster;
mod oracle;
mod run;
mod span;
mod stats;
mod triangle;
mod unit;

use std::fmt::Write as _;
use std::process::ExitCode;

use run::Run;

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["read_heavy", "write_heavy", "cluster", "triangle"];

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("sim_ops_per_s", "1/s"),
    ("call_p50_us", "us"),
    ("call_p99_us", "us"),
    ("cycles_per_op", "cycles"),
    ("retire_p99_cycles", "cycles"),
    ("modelled_mops", "Mops"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer a workload
/// does not use reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("unit.search_stream.ns_per_key", "ns"),
    ("unit.search_stream.share", "ratio"),
    ("unit.delete_first.ns_per_call", "ns"),
    ("unit.delete_first.share", "ratio"),
    ("unit.search.ns_per_call", "ns"),
    ("unit.search.calls", "count"),
    ("unit.update.ns_per_call", "ns"),
    ("unit.update.calls", "count"),
    ("unit.flush_write_buffer.ns", "ns"),
    ("unit.flush_write_buffer.calls", "count"),
    ("write_buffer.search_flushes", "count"),
    ("write_buffer.drained_ops", "count"),
    ("write_buffer.overflows", "count"),
    ("write_buffer.peak_depth", "count"),
    ("pipelined.tick.calls", "count"),
    ("pipelined.tick.idle_calls", "count"),
    ("pipelined.tick.ns_per_call", "ns"),
    ("pipelined.issue_at.retries", "count"),
    ("pipelined.issue_at.ns_per_call", "ns"),
    ("cluster.replay_s", "s"),
    ("cluster.route.ns_per_key", "ns"),
    ("cluster.shard_work_s", "s"),
    ("cluster.shard_work_max_s", "s"),
    ("cluster.overhead_share", "ratio"),
    ("cluster.shard_imbalance", "ratio"),
    ("cluster.head_of_line_stalls", "count"),
    ("cluster.peak_queue_depth", "count"),
    ("cluster.migration_stall_cycles", "cycles"),
    ("tc.configure_groups.ns_per_call", "ns"),
    ("tc.reset.ns_per_call", "ns"),
    ("tc.update.ns_per_word", "ns"),
    ("tc.search_stream.ns_per_key", "ns"),
    ("tc.configure_groups.share", "ratio"),
    ("tc.update.share", "ratio"),
    ("tc.search_stream.share", "ratio"),
    ("tc.reset.share", "ratio"),
    ("tc.chunks", "count"),
    ("tc.keys_probed", "count"),
    ("tc.speedup_vs_merge", "ratio"),
    ("fpga-model.fmax_mhz", "MHz"),
    ("fpga-model.cells", "count"),
    ("workload.generate_s", "s"),
    ("graph.build_s", "s"),
    ("error_rate", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

/// Parse `--workload NAME [--seed N] [--seconds S] [--trace 0|1]`.
fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        traced: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(args)
}

/// The result line: the chosen metric set, in list order.
fn render(
    run: &mut Run,
    metrics: &[(&'static str, &'static str)],
    missing_is_zero: bool,
) -> String {
    let mut body = String::new();
    for (i, &(name, unit)) in metrics.iter().enumerate() {
        let value = match run.metrics.get(name).copied() {
            Some(v) if v.is_finite() => v,
            Some(v) => {
                run.require(false, || format!("{name} is not finite: {v}"));
                0.0
            }
            None if missing_is_zero => 0.0,
            None => {
                run.require(false, || format!("{name} was not measured"));
                0.0
            }
        };
        let sep = if i == 0 { "" } else { ", " };
        write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        run.correct(),
        run.attempted,
        run.failed
    )
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let mut run = match args.workload.as_str() {
        "read_heavy" => unit::run(unit::Mix::ReadHeavy, args.seed, args.seconds, args.traced),
        "write_heavy" => unit::run(unit::Mix::WriteHeavy, args.seed, args.seconds, args.traced),
        "cluster" => cluster::run(args.seed, args.seconds, args.traced),
        "triangle" => triangle::run(args.seed, args.seconds, args.traced),
        other => unreachable!("parse admitted workload {other}"),
    };
    let line = if args.traced {
        render(&mut run, PER_LAYER, true)
    } else {
        render(&mut run, END_TO_END, false)
    };
    for problem in &run.problems {
        eprintln!("perfbench: FAILED {problem}");
    }
    println!("{line}");
    if run.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse(list.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "cluster",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.traced),
            ("cluster", 7, 3.0, true)
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "triangle", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "triangle", "--seed"]).is_err());
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let names: Vec<&str> = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        for name in &names {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing"
            );
        }
        assert_eq!(
            json.matches("\"name\":").count(),
            names.len(),
            "extra names"
        );
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} has another unit"
            );
        }
    }

    #[test]
    fn a_failed_check_fails_the_run_line() {
        let mut run = Run::default();
        run.checked("answers", 10, 0);
        for (name, _) in END_TO_END {
            run.set(name, 1.5);
        }
        let line = render(&mut run, END_TO_END, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        run.checked("answers", 10, 1);
        let line = render(&mut run, END_TO_END, false);
        assert!(line.contains("\"correct\": false") && line.contains("\"failed\": 1"));
        let mut empty = Run::default();
        assert!(render(&mut empty, END_TO_END, false).contains("\"correct\": false"));
    }
}
