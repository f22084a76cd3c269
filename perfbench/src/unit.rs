//! The single-unit workloads, `read_heavy` and `write_heavy`.
//!
//! One 8192-entry Turbo unit (32 blocks × 256 cells, 32-bit data,
//! 512-bit bus) in 4 replicated groups. Host-execution knobs stay at
//! the `UnitConfig::builder()` defaults; only hardware features are set.
//!
//! Two arms replay the same seeded trace on fresh units:
//! * direct: one `CamUnit` call per trace record from this loop, each
//!   timed (closed loop, one caller) — `ops_per_s`, `call_p*_us`;
//! * streaming: `replay_streaming` through the cycle-accurate
//!   `StreamingCam` — `sim_ops_per_s` and every simulated-cycle metric.
//!
//! The direct arm's answers are checked record by record against the
//! oracle; the streaming arm must match the direct arm pipe by pipe and
//! in the quiescent snapshot. In the traced run the streaming arm is
//! also replayed by [`stream_attributed`], the same public
//! `issue_at`/`tick` calls made from this crate with a span around each,
//! which must reproduce `replay_streaming`'s outputs exactly.

use std::time::Instant;

use dsp_cam_core::prelude::*;
use dsp_cam_sim::Clocked;
use dsp_cam_workload::{
    generate, replay_streaming, split_by_pipe, streaming_cam, Arrival, OpMix, ReplayOutcome, Trace,
    TraceOp, WorkloadConfig,
};

use crate::oracle::{self, Answer, Totals};
use crate::run::{modelled_mops, repeat_setup, secs, Budget, Run};
use crate::span::Tracer;
use crate::stats::{median, peak_rss_mb, percentile};

/// Application ops per trace. `read_heavy` replays 300k so its bursty
/// retire-latency tail rests on enough bursts to repeat across seeds;
/// `write_heavy` has no idle gaps and settles at 100k.
fn ops(mix: Mix) -> u64 {
    match mix {
        Mix::ReadHeavy => 300_000,
        Mix::WriteHeavy => 100_000,
    }
}
const GROUPS: usize = 4;
const NO_OP: u32 = u32::MAX;

/// Which single-unit workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    ReadHeavy,
    WriteHeavy,
}

/// The trace generator settings of `mix` at `seed`.
pub fn workload(mix: Mix, seed: u64, ops: u64) -> WorkloadConfig {
    let base = WorkloadConfig {
        seed,
        ops,
        key_space: 4096,
        prefill: 1536,
        max_live: Some(1900),
        churn_per_mille: 20,
        eviction_min_gap: 1,
        ..WorkloadConfig::default()
    };
    match mix {
        Mix::ReadHeavy => WorkloadConfig {
            zipf_s: 1.0,
            mix: OpMix::READ_HEAVY,
            stream_batch: 16,
            arrival: Arrival::Bursty {
                mean_burst: 64,
                idle_ticks: 48,
            },
            ..base
        },
        Mix::WriteHeavy => WorkloadConfig {
            zipf_s: 0.8,
            mix: OpMix::WRITE_HEAVY,
            stream_batch: 8,
            arrival: Arrival::BackToBack,
            ..base
        },
    }
}

/// The unit both arms run: the write buffer is on for `write_heavy`.
pub fn unit_config(mix: Mix) -> UnitConfig {
    let mut builder = UnitConfig::builder()
        .data_width(32)
        .block_size(256)
        .num_blocks(32)
        .bus_width(512)
        .fidelity(FidelityMode::Turbo);
    if mix == Mix::WriteHeavy {
        builder = builder.write_buffer(WriteBufferConfig {
            capacity: 256,
            drain_per_tick: 4,
            bypass: false,
        });
    }
    builder.build().expect("benchmark geometry is valid")
}

fn new_unit(config: UnitConfig) -> CamUnit {
    let mut unit = CamUnit::new(config).expect("benchmark geometry is valid");
    unit.configure_groups(GROUPS).expect("4 divides 32 blocks");
    unit
}

/// One direct-arm replay.
pub struct DirectRound {
    pub completions: Vec<Completion>,
    pub call_ns: Vec<u64>,
    pub loop_ns: u64,
    pub unit: CamUnit,
}

/// Replay `trace` through one `CamUnit` call per record on `unit`
/// (already prefilled), then flush the write buffer.
pub fn direct_round(trace: &Trace, mut unit: CamUnit, tracer: &mut Tracer) -> DirectRound {
    let mut completions = Vec::with_capacity(trace.records.len());
    let mut call_ns = Vec::with_capacity(trace.records.len());
    let start = Instant::now();
    for (i, record) in trace.records.iter().enumerate() {
        let op = i as u32;
        let (done, ns) = match &record.op {
            TraceOp::Search(key) => {
                let (r, ns) = tracer.call("unit.search", op, || unit.search(*key));
                (Completion::Search(r), ns)
            }
            TraceOp::SearchStream(keys) => {
                let (r, ns) = tracer.call("unit.search_stream", op, || unit.search_stream(keys));
                (Completion::SearchStream(r), ns)
            }
            TraceOp::Update(word) => {
                let (r, ns) = tracer.call("unit.update", op, || unit.update(&[*word]));
                (Completion::Update(r), ns)
            }
            TraceOp::Delete { key, .. } => {
                let (r, ns) = tracer.call("unit.delete_first", op, || unit.delete_first(*key));
                (Completion::Delete(r), ns)
            }
        };
        completions.push(done);
        call_ns.push(ns);
    }
    tracer.call("unit.flush_write_buffer", NO_OP, || {
        unit.flush_write_buffer()
    });
    let loop_ns = start.elapsed().as_nanos() as u64;
    DirectRound {
        completions,
        call_ns,
        loop_ns,
        unit,
    }
}

/// What the streaming attribution pass counted besides its spans.
#[derive(Debug, Default)]
pub struct StreamCounts {
    pub ticks: u64,
    pub idle_ticks: u64,
    pub issue_retries: u64,
}

/// `replay_streaming`, re-made from this crate out of the same public
/// calls (`update`/`flush_write_buffer` prefill, then `issue_at` and
/// `tick`), with a span around each call. Returns the outcome fields
/// `replay_streaming` reports, so the caller can demand equality.
pub fn stream_attributed(
    trace: &Trace,
    config: UnitConfig,
    tracer: &mut Tracer,
) -> (ReplayOutcome, StreamCounts) {
    let mut cam = streaming_cam(config, GROUPS);
    let mut counts = StreamCounts::default();
    {
        let unit = cam.unit_mut();
        if !trace.prefill.is_empty() {
            tracer
                .call("unit.update", NO_OP, || unit.update(trace.prefill_words()))
                .0
                .expect("prefill fits the unit");
        }
        tracer.call("unit.flush_write_buffer", NO_OP, || {
            unit.flush_write_buffer()
        });
    }
    cam.enable_retire_log();
    cam.drain_retired();

    let mut staged = false;
    let mut tick = |cam: &mut StreamingCam, tracer: &mut Tracer, op: u32, staged: &mut bool| {
        tracer.call("pipelined.tick", op, || cam.tick());
        counts.ticks += 1;
        counts.idle_ticks += u64::from(!*staged);
        *staged = false;
    };
    let start = cam.cycle();
    let mut at = start;
    let mut retries = 0u64;
    for (i, record) in trace.records.iter().enumerate() {
        let id = i as u32;
        tracer.open("stream.record", id);
        at += u64::from(record.gap);
        while cam.cycle() < at {
            tick(&mut cam, tracer, id, &mut staged);
        }
        let mut op = record.op.to_op();
        loop {
            match tracer
                .call("pipelined.issue_at", id, || cam.issue_at(op, at))
                .0
            {
                Ok(()) => {
                    staged = true;
                    break;
                }
                Err(back) => {
                    retries += 1;
                    op = back;
                    tick(&mut cam, tracer, id, &mut staged);
                }
            }
        }
        tracer.close();
    }
    while cam.in_flight() || cam.buffer_depth() > 0 {
        tick(&mut cam, tracer, NO_OP, &mut staged);
    }
    counts.issue_retries = retries;
    let records = cam.take_retire_log();
    let outcome = ReplayOutcome {
        completions: cam.drain_retired().into_iter().map(|(_, c)| c).collect(),
        records,
        ticks: cam.cycle() - start,
        ..ReplayOutcome::default()
    };
    (outcome, counts)
}

fn answers(completions: &[Completion]) -> Vec<Answer> {
    completions.iter().map(Answer::of).collect()
}

/// The correctness gate of one round: the direct arm's answers against
/// the oracle record by record; the streaming arm against the direct
/// arm pipe by pipe and in the quiescent snapshot, and its totals
/// against the oracle's.
fn gate(
    run: &mut Run,
    expected: &[Answer],
    direct: &DirectRound,
    streamed: &ReplayOutcome,
    cam: &StreamingCam,
) {
    let got = answers(&direct.completions);
    run.checked(
        "direct arm vs oracle",
        got.len() as u64,
        oracle::mismatches(expected, &got),
    );
    run.require(
        split_by_pipe(&streamed.completions) == split_by_pipe(&direct.completions),
        || "streaming arm differs from the direct arm pipe by pipe".into(),
    );
    run.require(cam.unit().snapshot() == direct.unit.snapshot(), || {
        "streaming and direct arms differ at quiescence".into()
    });
    run.require(cam.buffer_depth() == 0, || {
        "streaming arm left staged writes".into()
    });
    let totals = Totals::of(&answers(&streamed.completions));
    let expected_totals = Totals::of(expected);
    run.require(totals == expected_totals, || {
        format!("streaming totals {totals:?} != oracle {expected_totals:?}")
    });
}

/// Run `mix` for `seconds` at `seed`; the traced run adds the
/// per-layer ledger.
pub fn run(mix: Mix, seed: u64, seconds: f64, traced: bool) -> Run {
    let mut run = Run::default();
    let config = unit_config(mix);
    let spec = workload(mix, seed, ops(mix));
    let capacity = config.total_cells() / GROUPS;

    let reference = generate(&spec).expect("benchmark workload is valid");
    let expected = oracle::expect(&reference, capacity);
    let rejections = Totals::of(&expected).rejections;
    let app_ops = reference.counts().app_ops();

    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut direct_ops_per_s = Vec::new();
    let mut stream_ops_per_s = Vec::new();
    let mut direct_untraced_ns = Vec::new();
    let mut stream_untraced_ns = Vec::new();
    let mut direct_traced_ns = Vec::new();
    let mut stream_traced_ns = Vec::new();
    let mut call_p50 = Vec::new();
    let mut call_p99 = Vec::new();
    let mut direct_tracer = Tracer::new(true);
    let mut stream_tracer = Tracer::new(true);
    let mut stream_counts = StreamCounts::default();
    let mut streamed: Option<ReplayOutcome> = None;
    let mut wbuf: Option<WriteBufferReport> = None;

    // Set up: generate the input, build the unit, prefill it.
    let setup = |setup_s: &mut Vec<f64>, generate_s: &mut Vec<f64>| {
        let start = Instant::now();
        let trace = generate(&spec).expect("benchmark workload is valid");
        generate_s.push(start.elapsed().as_secs_f64());
        let mut unit = new_unit(config);
        unit.update(trace.prefill_words())
            .expect("prefill fits the unit");
        unit.flush_write_buffer();
        setup_s.push(start.elapsed().as_secs_f64());
        (trace, unit)
    };

    let budget = Budget::new(seconds);
    let mut rounds = 0;
    while budget.another(rounds, 2) {
        repeat_setup(|| {
            setup(&mut setup_s, &mut generate_s);
        });
        // Direct arm, untraced.
        let (trace, unit) = setup(&mut setup_s, &mut generate_s);
        run.require(trace == reference, || {
            "trace generation is not deterministic".into()
        });
        let mut off = Tracer::new(false);
        let direct = direct_round(&trace, unit, &mut off);
        direct_untraced_ns.push(direct.loop_ns);
        direct_ops_per_s.push(app_ops as f64 / secs(direct.loop_ns));
        call_p50.push(percentile(&direct.call_ns, 50.0) as f64 / 1e3);
        call_p99.push(percentile(&direct.call_ns, 99.0) as f64 / 1e3);

        // Streaming arm, untraced: replay_streaming itself.
        let mut cam = streaming_cam(config, GROUPS);
        let start = Instant::now();
        let outcome = replay_streaming(&trace, &mut cam);
        let stream_ns = start.elapsed().as_nanos() as u64;
        stream_untraced_ns.push(stream_ns);
        stream_ops_per_s.push(app_ops as f64 / secs(stream_ns));
        gate(&mut run, &expected, &direct, &outcome, &cam);
        if let Some(first) = &streamed {
            run.require(
                first.ticks == outcome.ticks && first.records == outcome.records,
                || "streaming replay is not deterministic".into(),
            );
        }
        wbuf.get_or_insert_with(|| direct.unit.write_buffer_report());

        if traced {
            let (trace, unit) = setup(&mut setup_s, &mut generate_s);
            let direct = direct_round(&trace, unit, &mut direct_tracer);
            direct_traced_ns.push(direct.loop_ns);
            let got = answers(&direct.completions);
            run.checked(
                "traced direct arm vs oracle",
                got.len() as u64,
                oracle::mismatches(&expected, &got),
            );

            let start = Instant::now();
            let (attributed, counts) = stream_attributed(&trace, config, &mut stream_tracer);
            stream_traced_ns.push(start.elapsed().as_nanos() as u64);
            run.require(
                attributed.completions == outcome.completions
                    && attributed.records == outcome.records
                    && attributed.ticks == outcome.ticks,
                || "streaming attribution pass does not reproduce replay_streaming".into(),
            );
            stream_counts.ticks += counts.ticks;
            stream_counts.idle_ticks += counts.idle_ticks;
            stream_counts.issue_retries += counts.issue_retries;
        }
        streamed.get_or_insert(outcome);
        rounds += 1;
    }

    let outcome = streamed.expect("at least one round");
    let ticks = outcome.ticks;
    let (mops, fmax) = modelled_mops(app_ops, ticks, config.total_cells());
    run.require(rejections == 0, || {
        format!("the oracle predicts {rejections} rejections")
    });

    run.set("ops_per_s", median(&direct_ops_per_s));
    run.set("sim_ops_per_s", median(&stream_ops_per_s));
    run.set("call_p50_us", median(&call_p50));
    run.set("call_p99_us", median(&call_p99));
    run.set("cycles_per_op", ticks as f64 / app_ops as f64);
    run.set(
        "retire_p99_cycles",
        percentile(&outcome.latencies, 99.0) as f64,
    );
    run.set("modelled_mops", mops);
    run.set("setup_s", median(&setup_s));
    if let Some(rss) = peak_rss_mb() {
        run.set("peak_rss_mb", rss);
    }
    let rejected = Totals::of(&answers(&outcome.completions)).rejections;
    run.set("error_rate", rejected as f64 / app_ops as f64);
    run.set("fpga-model.fmax_mhz", fmax);
    run.set("fpga-model.cells", config.total_cells() as f64);
    run.set("workload.generate_s", median(&generate_s));
    if let Some(report) = wbuf {
        run.set("write_buffer.search_flushes", report.search_flushes as f64);
        run.set("write_buffer.drained_ops", report.drained_ops as f64);
        run.set("write_buffer.overflows", report.overflows as f64);
        run.set("write_buffer.peak_depth", report.peak_depth as f64);
    }
    if traced {
        let traced_rounds = direct_traced_ns.len() as u64;
        ledger(
            &mut run,
            &direct_tracer,
            &stream_tracer,
            &stream_counts,
            traced_rounds,
            direct_traced_ns.iter().sum(),
            &reference,
        );
        let per_round = |v: &[u64]| median(&v.iter().map(|&ns| ns as f64).collect::<Vec<_>>());
        let untraced = per_round(&direct_untraced_ns) + per_round(&stream_untraced_ns);
        let traced_time = per_round(&direct_traced_ns) + per_round(&stream_traced_ns);
        let leaf =
            (direct_tracer.leaf_ns() + stream_tracer.leaf_ns()) as f64 / traced_rounds as f64;
        run.set("trace.coverage", leaf / untraced);
        run.set("trace.overhead", traced_time / untraced - 1.0);
    }
    run
}

/// Per-layer metrics from the traced rounds' spans. Counts are per
/// round (every round replays the same trace); shares are of the
/// traced direct loop's wall time.
fn ledger(
    run: &mut Run,
    direct: &Tracer,
    stream: &Tracer,
    counts: &StreamCounts,
    rounds: u64,
    direct_loop_ns: u64,
    trace: &Trace,
) {
    let per_call = |(n, ns): (u64, u64)| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    let per_round = |n: u64| (n / rounds) as f64;
    let share = |ns: u64| ns as f64 / direct_loop_ns as f64;

    let streams = direct.total("unit.search_stream");
    let keys = trace.counts().stream_keys * rounds;
    run.set(
        "unit.search_stream.ns_per_key",
        streams.1 as f64 / keys.max(1) as f64,
    );
    run.set("unit.search_stream.share", share(streams.1));
    let deletes = direct.total("unit.delete_first");
    run.set("unit.delete_first.ns_per_call", per_call(deletes));
    run.set("unit.delete_first.share", share(deletes.1));
    for (name, calls, ns) in [
        (
            "unit.search",
            "unit.search.calls",
            "unit.search.ns_per_call",
        ),
        (
            "unit.update",
            "unit.update.calls",
            "unit.update.ns_per_call",
        ),
        (
            "unit.flush_write_buffer",
            "unit.flush_write_buffer.calls",
            "unit.flush_write_buffer.ns",
        ),
    ] {
        let total = direct.total(name);
        run.set(calls, per_round(total.0));
        run.set(ns, per_call(total));
    }
    run.set("pipelined.tick.calls", per_round(counts.ticks));
    run.set("pipelined.tick.idle_calls", per_round(counts.idle_ticks));
    run.set(
        "pipelined.tick.ns_per_call",
        per_call(stream.total("pipelined.tick")),
    );
    run.set(
        "pipelined.issue_at.retries",
        per_round(counts.issue_retries),
    );
    run.set(
        "pipelined.issue_at.ns_per_call",
        per_call(stream.total("pipelined.issue_at")),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(mix: Mix) -> (Vec<Answer>, DirectRound, ReplayOutcome, StreamingCam) {
        let config = unit_config(mix);
        let trace = generate(&workload(mix, 5, 3000)).unwrap();
        let expected = oracle::expect(&trace, config.total_cells() / GROUPS);
        let mut unit = new_unit(config);
        unit.update(trace.prefill_words()).unwrap();
        unit.flush_write_buffer();
        let direct = direct_round(&trace, unit, &mut Tracer::new(false));
        let mut cam = streaming_cam(config, GROUPS);
        let streamed = replay_streaming(&trace, &mut cam);
        (expected, direct, streamed, cam)
    }

    #[test]
    fn both_arms_pass_the_gate_on_a_real_trace() {
        for mix in [Mix::ReadHeavy, Mix::WriteHeavy] {
            let (expected, direct, streamed, cam) = round(mix);
            let mut run = Run::default();
            gate(&mut run, &expected, &direct, &streamed, &cam);
            assert!(run.correct(), "{mix:?}: {:?}", run.problems);
            assert!(Totals::of(&expected).search_hits > 0);
        }
    }

    #[test]
    fn one_corrupted_answer_fails_the_run() {
        let (expected, mut direct, streamed, cam) = round(Mix::ReadHeavy);
        let victim = direct
            .completions
            .iter()
            .position(|c| matches!(c, Completion::Delete(_)))
            .expect("the trace deletes");
        let Completion::Delete(hit) = direct.completions[victim] else {
            unreachable!()
        };
        direct.completions[victim] = Completion::Delete(!hit);
        let mut run = Run::default();
        gate(&mut run, &expected, &direct, &streamed, &cam);
        assert!(!run.correct());
        assert!(run.failed >= 1, "{:?}", run.problems);
    }

    #[test]
    fn attribution_pass_reproduces_replay_streaming() {
        let config = unit_config(Mix::WriteHeavy);
        let trace = generate(&workload(Mix::WriteHeavy, 9, 2000)).unwrap();
        let mut cam = streaming_cam(config, GROUPS);
        let streamed = replay_streaming(&trace, &mut cam);
        let mut tracer = Tracer::new(true);
        let (attributed, counts) = stream_attributed(&trace, config, &mut tracer);
        assert_eq!(attributed.completions, streamed.completions);
        assert_eq!(attributed.records, streamed.records);
        assert_eq!(attributed.ticks, streamed.ticks);
        assert_eq!(counts.ticks, tracer.total("pipelined.tick").0);
        assert_eq!(counts.ticks, streamed.ticks);
    }
}
