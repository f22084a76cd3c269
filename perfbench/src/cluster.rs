//! The `cluster` workload: a `CamCluster` of 4 shards × 2048 entries
//! (8 blocks × 256 cells, 1 group, write buffer on) behind a 64-slot
//! ring, with one live slot migration to the next shard opening at the
//! trace midpoint. Total capacity matches the single-unit workloads.
//!
//! Two arms replay the same seeded trace on fresh clusters:
//! * ingest: `replay_cluster` with a default `IngestConfig` — the
//!   primary path (`ops_per_s`) and every simulated-cycle metric;
//! * transactional: one `CamCluster` call per trace record from this
//!   loop, each timed (closed loop, one caller) — `sim_ops_per_s` and
//!   `call_p*_us`, checked record by record against the oracle.
//!
//! The traced run attributes the ingest arm's host time: ring routing
//! (`HashRing::shard_of` over every key), the `split_trace` subtraces
//! each replayed on a lone shard, and the rest — lockstep ticks,
//! dispatch and migration — as cluster overhead. The lone-shard replays
//! must reproduce the ingest arm's hit, delete and rejection totals.

use std::time::Instant;

use dsp_cam_cluster::{
    replay_cluster, CamCluster, ClusterError, ClusterReplayOutcome, IngestConfig, MigrationPlan,
};
use dsp_cam_core::prelude::*;
use dsp_cam_workload::{
    generate, replay_streaming, split_trace, streaming_cam, Arrival, OpMix, Trace, TraceOp,
    WorkloadConfig,
};

use crate::oracle::{self, Answer, Totals};
use crate::run::{modelled_mops, repeat_setup, secs, Budget, Run};
use crate::span::Tracer;
use crate::stats::{median, peak_rss_mb, percentile};

/// Application ops per trace.
pub const OPS: u64 = 100_000;
const SHARDS: usize = 4;
const SLOTS: usize = 64;
const ENTRIES_PER_SHARD: usize = 2048;

pub fn workload(seed: u64, ops: u64) -> WorkloadConfig {
    WorkloadConfig {
        seed,
        ops,
        key_space: 16_384,
        zipf_s: 0.8,
        mix: OpMix::WRITE_HEAVY,
        stream_batch: 8,
        arrival: Arrival::BackToBack,
        churn_per_mille: 50,
        prefill: 6000,
        max_live: Some(6800),
        eviction_min_gap: 1,
    }
}

pub fn shard_config() -> UnitConfig {
    UnitConfig::builder()
        .data_width(32)
        .block_size(256)
        .num_blocks(ENTRIES_PER_SHARD / 256)
        .bus_width(512)
        .fidelity(FidelityMode::Turbo)
        .write_buffer(WriteBufferConfig {
            capacity: 256,
            drain_per_tick: 4,
            bypass: false,
        })
        .build()
        .expect("benchmark geometry is valid")
}

fn new_cluster() -> CamCluster {
    CamCluster::new(shard_config(), SHARDS, SLOTS).expect("benchmark geometry is valid")
}

/// The migration: the slot of the hottest prefill key moves to the
/// next shard once half the records are dispatched.
fn migration(cluster: &CamCluster, trace: &Trace) -> MigrationPlan {
    let ring = cluster.ring();
    let slot = ring.slot_of(trace.prefill_words()[0]);
    MigrationPlan {
        after_records: trace.records.len() / 2,
        slot,
        dest: (ring.assignment(slot) + 1) % SHARDS,
    }
}

/// One `replay_cluster` pass; returns the outcome, the cluster and the
/// call's wall time.
fn ingest_round(trace: &Trace, tracer: &mut Tracer) -> (ClusterReplayOutcome, CamCluster, u64) {
    let mut cluster = new_cluster();
    let config = IngestConfig {
        migrate: Some(migration(&cluster, trace)),
        ..IngestConfig::default()
    };
    let (outcome, ns) = tracer.call("cluster.replay_cluster", u32::MAX, || {
        replay_cluster(trace, &mut cluster, &config)
    });
    let outcome = outcome.expect("the bounded live set fits the cluster");
    (outcome, cluster, ns)
}

/// One transactional pass over a prefilled `cluster`: answers in trace
/// order, per-call ns, and the loop's wall time.
fn transactional_round(
    trace: &Trace,
    mut cluster: CamCluster,
    tracer: &mut Tracer,
) -> (Vec<Answer>, Vec<u64>, u64, CamCluster) {
    let plan = migration(&cluster, trace);
    let mut answers = Vec::with_capacity(trace.records.len());
    let mut call_ns = Vec::with_capacity(trace.records.len());
    let start = Instant::now();
    for (i, record) in trace.records.iter().enumerate() {
        if i == plan.after_records {
            cluster
                .begin_migration(plan.slot, plan.dest)
                .expect("the destination shard holds the slot");
        }
        let op = i as u32;
        let (answer, ns) = match &record.op {
            TraceOp::Search(key) => {
                let (r, ns) = tracer.call("cluster.search", op, || cluster.search(*key));
                (Answer::Search(r.is_match()), ns)
            }
            TraceOp::SearchStream(keys) => {
                let (r, ns) =
                    tracer.call("cluster.search_stream", op, || cluster.search_stream(keys));
                (Answer::Stream(r.iter().map(|r| r.is_match()).collect()), ns)
            }
            TraceOp::Update(word) => {
                let (r, ns) = tracer.call("cluster.update", op, || cluster.update(*word));
                let answer = match r {
                    Ok(()) => Answer::Update(true),
                    Err(ClusterError::Admission(CamError::Full { .. })) => Answer::Update(false),
                    Err(_) => Answer::Failed,
                };
                (answer, ns)
            }
            TraceOp::Delete { key, .. } => {
                let (r, ns) = tracer.call("cluster.delete", op, || cluster.delete(*key));
                (r.map_or(Answer::Failed, Answer::Delete), ns)
            }
        };
        answers.push(answer);
        call_ns.push(ns);
    }
    tracer.call("cluster.quiesce", u32::MAX, || cluster.quiesce());
    let loop_ns = start.elapsed().as_nanos() as u64;
    (answers, call_ns, loop_ns, cluster)
}

/// Attribution pass: route every key, split the trace, and replay each
/// subtrace on a lone shard. Returns the summed totals, per-shard
/// replay ns and routing ns per key.
fn attribute(trace: &Trace, tracer: &mut Tracer) -> (Totals, Vec<u64>, f64) {
    let cluster = new_cluster();
    let ring = cluster.ring();
    let keys: Vec<u64> = trace
        .prefill
        .iter()
        .copied()
        .chain(trace.records.iter().flat_map(|r| match &r.op {
            TraceOp::SearchStream(keys) => keys.clone(),
            TraceOp::Search(k) | TraceOp::Update(k) | TraceOp::Delete { key: k, .. } => vec![*k],
        }))
        .collect();
    let (routed, route_ns) = tracer.call("cluster.route", u32::MAX, || {
        keys.iter()
            .map(|&k| ring.shard_of(k))
            .fold(0usize, |acc, s| acc ^ s)
    });
    std::hint::black_box(routed);
    let (subtraces, _) = tracer.call("cluster.split_trace", u32::MAX, || {
        split_trace(trace, SHARDS, |k| ring.shard_of(k))
    });
    let mut totals = Totals::default();
    let mut shard_ns = Vec::with_capacity(SHARDS);
    for (shard, sub) in subtraces.iter().enumerate() {
        let mut cam = streaming_cam(shard_config(), 1);
        let (outcome, ns) = tracer.call("cluster.shard_work", shard as u32, || {
            replay_streaming(sub, &mut cam)
        });
        let t = Totals::of(
            &outcome
                .completions
                .iter()
                .map(Answer::of)
                .collect::<Vec<_>>(),
        );
        totals.search_hits += t.search_hits;
        totals.delete_hits += t.delete_hits;
        totals.rejections += t.rejections;
        shard_ns.push(ns);
    }
    (totals, shard_ns, route_ns as f64 / keys.len() as f64)
}

fn ingest_totals(outcome: &ClusterReplayOutcome) -> Totals {
    Totals {
        search_hits: outcome.search_hits,
        delete_hits: outcome.delete_hits,
        rejections: outcome.update_rejections,
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Run {
    let mut run = Run::default();
    let spec = workload(seed, OPS);
    let reference = generate(&spec).expect("benchmark workload is valid");
    let expected = oracle::expect(&reference, SHARDS * ENTRIES_PER_SHARD);
    let expected_totals = Totals::of(&expected);
    let app_ops = reference.counts().app_ops();

    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut ingest_ops_per_s = Vec::new();
    let mut txn_ops_per_s = Vec::new();
    let mut ingest_ns = Vec::new();
    let mut txn_ns = Vec::new();
    let mut traced_ns = Vec::new();
    let mut call_p50 = Vec::new();
    let mut call_p99 = Vec::new();
    let mut first: Option<ClusterReplayOutcome> = None;
    let mut wbuf = WriteBufferReport::default();
    let mut tracer = Tracer::new(true);
    let mut shard_work: Vec<Vec<u64>> = Vec::new();
    let mut route_ns_per_key = Vec::new();

    let setup = |setup_s: &mut Vec<f64>, generate_s: &mut Vec<f64>| {
        let start = Instant::now();
        let trace = generate(&spec).expect("benchmark workload is valid");
        generate_s.push(start.elapsed().as_secs_f64());
        let mut cluster = new_cluster();
        cluster
            .prefill(trace.prefill_words())
            .expect("prefill fits the cluster");
        setup_s.push(start.elapsed().as_secs_f64());
        (trace, cluster)
    };

    let budget = Budget::new(seconds);
    let mut rounds = 0;
    while budget.another(rounds, 2) {
        repeat_setup(|| {
            setup(&mut setup_s, &mut generate_s);
        });
        let (trace, cluster) = setup(&mut setup_s, &mut generate_s);
        run.require(trace == reference, || {
            "trace generation is not deterministic".into()
        });

        let mut off = Tracer::new(false);
        let (outcome, ingested, ns) = ingest_round(&trace, &mut off);
        ingest_ns.push(ns);
        ingest_ops_per_s.push(app_ops as f64 / secs(ns));
        let totals = ingest_totals(&outcome);
        run.require(totals == expected_totals, || {
            format!("replay_cluster totals {totals:?} != oracle {expected_totals:?}")
        });
        run.require(
            outcome.dropped == 0
                && outcome.completions == outcome.issued
                && outcome.shed_writes == 0
                && outcome.infra_failures == 0,
            || format!("replay_cluster lost work: {outcome:?}"),
        );
        run.require(ingested.counters().migrations_completed == 1, || {
            "the planned migration did not reach cutover".into()
        });
        if let Some(first) = &first {
            run.require(
                first.ticks == outcome.ticks
                    && first.per_shard_latencies == outcome.per_shard_latencies,
                || "replay_cluster is not deterministic".into(),
            );
        } else {
            for shard in 0..SHARDS {
                let r = ingested.shard(shard).unit().write_buffer_report();
                wbuf.search_flushes += r.search_flushes;
                wbuf.drained_ops += r.drained_ops;
                wbuf.overflows += r.overflows;
                wbuf.peak_depth = wbuf.peak_depth.max(r.peak_depth);
            }
        }

        let (answers, calls, ns, txn) = transactional_round(&trace, cluster, &mut off);
        txn_ns.push(ns);
        txn_ops_per_s.push(app_ops as f64 / secs(ns));
        call_p50.push(percentile(&calls, 50.0) as f64 / 1e3);
        call_p99.push(percentile(&calls, 99.0) as f64 / 1e3);
        run.checked(
            "transactional cluster vs oracle",
            answers.len() as u64,
            oracle::mismatches(&expected, &answers),
        );
        run.require(txn.counters().migrations_completed == 1, || {
            "the transactional migration did not reach cutover".into()
        });

        if traced {
            let (_, cluster) = setup(&mut setup_s, &mut generate_s);
            let start = Instant::now();
            let (again, _, _) = ingest_round(&trace, &mut tracer);
            let (answers, _, _, _) = transactional_round(&trace, cluster, &mut tracer);
            traced_ns.push(start.elapsed().as_nanos() as u64);
            run.require(
                again.ticks == outcome.ticks && ingest_totals(&again) == totals,
                || "traced replay_cluster differs from the untraced one".into(),
            );
            run.checked(
                "traced transactional cluster vs oracle",
                answers.len() as u64,
                oracle::mismatches(&expected, &answers),
            );

            let (lone, shards, route) = attribute(&trace, &mut tracer);
            run.require(lone == totals, || {
                format!("lone-shard replays {lone:?} do not reproduce replay_cluster {totals:?}")
            });
            shard_work.push(shards);
            route_ns_per_key.push(route);
        }
        first.get_or_insert(outcome);
        rounds += 1;
    }

    let outcome = first.expect("at least one round");
    let mut latencies: Vec<u64> = outcome.per_shard_latencies.concat();
    latencies.extend_from_slice(&outcome.frozen_latencies);
    let (mops, fmax) = modelled_mops(app_ops, outcome.ticks, ENTRIES_PER_SHARD);
    let errors =
        outcome.update_rejections + outcome.shed_writes + outcome.infra_failures + outcome.dropped;

    run.set("ops_per_s", median(&ingest_ops_per_s));
    run.set("sim_ops_per_s", median(&txn_ops_per_s));
    run.set("call_p50_us", median(&call_p50));
    run.set("call_p99_us", median(&call_p99));
    run.set("cycles_per_op", outcome.ticks as f64 / app_ops as f64);
    run.set("retire_p99_cycles", percentile(&latencies, 99.0) as f64);
    run.set("modelled_mops", mops);
    run.set("setup_s", median(&setup_s));
    if let Some(rss) = peak_rss_mb() {
        run.set("peak_rss_mb", rss);
    }
    run.set("error_rate", errors as f64 / app_ops as f64);
    run.set("fpga-model.fmax_mhz", fmax);
    run.set("fpga-model.cells", ENTRIES_PER_SHARD as f64);
    run.set("workload.generate_s", median(&generate_s));
    run.set("write_buffer.search_flushes", wbuf.search_flushes as f64);
    run.set("write_buffer.drained_ops", wbuf.drained_ops as f64);
    run.set("write_buffer.overflows", wbuf.overflows as f64);
    run.set("write_buffer.peak_depth", wbuf.peak_depth as f64);
    run.set(
        "cluster.head_of_line_stalls",
        outcome.head_of_line_stalls as f64,
    );
    run.set("cluster.peak_queue_depth", outcome.peak_queue_depth as f64);
    run.set(
        "cluster.migration_stall_cycles",
        outcome.migration_stalls.iter().sum::<u64>() as f64,
    );
    if traced {
        let replay_s = median(&ingest_ns.iter().map(|&ns| secs(ns)).collect::<Vec<_>>());
        let work: Vec<f64> = shard_work.iter().map(|s| secs(s.iter().sum())).collect();
        let max: Vec<f64> = shard_work
            .iter()
            .map(|s| secs(*s.iter().max().expect("4 shards")))
            .collect();
        let imbalance: Vec<f64> = shard_work
            .iter()
            .map(|s| {
                *s.iter().max().expect("4 shards") as f64 * SHARDS as f64
                    / s.iter().sum::<u64>() as f64
            })
            .collect();
        let shard_work_s = median(&work);
        run.set("cluster.replay_s", replay_s);
        run.set("cluster.route.ns_per_key", median(&route_ns_per_key));
        run.set("cluster.shard_work_s", shard_work_s);
        run.set("cluster.shard_work_max_s", median(&max));
        run.set("cluster.overhead_share", 1.0 - shard_work_s / replay_s);
        run.set("cluster.shard_imbalance", median(&imbalance));

        // Coverage: host time the timed calls explain, per round, over
        // the untraced arms' time. The ingest arm is explained by the
        // attribution pass (routing + lone-shard work), the
        // transactional arm by its per-call spans.
        let rounds = shard_work.len() as f64;
        let txn_calls_ns: u64 = [
            "cluster.search",
            "cluster.search_stream",
            "cluster.update",
            "cluster.delete",
        ]
        .iter()
        .map(|name| tracer.total(name).1)
        .sum();
        let route_split_ns =
            tracer.total("cluster.route").1 + tracer.total("cluster.split_trace").1;
        let explained = (secs(txn_calls_ns + route_split_ns) / rounds) + shard_work_s;
        let untraced = replay_s + median(&txn_ns.iter().map(|&ns| secs(ns)).collect::<Vec<_>>());
        run.set("trace.coverage", explained / untraced);
        let traced_s = median(&traced_ns.iter().map(|&ns| secs(ns)).collect::<Vec<_>>());
        run.set("trace.overhead", traced_s / untraced - 1.0);
    }
    run
}
