//! The `triangle` workload: the paper's case study.
//!
//! `CamTriangleCounter::new().run_on_hardware_model_with(g, Turbo)` on
//! `g = barabasi_albert(500, 8, seed)` (~4k edges, the family of the
//! facebook_combined stand-in). Per edge the counter reconfigures the
//! unit's groups, bulk-loads the longer adjacency list, streams the
//! shorter one through `search_stream` and resets — a use of `core`
//! unlike the trace workloads.
//!
//! Arms per round:
//! * hardware model: the counter's own entry point — `ops_per_s`
//!   (intersected edges per host second) and the modelled cycles;
//! * per-edge loop ([`per_edge`]): the same public `CamUnit` calls made
//!   edge by edge from this crate, each edge timed — `sim_ops_per_s`,
//!   `call_p*_us` and the per-edge modelled cycles behind
//!   `retire_p99_cycles`. It must reproduce the counter's report exactly
//!   (triangles, cycles, edges, keys probed); with spans on it is the
//!   traced run's attribution pass.
//!
//! The triangle count is checked against a triangle count made here from
//! the edge list, and against `dsp_cam_graph::triangle`.

use std::collections::BTreeSet;
use std::time::Instant;

use dsp_cam_core::prelude::*;
use dsp_cam_graph::{generate::barabasi_albert, triangle, Csr, GraphBuilder};
use tc_accel::{CamTriangleCounter, MergeTriangleCounter, PipelineCosts, TcReport};

use crate::run::{modelled_mops, repeat_setup, secs, Budget, Run};
use crate::span::Tracer;
use crate::stats::{median, peak_rss_mb, percentile};

const VERTICES: u32 = 500;
const ATTACH: usize = 8;

/// What the per-edge loop produced.
#[derive(Debug, Default)]
pub struct EdgeRun {
    pub triangles: u64,
    pub cycles: u64,
    pub edges: u64,
    pub keys_probed: u64,
    pub chunks: u64,
    pub words_loaded: u64,
    /// Host ns per edge.
    pub edge_ns: Vec<u64>,
    /// Modelled cycles per edge.
    pub edge_cycles: Vec<u64>,
    pub loop_ns: u64,
}

impl EdgeRun {
    fn matches(&self, report: &TcReport) -> bool {
        (self.triangles, self.cycles, self.edges, self.keys_probed)
            == (
                report.triangles,
                report.cycles,
                report.edges,
                report.intersection_steps,
            )
    }
}

/// The counter's per-edge call sequence, driven from this crate with a
/// span around each `CamUnit` call and one per edge.
pub fn per_edge(graph: &Csr, tracer: &mut Tracer) -> EdgeRun {
    let counter = CamTriangleCounter::new();
    let geometry = *counter.geometry();
    let costs = PipelineCosts::default();
    let config = UnitConfig::builder()
        .data_width(32)
        .block_size(geometry.block_size)
        .num_blocks(geometry.num_blocks)
        .bus_width(512)
        .encoding(Encoding::Priority)
        .fidelity(FidelityMode::Turbo)
        .build()
        .expect("case-study geometry is valid");
    let mut unit = CamUnit::new(config).expect("case-study geometry is valid");
    let mut out = EdgeRun {
        cycles: costs.kernel_setup,
        ..EdgeRun::default()
    };
    let mut matches = 0u64;
    let start = Instant::now();
    for u in 0..graph.num_vertices() as u32 {
        for &v in graph.neighbors(u) {
            if v <= u {
                continue;
            }
            let id = out.edges as u32;
            let edge_start = Instant::now();
            tracer.open("tc.edge", id);
            let adj_u = graph.neighbors(u);
            let adj_v = graph.neighbors(v);
            let (longer, shorter) = if adj_u.len() >= adj_v.len() {
                (adj_u, adj_v)
            } else {
                (adj_v, adj_u)
            };
            for chunk in longer.chunks(geometry.capacity()) {
                let m = geometry.groups_for(chunk.len());
                tracer
                    .call("tc.configure_groups", id, || unit.configure_groups(m))
                    .0
                    .expect("M divides the block count");
                let words: Vec<u64> = chunk.iter().map(|&x| u64::from(x)).collect();
                tracer
                    .call("tc.update", id, || unit.update(&words))
                    .0
                    .expect("chunk fits one group");
                let keys: Vec<u64> = shorter.iter().map(|&x| u64::from(x)).collect();
                let (hits, _) = tracer.call("tc.search_stream", id, || unit.search_stream(&keys));
                matches += hits.iter().filter(|h| h.is_match()).count() as u64;
                tracer.call("tc.reset", id, || unit.reset());
                out.chunks += 1;
                out.words_loaded += words.len() as u64;
                out.keys_probed += keys.len() as u64;
            }
            tracer.close();
            out.edge_ns.push(edge_start.elapsed().as_nanos() as u64);
            let compute = geometry.intersect_cycles(longer.len(), shorter.len());
            let edge_cycles = costs.edge_cycles(adj_u.len(), adj_v.len(), compute);
            out.edge_cycles.push(edge_cycles);
            out.cycles += edge_cycles;
            out.edges += 1;
        }
    }
    out.loop_ns = start.elapsed().as_nanos() as u64;
    out.triangles = matches / 3;
    out
}

/// Triangles in an undirected edge list, counted from scratch: each
/// triangle `u < v < w` once, via sorted neighbour sets.
pub fn count_triangles(edges: &[(u32, u32)]) -> u64 {
    let n = edges
        .iter()
        .map(|&(u, v)| u.max(v) as usize + 1)
        .max()
        .unwrap_or(0);
    let mut higher: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); n];
    for &(u, v) in edges {
        if u != v {
            higher[u.min(v) as usize].insert(u.max(v));
        }
    }
    let mut total = 0;
    for (u, succ) in higher.iter().enumerate() {
        debug_assert!(succ.iter().all(|&v| v as usize > u));
        for &v in succ {
            total += succ.intersection(&higher[v as usize]).count() as u64;
        }
    }
    total
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Run {
    let mut run = Run::default();
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut build_s = Vec::new();
    let setup = |setup_s: &mut Vec<f64>, generate_s: &mut Vec<f64>, build_s: &mut Vec<f64>| {
        let start = Instant::now();
        let edges = barabasi_albert(VERTICES, ATTACH, seed);
        let generated = start.elapsed().as_secs_f64();
        let graph = GraphBuilder::from_edges(edges.iter().copied()).build_undirected();
        let total = start.elapsed().as_secs_f64();
        generate_s.push(generated);
        build_s.push(total - generated);
        setup_s.push(total);
        (edges, graph)
    };
    let (edges, reference) = setup(&mut setup_s, &mut generate_s, &mut build_s);
    let expected = count_triangles(&edges);
    run.require(triangle::count_edges(&edges) == expected, || {
        "dsp_cam_graph::triangle disagrees with the benchmark's own count".into()
    });
    let merge = MergeTriangleCounter::new().run(&reference);
    run.require(merge.triangles == expected, || {
        "merge baseline miscounted".into()
    });

    let mut hw_ops_per_s = Vec::new();
    let mut loop_ops_per_s = Vec::new();
    let mut hw_ns = Vec::new();
    let mut loop_untraced_ns = Vec::new();
    let mut loop_traced_ns = Vec::new();
    let mut call_p50 = Vec::new();
    let mut call_p99 = Vec::new();
    let mut tracer = Tracer::new(true);
    let mut first: Option<(TcReport, EdgeRun)> = None;

    let budget = Budget::new(seconds);
    let mut rounds = 0;
    while budget.another(rounds, 2) {
        repeat_setup(|| {
            setup(&mut setup_s, &mut generate_s, &mut build_s);
        });
        let (_, graph) = setup(&mut setup_s, &mut generate_s, &mut build_s);
        let start = Instant::now();
        let report = CamTriangleCounter::new()
            .run_on_hardware_model_with(&graph, FidelityMode::Turbo)
            .expect("case-study geometry is valid");
        let ns = start.elapsed().as_nanos() as u64;
        hw_ns.push(ns);
        hw_ops_per_s.push(report.edges as f64 / secs(ns));
        run.checked(
            "hardware-model triangle count",
            report.edges,
            u64::from(report.triangles != expected),
        );

        let mut off = Tracer::new(false);
        let looped = per_edge(&graph, &mut off);
        loop_untraced_ns.push(looped.loop_ns);
        loop_ops_per_s.push(looped.edges as f64 / secs(looped.loop_ns));
        call_p50.push(percentile(&looped.edge_ns, 50.0) as f64 / 1e3);
        call_p99.push(percentile(&looped.edge_ns, 99.0) as f64 / 1e3);
        run.require(looped.matches(&report), || {
            format!("per-edge loop {looped:?} does not reproduce the counter's report {report:?}")
        });

        if traced {
            let attributed = per_edge(&graph, &mut tracer);
            loop_traced_ns.push(attributed.loop_ns);
            run.require(attributed.matches(&report), || {
                "traced per-edge loop does not reproduce the counter's report".into()
            });
        }
        first.get_or_insert((report, looped));
        rounds += 1;
    }

    let (report, looped) = first.expect("at least one round");
    let cells = CamTriangleCounter::new().geometry().capacity();
    let (mops, fmax) = modelled_mops(report.edges, report.cycles, cells);
    run.set("ops_per_s", median(&hw_ops_per_s));
    run.set("sim_ops_per_s", median(&loop_ops_per_s));
    run.set("call_p50_us", median(&call_p50));
    run.set("call_p99_us", median(&call_p99));
    run.set("cycles_per_op", report.cycles as f64 / report.edges as f64);
    run.set(
        "retire_p99_cycles",
        percentile(&looped.edge_cycles, 99.0) as f64,
    );
    run.set("modelled_mops", mops);
    run.set("setup_s", median(&setup_s));
    if let Some(rss) = peak_rss_mb() {
        run.set("peak_rss_mb", rss);
    }
    run.set("error_rate", run.failed as f64 / run.attempted as f64);
    run.set("fpga-model.fmax_mhz", fmax);
    run.set("fpga-model.cells", cells as f64);
    run.set("workload.generate_s", median(&generate_s));
    run.set("graph.build_s", median(&build_s));
    run.set(
        "tc.speedup_vs_merge",
        merge.cycles as f64 / report.cycles as f64,
    );
    run.set("tc.chunks", looped.chunks as f64);
    run.set("tc.keys_probed", looped.keys_probed as f64);
    if traced {
        let rounds = loop_traced_ns.len() as u64;
        let traced_loop: u64 = loop_traced_ns.iter().sum();
        let per_call = |name: &str| {
            let (n, ns) = tracer.total(name);
            if n == 0 {
                0.0
            } else {
                ns as f64 / n as f64
            }
        };
        run.set(
            "tc.configure_groups.ns_per_call",
            per_call("tc.configure_groups"),
        );
        run.set("tc.reset.ns_per_call", per_call("tc.reset"));
        run.set(
            "tc.update.ns_per_word",
            tracer.total("tc.update").1 as f64 / (looped.words_loaded * rounds) as f64,
        );
        run.set(
            "tc.search_stream.ns_per_key",
            tracer.total("tc.search_stream").1 as f64 / (looped.keys_probed * rounds) as f64,
        );
        for (call, share) in [
            ("tc.configure_groups", "tc.configure_groups.share"),
            ("tc.update", "tc.update.share"),
            ("tc.search_stream", "tc.search_stream.share"),
            ("tc.reset", "tc.reset.share"),
        ] {
            run.set(share, tracer.total(call).1 as f64 / traced_loop as f64);
        }
        let as_f64 = |v: &[u64]| v.iter().map(|&ns| ns as f64).collect::<Vec<_>>();
        let untraced = median(&as_f64(&hw_ns));
        run.set(
            "trace.coverage",
            tracer.leaf_ns() as f64 / rounds as f64 / untraced,
        );
        run.set(
            "trace.overhead",
            median(&as_f64(&loop_traced_ns)) / median(&as_f64(&loop_untraced_ns)) - 1.0,
        );
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_count_matches_hand_counted_graphs() {
        assert_eq!(count_triangles(&[(0, 1), (1, 2), (2, 0)]), 1);
        // K4 has four triangles; duplicate and reversed edges are ignored.
        let k4 = [
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3),
            (3, 2),
            (1, 1),
        ];
        assert_eq!(count_triangles(&k4), 4);
        assert_eq!(count_triangles(&[(0, 1), (1, 2)]), 0);
    }

    #[test]
    fn per_edge_loop_reproduces_the_counter() {
        let edges = barabasi_albert(40, 4, 3);
        let graph = GraphBuilder::from_edges(edges.iter().copied()).build_undirected();
        let report = CamTriangleCounter::new()
            .run_on_hardware_model_with(&graph, FidelityMode::Turbo)
            .unwrap();
        let mut tracer = Tracer::new(true);
        let looped = per_edge(&graph, &mut tracer);
        assert!(looped.matches(&report));
        assert_eq!(looped.triangles, count_triangles(&edges));
        assert_eq!(tracer.total("tc.edge").0, looped.edges);
    }
}
