//! In-memory span recorder for the traced run.
//!
//! A span is one timed public call into a layer: its name, start and
//! end (ns since the recorder was made), the span open around it (its
//! parent, if any) and the trace record it served (`op`). Spans stay in
//! memory until the run ends; the per-layer metrics are aggregated from
//! them. With recording off, [`Tracer::call`] still returns each call's
//! duration (the untraced arms need it for call latency) but stores
//! nothing.

use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    /// The trace record (or edge) the call served; no metric groups by
    /// it yet, it is kept so a single op's calls can be picked out.
    #[allow(dead_code)]
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn since_origin(&self, at: Instant) -> u64 {
        u64::try_from((at - self.origin).as_nanos()).expect("run shorter than 584 years")
    }

    fn parent(&self) -> u32 {
        self.open.last().copied().unwrap_or(NO_PARENT)
    }

    /// Time `f` as one call named `name` serving record `op`; returns
    /// its result and duration in ns.
    pub fn call<T>(&mut self, name: &'static str, op: u32, f: impl FnOnce() -> T) -> (T, u64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let ns = u64::try_from((end - start).as_nanos()).expect("call shorter than 584 years");
        if self.on {
            let span = Span {
                name,
                parent: self.parent(),
                op,
                start_ns: self.since_origin(start),
                end_ns: self.since_origin(end),
            };
            self.spans.push(span);
        }
        (out, ns)
    }

    /// Open a parent span; calls made until [`Tracer::close`] are its
    /// children.
    pub fn open(&mut self, name: &'static str, op: u32) {
        if !self.on {
            return;
        }
        let start_ns = self.since_origin(Instant::now());
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            parent: self.parent(),
            op,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let index = self.open.pop().expect("close matches an open") as usize;
        self.spans[index].end_ns = self.since_origin(Instant::now());
    }

    /// `(calls, total ns)` of every span named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(n, ns), s| (n + 1, ns + s.duration()))
    }

    /// Total ns of the spans that have no children: the time the timed
    /// public calls themselves account for.
    pub fn leaf_ns(&self) -> u64 {
        let mut has_child = vec![false; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                has_child[span.parent as usize] = true;
            }
        }
        self.spans
            .iter()
            .zip(has_child)
            .filter(|(_, parent)| !parent)
            .map(|(s, _)| s.duration())
            .sum()
    }

    /// Spans recorded so far.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_aggregate() {
        let mut t = Tracer::new(true);
        t.open("edge", 0);
        let (x, _) = t.call("load", 0, || 2 + 2);
        t.call("probe", 0, || ());
        t.close();
        t.call("load", 1, || ());
        assert_eq!(x, 4);
        assert_eq!(t.len(), 4);
        assert_eq!(t.total("load").0, 2);
        assert!(t.total("edge").1 >= t.spans[1].end_ns - t.spans[1].start_ns);
        let (_, load_ns) = t.total("load");
        let (_, probe_ns) = t.total("probe");
        assert_eq!(t.leaf_ns(), load_ns + probe_ns);
        assert_eq!(
            t.spans[1].parent, 0,
            "calls inside an open span are its children"
        );
        assert_eq!(t.spans[3].parent, NO_PARENT);
        assert_eq!(t.spans[3].op, 1);
    }

    #[test]
    fn off_records_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        t.open("edge", 0);
        let (_, ns) = t.call("load", 0, || std::hint::black_box(1));
        t.close();
        assert_eq!(t.len(), 0);
        assert!(ns < 1_000_000_000);
    }
}
