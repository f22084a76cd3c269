//! What one benchmark run collects, and the time budget it runs under.

use std::collections::BTreeMap;
use std::time::Instant;

/// The metrics one run measured, plus its correctness verdict.
#[derive(Debug, Default)]
pub struct Run {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Application ops whose answers were checked.
    pub attempted: u64,
    /// Checked ops (or whole checks) that disagreed with the oracle or
    /// failed outright.
    pub failed: u64,
    /// One line per failed check, printed to stderr.
    pub problems: Vec<String>,
}

impl Run {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a check that `failed` of `attempted` ops failed.
    pub fn checked(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        if failed > 0 {
            self.failed += failed;
            self.problems
                .push(format!("{what}: {failed} of {attempted} wrong"));
        }
    }

    /// Record a whole-run invariant; a violation counts as one failure.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Measurement window of `--seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    pub fn new(seconds: f64) -> Self {
        Budget {
            start: Instant::now(),
            seconds,
        }
    }

    /// Whether another round should start: always for the first
    /// `min_rounds`, then while the window lasts.
    pub fn another(&self, rounds_done: usize, min_rounds: usize) -> bool {
        rounds_done < min_rounds || self.start.elapsed().as_secs_f64() < self.seconds
    }
}

/// Repeat `setup` at least 3 times and for at least 0.1 s. Called once
/// per round, so the `setup_s` median rests on samples spread over the
/// whole run, which averages out the host's slow and fast spells even
/// where one set-up takes well under a millisecond.
pub fn repeat_setup(mut setup: impl FnMut()) {
    let start = Instant::now();
    let mut done = 0;
    while done < 3 || start.elapsed().as_secs_f64() < 0.1 {
        setup();
        done += 1;
    }
}

/// Seconds as `f64` from a nanosecond count.
pub fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// Application ops per modelled-hardware microsecond: `ops` retired in
/// `cycles` at the `fpga-model` clock for a unit of `cells` CAM cells.
/// The model is calibrated to the paper's Tables VI–VIII and has not
/// been checked on hardware.
pub fn modelled_mops(ops: u64, cycles: u64, cells: usize) -> (f64, f64) {
    let fmax_mhz = fpga_model::FrequencyModel::u250_unit_32b().frequency_mhz(cells as u64);
    (ops as f64 * fmax_mhz / cycles as f64, fmax_mhz)
}
