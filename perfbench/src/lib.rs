//! The repository benchmark: named workloads over the SUSY stand-in that
//! time the library from outside, check its outputs and report end-to-end
//! or per-layer metrics. See `README.md` in this directory.

pub mod env;
pub mod inputs;
pub mod metrics;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod train;

use metrics::Metrics;
use std::path::Path;

/// One benchmark workload: a training problem, optionally served.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name given on the command line.
    pub name: &'static str,
    /// The training problem the workload fits.
    pub spec: train::TrainSpec,
    /// Whether the fitted model is then saved, loaded and served over TCP.
    pub serve: bool,
}

/// The three workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "hss-direct",
        spec: train::HSS_DIRECT,
        serve: false,
    },
    Workload {
        name: "dense",
        spec: train::DENSE,
        serve: false,
    },
    Workload {
        name: "serve",
        spec: train::SERVE_MODEL,
        serve: true,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// What one run produced when every correctness check held.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted (fits, predict calls, requests, set-ups).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// The metrics of the run (end-to-end or per-layer).
    pub metrics: Metrics,
    /// Exact counts of the run, which repeat for a given seed.
    pub counts: train::Counts,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

/// A run whose outputs failed a correctness check: no metric is reported.
#[derive(Debug)]
pub struct Failure {
    /// Operations attempted before the failure.
    pub attempted: u64,
    /// Operations that failed (at least the failed check).
    pub failed: u64,
    /// What went wrong.
    pub reason: String,
}

/// Running count of attempted and failed operations.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted so far.
    pub attempted: u64,
    /// Operations that failed so far.
    pub failed: u64,
}

impl Tally {
    /// Records one more failed operation and turns it into a [`Failure`].
    pub fn failure(&mut self, reason: impl Into<String>) -> Failure {
        self.failed += 1;
        Failure {
            attempted: self.attempted.max(1),
            failed: self.failed,
            reason: reason.into(),
        }
    }
}

/// Runs `workload` on the inputs drawn from `seed`. `seconds` bounds the
/// timed loops; `trace` selects the per-layer run. Trace spans are written
/// under `out_dir`, headed by the host `facts`.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
    facts: &[(&str, String)],
) -> Result<Outcome, Failure> {
    if trace {
        train::run_traced(workload, seed, seconds, out_dir, facts)
    } else {
        train::run_untraced(workload, seed, seconds, out_dir)
    }
}
