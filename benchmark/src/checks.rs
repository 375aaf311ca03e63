//! Output checks behind `failed`/`attempted`, outcome comparison, and the
//! FNV-1a output digest.

use amp_sim::SimulationOutcome;

/// Failure bookkeeping for one benchmark process. A *unit* is a cell on
/// `paper_grid`, a study call on `studies` and a run on `trace_dump`;
/// consistency checks that span a whole pass are recorded as problems.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
}

impl Checks {
    /// Records one unit; `errors` are the checks it failed.
    pub fn unit(&mut self, label: &str, errors: Vec<String>) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            self.note(format!("{label}: {}", errors.join("; ")));
        }
    }

    /// Records a failed whole-pass check.
    pub fn problem(&mut self, message: String) {
        self.note(message);
    }

    /// Records `expected == actual`, naming `what` otherwise.
    pub fn same<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, expected: T, actual: T) {
        if expected != actual {
            self.problem(format!("{what}: expected {expected:?}, got {actual:?}"));
        }
    }

    fn note(&mut self, message: String) {
        // Keep the report short; the counts carry the totals.
        if self.problems.len() < 20 {
            eprintln!("check failed: {message}");
        }
        self.problems.push(message);
    }

    /// Failed whole-pass checks so far.
    pub fn problems(&self) -> usize {
        self.problems.len()
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// The checks every simulation outcome must pass: each app finished
/// with a positive turnaround, no core was busier than the makespan,
/// and no scheduler routed work to an offline core.
pub fn outcome_errors(outcome: &SimulationOutcome) -> Vec<String> {
    let mut errors = Vec::new();
    for app in &outcome.apps {
        if app.turnaround.as_nanos() == 0 {
            errors.push(format!("app {} has zero turnaround", app.name));
        }
    }
    let busy: u128 = outcome
        .core_busy
        .iter()
        .map(|b| u128::from(b.as_nanos()))
        .sum();
    let capacity = u128::from(outcome.makespan.as_nanos()) * outcome.core_busy.len() as u128;
    if busy > capacity {
        errors.push(format!(
            "core busy {busy} ns exceeds makespan x cores {capacity} ns"
        ));
    }
    if outcome.degradation.stranded_enqueues != 0 {
        errors.push(format!(
            "{} stranded enqueues",
            outcome.degradation.stranded_enqueues
        ));
    }
    errors
}

/// Errors for each value that is not a finite positive number.
pub fn positive(what: &str, values: impl IntoIterator<Item = f64>) -> Vec<String> {
    values
        .into_iter()
        .filter(|v| !(v.is_finite() && *v > 0.0))
        .map(|v| format!("{what} {v}"))
        .collect()
}

/// Whether two runs of the same input are observably identical:
/// makespan, per-app turnarounds and events processed.
pub fn same_outcome(a: &SimulationOutcome, b: &SimulationOutcome) -> bool {
    a.makespan == b.makespan
        && a.events_processed == b.events_processed
        && a.apps.len() == b.apps.len()
        && a.apps
            .iter()
            .zip(&b.apps)
            .all(|(x, y)| x.turnaround == y.turnaround)
}

/// Incremental FNV-1a (64-bit) over rendered output.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn text(&mut self, text: &str) {
        self.bytes(text.as_bytes());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}
