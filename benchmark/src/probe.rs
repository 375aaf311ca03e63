//! Traced simulation runs: each input is built and run twice, once plain
//! and once under the timing decorator, and the two outcomes must agree.
//! Plain runs supply the engine timings and counts; decorated runs
//! supply the hook self times.

use std::time::{Duration, Instant};

use amp_perf::SpeedupModel;
use amp_sim::{Simulation, SimulationOutcome};
use amp_types::{MachineConfig, Result};
use colab::SchedulerKind;

use crate::checks::same_outcome;
use crate::metrics::{Metrics, POLICIES};
use crate::timing::{empty_span_ns, HookTotals, Timed, HOOKS};

/// Accumulated costs and counts of traced runs.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    pub build: Duration,
    pub plain_run: Duration,
    pub decorated_run: Duration,
    pub runs: u64,
    pub events: u64,
    pub leaves: u64,
    pub compute_events: u64,
    pub picks: u64,
    pub migrations: u64,
    pub preemptions: u64,
    pub futex_wakes: u64,
    pub mismatches: u64,
    pub hooks: [HookTotals; POLICIES.len()],
}

impl Probe {
    /// Builds the simulation with `build` twice and runs it under `kind`,
    /// plain then decorated. Returns the plain outcome.
    ///
    /// # Errors
    ///
    /// Propagates build and simulation failures.
    pub fn run(
        &mut self,
        machine: &MachineConfig,
        model: &SpeedupModel,
        kind: SchedulerKind,
        build: impl Fn() -> Result<Simulation>,
    ) -> Result<SimulationOutcome> {
        let start = Instant::now();
        let sim = build()?;
        let built = Instant::now();
        let mut plain = kind.create(machine, model);
        let outcome = sim.run(plain.as_mut())?;
        let ran = Instant::now();

        let sim = build()?;
        let mut timed = Timed::new(kind.create(machine, model));
        let started = Instant::now();
        let decorated = sim.run(&mut timed)?;
        self.decorated_run += started.elapsed();

        self.build += built - start;
        self.plain_run += ran - built;
        self.runs += 1;
        self.events += outcome.events_processed;
        self.leaves += outcome.compute_leaves;
        self.compute_events += outcome.compute_events;
        let counters = &outcome.telemetry.counters;
        self.picks += counters.picks;
        self.migrations += counters.total_migrations();
        self.preemptions += counters.total_preemptions();
        self.futex_wakes += counters.futex_wakes;
        if !same_outcome(&outcome, &decorated) {
            self.mismatches += 1;
        }
        let policy = POLICIES
            .iter()
            .position(|&p| p == kind.name())
            .expect("every scheduler kind is a reported policy");
        self.hooks[policy].absorb(&timed.totals());
        Ok(outcome)
    }

    pub fn absorb(&mut self, other: &Probe) {
        self.build += other.build;
        self.plain_run += other.plain_run;
        self.decorated_run += other.decorated_run;
        self.runs += other.runs;
        self.events += other.events;
        self.leaves += other.leaves;
        self.compute_events += other.compute_events;
        self.picks += other.picks;
        self.migrations += other.migrations;
        self.preemptions += other.preemptions;
        self.futex_wakes += other.futex_wakes;
        self.mismatches += other.mismatches;
        for (mine, theirs) in self.hooks.iter_mut().zip(&other.hooks) {
            mine.absorb(theirs);
        }
    }

    /// Writes the `sim.*`, `sched.*` and `trace.overhead_pct` metrics.
    /// Hook times have the cost of an empty span, measured as many times
    /// as there were hook calls, subtracted.
    pub fn report(&self, layers: &mut Metrics) {
        let calls: u64 = self.hooks.iter().map(HookTotals::total_calls).sum();
        let span_ns = empty_span_ns(calls);
        let mut hook_ms = 0.0;
        for (policy, totals) in POLICIES.iter().zip(&self.hooks) {
            for (i, hook) in HOOKS.iter().enumerate() {
                let self_ns = (totals.ns[i] as f64 - totals.calls[i] as f64 * span_ns).max(0.0);
                hook_ms += self_ns / 1e6;
                layers.set(&format!("sched.{policy}.{hook}.ms"), self_ns / 1e6);
                layers.set(
                    &format!("sched.{policy}.{hook}.calls"),
                    totals.calls[i] as f64,
                );
            }
        }
        let run_ms = ms(self.plain_run);
        let engine_ms = (run_ms - hook_ms).max(0.0);
        layers.set("sim.build_ms", ms(self.build));
        layers.set("sim.run_ms", run_ms);
        layers.set("sim.engine_self_ms", engine_ms);
        layers.set("sim.engine_self_share", ratio(engine_ms, run_ms));
        layers.set("sim.ns_per_event", ratio(run_ms * 1e6, self.events as f64));
        layers.set("sim.runs", self.runs as f64);
        layers.set("sim.events", self.events as f64);
        layers.set("sim.compute_leaves", self.leaves as f64);
        layers.set("sim.compute_events", self.compute_events as f64);
        layers.set(
            "sim.merged_op_ratio",
            ratio(self.leaves as f64, self.compute_events as f64),
        );
        layers.set("sched.picks", self.picks as f64);
        layers.set("sched.migrations", self.migrations as f64);
        layers.set("sched.preemptions", self.preemptions as f64);
        layers.set("sched.futex_wakes", self.futex_wakes as f64);
        layers.set(
            "trace.overhead_pct",
            100.0 * ratio(ms(self.decorated_run) - run_ms, run_ms),
        );
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
