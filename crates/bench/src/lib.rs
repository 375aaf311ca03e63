//! Shared helpers for the benches and the `repro` figure regenerator.

#![warn(missing_docs)]

use amp_perf::SpeedupModel;
use amp_sim::telemetry::chrome::ChromeTrace;
use amp_sim::telemetry::SchedEvent;
use amp_sim::{SimParams, SimulationOutcome, TraceEvent};
use amp_types::{CoreOrder, MachineConfig, SimTime, ThreadId};
use amp_workloads::{CompiledWorkload, Scale, WorkloadSpec};
use colab::{ExperimentConfig, Harness, RunSpec, SchedulerKind};

/// Parses a workload scale given on a command line: a finite, positive
/// factor (what [`Scale::new`] accepts). The error names the value; the
/// caller prefixes the argument's name.
pub fn parse_scale(value: &str) -> Result<f64, String> {
    match value.parse::<f64>() {
        Ok(scale) if scale.is_finite() && scale > 0.0 => Ok(scale),
        _ => Err(format!("must be finite and positive, got {value}")),
    }
}

/// Builds a harness at the given scale, optionally with the trained
/// Table 2 model (the full pipeline) instead of the analytic heuristic.
///
/// # Panics
///
/// Panics if model training fails — that means a benchmark model is
/// broken, which should fail loudly in benches.
pub fn harness_at(scale: f64, train: bool) -> Harness {
    harness_with(scale, train, 1)
}

/// Like [`harness_at`] with explicit replications per cell.
///
/// # Panics
///
/// Panics if model training fails.
pub fn harness_with(scale: f64, train: bool, replications: u32) -> Harness {
    let config = ExperimentConfig {
        scale: Scale::new(scale),
        seed: 42,
        train_model: train,
        replications,
        ..ExperimentConfig::default()
    };
    Harness::new(config).expect("harness construction succeeds")
}

/// Renders the machine-readable benchmark report for one `repro`
/// invocation (the `--bench-json` payload).
///
/// Combines the process-wide [`colab::simcost`] counters (event-loop
/// wall time and events processed per policy) with the harness's pooled
/// decision telemetry (picks per policy) into one JSON document:
/// aggregate `events_per_sec` and `cells_per_sec`, plus a per-policy
/// breakdown with `run_ns_per_pick` — event-loop wall nanoseconds per
/// scheduler decision, the end-to-end cost of one pick including the
/// dispatch machinery around it.
///
/// `wall_secs` is the whole invocation's wall time and `cells` the
/// number of experiment cells evaluated. Policies with no recorded runs
/// are omitted.
pub fn bench_run_json(harness: &Harness, wall_secs: f64, cells: usize) -> String {
    let cost = colab::simcost::snapshot();
    let picks_by_name: Vec<(&str, u64)> = harness
        .telemetry_by_scheduler()
        .into_iter()
        .map(|(name, report)| (name, report.counters.picks))
        .collect();

    let mut policies = String::new();
    for kind in &cost.kinds {
        if kind.runs == 0 {
            continue;
        }
        let picks = picks_by_name
            .iter()
            .find(|(name, _)| *name == kind.name)
            .map_or(0, |&(_, picks)| picks);
        let per_pick = if picks == 0 { 0.0 } else { kind.run_ns as f64 / picks as f64 };
        if !policies.is_empty() {
            policies.push(',');
        }
        policies.push_str(&format!(
            concat!(
                "\n    {{\"name\": \"{}\", \"runs\": {}, \"run_ms\": {:.3}, ",
                "\"events\": {}, \"events_per_sec\": {:.0}, ",
                "\"segments\": {}, \"segments_per_sec\": {:.0}, ",
                "\"merged_op_ratio\": {:.2}, ",
                "\"picks\": {}, \"run_ns_per_pick\": {:.1}}}"
            ),
            kind.name,
            kind.runs,
            kind.run_ns as f64 / 1e6,
            kind.events,
            kind.events_per_sec(),
            kind.segments,
            kind.segments_per_sec(),
            kind.merged_op_ratio(),
            picks,
            per_pick,
        ));
    }

    let interning = harness.intern_stats();
    format!(
        concat!(
            "{{\n",
            "  \"schema\": \"colab-bench-run/1\",\n",
            "  \"wall_secs\": {:.3},\n",
            "  \"cells\": {},\n",
            "  \"cells_per_sec\": {:.2},\n",
            "  \"sim\": {{\"build_ms\": {:.3}, \"run_ms\": {:.3}, ",
            "\"runs\": {}, \"events\": {}, \"events_per_sec\": {:.0}, ",
            "\"compute_leaves\": {}, \"segments\": {}, ",
            "\"segments_per_sec\": {:.0}, \"merged_op_ratio\": {:.2}}},\n",
            "  \"interning\": {{\"hits\": {}, \"misses\": {}}},\n",
            "  \"policies\": [{}\n  ]\n",
            "}}\n"
        ),
        wall_secs,
        cells,
        if wall_secs > 0.0 { cells as f64 / wall_secs } else { 0.0 },
        cost.build_ns as f64 / 1e6,
        cost.run_ns() as f64 / 1e6,
        cost.runs(),
        cost.events(),
        cost.events_per_sec(),
        cost.leaves(),
        cost.segments(),
        cost.segments_per_sec(),
        cost.merged_op_ratio(),
        interning.hits,
        interning.misses,
        policies,
    )
}

/// Runs `spec` under `kind` on the paper's 2B+2S machine with both the
/// execution trace and the telemetry event ring enabled, then renders
/// the run as Chrome trace-event JSON (loadable in Perfetto or
/// `chrome://tracing`). Used by `repro --trace-json`.
///
/// # Panics
///
/// Panics if the workload fails to build or the simulation fails — both
/// mean a broken benchmark model and should fail loudly.
pub fn chrome_trace_json(spec: &WorkloadSpec, kind: SchedulerKind, scale: f64) -> String {
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    let params = SimParams {
        trace_capacity: 1 << 18,
        event_capacity: 1 << 16,
        ..SimParams::default()
    };
    let compiled = CompiledWorkload::compile(spec, 42, Scale::new(scale)).expect("workload builds");
    let outcome = RunSpec::new(machine.clone(), compiled.apps().to_vec(), 42, params, kind)
        .simulate(&SpeedupModel::heuristic())
        .expect("simulation completes");
    render_chrome_trace(&machine, &outcome)
}

/// Renders a finished run (with tracing enabled) as Chrome trace-event
/// JSON: one viewer row per core, a slice per dispatch→stop span, and
/// instant markers for the recorded scheduler decision events. `Pick`
/// events are omitted — every slice already is one.
pub fn render_chrome_trace(machine: &MachineConfig, outcome: &SimulationOutcome) -> String {
    const PID: u64 = 1;
    let mut trace = ChromeTrace::new();
    trace.process_name(PID, &format!("{} on {machine}", outcome.scheduler));
    for (id, spec) in machine.iter() {
        trace.thread_name(PID, id.index() as u64, &format!("{} core {}", spec.kind, id.index()));
    }
    let us = |t: SimTime| t.as_nanos() as f64 / 1e3;
    let thread_name = |t: ThreadId| {
        outcome
            .threads
            .get(t.index())
            .map_or_else(|| format!("t{}", t.index()), |s| s.name.clone())
    };

    let mut open: Vec<Option<(SimTime, ThreadId)>> = vec![None; machine.num_cores()];
    for event in outcome.trace.events() {
        match *event {
            TraceEvent::Dispatch { at, core, thread } => {
                open[core.index()] = Some((at, thread));
            }
            TraceEvent::Stop { at, core, thread: _, reason } => {
                if let Some((from, t)) = open[core.index()].take() {
                    trace.complete(
                        &thread_name(t),
                        "exec",
                        PID,
                        core.index() as u64,
                        us(from),
                        us(at) - us(from),
                        &[
                            ("thread", t.index().to_string()),
                            ("stop", format!("{reason:?}")),
                        ],
                    );
                }
            }
            _ => {}
        }
    }
    for (ci, entry) in open.iter().enumerate() {
        if let Some((from, t)) = *entry {
            trace.complete(
                &thread_name(t),
                "exec",
                PID,
                ci as u64,
                us(from),
                us(outcome.makespan) - us(from),
                &[("thread", t.index().to_string()), ("stop", "horizon".into())],
            );
        }
    }

    for stamped in &outcome.telemetry_events {
        let (name, args): (&str, Vec<(&str, String)>) = match stamped.event {
            SchedEvent::Pick { .. } => continue,
            SchedEvent::Migrate { thread, from, to, direction } => (
                "migrate",
                vec![
                    ("thread", thread_name(thread)),
                    ("from", from.index().to_string()),
                    ("to", to.index().to_string()),
                    ("dir", direction.label().into()),
                ],
            ),
            SchedEvent::Preempt { victim, cause } => (
                "preempt",
                vec![
                    ("victim", thread_name(victim)),
                    ("cause", cause.label().into()),
                ],
            ),
            SchedEvent::Relabel { thread, from, to } => (
                "relabel",
                vec![
                    ("thread", thread_name(thread)),
                    ("from", from.label().into()),
                    ("to", to.label().into()),
                ],
            ),
            SchedEvent::SlicePredict { thread, predicted_speedup, slice } => (
                "slice_predict",
                vec![
                    ("thread", thread_name(thread)),
                    ("speedup", format!("{predicted_speedup:.2}")),
                    ("slice", slice.to_string()),
                ],
            ),
            SchedEvent::FutexWake { waker, woken, blocked } => (
                "futex_wake",
                vec![
                    ("waker", thread_name(waker)),
                    ("woken", thread_name(woken)),
                    ("blocked", blocked.to_string()),
                ],
            ),
            SchedEvent::IdleSteal { thread, from } => (
                "idle_steal",
                vec![
                    ("thread", thread_name(thread)),
                    ("from_core", from.index().to_string()),
                ],
            ),
            SchedEvent::CoreOffline { core } => (
                "core_offline",
                vec![("core", core.index().to_string())],
            ),
            SchedEvent::CoreOnline { core } => (
                "core_online",
                vec![("core", core.index().to_string())],
            ),
            SchedEvent::Throttle { core, factor } => (
                "throttle",
                vec![
                    ("core", core.index().to_string()),
                    ("factor", format!("{factor:.2}")),
                ],
            ),
        };
        trace.instant(name, "sched", PID, stamped.core.index() as u64, us(stamped.at), &args);
    }
    trace.into_json()
}
