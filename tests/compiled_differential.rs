//! Differential pin of segment-compiled workload execution.
//!
//! Two layers of equivalence back the compiled path:
//!
//! 1. **Stream equivalence** — for every benchmark program and every
//!    composed paper workload, the compiled segment stream
//!    ([`CompiledProgram::next`]) must yield exactly the action sequence
//!    the legacy [`Cursor`] interpreter yields, leaf for leaf.
//! 2. **Outcome equivalence** — running the same workload with segment
//!    merging on and off (`SimParams::merge_segments`) must produce
//!    identical [`SimulationOutcome`]s: same makespan, same per-thread
//!    accounting, same PMU totals, same telemetry counters — with and
//!    without a nonempty [`FaultPlan`] stressing throttle re-timing,
//!    hotplug preemption, and counter noise mid-run. Only the event
//!    bookkeeping (`events_processed`, `compute_events`) may differ;
//!    `compute_leaves` is merge-invariant and must match too.
//!
//! Together with the golden sweep fixtures (which pin today's output
//! bytes), these tests let the engine merge timer events aggressively
//! while proving the observable simulation never moves.

use amp_perf::SpeedupModel;
use amp_sim::{FaultPlan, SimParams, Simulation, SimulationOutcome};
use amp_types::{CoreOrder, MachineConfig, SimDuration};
use amp_workloads::{
    Action, BenchmarkId, CompiledProgram, Cursor, PaperWorkload, Scale, SegPos, WorkloadSpec,
};
use colab::SchedulerKind;

/// Drains a program through the legacy cursor.
fn legacy_actions(program: &amp_workloads::Program) -> Vec<Action> {
    let mut cursor = Cursor::new();
    let mut out = Vec::new();
    while let Some(action) = cursor.next(program) {
        out.push(action);
    }
    out
}

#[test]
fn all_benchmarks_and_compositions_compile_equivalently() {
    // Every benchmark, at several thread counts and seeds, plus every
    // Table 4 composition: the compiled stream must replay the cursor's
    // action sequence exactly.
    let mut programs = 0usize;
    let mut specs: Vec<WorkloadSpec> = BenchmarkId::ALL
        .into_iter()
        .map(|b| WorkloadSpec::single(b, b.clamp_threads(6)))
        .collect();
    specs.extend(PaperWorkload::all().iter().map(|w| w.spec()));
    for spec in &specs {
        for seed in [1u64, 42] {
            for app in spec.instantiate(seed, Scale::quick()) {
                for thread in &app.threads {
                    let compiled = CompiledProgram::compile(&thread.program, thread.profile);
                    let mut pos = SegPos::new();
                    let mut got = Vec::new();
                    while let Some(action) = compiled.next(&mut pos) {
                        got.push(action);
                    }
                    assert!(compiled.is_finished(&pos));
                    let want = legacy_actions(&thread.program);
                    assert_eq!(
                        got,
                        want,
                        "{}/{} seed {seed}: compiled stream diverged from cursor",
                        spec.name(),
                        thread.name,
                    );
                    programs += 1;
                }
            }
        }
    }
    assert!(
        programs > 100,
        "expected broad coverage, checked {programs}"
    );
}

const FIVE: [SchedulerKind; 5] = [
    SchedulerKind::Linux,
    SchedulerKind::Gts,
    SchedulerKind::Wash,
    SchedulerKind::Colab,
    SchedulerKind::EqualProgress,
];

fn run(
    spec: &WorkloadSpec,
    kind: SchedulerKind,
    seed: u64,
    merge: bool,
    plan: &FaultPlan,
) -> SimulationOutcome {
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    let params = SimParams {
        merge_segments: merge,
        ..SimParams::default()
    };
    let sim = Simulation::from_apps_with_params(
        &machine,
        spec.instantiate(seed, Scale::quick()),
        seed,
        params,
    )
    .expect("workload builds")
    .with_fault_plan(plan.clone())
    .expect("plan is valid for the machine");
    let mut sched = kind.create(&machine, &SpeedupModel::heuristic());
    sim.run(sched.as_mut()).expect("run completes")
}

/// Everything observable must match; only the event-merging bookkeeping
/// may differ (merged runs process fewer `CoreDone`s).
fn assert_outcomes_identical(a: &SimulationOutcome, b: &SimulationOutcome, label: &str) {
    assert_eq!(a.makespan, b.makespan, "{label}: makespan");
    assert_eq!(a.context_switches, b.context_switches, "{label}: switches");
    assert_eq!(a.migrations, b.migrations, "{label}: migrations");
    assert_eq!(
        a.compute_leaves, b.compute_leaves,
        "{label}: compute leaves"
    );
    assert_eq!(a.threads.len(), b.threads.len());
    for (x, y) in a.threads.iter().zip(&b.threads) {
        assert_eq!(x.finish, y.finish, "{label}: finish of {}", x.name);
        assert_eq!(x.run_time, y.run_time, "{label}: run_time of {}", x.name);
        assert_eq!(x.big_time, y.big_time, "{label}: big_time of {}", x.name);
        assert_eq!(
            x.little_time, y.little_time,
            "{label}: little_time of {}",
            x.name
        );
        assert_eq!(x.work_done, y.work_done, "{label}: work_done of {}", x.name);
        assert_eq!(
            x.blocked_time, y.blocked_time,
            "{label}: blocked of {}",
            x.name
        );
        assert_eq!(x.ready_time, y.ready_time, "{label}: ready of {}", x.name);
        assert_eq!(
            x.migrations, y.migrations,
            "{label}: migrations of {}",
            x.name
        );
        assert_eq!(
            x.preemptions, y.preemptions,
            "{label}: preemptions of {}",
            x.name
        );
        assert_eq!(x.pmu_total, y.pmu_total, "{label}: PMU of {}", x.name);
        assert_eq!(
            x.insts.to_bits(),
            y.insts.to_bits(),
            "{label}: insts of {}",
            x.name
        );
    }
    for (x, y) in a.apps.iter().zip(&b.apps) {
        assert_eq!(
            x.turnaround, y.turnaround,
            "{label}: turnaround of {}",
            x.name
        );
    }
    assert_eq!(a.core_busy, b.core_busy, "{label}: core busy");
    assert_eq!(
        a.telemetry.counters, b.telemetry.counters,
        "{label}: telemetry"
    );
    assert_eq!(a.degradation, b.degradation, "{label}: degradation");
    // Merging must help, never hurt, the event count.
    assert!(
        a.events_processed <= b.events_processed,
        "{label}: merged path processed more events ({} > {})",
        a.events_processed,
        b.events_processed
    );
    // A leaf interrupted by the quantum re-arms on redispatch, so the
    // per-leaf path can arm more events than there are leaves; merging
    // can only reduce the arming count, never raise it.
    assert!(
        a.compute_events <= b.compute_events,
        "{label}: merged path armed more compute events ({} > {})",
        a.compute_events,
        b.compute_events
    );
}

#[test]
fn merged_and_unmerged_runs_are_observably_identical() {
    let specs = [
        WorkloadSpec::single(BenchmarkId::Blackscholes, 4),
        WorkloadSpec::single(BenchmarkId::Dedup, 5),
        WorkloadSpec::named(
            "diff-mix",
            vec![(BenchmarkId::Ferret, 4), (BenchmarkId::Fluidanimate, 4)],
        ),
    ];
    let empty = FaultPlan::empty();
    for spec in &specs {
        for kind in FIVE {
            for seed in [7u64, 1234] {
                let merged = run(spec, kind, seed, true, &empty);
                let plain = run(spec, kind, seed, false, &empty);
                let label = format!("{}/{}/{}", spec.name(), kind.name(), seed);
                assert_outcomes_identical(&merged, &plain, &label);
            }
        }
    }
}

#[test]
fn merging_folds_fine_grained_loops() {
    // The paper benchmarks interleave synchronization (or outlive their
    // quantum) often enough that runs stay short; merging earns its keep
    // on fine-grained all-compute loops, where one armed event should
    // cover every leaf boundary inside a scheduling quantum. 50 µs
    // leaves against millisecond slices → dozens of leaves per event.
    use amp_workloads::{AppSpec, Op, Program, ThreadSpec};
    let leaf = SimDuration::from_micros(50);
    let program = Program::new(vec![Op::Loop {
        count: 2000,
        body: vec![Op::Compute(leaf)],
    }]);
    let spec = WorkloadSpec::single(BenchmarkId::Blackscholes, 4);
    let profile = spec.instantiate(7, Scale::quick())[0].threads[0].profile;
    let app = AppSpec {
        name: "fine-grained".into(),
        benchmark: BenchmarkId::Blackscholes,
        threads: (0..4)
            .map(|i| ThreadSpec {
                name: format!("worker-{i}"),
                profile,
                program: program.clone(),
            })
            .collect(),
        num_locks: 0,
        barrier_parties: Vec::new(),
        channel_capacities: Vec::new(),
    };
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    let sim = Simulation::from_apps_with_params(&machine, vec![app], 7, SimParams::default())
        .expect("workload builds");
    let mut sched = SchedulerKind::Linux.create(&machine, &SpeedupModel::heuristic());
    let outcome = sim.run(sched.as_mut()).expect("run completes");
    assert_eq!(outcome.compute_leaves, 4 * 2000);
    assert!(
        (outcome.compute_leaves as f64) >= 10.0 * outcome.compute_events as f64,
        "expected a merged-op ratio of at least 10, got {} leaves / {} events",
        outcome.compute_leaves,
        outcome.compute_events
    );
}

#[test]
fn merged_and_unmerged_runs_match_under_fault_injection() {
    // Random plans exercise the partially-executed-segment paths:
    // throttles re-time the current leaf at a fractional rate (merged
    // arming must fall back to per-leaf), hotplug preempts mid-run, and
    // counter noise perturbs the PMU synthesis RNG stream.
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    let window = SimDuration::from_millis(400);
    let spec = WorkloadSpec::named(
        "diff-chaos",
        vec![(BenchmarkId::Ferret, 4), (BenchmarkId::Blackscholes, 3)],
    );
    let mut nonempty = 0;
    for seed in 0..8u64 {
        let plan = FaultPlan::random(&machine, seed, 2.0, window);
        if !plan.is_empty() {
            nonempty += 1;
        }
        for kind in [SchedulerKind::Linux, SchedulerKind::Colab] {
            let merged = run(&spec, kind, 40 + seed, true, &plan);
            let plain = run(&spec, kind, 40 + seed, false, &plan);
            let label = format!("faulted {}/{}", kind.name(), seed);
            assert_outcomes_identical(&merged, &plain, &label);
        }
    }
    assert!(
        nonempty >= 6,
        "fault plans were mostly empty ({nonempty}/8)"
    );
}
