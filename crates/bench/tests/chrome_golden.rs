//! Golden Chrome traces: the exporter's output bytes are pinned for
//! every policy on a small sync-heavy workload, and for one run under a
//! fault plan, so the `throttle` / `core_offline` / `core_online`
//! markers and their two-decimal `factor` argument are covered too.
//!
//! Regenerate after an intentional change to the trace format or to the
//! simulation with:
//!
//! ```text
//! cargo test -p colab-bench --test chrome_golden -- --ignored regenerate
//! ```

use std::path::PathBuf;

use amp_perf::SpeedupModel;
use amp_sim::{FaultEvent, FaultKind, FaultPlan, SimParams, Simulation};
use amp_types::{CoreId, CoreOrder, MachineConfig, SimTime};
use amp_workloads::{BenchmarkId, CompiledWorkload, Scale, WorkloadSpec};
use colab::SchedulerKind;
use colab_bench::{chrome_trace_json, render_chrome_trace};

const SCALE: f64 = 0.1;

const KINDS: [SchedulerKind; 5] = [
    SchedulerKind::Linux,
    SchedulerKind::Gts,
    SchedulerKind::Wash,
    SchedulerKind::Colab,
    SchedulerKind::EqualProgress,
];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn spec() -> WorkloadSpec {
    WorkloadSpec::single(BenchmarkId::Ferret, 4)
}

/// COLAB on 2B2S with a hotplug cycle and a throttle episode, rendered
/// the way `repro --trace-json` renders a run.
fn faulted_trace() -> String {
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    let params = SimParams {
        trace_capacity: 1 << 18,
        event_capacity: 1 << 16,
        ..SimParams::default()
    };
    let plan = FaultPlan::from_events(
        3,
        vec![
            FaultEvent {
                at: SimTime::from_nanos(1_500_250),
                kind: FaultKind::Throttle {
                    core: CoreId::new(0),
                    factor: 0.375,
                },
            },
            FaultEvent {
                at: SimTime::from_nanos(2_000_500),
                kind: FaultKind::CoreOffline {
                    core: CoreId::new(3),
                },
            },
            FaultEvent {
                at: SimTime::from_nanos(4_000_001),
                kind: FaultKind::CoreOnline {
                    core: CoreId::new(3),
                },
            },
            FaultEvent {
                at: SimTime::from_nanos(5_000_999),
                kind: FaultKind::Throttle {
                    core: CoreId::new(0),
                    factor: 1.0,
                },
            },
        ],
    );
    let model = SpeedupModel::heuristic();
    let compiled =
        CompiledWorkload::compile(&spec(), 42, Scale::new(SCALE)).expect("workload builds");
    let outcome =
        Simulation::from_compiled_with_params(&machine, compiled.apps().to_vec(), 42, params)
            .and_then(|sim| sim.with_fault_plan(plan))
            .and_then(|sim| sim.run(SchedulerKind::Colab.create(&machine, &model).as_mut()))
            .expect("faulted run completes");
    render_chrome_trace(&machine, &outcome)
}

/// Every goldened trace, in fixture order.
fn render_all() -> Vec<(String, String)> {
    let spec = spec();
    let mut traces: Vec<(String, String)> = KINDS
        .iter()
        .map(|&kind| {
            (
                format!("chrome-{}-{}.json", spec.name(), kind.name()),
                chrome_trace_json(&spec, kind, SCALE),
            )
        })
        .collect();
    traces.push((
        format!("chrome-{}-colab-faults.json", spec.name()),
        faulted_trace(),
    ));
    traces
}

#[test]
fn chrome_traces_match_golden_fixtures() {
    for (name, actual) in render_all() {
        let path = golden_dir().join(&name);
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden fixture {} ({e}); regenerate with \
                 `cargo test -p colab-bench --test chrome_golden -- --ignored regenerate`",
                path.display()
            )
        });
        assert!(actual == expected, "{name} differs from its golden fixture");
    }
}

#[test]
fn faulted_fixture_pins_the_fault_markers() {
    let trace = faulted_trace();
    for marker in [
        "\"name\":\"throttle\"",
        "\"factor\":\"0.38\"",
        "\"factor\":\"1.00\"",
        "\"name\":\"core_offline\"",
        "\"name\":\"core_online\"",
    ] {
        assert!(trace.contains(marker), "faulted trace lacks {marker}");
    }
}

#[test]
#[ignore = "rewrites the Chrome trace fixtures; run after intentional changes"]
fn regenerate() {
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).expect("create golden dir");
    for (name, json) in render_all() {
        std::fs::write(dir.join(&name), json).expect("write fixture");
    }
}
