//! Ablation bench: COLAB with each collaborating mechanism disabled in
//! turn, on a synchronization-intensive workload. Measures the simulation
//! and reports (via assertions) that every variant still completes; the
//! quality comparison lives in `repro --ablation`.

use criterion::{criterion_group, criterion_main, BenchmarkId as CriterionId, Criterion};

use amp_perf::SpeedupModel;
use amp_sched::{ColabConfig, ColabScheduler};
use amp_sim::{SimParams, Simulation};
use amp_types::{CoreOrder, MachineConfig, SimTime};
use amp_workloads::{PaperWorkload, Scale, WorkloadClass};

fn bench_variants(c: &mut Criterion) {
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    let spec = PaperWorkload::new(WorkloadClass::Sync, 2).spec();
    let model = SpeedupModel::heuristic();

    let variants: [(&str, ColabConfig); 4] = [
        ("full", ColabConfig::default()),
        ("no_allocation", ColabConfig::default().without_allocation()),
        (
            "no_blocking_selection",
            ColabConfig::default().without_blocking_selection(),
        ),
        (
            "no_scale_slice",
            ColabConfig::default().without_scale_slice(),
        ),
    ];

    let mut group = c.benchmark_group("colab_ablation_sync2_2b2s");
    group.sample_size(10);
    for (label, config) in variants {
        group.bench_with_input(CriterionId::from_parameter(label), &config, |b, &config| {
            b.iter(|| {
                let sim = Simulation::from_apps_with_params(
                    &machine,
                    spec.instantiate(42, Scale::new(0.25)),
                    42,
                    SimParams::default(),
                )
                .expect("workload builds");
                let mut sched = ColabScheduler::with_config(&machine, model.clone(), config);
                let outcome = sim.run(&mut sched).expect("simulation completes");
                assert!(outcome.makespan > SimTime::ZERO);
                outcome.makespan
            })
        });
    }
    group.finish();
}

criterion_group!(ablation, bench_variants);
criterion_main!(ablation);
