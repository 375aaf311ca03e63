//! Quickstart: run one multiprogrammed workload under all three schedulers
//! and compare the paper's metrics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use colab_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 2-big + 2-little machine, big cores enumerated first.
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);

    // A two-program mix: a lock-storm fluid simulation next to an
    // embarrassingly-parallel option pricer (8 threads on 4 cores).
    let workload = colab_suite::workloads::WorkloadSpec::named(
        "quickstart-mix",
        vec![
            (BenchmarkId::Fluidanimate, 4),
            (BenchmarkId::Blackscholes, 4),
        ],
    );

    // The speedup predictor. `heuristic()` needs no training run; see the
    // `train_speedup_model` example for the full Table 2 pipeline.
    let model = SpeedupModel::heuristic();

    // Isolated big-only baselines (T_SB) for the heterogeneous metrics.
    let big_twin = machine.big_only_twin();
    let mut baselines = Vec::new();
    for app in workload.instantiate(42, Scale::default()) {
        let sim =
            Simulation::from_apps_with_params(&big_twin, vec![app], 42, SimParams::default())?;
        let outcome = sim.run(&mut CfsScheduler::new(&big_twin))?;
        baselines.push(outcome.apps[0].turnaround);
    }

    println!("workload: fluidanimate(4) + blackscholes(4) on {machine}");
    println!(
        "{:<8} {:>12} {:>14} {:>14} {:>8} {:>8}",
        "policy", "makespan", "fluidanimate", "blackscholes", "H_ANTT", "H_STP"
    );

    for run in 0..3 {
        let apps = workload.instantiate(42, Scale::default());
        let sim = Simulation::from_apps_with_params(&machine, apps, 42, SimParams::default())?;
        let outcome = match run {
            0 => sim.run(&mut CfsScheduler::new(&machine))?,
            1 => sim.run(&mut WashScheduler::new(&machine, model.clone()))?,
            _ => sim.run(&mut ColabScheduler::new(&machine, model.clone()))?,
        };
        let pairs: Vec<_> = outcome
            .apps
            .iter()
            .zip(&baselines)
            .map(|(app, &sb)| (app.turnaround, sb))
            .collect();
        println!(
            "{:<8} {:>12} {:>14} {:>14} {:>8.3} {:>8.3}",
            outcome.scheduler,
            outcome.makespan.to_string(),
            outcome.apps[0].turnaround.to_string(),
            outcome.apps[1].turnaround.to_string(),
            h_antt(&pairs),
            h_stp(&pairs),
        );
    }
    Ok(())
}
