//! Staggered application arrivals (extension): programs join a running
//! system instead of starting together at a checkpoint. Schedulers must
//! re-converge their labels/affinities on every arrival.
//!
//! ```text
//! cargo run --release --example staggered_arrivals
//! ```

use colab_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = WorkloadSpec::named(
        "rolling-mix",
        vec![
            (BenchmarkId::OceanCp, 4),
            (BenchmarkId::Ferret, 6),
            (BenchmarkId::Blackscholes, 4),
        ],
    );
    let gap = SimTime::from_millis(60);
    println!(
        "ocean_cp(4) at 0ms, ferret(6) at 60ms, blackscholes(4) at 120ms on 2B4S\n"
    );
    println!(
        "{:<8} {:>12} {:>12} {:>14} {:>14}",
        "policy", "makespan", "ocean_cp", "ferret", "blackscholes"
    );

    let model = SpeedupModel::heuristic();
    for which in 0..4 {
        let machine = MachineConfig::paper_2b4s(CoreOrder::BigFirst);
        let apps = workload.instantiate(17, Scale::default());
        let arrivals = (0..apps.len() as u64)
            .map(|i| SimTime::from_nanos(gap.as_nanos() * i))
            .collect();
        let sim = Simulation::from_apps_with_params(&machine, apps, 17, SimParams::default())?
            .with_arrivals(arrivals)?;
        let outcome = match which {
            0 => sim.run(&mut CfsScheduler::new(&machine))?,
            1 => sim.run(&mut GtsScheduler::new(&machine))?,
            2 => sim.run(&mut WashScheduler::new(&machine, model.clone()))?,
            _ => sim.run(&mut ColabScheduler::new(&machine, model.clone()))?,
        };
        println!(
            "{:<8} {:>12} {:>12} {:>14} {:>14}",
            outcome.scheduler,
            outcome.makespan.to_string(),
            outcome.apps[0].turnaround.to_string(),
            outcome.apps[1].turnaround.to_string(),
            outcome.apps[2].turnaround.to_string(),
        );
    }
    println!("\nTurnarounds are arrival-to-finish; late apps join a busy machine.");
    Ok(())
}
