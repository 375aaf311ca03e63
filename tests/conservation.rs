//! Cross-crate conservation laws: whatever the scheduling policy, the
//! physics of the simulated machine must hold.

use colab_suite::prelude::*;
use colab_suite::types::SimDuration;
use colab_suite::workloads::{Scale, WorkloadSpec};

fn outcomes(spec: &WorkloadSpec, seed: u64) -> Vec<SimulationOutcome> {
    let machine = MachineConfig::paper_2b4s(CoreOrder::LittleFirst);
    let model = SpeedupModel::heuristic();
    let mut out = Vec::new();
    for run in 0..3 {
        let sim = Simulation::from_apps_with_params(
            &machine,
            spec.instantiate(seed, Scale::new(0.5)),
            seed,
            SimParams::default(),
        )
        .unwrap();
        out.push(match run {
            0 => sim.run(&mut CfsScheduler::new(&machine)).unwrap(),
            1 => sim.run(&mut WashScheduler::new(&machine, model.clone())).unwrap(),
            _ => sim.run(&mut ColabScheduler::new(&machine, model.clone())).unwrap(),
        });
    }
    out
}

fn mixed_spec() -> WorkloadSpec {
    WorkloadSpec::named(
        "conservation-mix",
        vec![
            (BenchmarkId::Ferret, 6),
            (BenchmarkId::Fluidanimate, 4),
            (BenchmarkId::Swaptions, 4),
        ],
    )
}

#[test]
fn total_work_is_scheduler_invariant() {
    let outcomes = outcomes(&mixed_spec(), 3);
    let works: Vec<u64> = outcomes
        .iter()
        .map(|o| o.total_work().as_nanos())
        .collect();
    let max = *works.iter().max().unwrap();
    let min = *works.iter().min().unwrap();
    // The retired work is a property of the programs, not of scheduling;
    // allow only rounding-level drift.
    assert!(
        max - min < 100_000,
        "work varies by {}ns across schedulers",
        max - min
    );
}

#[test]
fn per_thread_lifetime_decomposes_exactly() {
    for outcome in outcomes(&mixed_spec(), 4) {
        for t in &outcome.threads {
            let accounted = t.run_time + t.ready_time + t.blocked_time;
            let lifetime = t.finish.saturating_since(colab_suite::types::SimTime::ZERO);
            let drift = accounted.as_nanos().abs_diff(lifetime.as_nanos());
            assert!(
                drift < 1_000,
                "[{}] {}: run+ready+blocked {} vs lifetime {}",
                outcome.scheduler,
                t.name,
                accounted,
                lifetime
            );
        }
    }
}

#[test]
fn core_busy_time_matches_thread_run_time() {
    for outcome in outcomes(&mixed_spec(), 5) {
        let busy: SimDuration = outcome.core_busy.iter().copied().sum();
        let run: SimDuration = outcome.threads.iter().map(|t| t.run_time).sum();
        let drift = busy.as_nanos().abs_diff(run.as_nanos());
        assert!(
            drift < 1_000,
            "[{}] cores busy {} vs threads ran {}",
            outcome.scheduler,
            busy,
            run
        );
    }
}

#[test]
fn big_plus_little_equals_total_run_time() {
    for outcome in outcomes(&mixed_spec(), 6) {
        for t in &outcome.threads {
            assert_eq!(
                (t.big_time + t.little_time).as_nanos(),
                t.run_time.as_nanos(),
                "[{}] {}",
                outcome.scheduler,
                t.name
            );
        }
    }
}

#[test]
fn caused_wait_is_conserved_against_blocked_time() {
    // Every nanosecond a thread was blocked-and-woken was charged to some
    // waker; totals must match (no cancelled waits exist in these apps).
    for outcome in outcomes(&mixed_spec(), 7) {
        let caused: u64 = outcome.threads.iter().map(|t| t.caused_wait.as_nanos()).sum();
        let blocked: u64 = outcome
            .threads
            .iter()
            .map(|t| t.blocked_time.as_nanos())
            .sum();
        let drift = caused.abs_diff(blocked);
        assert!(
            drift < 1_000,
            "[{}] caused {caused} vs blocked {blocked}",
            outcome.scheduler
        );
    }
}

#[test]
fn makespan_bounded_by_serial_and_ideal_parallel_work() {
    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    let spec = WorkloadSpec::single(BenchmarkId::Blackscholes, 8);
    let sim = Simulation::from_apps_with_params(
        &machine,
        spec.instantiate(8, Scale::new(0.5)),
        8,
        SimParams::default(),
    )
    .unwrap();
    let total_demand = sim_total_demand(&spec, 8);
    let outcome = sim.run(&mut CfsScheduler::new(&machine)).unwrap();
    // Lower bound: perfect parallelism on 4 big-core-equivalents.
    let ideal = total_demand.as_secs_f64() / 4.0;
    // Upper bound: everything serial on one little core (~2.6× slower).
    let worst = total_demand.as_secs_f64() * 2.6;
    let makespan = outcome.makespan.as_secs_f64();
    assert!(
        makespan >= ideal * 0.99 && makespan <= worst,
        "makespan {makespan}s outside [{ideal}, {worst}]"
    );
}

fn sim_total_demand(spec: &WorkloadSpec, seed: u64) -> SimDuration {
    spec.instantiate(seed, Scale::new(0.5))
        .iter()
        .map(|a| a.total_compute())
        .sum()
}
