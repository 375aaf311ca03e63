//! Property tests over randomly generated workloads: every structurally
//! valid workload must run to completion under every scheduler, with the
//! conservation laws intact. This is failure-injection for the simulator
//! and the policies at once — proptest shrinks any counterexample to a
//! minimal workload.

use colab_suite::prelude::*;
use colab_suite::workloads::{Scale, WorkloadSpec};
use proptest::prelude::*;

fn arbitrary_benchmark() -> impl Strategy<Value = BenchmarkId> {
    proptest::sample::select(BenchmarkId::ALL.to_vec())
}

fn arbitrary_workload() -> impl Strategy<Value = WorkloadSpec> {
    proptest::collection::vec((arbitrary_benchmark(), 1usize..8), 1..4).prop_map(|entries| {
        let entries = entries
            .into_iter()
            .map(|(b, n)| (b, b.clamp_threads(n)))
            .collect();
        WorkloadSpec::named("prop-mix", entries)
    })
}

fn machines() -> impl Strategy<Value = (usize, usize)> {
    prop_oneof![
        Just((1usize, 1usize)),
        Just((2, 2)),
        Just((2, 4)),
        Just((4, 2)),
        Just((1, 3)),
    ]
}

proptest! {
    // Each case runs three schedulers; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_valid_workload_completes_under_every_scheduler(
        spec in arbitrary_workload(),
        (big, little) in machines(),
        seed in 0u64..1000,
    ) {
        let machine = MachineConfig::asymmetric(big, little, CoreOrder::BigFirst);
        let model = SpeedupModel::heuristic();
        let demand: u64 = spec
            .instantiate(seed, Scale::quick())
            .iter()
            .map(|a| a.total_compute().as_nanos())
            .sum();

        for which in 0..3 {
            let sim = Simulation::from_apps_with_params(
                &machine,
                spec.instantiate(seed, Scale::quick()),
                seed,
                SimParams::default(),
            )
            .unwrap();
            let outcome = match which {
                0 => sim.run(&mut CfsScheduler::new(&machine)),
                1 => sim.run(&mut WashScheduler::new(&machine, model.clone())),
                _ => sim.run(&mut ColabScheduler::new(&machine, model.clone())),
            };
            let outcome = outcome.expect("valid workload must not deadlock");

            // Work conservation.
            let done = outcome.total_work().as_nanos();
            prop_assert!(
                done.abs_diff(demand) < 100_000,
                "{}: work {done} vs demand {demand}",
                outcome.scheduler
            );
            // Everything finished.
            prop_assert!(outcome
                .threads
                .iter()
                .all(|t| t.finish > colab_suite::types::SimTime::ZERO));
            // Lifetime decomposition.
            for t in &outcome.threads {
                let accounted = t.run_time + t.ready_time + t.blocked_time;
                let lifetime = t.finish.saturating_since(colab_suite::types::SimTime::ZERO);
                prop_assert!(
                    accounted.as_nanos().abs_diff(lifetime.as_nanos()) < 1_000,
                    "{}: {} decomposition",
                    outcome.scheduler,
                    t.name
                );
            }
        }
    }
}
