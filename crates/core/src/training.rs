//! The offline speedup-model training pipeline (§4.1, Table 2).
//!
//! "To construct the training set, we run all applications in
//! single-program mode with two symmetric configurations, using either
//! only little cores or only big cores. We first record all …
//! performance counters of the simulated big cores and the relative
//! speedup between the two configurations." This module does exactly
//! that against our simulator: per-thread big-core counters labelled with
//! the per-thread big-vs-little runtime ratio, PCA-selected down to six
//! counters, fitted with linear regression.

use amp_perf::{SpeedupModel, TrainingSet};
use amp_sim::SimParams;
use amp_types::{MachineConfig, Result};
use amp_workloads::{BenchmarkId, CompiledWorkload, Scale, WorkloadSpec};

use crate::run::RunSpec;
use crate::SchedulerKind;

/// Number of counters the paper's PCA step keeps (Table 2 lists six plus
/// the committed-instruction normalizer).
pub const SELECTED_COUNTERS: usize = 6;

/// Builds the training corpus: for every benchmark, paired symmetric runs
/// on `cores`-core big-only and little-only machines; one row per thread,
/// pairing its big-run PMU totals with its measured speedup.
///
/// # Errors
///
/// Propagates simulation failures (a deadlocking benchmark model would be
/// a bug caught here).
pub fn build_training_set(cores: usize, seed: u64, scale: Scale) -> Result<TrainingSet> {
    let big_machine = MachineConfig::all_big(cores);
    let little_machine = MachineConfig::all_little(cores);
    let mut set = TrainingSet::new();

    // CFS is model-agnostic; the runs only need a model to satisfy the
    // scheduler factory's signature.
    let model = SpeedupModel::heuristic();
    let params = SimParams::default();
    for bench in BenchmarkId::ALL {
        let threads = bench.clamp_threads(cores);
        let spec = WorkloadSpec::single(bench, threads);
        let compiled = CompiledWorkload::compile(&spec, seed, scale)?;
        let run = |machine: &MachineConfig| {
            let apps = compiled.apps().to_vec();
            RunSpec::new(machine.clone(), apps, seed, params, SchedulerKind::Linux).simulate(&model)
        };
        let big_run = run(&big_machine)?;
        let little_run = run(&little_machine)?;

        for (tb, tl) in big_run.threads.iter().zip(&little_run.threads) {
            debug_assert_eq!(tb.name, tl.name, "thread order must match across runs");
            let big_time = tb.run_time.as_secs_f64();
            let little_time = tl.run_time.as_secs_f64();
            if big_time <= 0.0 || little_time <= 0.0 {
                continue;
            }
            // Measured speedup: CPU time ratio for the same work.
            let speedup = little_time / big_time;
            set.push(tb.pmu_total, speedup);
        }
    }
    Ok(set)
}

/// Runs the full offline pipeline and returns the fitted model.
///
/// # Errors
///
/// Propagates simulation and numerical failures.
pub fn train_model(cores: usize, seed: u64, scale: Scale) -> Result<SpeedupModel> {
    let set = build_training_set(cores, seed, scale)?;
    SpeedupModel::train(&set, SELECTED_COUNTERS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_set_covers_all_benchmarks() {
        let set = build_training_set(4, 3, Scale::quick()).unwrap();
        // At least one row per benchmark, at most cores× more.
        assert!(set.len() >= 15, "only {} training rows", set.len());
        // Labels live in the physical speedup range.
        for &(_, s) in set.rows() {
            assert!((0.8..=4.0).contains(&s), "implausible speedup label {s}");
        }
    }

    #[test]
    fn trained_model_recovers_signal() {
        let model = train_model(4, 3, Scale::new(0.25)).unwrap();
        assert_eq!(model.selected_counters().len(), SELECTED_COUNTERS);
        assert!(
            model.r_squared() > 0.5,
            "training fit too weak: R^2 = {}",
            model.r_squared()
        );
    }
}
