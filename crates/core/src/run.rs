//! The one run path.
//!
//! Every simulation the harness performs — grid cells, isolated
//! baselines, model training and each extension study — is a [`RunSpec`]
//! turned into a [`SimulationOutcome`] by [`RunSpec::simulate`], under a
//! scheduler built by the one factory, [`Policy::create`]. A study is a
//! list of runs plus a reduction over their outcomes.

use std::sync::Arc;
use std::time::Instant;

use amp_perf::SpeedupModel;
use amp_sched::{
    CfsScheduler, ColabConfig, ColabScheduler, EqualProgressScheduler, GtsScheduler, Scheduler,
    WashScheduler,
};
use amp_sim::{FaultPlan, SimParams, Simulation, SimulationOutcome};
use amp_types::{MachineConfig, Result, SimTime};
use amp_workloads::CompiledApp;

use crate::harness::SchedulerKind;

/// A scheduling policy: one of the evaluated schedulers, or COLAB with
/// an explicit configuration (the ablation study's variants).
#[derive(Debug, Clone, Copy)]
pub enum Policy {
    /// An evaluated scheduler in its default configuration.
    Kind(SchedulerKind),
    /// COLAB with the given mechanisms and parameters.
    Colab(ColabConfig),
}

impl From<SchedulerKind> for Policy {
    fn from(kind: SchedulerKind) -> Policy {
        Policy::Kind(kind)
    }
}

impl Policy {
    /// The evaluated scheduler this policy belongs to (COLAB for every
    /// COLAB configuration).
    pub(crate) fn kind(self) -> SchedulerKind {
        match self {
            Policy::Kind(kind) => kind,
            Policy::Colab(_) => SchedulerKind::Colab,
        }
    }

    /// Instantiates the policy for a machine: the one scheduler factory.
    pub fn create(self, machine: &MachineConfig, model: &SpeedupModel) -> Box<dyn Scheduler> {
        use SchedulerKind as K;
        match self {
            Policy::Kind(K::Linux) => Box::new(CfsScheduler::new(machine)),
            Policy::Kind(K::Wash) => Box::new(WashScheduler::new(machine, model.clone())),
            Policy::Kind(K::Colab) => Policy::Colab(ColabConfig::default()).create(machine, model),
            Policy::Kind(K::Gts) => Box::new(GtsScheduler::new(machine)),
            Policy::Kind(K::EqualProgress) => {
                Box::new(EqualProgressScheduler::new(machine, model.clone()))
            }
            Policy::Colab(config) => {
                Box::new(ColabScheduler::with_config(machine, model.clone(), config))
            }
        }
    }
}

/// Everything one simulation's outcome depends on, apart from the
/// speedup model.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The machine, including any clock overrides.
    pub(crate) machine: MachineConfig,
    /// The compiled workload, one entry per application.
    pub(crate) apps: Vec<Arc<CompiledApp>>,
    /// Seed of the engine's PMU-noise stream.
    pub(crate) seed: u64,
    /// Simulator cost parameters.
    pub(crate) params: SimParams,
    /// Per-application arrival offsets, in load order (all zero is the
    /// paper's protocol).
    pub(crate) arrivals: Vec<SimTime>,
    /// Faults injected during the run (empty by default).
    pub(crate) faults: FaultPlan,
    /// The scheduling policy.
    pub(crate) policy: Policy,
    /// Whether the run's costs go to [`crate::simcost`], which counts
    /// experiment cells only.
    pub(crate) record_cost: bool,
}

impl RunSpec {
    /// A run of `apps` under `policy` on `machine`, every application
    /// arriving at time zero and no faults.
    pub fn new(
        machine: MachineConfig,
        apps: Vec<Arc<CompiledApp>>,
        seed: u64,
        params: SimParams,
        policy: impl Into<Policy>,
    ) -> RunSpec {
        RunSpec {
            arrivals: vec![SimTime::ZERO; apps.len()],
            machine,
            apps,
            seed,
            params,
            faults: FaultPlan::empty(),
            policy: policy.into(),
            record_cost: false,
        }
    }

    /// Builds the simulation and the policy's scheduler and runs it to
    /// completion.
    ///
    /// # Errors
    ///
    /// Propagates invalid inputs (no applications, mismatched arrivals,
    /// an invalid fault plan) and simulation failures.
    pub fn simulate(self, model: &SpeedupModel) -> Result<SimulationOutcome> {
        let start = Instant::now();
        let sim = Simulation::from_compiled_with_params(
            &self.machine,
            self.apps,
            self.seed,
            self.params,
        )?
        .with_arrivals(self.arrivals)?
        .with_fault_plan(self.faults)?;
        let built = Instant::now();
        let mut sched = self.policy.create(&self.machine, model);
        let outcome = sim.run(sched.as_mut())?;
        if self.record_cost {
            crate::simcost::record(
                self.policy.kind(),
                (built - start).as_nanos() as u64,
                built.elapsed().as_nanos() as u64,
                outcome.events_processed,
                outcome.compute_leaves,
                outcome.compute_events,
            );
        }
        Ok(outcome)
    }
}
