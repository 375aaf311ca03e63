//! Discrete-event simulator of an asymmetric multicore machine.
//!
//! This crate is the reproduction's substitute for gem5 + the Linux kernel
//! runtime: it executes multiprogrammed workloads (from `amp-workloads`) on
//! a configurable big.LITTLE machine (from `amp-types`), routing every
//! blocking interaction through the futex subsystem (`amp-futex`) and
//! synthesizing per-thread PMU counters (`amp-perf`) every 10 ms — the same
//! sampling period the paper's runtime uses.
//!
//! Scheduling policy is pluggable through the [`Scheduler`] trait, whose
//! hooks mirror the kernel functions the paper overrides:
//!
//! | Kernel function                | Trait hook                  |
//! |--------------------------------|-----------------------------|
//! | `select_task_rq_fair()`        | [`Scheduler::enqueue`]      |
//! | `pick_next_task_fair()`        | [`Scheduler::pick_next`]    |
//! | `wakeup_preempt_entity()`      | [`Scheduler::should_preempt`] + [`Scheduler::time_slice`] |
//! | 10 ms labelling in `__sched__schedule()` | [`Scheduler::on_tick`] |
//!
//! # Examples
//!
//! ```
//! use amp_sim::{RoundRobin, SimParams, Simulation};
//! use amp_types::{CoreOrder, MachineConfig, SimTime};
//! use amp_workloads::{BenchmarkId, Scale, WorkloadSpec};
//!
//! let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
//! let workload = WorkloadSpec::single(BenchmarkId::Blackscholes, 4);
//! let apps = workload.instantiate(1, Scale::quick());
//! let sim = Simulation::from_apps_with_params(&machine, apps, 1, SimParams::default()).unwrap();
//! let outcome = sim.run(&mut RoundRobin::new()).unwrap();
//! assert!(outcome.makespan > SimTime::ZERO);
//! assert_eq!(outcome.apps.len(), 1);
//! ```
//!
//! A simulation has exactly two constructors:
//! [`Simulation::from_apps_with_params`] compiles app specs, and
//! [`Simulation::from_compiled_with_params`] loads `Arc`-shared compiled
//! apps, so one compilation can back many runs. Two modifiers refine
//! either: [`Simulation::with_arrivals`] staggers application arrivals
//! and [`Simulation::with_fault_plan`] injects faults.

#![warn(missing_docs)]

mod engine;
pub mod equeue;
mod outcome;
mod params;
mod rr;
mod sched;
mod trace;

pub use amp_faults as faults;
pub use amp_faults::{FaultEvent, FaultKind, FaultPlan};
pub use amp_telemetry as telemetry;
pub use engine::Simulation;
pub use outcome::{AppOutcome, DegradationReport, EnergyReport, SimulationOutcome, ThreadStats};
pub use params::{PowerModel, SimParams};
pub use rr::RoundRobin;
pub use sched::{EnqueueReason, Pick, SchedCtx, Scheduler, StopReason, ThreadPhase};
pub use trace::{Trace, TraceEvent};
