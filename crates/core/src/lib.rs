//! Experiment harness: the paper's evaluation, end to end.
//!
//! This crate glues the substrates together into the paper's §5 pipeline:
//!
//! 1. **Offline training** ([`training`]): run every benchmark on
//!    symmetric big-only and little-only machines, collect big-core PMU
//!    counters and measured per-thread speedups, and fit the PCA + linear
//!    regression model of Table 2;
//! 2. **Isolated baselines**: run each application alone on an all-big
//!    machine with the same core count (`T_SB`), the normalizer of the
//!    heterogeneous metrics;
//! 3. **Experiments** ([`experiments`]): every figure and table — single
//!    program H_NTT (Fig. 4), the workload-class comparisons (Figs. 5–7),
//!    the thread/program-count groupings (Figs. 8–9), and the 312-run
//!    summary — each run twice (big-cores-first and little-cores-first)
//!    and averaged, exactly as §5.1 prescribes.
//!
//! # Examples
//!
//! ```no_run
//! use colab::{ExperimentConfig, Harness, SchedulerKind};
//! use amp_workloads::PaperWorkload;
//!
//! let mut harness = Harness::new(ExperimentConfig::default()).unwrap();
//! let workload = PaperWorkload::all()[0]; // Sync-1
//! let cell = harness
//!     .mix(&workload.spec(), 2, 2, SchedulerKind::Colab)
//!     .unwrap();
//! println!("{}: H_ANTT {:.3}", cell.workload, cell.h_antt);
//! ```

#![warn(missing_docs)]

pub mod experiments;
mod harness;
pub mod intern;
pub mod report;
pub mod run;
pub mod simcost;
pub mod sweep;
pub mod training;

pub use harness::{ExperimentConfig, Harness, SchedulerKind};
pub use intern::{InternStats, ProgramStore};
pub use run::{Policy, RunSpec};
pub use sweep::{SweepCell, SweepPlan, SweepReport};
