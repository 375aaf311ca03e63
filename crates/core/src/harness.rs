//! The experiment harness: baseline cache, cell memo, and the per-cell
//! evaluation protocol of §5.1.

use std::collections::HashMap;
use std::sync::Arc;

use amp_metrics::MixSummary;
use amp_perf::SpeedupModel;
use amp_sched::Scheduler;
use amp_sim::telemetry::TelemetryReport;
use amp_sim::SimParams;
use amp_types::{AppId, CoreOrder, MachineConfig, Result, SimDuration};
use amp_workloads::{BenchmarkId, Scale, WorkloadSpec};

use crate::intern::ProgramStore;
use crate::run::{Policy, RunSpec};
use crate::training;

/// The evaluated scheduling policies: the paper's three, plus ARM GTS
/// (Table 1's remaining general-purpose comparator) as an extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Default Linux CFS (the paper's `LINUX` bars).
    Linux,
    /// The WASH re-implementation.
    Wash,
    /// COLAB.
    Colab,
    /// ARM Global Task Scheduling (load-average affinity; extension).
    Gts,
    /// Equal-progress scheduling (Van Craeynest et al.; extension).
    EqualProgress,
}

impl SchedulerKind {
    /// The paper's three schedulers, in its bar order.
    pub const ALL: [SchedulerKind; 3] = [
        SchedulerKind::Linux,
        SchedulerKind::Wash,
        SchedulerKind::Colab,
    ];

    /// The paper's three plus the GTS extension.
    pub const EXTENDED: [SchedulerKind; 4] = [
        SchedulerKind::Linux,
        SchedulerKind::Gts,
        SchedulerKind::Wash,
        SchedulerKind::Colab,
    ];

    /// Display name, matching the figures.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Linux => "linux",
            SchedulerKind::Wash => "wash",
            SchedulerKind::Colab => "colab",
            SchedulerKind::Gts => "gts",
            SchedulerKind::EqualProgress => "equal-progress",
        }
    }

    /// Instantiates the policy for a machine (see [`Policy::create`]).
    pub fn create(self, machine: &MachineConfig, model: &SpeedupModel) -> Box<dyn Scheduler> {
        Policy::Kind(self).create(machine, model)
    }
}

/// Configuration of an experiment sweep.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Workload size scale (1.0 = the calibrated full size).
    pub scale: Scale,
    /// Master seed; workload materialization and PMU noise derive from it.
    pub seed: u64,
    /// Train the Table 2 model offline (`true`, the paper's pipeline) or
    /// use the analytic heuristic model (`false`, much faster start-up —
    /// for tests).
    pub train_model: bool,
    /// Independent replications per cell: each replication uses a derived
    /// seed (different workload jitter and PMU noise) and itself averages
    /// the two core orders. 1 reproduces the paper's protocol exactly.
    pub replications: u32,
    /// Simulator cost parameters.
    pub sim_params: SimParams,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            scale: Scale::default(),
            seed: 42,
            train_model: true,
            replications: 1,
            sim_params: SimParams::default(),
        }
    }
}

impl ExperimentConfig {
    /// A fast configuration for tests: shrunk workloads, heuristic model.
    pub fn quick() -> ExperimentConfig {
        ExperimentConfig {
            scale: Scale::quick(),
            seed: 42,
            train_model: false,
            replications: 1,
            sim_params: SimParams::default(),
        }
    }
}

/// Key of a memoized experiment cell: `(workload, config, scheduler)`.
pub(crate) type CellKey = (String, String, &'static str);

/// Seed for replication `rep` of a sweep with master seed `master`
/// (replication 0 is the master seed, so `replications == 1` reproduces
/// the paper's protocol bit-for-bit).
pub(crate) fn rep_seed(master: u64, rep: u32) -> u64 {
    master.wrapping_add(u64::from(rep).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Computes the isolated big-only baselines `T_SB` for every app of
/// `workload` on an all-big machine with `total_cores` cores.
///
/// This is the single implementation behind both the serial memoized
/// path ([`Harness::baselines`]) and the parallel sweep executor
/// (`Harness::run_plan`): each baseline depends only on its inputs (the
/// harness's configuration, program store and model, never its memo
/// caches), so running it on any thread yields bit-identical results.
pub(crate) fn compute_baseline(
    h: &Harness,
    workload: &WorkloadSpec,
    total_cores: usize,
) -> Result<Vec<SimDuration>> {
    let config = &h.config;
    let machine = MachineConfig::all_big(total_cores);
    let reps = config.replications.max(1);
    let mut t_sb = vec![SimDuration::ZERO; workload.num_apps()];
    for rep in 0..reps {
        let seed = rep_seed(config.seed, rep);
        let compiled = h.programs.get_or_compile(workload, seed, config.scale)?;
        for (slot, app) in t_sb.iter_mut().zip(compiled.apps()) {
            let run = RunSpec::new(
                machine.clone(),
                vec![Arc::clone(app)],
                seed,
                config.sim_params,
                SchedulerKind::Linux,
            );
            *slot += run.simulate(&h.model)?.turnaround(AppId::new(0));
        }
    }
    for slot in &mut t_sb {
        *slot = *slot / u64::from(reps);
    }
    Ok(t_sb)
}

/// Evaluates one experiment cell — `workload` on a `big`×`little`
/// machine under `kind`, run once per core-enumeration order per
/// replication and averaged (§5.1) — against precomputed baselines
/// `t_sb`. Every run is a fresh [`RunSpec`], so no mutable state is
/// shared with any other cell and the result is a pure function of the
/// arguments (reading only the harness's configuration, program store
/// and model): the sweep executor can evaluate cells on any thread in
/// any order and reproduce the serial path bit-for-bit.
pub(crate) fn compute_cell(
    h: &Harness,
    t_sb: &[SimDuration],
    workload: &WorkloadSpec,
    big: usize,
    little: usize,
    policy: Policy,
) -> Result<(MixSummary, TelemetryReport)> {
    let config = &h.config;
    let config_label = MachineConfig::asymmetric(big, little, CoreOrder::BigFirst).label();
    let reps = config.replications.max(1);
    let mut sums: Vec<SimDuration> = vec![SimDuration::ZERO; workload.num_apps()];
    let mut names: Vec<String> = Vec::new();
    let mut telemetry = TelemetryReport::new();
    for rep in 0..reps {
        let seed = rep_seed(config.seed, rep);
        let compiled = h.programs.get_or_compile(workload, seed, config.scale)?;
        for order in CoreOrder::BOTH {
            let machine = MachineConfig::asymmetric(big, little, order);
            let apps = compiled.apps().to_vec();
            let mut run = RunSpec::new(machine, apps, seed, config.sim_params, policy);
            // Ablation variants would skew COLAB's per-policy costs.
            run.record_cost = matches!(policy, Policy::Kind(_));
            let outcome = run.simulate(&h.model)?;
            names = outcome.apps.iter().map(|a| a.name.clone()).collect();
            for (sum, app) in sums.iter_mut().zip(&outcome.apps) {
                *sum += app.turnaround;
            }
            telemetry.absorb(&outcome.telemetry);
        }
    }
    let divisor = 2 * u64::from(reps);
    let apps: Vec<(String, SimDuration, SimDuration)> = names
        .into_iter()
        .zip(sums)
        .zip(t_sb)
        .map(|((name, sum), &sb)| (name, sum / divisor, sb))
        .collect();
    let cell = MixSummary::new(workload.name(), config_label, policy.kind().name(), apps);
    Ok((cell, telemetry))
}

/// The evaluation harness: owns the trained model and memoizes isolated
/// baselines and experiment cells so the figures can share the same
/// 312-run sweep.
pub struct Harness {
    pub(crate) config: ExperimentConfig,
    pub(crate) model: SpeedupModel,
    /// `(workload name, total cores) → per-app T_SB`.
    pub(crate) baselines: HashMap<(String, usize), Vec<SimDuration>>,
    /// Memoized `(workload, config, scheduler) → summary`.
    pub(crate) cells: HashMap<CellKey, MixSummary>,
    /// Decision telemetry per cell, absorbed over the core-order pair and
    /// all replications (so `runs` is `2 × replications`).
    pub(crate) telemetry: HashMap<CellKey, TelemetryReport>,
    /// Interned compiled workloads, shared by the serial path and every
    /// `run_plan` worker: each distinct `(workload, seed, scale)` is
    /// instantiated and compiled once, however many cells replay it.
    pub(crate) programs: ProgramStore,
}

impl Harness {
    /// Creates the harness, training the speedup model if configured.
    ///
    /// # Errors
    ///
    /// Propagates training failures.
    pub fn new(config: ExperimentConfig) -> Result<Harness> {
        let model = if config.train_model {
            training::train_model(4, config.seed, config.scale)?
        } else {
            SpeedupModel::heuristic()
        };
        Ok(Harness {
            config,
            model,
            baselines: HashMap::new(),
            cells: HashMap::new(),
            telemetry: HashMap::new(),
            programs: ProgramStore::new(),
        })
    }

    /// Compiled-workload interning statistics (hits/misses), for the
    /// `--bench-json` report.
    pub fn intern_stats(&self) -> crate::intern::InternStats {
        self.programs.stats()
    }

    /// The speedup model in use.
    pub fn model(&self) -> &SpeedupModel {
        &self.model
    }

    /// The active configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Isolated big-only baselines `T_SB` for every app of a workload, on
    /// an all-big machine with `total_cores` cores. Memoized.
    pub(crate) fn baselines(
        &mut self,
        workload: &WorkloadSpec,
        total_cores: usize,
    ) -> Result<Vec<SimDuration>> {
        let key = (workload.name().to_string(), total_cores);
        if let Some(b) = self.baselines.get(&key) {
            return Ok(b.clone());
        }
        let t_sb = compute_baseline(self, workload, total_cores)?;
        self.baselines.insert(key, t_sb.clone());
        Ok(t_sb)
    }

    /// Evaluates one experiment cell: `workload` on a `big`×`little`
    /// machine under `kind`, run once per core-enumeration order and
    /// averaged (§5.1). Memoized across figures.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn mix(
        &mut self,
        workload: &WorkloadSpec,
        big: usize,
        little: usize,
        kind: SchedulerKind,
    ) -> Result<MixSummary> {
        let config_label = MachineConfig::asymmetric(big, little, CoreOrder::BigFirst).label();
        let key: CellKey = (
            workload.name().to_string(),
            config_label.clone(),
            kind.name(),
        );
        if let Some(cell) = self.cells.get(&key) {
            return Ok(cell.clone());
        }

        let total_cores = big + little;
        let t_sb = self.baselines(workload, total_cores)?;
        let (cell, telemetry) = compute_cell(self, &t_sb, workload, big, little, kind.into())?;
        self.telemetry.insert(key.clone(), telemetry);
        self.cells.insert(key, cell.clone());
        Ok(cell)
    }

    /// Single-program H_NTT (Figure 4): the benchmark alone on the
    /// asymmetric machine vs alone on the all-big twin.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn single(
        &mut self,
        bench: BenchmarkId,
        threads: usize,
        big: usize,
        little: usize,
        kind: SchedulerKind,
    ) -> Result<f64> {
        let spec = WorkloadSpec::single(bench, threads);
        let cell = self.mix(&spec, big, little, kind)?;
        let (_, t_m, t_sb) = &cell.apps[0];
        Ok(amp_metrics::h_ntt(*t_m, *t_sb))
    }

    /// Number of simulation cells evaluated so far (diagnostics).
    pub fn cells_evaluated(&self) -> usize {
        self.cells.len()
    }

    /// Decision telemetry of every evaluated cell, as
    /// `(workload, config, scheduler, report)` rows sorted for
    /// deterministic output.
    pub fn telemetry_cells(&self) -> Vec<(&str, &str, &str, &TelemetryReport)> {
        let mut rows: Vec<_> = self
            .telemetry
            .iter()
            .map(|((w, c, s), report)| (w.as_str(), c.as_str(), *s, report))
            .collect();
        rows.sort_unstable_by(|a, b| (a.0, a.1, a.2).cmp(&(b.0, b.1, b.2)));
        rows
    }

    /// Telemetry pooled per scheduler over every evaluated cell, in
    /// [`SchedulerKind`] display order — the `repro --summary` block.
    pub fn telemetry_by_scheduler(&self) -> Vec<(&'static str, TelemetryReport)> {
        let order = [
            SchedulerKind::Linux,
            SchedulerKind::Gts,
            SchedulerKind::Wash,
            SchedulerKind::Colab,
            SchedulerKind::EqualProgress,
        ];
        let mut out = Vec::new();
        for kind in order {
            let mut pooled = TelemetryReport::new();
            for ((_, _, sched), report) in &self.telemetry {
                if *sched == kind.name() {
                    pooled.absorb(report);
                }
            }
            if pooled.runs > 0 {
                out.push((kind.name(), pooled));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_kinds_construct() {
        let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
        let model = SpeedupModel::heuristic();
        for kind in SchedulerKind::ALL {
            let sched = kind.create(&machine, &model);
            assert_eq!(sched.name(), kind.name());
        }
    }

    #[test]
    fn mix_is_memoized_and_sane() {
        let mut h = Harness::new(ExperimentConfig::quick()).unwrap();
        let spec = WorkloadSpec::named(
            "test-mix",
            vec![
                (BenchmarkId::Blackscholes, 2),
                (BenchmarkId::WaterSpatial, 2),
            ],
        );
        let a = h.mix(&spec, 2, 2, SchedulerKind::Linux).unwrap();
        let evaluated = h.cells_evaluated();
        let b = h.mix(&spec, 2, 2, SchedulerKind::Linux).unwrap();
        assert_eq!(h.cells_evaluated(), evaluated, "second call must hit cache");
        assert_eq!(a.h_antt, b.h_antt);
        // Co-scheduled on a machine with little cores must be no faster
        // than alone on all-big: H_ANTT ≥ ~1.
        assert!(a.h_antt > 0.95, "H_ANTT {} implausibly low", a.h_antt);
        assert!(a.h_stp <= 2.0 + 1e-9, "H_STP bounded by app count");
    }

    #[test]
    fn telemetry_ring_does_not_perturb_results() {
        // The acceptance property: enabling event recording must leave
        // every figure bit-for-bit unchanged.
        let mut quiet = Harness::new(ExperimentConfig::quick()).unwrap();
        let mut loud_cfg = ExperimentConfig::quick();
        loud_cfg.sim_params.event_capacity = 1 << 14;
        let mut loud = Harness::new(loud_cfg).unwrap();
        let spec = WorkloadSpec::single(BenchmarkId::Blackscholes, 4);
        let a = quiet.mix(&spec, 2, 2, SchedulerKind::Colab).unwrap();
        let b = loud.mix(&spec, 2, 2, SchedulerKind::Colab).unwrap();
        assert_eq!(a.h_antt, b.h_antt, "event recording changed H_ANTT");
        assert_eq!(a.h_stp, b.h_stp, "event recording changed H_STP");
    }

    #[test]
    fn telemetry_accumulates_per_cell_and_per_scheduler() {
        let mut h = Harness::new(ExperimentConfig::quick()).unwrap();
        let spec = WorkloadSpec::single(BenchmarkId::Swaptions, 4);
        h.mix(&spec, 2, 2, SchedulerKind::Colab).unwrap();
        let cells = h.telemetry_cells();
        assert_eq!(cells.len(), 1);
        let (workload, _, sched, report) = cells[0];
        assert_eq!(workload, "swaptions");
        assert_eq!(sched, "colab");
        assert_eq!(report.runs, 2, "one run per core order");
        assert!(report.counters.picks > 0);
        let pooled = h.telemetry_by_scheduler();
        assert_eq!(pooled.len(), 1);
        assert_eq!(pooled[0].0, "colab");
        assert_eq!(pooled[0].1.counters.picks, report.counters.picks);
    }

    #[test]
    fn single_program_h_ntt_at_least_one() {
        let mut h = Harness::new(ExperimentConfig::quick()).unwrap();
        for kind in SchedulerKind::ALL {
            let ntt = h.single(BenchmarkId::Blackscholes, 4, 2, 2, kind).unwrap();
            assert!(
                ntt > 0.95,
                "{}: H_NTT {ntt} below the physical floor",
                kind.name()
            );
        }
    }
}
