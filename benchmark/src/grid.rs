//! `paper_grid`: the paper's evaluation — `SweepPlan::full()` through
//! `Harness::run_plan`, then Figures 4–9, the summary, Table 1 and the
//! shape check rendered from the memo.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use amp_sched::CfsScheduler;
use amp_sim::Simulation;
use amp_types::{AppId, CoreOrder, MachineConfig, Result, SimDuration};
use colab::experiments::{self, Summary};
use colab::sweep::parallel_map;
use colab::{Harness, ProgramStore, SweepPlan};

use crate::checks::{outcome_errors, positive, Checks, Digest};
use crate::metrics::{quantile, Metrics};
use crate::probe::{ms, ratio, Probe};
use crate::{measure, Pass, Workload, JOBS};

pub struct PaperGrid;

/// Renders every figure and table the grid feeds, returning the text
/// and the two summary ratios.
fn render(h: &mut Harness, layers: Option<&mut Metrics>) -> Result<(String, Summary)> {
    let mut text = String::new();
    text += &experiments::figure4(h)?.to_string();
    for figure in [
        experiments::figure5,
        experiments::figure6,
        experiments::figure7,
        experiments::figure8,
        experiments::figure9,
    ] {
        text += &figure(h)?.to_string();
    }
    let summary = experiments::summary(h)?;
    text += &summary.to_string();
    text += &experiments::table1_quantified(h)?.to_string();
    let shape = experiments::shape_check(h)?;
    text += &shape.to_string();
    if let Some(layers) = layers {
        let failed = shape.claims.iter().filter(|c| !c.pass).count();
        layers.set("experiments.shape_claims", shape.claims.len() as f64);
        layers.set("experiments.shape_claims_failed", failed as f64);
    }
    Ok((text, summary))
}

impl Workload for PaperGrid {
    fn threads(&self) -> usize {
        JOBS
    }

    fn pass(
        &self,
        h: &mut Harness,
        checks: &mut Checks,
        mut layers: Option<&mut Metrics>,
    ) -> Result<Pass> {
        let plan = SweepPlan::full();
        let ((report, plan_time, rendered, render_time), wall, cpu) = measure(|| {
            let start = Instant::now();
            let report = h.run_plan(&plan, JOBS);
            let plan_time = start.elapsed();
            let rendered = render(h, layers.as_deref_mut());
            (report, plan_time, rendered, start.elapsed() - plan_time)
        });
        let report = report?;
        let (text, summary) = rendered?;

        checks.same("executed cells", plan.len(), report.executed);
        checks.same(
            "baseline runs",
            plan.baseline_jobs().len(),
            report.baselines,
        );
        for cell in plan.cells() {
            let errors = match h.mix(&cell.workload, cell.big, cell.little, cell.kind) {
                Err(e) => vec![e.to_string()],
                Ok(memo) => {
                    let mut errors = Vec::new();
                    if memo
                        .apps
                        .iter()
                        .any(|(_, t_m, t_sb)| t_m.is_zero() || t_sb.is_zero())
                    {
                        errors.push("zero turnaround or baseline".to_string());
                    }
                    errors.extend(positive("H_ANTT/H_STP", [memo.h_antt, memo.h_stp]));
                    errors
                }
            };
            checks.unit(&format!("{:?}", cell.key()), errors);
        }

        if let Some(layers) = layers {
            layers.set("sweep.run_plan_ms", ms(plan_time));
            layers.set("sweep.cells", report.executed as f64);
            layers.set("sweep.baselines", report.baselines as f64);
            layers.set("experiments.render_ms", ms(render_time));
        }
        let mut digest = Digest::default();
        digest.text(&text);
        Ok(Pass {
            wall,
            cpu,
            digest: digest.value(),
            antt_vs_linux: summary.antt_vs_linux[1],
            stp_vs_linux: summary.stp_vs_linux[1],
        })
    }

    /// Re-runs every plan baseline and cell through the public API on
    /// `parallel_map`, each simulation plain and decorated, and checks the
    /// recomputed per-app mean turnarounds against the harness memo.
    fn probe(
        &self,
        h: &mut Harness,
        checks: &mut Checks,
        _pass: &Pass,
        _untraced_wall: Duration,
        layers: &mut Metrics,
    ) -> Result<()> {
        let plan = SweepPlan::full();
        let config = h.config().clone();
        let model = h.model().clone();
        let store = ProgramStore::new();
        let lookup = |spec: &amp_workloads::WorkloadSpec| {
            let start = Instant::now();
            let compiled = store.get_or_compile(spec, config.seed, config.scale);
            (compiled, start.elapsed())
        };

        struct BaselineOut {
            t_sb: Vec<SimDuration>,
            lookup: Duration,
            errors: Vec<String>,
        }
        let baseline_jobs = plan.baseline_jobs();
        let baselines: Vec<Result<BaselineOut>> =
            parallel_map(JOBS, &baseline_jobs, |(workload, total)| {
                let machine = MachineConfig::all_big(*total);
                let (compiled, lookup_time) = lookup(workload);
                let mut t_sb = Vec::new();
                let mut errors = Vec::new();
                for app in compiled?.apps() {
                    let sim = Simulation::from_compiled_with_params(
                        &machine,
                        vec![Arc::clone(app)],
                        config.seed,
                        config.sim_params,
                    )?;
                    let outcome = sim.run(&mut CfsScheduler::new(&machine))?;
                    errors.extend(outcome_errors(&outcome));
                    t_sb.push(outcome.turnaround(AppId::new(0)));
                }
                Ok(BaselineOut {
                    t_sb,
                    lookup: lookup_time,
                    errors,
                })
            });
        let mut compile_time = Duration::ZERO;
        let mut t_sb_of = HashMap::new();
        for ((workload, total), result) in baseline_jobs.iter().zip(baselines) {
            let errors = match result {
                Ok(out) => {
                    compile_time += out.lookup;
                    t_sb_of.insert((workload.name().to_string(), *total), out.t_sb);
                    out.errors
                }
                Err(e) => vec![e.to_string()],
            };
            if !errors.is_empty() {
                checks.problem(format!(
                    "baseline {} on {total}: {}",
                    workload.name(),
                    errors.join("; ")
                ));
            }
        }

        struct CellOut {
            probe: Probe,
            t_m: Vec<SimDuration>,
            lookup: Duration,
            busy: Duration,
            errors: Vec<String>,
        }
        let start = Instant::now();
        let cells: Vec<Result<CellOut>> = parallel_map(JOBS, plan.cells(), |cell| {
            let begun = Instant::now();
            let (compiled, lookup_time) = lookup(&cell.workload);
            let compiled = compiled?;
            let mut probe = Probe::default();
            let mut sums = vec![SimDuration::ZERO; compiled.apps().len()];
            let mut errors = Vec::new();
            for order in CoreOrder::BOTH {
                let machine = MachineConfig::asymmetric(cell.big, cell.little, order);
                let outcome = probe.run(&machine, &model, cell.kind, || {
                    Simulation::from_compiled_with_params(
                        &machine,
                        compiled.apps().to_vec(),
                        config.seed,
                        config.sim_params,
                    )
                })?;
                errors.extend(outcome_errors(&outcome));
                for (sum, app) in sums.iter_mut().zip(&outcome.apps) {
                    *sum += app.turnaround;
                }
            }
            Ok(CellOut {
                probe,
                t_m: sums.into_iter().map(|sum| sum / 2).collect(),
                lookup: lookup_time,
                busy: begun.elapsed(),
                errors,
            })
        });
        let pool_wall = start.elapsed();

        let mut total = Probe::default();
        let mut cell_ms = Vec::new();
        let mut busy = Duration::ZERO;
        for (cell, result) in plan.cells().iter().zip(cells) {
            let mut errors = Vec::new();
            match result {
                Err(e) => errors.push(e.to_string()),
                Ok(out) => {
                    total.absorb(&out.probe);
                    compile_time += out.lookup;
                    busy += out.busy;
                    cell_ms.push(ms(out.lookup + out.probe.build + out.probe.plain_run));
                    errors.extend(out.errors);
                    let t_sb =
                        t_sb_of.get(&(cell.workload.name().to_string(), cell.big + cell.little));
                    match h.mix(&cell.workload, cell.big, cell.little, cell.kind) {
                        Err(e) => errors.push(e.to_string()),
                        Ok(memo) => {
                            let t_m: Vec<SimDuration> = memo.apps.iter().map(|a| a.1).collect();
                            let memo_sb: Vec<SimDuration> = memo.apps.iter().map(|a| a.2).collect();
                            if t_m != out.t_m {
                                errors.push("recomputed turnarounds differ from the memo".into());
                            }
                            if t_sb != Some(&memo_sb) {
                                errors.push("recomputed baselines differ from the memo".into());
                            }
                        }
                    }
                }
            }
            checks.unit(&format!("traced {:?}", cell.key()), errors);
        }
        checks.same("decorator mismatches", 0, total.mismatches);
        checks.same(
            "traced runs vs simcost",
            layers.get("simcost.runs"),
            total.runs as f64,
        );
        checks.same(
            "traced events vs simcost",
            layers.get("simcost.events"),
            total.events as f64,
        );

        total.report(layers);
        let workers = JOBS.clamp(1, plan.len().max(1));
        layers.set("intern.compile_ms", ms(compile_time));
        layers.set("sweep.cell_ms_p50", quantile(&cell_ms, 0.5));
        layers.set("sweep.cell_ms_p95", quantile(&cell_ms, 0.95));
        layers.set("sweep.cell_ms_max", quantile(&cell_ms, 1.0));
        layers.set(
            "sweep.worker_busy_share",
            ratio(busy.as_secs_f64(), workers as f64 * pool_wall.as_secs_f64()),
        );
        Ok(())
    }
}
