//! `trace_dump`: all 26 Table 4 workloads under the five policies on
//! 2B2S with both recorders on, each outcome rendered in memory to
//! Chrome trace JSON — what `repro --trace-json`, `timeline` and `diag`
//! do for a single workload.

use std::time::{Duration, Instant};

use amp_metrics::geomean;
use amp_perf::SpeedupModel;
use amp_sim::{SimParams, Simulation, SimulationOutcome};
use amp_types::{CoreOrder, MachineConfig, Result};
use amp_workloads::{PaperWorkload, WorkloadSpec};
use colab::sweep::parallel_map;
use colab::{ExperimentConfig, Harness, SchedulerKind};
use colab_bench::render_chrome_trace;

use crate::checks::{outcome_errors, same_outcome, Checks, Digest};
use crate::metrics::Metrics;
use crate::probe::{ms, Probe};
use crate::{measure, Pass, Workload, JOBS};

pub struct TraceDump;

const KINDS: [SchedulerKind; 5] = [
    SchedulerKind::Linux,
    SchedulerKind::Gts,
    SchedulerKind::Wash,
    SchedulerKind::Colab,
    SchedulerKind::EqualProgress,
];

/// Recorder capacities of `repro --trace-json`.
const TRACE_CAPACITY: usize = 1 << 18;
const EVENT_CAPACITY: usize = 1 << 16;

fn inputs() -> Vec<(WorkloadSpec, SchedulerKind)> {
    PaperWorkload::all()
        .into_iter()
        .flat_map(|w| KINDS.map(|kind| (w.spec(), kind)))
        .collect()
}

fn machine() -> MachineConfig {
    MachineConfig::paper_2b2s(CoreOrder::BigFirst)
}

/// Runs one input with both recorders on, returning the outcome and the
/// time spent in `Simulation::run`.
fn recorded_run(
    config: &ExperimentConfig,
    model: &SpeedupModel,
    spec: &WorkloadSpec,
    kind: SchedulerKind,
) -> Result<(SimulationOutcome, Duration)> {
    let machine = machine();
    let params = SimParams {
        trace_capacity: TRACE_CAPACITY,
        event_capacity: EVENT_CAPACITY,
        ..config.sim_params
    };
    let apps = spec.instantiate(config.seed, config.scale);
    let sim = Simulation::from_apps_with_params(&machine, apps, config.seed, params)?;
    let mut sched = kind.create(&machine, model);
    let start = Instant::now();
    let outcome = sim.run(sched.as_mut())?;
    Ok((outcome, start.elapsed()))
}

struct RunOut {
    digest: u64,
    bytes: usize,
    turnarounds: Vec<f64>,
    errors: Vec<String>,
    render: Duration,
    events_seen: u64,
    events_dropped: u64,
}

impl Workload for TraceDump {
    fn threads(&self) -> usize {
        JOBS
    }

    fn pass(
        &self,
        h: &mut Harness,
        checks: &mut Checks,
        layers: Option<&mut Metrics>,
    ) -> Result<Pass> {
        let config = h.config().clone();
        let model = h.model();
        let machine = machine();
        let inputs = inputs();
        let (outs, wall, cpu) = measure(|| {
            parallel_map(JOBS, &inputs, |(spec, kind)| -> Result<RunOut> {
                let (outcome, _) = recorded_run(&config, model, spec, *kind)?;
                let start = Instant::now();
                let json = render_chrome_trace(&machine, &outcome);
                let render = start.elapsed();
                let mut digest = Digest::default();
                digest.text(&json);
                let mut errors = outcome_errors(&outcome);
                if !json.contains("\"ph\":\"X\"") {
                    errors.push("rendered trace has no execution slices".into());
                }
                Ok(RunOut {
                    digest: digest.value(),
                    bytes: json.len(),
                    turnarounds: outcome
                        .apps
                        .iter()
                        .map(|a| a.turnaround.as_secs_f64())
                        .collect(),
                    errors,
                    render,
                    events_seen: outcome.telemetry.events_seen,
                    events_dropped: outcome.telemetry.events_dropped,
                })
            })
        });

        let mut digest = Digest::default();
        let mut ratios = Vec::new();
        let mut linux: Option<Vec<f64>> = None;
        let (mut render, mut bytes, mut seen, mut dropped) = (Duration::ZERO, 0, 0, 0);
        for ((spec, kind), out) in inputs.iter().zip(outs) {
            let label = format!("{} under {}", spec.name(), kind.name());
            let out = match out {
                Ok(out) => out,
                Err(e) => {
                    checks.unit(&label, vec![e.to_string()]);
                    continue;
                }
            };
            digest.bytes(&out.digest.to_le_bytes());
            render += out.render;
            bytes += out.bytes;
            seen += out.events_seen;
            dropped += out.events_dropped;
            checks.unit(&label, out.errors);
            match kind {
                SchedulerKind::Linux => linux = Some(out.turnarounds),
                SchedulerKind::Colab => {
                    let base = linux.take().unwrap_or_default();
                    ratios.extend(out.turnarounds.iter().zip(&base).map(|(c, l)| c / l));
                }
                _ => {}
            }
        }
        if let Some(layers) = layers {
            layers.set("telemetry.chrome_render_ms", ms(render));
            layers.set("telemetry.chrome_mb", bytes as f64 / 1e6);
            layers.set("telemetry.events_seen", seen as f64);
            layers.set("telemetry.events_dropped", dropped as f64);
        }
        // COLAB/Linux per-app turnaround geomean over the 26 workloads.
        // Failed runs are already counted; leave them out of the ratio.
        ratios.retain(|r| r.is_finite() && *r > 0.0);
        let colab_vs_linux = if ratios.is_empty() {
            f64::NAN
        } else {
            geomean(&ratios)
        };
        Ok(Pass {
            wall,
            cpu,
            digest: digest.value(),
            antt_vs_linux: colab_vs_linux,
            stp_vs_linux: 1.0 / colab_vs_linux,
        })
    }

    /// Re-runs every input back to back on one worker: once with both
    /// recorders on, then with both off, plain and decorated. All three
    /// outcomes must agree; the on/off difference is the recording cost.
    fn probe(
        &self,
        h: &mut Harness,
        checks: &mut Checks,
        _pass: &Pass,
        _untraced_wall: Duration,
        layers: &mut Metrics,
    ) -> Result<()> {
        let config = h.config().clone();
        let model = h.model();
        let machine = machine();
        let inputs = inputs();
        let outs: Vec<Result<(Probe, bool, Duration)>> =
            parallel_map(JOBS, &inputs, |(spec, kind)| {
                let (recorded, record_run) = recorded_run(&config, model, spec, *kind)?;
                let mut probe = Probe::default();
                let outcome = probe.run(&machine, model, *kind, || {
                    let apps = spec.instantiate(config.seed, config.scale);
                    Simulation::from_apps_with_params(
                        &machine,
                        apps,
                        config.seed,
                        config.sim_params,
                    )
                })?;
                Ok((probe, same_outcome(&recorded, &outcome), record_run))
            });
        let mut total = Probe::default();
        let mut record_run = Duration::ZERO;
        for ((spec, kind), out) in inputs.iter().zip(outs) {
            let errors = match out {
                Err(e) => vec![e.to_string()],
                Ok((probe, same, recorded_time)) => {
                    total.absorb(&probe);
                    record_run += recorded_time;
                    if same {
                        Vec::new()
                    } else {
                        vec!["recorders-on outcome differs from recorders-off".to_string()]
                    }
                }
            };
            checks.unit(
                &format!("traced {} under {}", spec.name(), kind.name()),
                errors,
            );
        }
        checks.same("decorator mismatches", 0, total.mismatches);
        total.report(layers);
        layers.set("telemetry.record_ms", ms(record_run) - ms(total.plain_run));
        Ok(())
    }
}
