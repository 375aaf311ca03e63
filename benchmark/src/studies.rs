//! `studies`: the six serial extension studies on a fresh harness —
//! ablation, energy, sensitivity, frequency sweep, staggered arrivals
//! and fault injection. Each is one study call and one checked unit.

use std::time::{Duration, Instant};

use amp_types::Result;
use colab::experiments;
use colab::Harness;

use crate::checks::{positive, Checks, Digest};
use crate::metrics::Metrics;
use crate::probe::{ms, ratio};
use crate::{Pass, Workload};

pub struct Studies;

/// One study's outcome: rendered text, check failures, and the figures
/// the benchmark reads from it.
#[derive(Default)]
struct Study {
    text: String,
    errors: Vec<String>,
    /// COLAB/Linux per-app turnaround geomean (sensitivity, defaults).
    colab_vs_linux: Option<f64>,
    faults_injected: f64,
    forced_migrations: f64,
}

type StudyFn = fn(&mut Harness) -> Result<Study>;

const STUDIES: [(&str, StudyFn); 6] = [
    ("ablation", |h| {
        let study = experiments::ablation(h)?;
        let mut errors = positive("H_ANTT ratio", study.rows.iter().map(|r| r.antt_vs_linux));
        if study.rows.len() != 4 {
            errors.push(format!("{} ablation rows", study.rows.len()));
        }
        Ok(Study {
            text: study.to_string(),
            errors,
            ..Study::default()
        })
    }),
    ("energy", |h| {
        let study = experiments::energy(h)?;
        let values = study
            .rows
            .iter()
            .flat_map(|r| [r.energy_vs_linux, r.edp_vs_linux]);
        Ok(Study {
            text: study.to_string(),
            errors: positive("energy ratio", values),
            ..Study::default()
        })
    }),
    ("sensitivity", |h| {
        let study = experiments::sensitivity(h)?;
        Ok(Study {
            text: study.to_string(),
            errors: positive("COLAB/Linux", study.rows.iter().map(|r| r.colab_vs_linux)),
            colab_vs_linux: study.rows.first().map(|r| r.colab_vs_linux),
            ..Study::default()
        })
    }),
    ("freqsweep", |h| {
        let study = experiments::frequency_sweep(h)?;
        let errors = positive("COLAB/Linux", study.points.iter().map(|p| p.colab_vs_linux));
        Ok(Study {
            text: study.to_string(),
            errors,
            ..Study::default()
        })
    }),
    ("staggered", |h| {
        let study = experiments::staggered(h)?;
        let errors = positive(
            "turnaround ratio",
            study.rows.iter().map(|r| r.turnaround_vs_linux),
        );
        Ok(Study {
            text: study.to_string(),
            errors,
            ..Study::default()
        })
    }),
    ("faults", |h| {
        let study = experiments::faults(h)?;
        let mut errors = positive("ANTT retained", study.rows.iter().map(|r| r.antt_retained));
        for row in &study.rows {
            if row.faults_injected <= 0.0 {
                errors.push(format!(
                    "{} at {}: no faults injected",
                    row.scheduler, row.intensity
                ));
            }
            if !(row.throughput_retained > 0.0 && row.throughput_retained <= 1.5) {
                errors.push(format!(
                    "{} at {}: throughput retained {}",
                    row.scheduler, row.intensity, row.throughput_retained
                ));
            }
        }
        Ok(Study {
            text: study.to_string(),
            errors,
            faults_injected: study.rows.iter().map(|r| r.faults_injected).sum(),
            forced_migrations: study.rows.iter().map(|r| r.forced_migrations).sum(),
            ..Study::default()
        })
    }),
];

impl Workload for Studies {
    /// The studies run one after another on the calling thread.
    fn threads(&self) -> usize {
        1
    }

    fn pass(
        &self,
        h: &mut Harness,
        checks: &mut Checks,
        layers: Option<&mut Metrics>,
    ) -> Result<Pass> {
        let (results, wall, cpu) = crate::measure(|| {
            STUDIES.map(|(name, study)| {
                let start = Instant::now();
                let result = study(h);
                (name, result, start.elapsed())
            })
        });

        let mut digest = Digest::default();
        let mut colab_vs_linux = f64::NAN;
        let mut timings = Vec::new();
        let (mut injected, mut forced) = (0.0, 0.0);
        for (name, result, time) in results {
            timings.push((name, time));
            match result {
                Ok(study) => {
                    digest.text(&study.text);
                    colab_vs_linux = study.colab_vs_linux.unwrap_or(colab_vs_linux);
                    injected += study.faults_injected;
                    forced += study.forced_migrations;
                    checks.unit(name, study.errors);
                }
                Err(e) => checks.unit(name, vec![e.to_string()]),
            }
        }
        if let Some(layers) = layers {
            for (name, time) in timings {
                layers.set(&format!("experiments.{name}.ms"), ms(time));
            }
            layers.set("faults.injected", injected);
            layers.set("faults.forced_migrations", forced);
        }
        Ok(Pass {
            wall,
            cpu,
            digest: digest.value(),
            antt_vs_linux: colab_vs_linux,
            stp_vs_linux: 1.0 / colab_vs_linux,
        })
    }

    /// The studies run inside the program, so the traced pass only times
    /// each call; its overhead is the traced pass against untraced ones.
    fn probe(
        &self,
        _h: &mut Harness,
        _checks: &mut Checks,
        pass: &Pass,
        untraced_wall: Duration,
        layers: &mut Metrics,
    ) -> Result<()> {
        let untraced = untraced_wall.as_secs_f64();
        layers.set(
            "trace.overhead_pct",
            100.0 * ratio(pass.wall.as_secs_f64() - untraced, untraced),
        );
        Ok(())
    }
}
