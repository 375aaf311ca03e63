//! Smoke and sanity tests for the extension experiments (energy, GTS,
//! sensitivity, fairness, ablation) at quick scale, and checks that
//! every study honours `ExperimentConfig::sim_params`.

use amp_metrics::geomean;
use amp_types::{Error, Result, SimDuration, SimTime};
use amp_workloads::{PaperWorkload, WorkloadClass};
use colab::{experiments, ExperimentConfig, Harness, SchedulerKind};

fn quick_harness() -> Harness {
    Harness::new(ExperimentConfig::quick()).expect("harness builds")
}

/// The quick configuration with costlier context switches and
/// cross-cluster migrations than the simulator's defaults.
fn costly_switches() -> ExperimentConfig {
    let mut config = ExperimentConfig::quick();
    config.sim_params.context_switch = SimDuration::from_micros(50);
    config.sim_params.migration_cross_kind = SimDuration::from_micros(200);
    config
}

#[test]
fn energy_study_is_internally_consistent() {
    let mut h = quick_harness();
    let study = experiments::energy(&mut h).unwrap();
    assert_eq!(study.rows.len(), SchedulerKind::EXTENDED.len());
    // Linux is its own baseline.
    assert_eq!(study.rows[0].scheduler, "linux");
    assert!((study.rows[0].energy_vs_linux - 1.0).abs() < 1e-9);
    assert!((study.rows[0].edp_vs_linux - 1.0).abs() < 1e-9);
    for row in &study.rows {
        assert!(row.energy_vs_linux > 0.3 && row.energy_vs_linux < 3.0);
        assert!(row.edp_vs_linux > 0.1 && row.edp_vs_linux < 5.0);
    }
    assert!(study.to_string().contains("colab"));
}

#[test]
fn gts_exists_and_differs_from_linux() {
    let mut h = quick_harness();
    let spec = amp_workloads::PaperWorkload::all()[1].spec(); // Sync-2
    let linux = h.mix(&spec, 2, 2, SchedulerKind::Linux).unwrap();
    let gts = h.mix(&spec, 2, 2, SchedulerKind::Gts).unwrap();
    assert_eq!(gts.scheduler, "gts");
    assert_ne!(
        linux.h_antt, gts.h_antt,
        "distinct policies should not tie exactly"
    );
}

#[test]
fn ablation_has_four_variants_with_full_colab_first() {
    let mut h = quick_harness();
    let ablation = experiments::ablation(&mut h).unwrap();
    assert_eq!(ablation.rows.len(), 4);
    assert_eq!(ablation.rows[0].variant, "full COLAB");
    for row in &ablation.rows {
        assert!(
            row.antt_vs_linux > 0.3 && row.antt_vs_linux < 3.0,
            "{}: {}",
            row.variant,
            row.antt_vs_linux
        );
    }
}

#[test]
fn sensitivity_covers_defaults_and_variants() {
    let mut h = quick_harness();
    let s = experiments::sensitivity(&mut h).unwrap();
    assert_eq!(s.rows[0].variant, "defaults");
    assert!(s.rows.len() >= 5);
    for row in &s.rows {
        assert!(row.colab_vs_linux > 0.3 && row.colab_vs_linux < 3.0);
    }
}

#[test]
fn fairness_study_bounds_hold() {
    let mut h = quick_harness();
    let f = experiments::fairness(&mut h).unwrap();
    assert_eq!(f.rows.len(), 3);
    for row in &f.rows {
        assert!(
            row.jains_index > 0.0 && row.jains_index <= 1.0 + 1e-9,
            "{}: Jain {}",
            row.scheduler,
            row.jains_index
        );
        assert!(row.slowdown_spread >= 1.0 - 1e-9);
    }
}

#[test]
fn quantified_table1_ranks_colab_ahead_of_gts() {
    let mut h = quick_harness();
    let t = experiments::table1_quantified(&mut h).unwrap();
    let antt_of = |name: &str| {
        t.rows
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, a, _)| a)
            .expect("row exists")
    };
    // Affinity-only load-average scheduling must not beat the coordinated
    // policy (the whole point of Table 1).
    assert!(antt_of("colab") < antt_of("gts"));
}

#[test]
fn ablation_full_colab_row_is_the_memoized_colab_cells() {
    let mut h = Harness::new(costly_switches()).unwrap();
    let ablation = experiments::ablation(&mut h).unwrap();
    let mut ratios = Vec::new();
    for workload in PaperWorkload::all() {
        if workload.class() != WorkloadClass::Sync {
            continue;
        }
        for (big, little) in experiments::CONFIGS {
            let linux = h
                .mix(&workload.spec(), big, little, SchedulerKind::Linux)
                .unwrap();
            let colab = h
                .mix(&workload.spec(), big, little, SchedulerKind::Colab)
                .unwrap();
            ratios.push(colab.antt_vs(&linux));
        }
    }
    assert_eq!(ablation.rows[0].antt_vs_linux, geomean(&ratios));
}

#[test]
fn ablation_and_energy_rows_follow_the_configured_params() {
    let mut default = quick_harness();
    let mut costly = Harness::new(costly_switches()).unwrap();
    let (a, b) = (
        experiments::ablation(&mut default).unwrap(),
        experiments::ablation(&mut costly).unwrap(),
    );
    for (a, b) in a.rows.iter().zip(&b.rows) {
        assert_ne!(
            a.antt_vs_linux, b.antt_vs_linux,
            "{} ignored sim_params",
            a.variant
        );
    }
    let (a, b) = (
        experiments::energy(&mut default).unwrap(),
        experiments::energy(&mut costly).unwrap(),
    );
    for (a, b) in a.rows.iter().zip(&b.rows).skip(1) {
        assert_ne!(
            a.energy_vs_linux, b.energy_vs_linux,
            "{} ignored sim_params",
            a.scheduler
        );
    }
}

#[test]
fn every_study_fails_when_the_horizon_is_too_short() {
    type Study = fn(&mut Harness) -> bool;
    fn fails<T>(result: Result<T>) -> bool {
        matches!(result, Err(Error::HorizonExceeded { .. }))
    }
    let mut config = ExperimentConfig::quick();
    config.sim_params.horizon = SimTime::from_millis(1);
    let mut h = Harness::new(config).unwrap();
    let studies: [(&str, Study); 6] = [
        ("ablation", |h| fails(experiments::ablation(h))),
        ("energy", |h| fails(experiments::energy(h))),
        ("sensitivity", |h| fails(experiments::sensitivity(h))),
        ("freqsweep", |h| fails(experiments::frequency_sweep(h))),
        ("staggered", |h| fails(experiments::staggered(h))),
        ("faults", |h| fails(experiments::faults(h))),
    ];
    for (name, fails) in studies {
        assert!(fails(&mut h), "{name} ran past the configured horizon");
    }
}
