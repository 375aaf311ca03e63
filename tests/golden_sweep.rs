//! Golden-results test layer for the parallel sweep executor.
//!
//! Fixtures under `tests/golden/` snapshot the Figure 4–9 and §5
//! summary ("Table 5") numbers produced by the serial harness path at
//! the quick test configuration, plus the CSVs of the six extension
//! studies (ablation, energy, sensitivity, asymmetry sweep, staggered
//! arrivals, fault injection). These tests pin the determinism contract
//! from three directions:
//!
//! 1. the plain serial path (`Harness::mix`, figure by figure) must
//!    still produce the snapshotted bytes — a regression gate on the
//!    simulator and schedulers themselves;
//! 2. the parallel sweep executor must reproduce the same bytes
//!    bit-identically at `--jobs 1`, `2`, and `8`, with the figures
//!    afterwards served entirely from the prewarmed cache;
//! 3. every extension study must still produce its snapshotted CSV.
//!
//! Regenerate after an intentional behaviour change with:
//!
//! ```text
//! cargo test --test golden_sweep -- --ignored regenerate
//! ```

use std::path::PathBuf;

use colab::{experiments, report, ExperimentConfig, Harness, SweepPlan};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn quick_harness() -> Harness {
    Harness::new(ExperimentConfig::quick()).expect("quick harness builds")
}

/// Renders every goldened artifact from a harness, in fixture order.
fn render_all(h: &mut Harness) -> Vec<(&'static str, String)> {
    vec![
        (
            "fig4.csv",
            report::fig4_csv(&experiments::figure4(h).unwrap()),
        ),
        (
            "fig5.csv",
            report::group_figure_csv(&experiments::figure5(h).unwrap()),
        ),
        (
            "fig6.csv",
            report::group_figure_csv(&experiments::figure6(h).unwrap()),
        ),
        (
            "fig7.csv",
            report::group_figure_csv(&experiments::figure7(h).unwrap()),
        ),
        (
            "fig8.csv",
            report::group_figure_csv(&experiments::figure8(h).unwrap()),
        ),
        (
            "fig9.csv",
            report::group_figure_csv(&experiments::figure9(h).unwrap()),
        ),
        (
            "summary.csv",
            report::summary_csv(&experiments::summary(h).unwrap()),
        ),
    ]
}

/// Renders the six extension studies' CSVs, in fixture order.
fn render_studies(h: &mut Harness) -> Vec<(&'static str, String)> {
    vec![
        (
            "ablation.csv",
            report::ablation_csv(&experiments::ablation(h).unwrap()),
        ),
        (
            "energy.csv",
            report::energy_csv(&experiments::energy(h).unwrap()),
        ),
        (
            "sensitivity.csv",
            report::sensitivity_csv(&experiments::sensitivity(h).unwrap()),
        ),
        (
            "freqsweep.csv",
            report::frequency_sweep_csv(&experiments::frequency_sweep(h).unwrap()),
        ),
        (
            "staggered.csv",
            report::staggered_csv(&experiments::staggered(h).unwrap()),
        ),
        (
            "faults.csv",
            report::faults_csv(&experiments::faults(h).unwrap()),
        ),
    ]
}

/// The plan covering everything [`render_all`] consumes.
fn golden_plan() -> SweepPlan {
    let mut plan = SweepPlan::new();
    plan.add_figure4();
    plan.add_paper_grid();
    plan
}

fn assert_matches_golden(rendered: &[(&'static str, String)], context: &str) {
    for (name, actual) in rendered {
        let path = golden_dir().join(name);
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden fixture {} ({e}); regenerate with \
                 `cargo test --test golden_sweep -- --ignored regenerate`",
                path.display()
            )
        });
        if *actual != expected {
            let diff: Vec<String> = expected
                .lines()
                .zip(actual.lines())
                .enumerate()
                .filter(|(_, (e, a))| e != a)
                .take(5)
                .map(|(i, (e, a))| format!("  line {}:\n    golden: {e}\n    actual: {a}", i + 1))
                .collect();
            panic!(
                "{context}: {name} diverged from the golden fixture\n{}",
                if diff.is_empty() {
                    "  (line counts differ)".to_string()
                } else {
                    diff.join("\n")
                }
            );
        }
    }
}

#[test]
fn serial_path_matches_golden_fixtures() {
    let mut h = quick_harness();
    let rendered = render_all(&mut h);
    assert_matches_golden(&rendered, "serial mix path");
}

#[test]
fn extension_studies_match_golden_fixtures() {
    let mut h = quick_harness();
    let rendered = render_studies(&mut h);
    assert_matches_golden(&rendered, "extension studies");
}

#[test]
fn parallel_executor_reproduces_golden_at_jobs_1_2_8() {
    let plan = golden_plan();
    for jobs in [1usize, 2, 8] {
        let mut h = quick_harness();
        let report = h.run_plan(&plan, jobs).expect("sweep runs");
        assert_eq!(
            report.executed,
            plan.len(),
            "jobs={jobs}: fresh harness executes all"
        );
        let prewarmed = h.cells_evaluated();
        let rendered = render_all(&mut h);
        assert_eq!(
            h.cells_evaluated(),
            prewarmed,
            "jobs={jobs}: figures must be pure cache hits after the sweep"
        );
        assert_matches_golden(&rendered, &format!("parallel executor, jobs={jobs}"));
    }
}

/// Not a test: rewrites the fixtures from the serial path and the
/// extension studies. Run with
/// `cargo test --test golden_sweep -- --ignored regenerate`.
#[test]
#[ignore = "fixture regenerator, run explicitly"]
fn regenerate() {
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).expect("golden dir creatable");
    let mut h = quick_harness();
    let mut rendered = render_all(&mut h);
    rendered.extend(render_studies(&mut h));
    for (name, contents) in rendered {
        std::fs::write(dir.join(name), contents).expect("fixture written");
        eprintln!("wrote {}", dir.join(name).display());
    }
}
