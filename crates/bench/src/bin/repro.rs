//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--scale F] [--heuristic-model] [--jobs N] [--reps N]
//!       [--csv DIR] [--trace-json DIR] [--bench-json FILE] [TARGET...]
//!
//! TARGET is one of
//!   --all  --fig4 --fig5 --fig6 --fig7 --fig8 --fig9  --summary  --check
//!   --table1 --table2 --table3 --table4  --ablation  --energy
//!   --sensitivity  --fairness  --freqsweep  --staggered  --faults
//! ```
//!
//! Any other argument is an error: `repro` prints the usage and exits
//! non-zero without building a harness. `--help` (`-h`) prints the usage
//! and exits 0.
//!
//! With no selection flags, `--all` is assumed. `--scale` shrinks the
//! workloads (default 1.0, the calibrated full size); the shapes are
//! stable down to about 0.25. `--heuristic-model` skips the offline
//! training run and uses the analytic speedup model.
//!
//! `--check` prints the paper's shape claims and exits 1 if any fails,
//! but only after every requested `--csv`/`--bench-json` file is written.
//!
//! `--jobs N` runs the experiment-cell sweep on N worker threads
//! (default: the host's available parallelism; `--jobs 1` is the exact
//! serial path). The sweep is planned up front and reduced in canonical
//! cell order, so output is byte-identical for every N — only the
//! `cells/sec` diagnostic on stderr changes.
//!
//! `--bench-json FILE` writes a machine-readable performance report
//! (aggregate events/sec and cells/sec, plus per-policy event counts
//! and per-decision costs) after the selected targets run — see
//! [`colab_bench::bench_run_json`]. CI's bench smoke job uploads it as
//! the `BENCH_run.json` artifact.
//!
//! `--summary` also prints the per-scheduler decision-telemetry block
//! (migrations by direction, preemptions by cause, label flows,
//! speedup-model error, and latency percentiles), pooled over every
//! cell the invocation evaluated. `--csv DIR` includes a per-cell
//! `telemetry.csv`; `--trace-json DIR` writes one Chrome trace-event
//! JSON per scheduler (open in Perfetto or `chrome://tracing`).

use std::process::ExitCode;
use std::time::Instant;

use amp_workloads::{BenchmarkId, WorkloadSpec};
use colab::experiments;
use colab::SchedulerKind;
use colab_bench::{out, outln};

/// Printed by `--help` and after any argument error.
const USAGE: &str = "\
usage: repro [--scale F] [--heuristic-model] [--jobs N] [--reps N]
             [--csv DIR] [--trace-json DIR] [--bench-json FILE] [TARGET...]

TARGET is one of
  --all  --fig4 --fig5 --fig6 --fig7 --fig8 --fig9  --summary  --check
  --table1 --table2 --table3 --table4  --ablation  --energy
  --sensitivity  --fairness  --freqsweep  --staggered  --faults
With no TARGET, --csv, --trace-json or --bench-json, --all is assumed.";

/// Every target `main` consumes.
const TARGETS: &str = "all fig4 fig5 fig6 fig7 fig8 fig9 summary check table1 table2 table3 \
                       table4 ablation energy sensitivity fairness freqsweep staggered faults";

struct Options {
    scale: f64,
    train: bool,
    replications: u32,
    jobs: usize,
    targets: Vec<String>,
    csv_dir: Option<std::path::PathBuf>,
    trace_dir: Option<std::path::PathBuf>,
    bench_json: Option<std::path::PathBuf>,
}

fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Parses the command line; `Ok(None)` means `--help`.
fn parse_args() -> Result<Option<Options>, String> {
    let mut scale = 1.0;
    let mut train = true;
    let mut targets = Vec::new();
    let mut csv_dir = None;
    let mut trace_dir = None;
    let mut bench_json = None;
    let mut replications = 1u32;
    let mut jobs = default_jobs();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => {
                let value = args.next().ok_or("--jobs needs a count")?;
                jobs = value
                    .parse::<usize>()
                    .map_err(|e| format!("bad --jobs {value}: {e}"))?
                    .max(1);
            }
            "--reps" => {
                let value = args.next().ok_or("--reps needs a count")?;
                replications = value
                    .parse::<u32>()
                    .map_err(|e| format!("bad --reps {value}: {e}"))?
                    .max(1);
            }
            "--csv" => {
                let dir = args.next().ok_or("--csv needs a directory")?;
                csv_dir = Some(std::path::PathBuf::from(dir));
            }
            "--trace-json" => {
                let dir = args.next().ok_or("--trace-json needs a directory")?;
                trace_dir = Some(std::path::PathBuf::from(dir));
            }
            "--bench-json" => {
                let file = args.next().ok_or("--bench-json needs a file path")?;
                bench_json = Some(std::path::PathBuf::from(file));
            }
            "--scale" => {
                let value = args.next().ok_or("--scale needs a value")?;
                scale = colab_bench::parse_scale(&value).map_err(|e| format!("--scale {e}"))?;
            }
            "--heuristic-model" => train = false,
            "--help" | "-h" => return Ok(None),
            flag if flag
                .strip_prefix("--")
                .is_some_and(|t| TARGETS.split_whitespace().any(|known| known == t)) =>
            {
                targets.push(flag[2..].to_string());
            }
            other => return Err(format!("unrecognized argument {other}")),
        }
    }
    if targets.is_empty() && csv_dir.is_none() && trace_dir.is_none() && bench_json.is_none() {
        targets.push("all".into());
    }
    Ok(Some(Options {
        scale,
        train,
        replications,
        jobs,
        targets,
        csv_dir,
        trace_dir,
        bench_json,
    }))
}

/// Plans every memoizable experiment cell the selected targets will
/// consume, so the sweep executor can prewarm the harness caches in
/// parallel. The extension studies' own runs (energy, staggered,
/// sensitivity, freqsweep, faults, the ablation variants) run serially
/// after it; the plan is identical for every `--jobs` value, which is what
/// keeps output byte-identical across job counts.
fn build_plan(options: &Options, wants: impl Fn(&str) -> bool) -> colab::SweepPlan {
    let mut plan = colab::SweepPlan::new();
    let csv = options.csv_dir.is_some();
    if csv || wants("fig4") || wants("check") {
        plan.add_figure4();
    }
    let grouped = ["fig5", "fig6", "fig7", "fig8", "fig9"];
    if csv
        || wants("summary")
        || wants("check")
        || wants("fairness")
        || grouped.iter().any(|t| wants(t))
    {
        plan.add_paper_grid();
    }
    if csv || wants("table1") || wants("check") {
        plan.add_table1();
    }
    plan
}

/// Writes one Chrome trace per scheduler for a representative
/// sync-heavy workload (pipeline-parallel ferret on 2B+2S).
fn export_chrome_traces(dir: &std::path::Path, scale: f64) -> Result<Vec<String>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let spec = WorkloadSpec::single(BenchmarkId::Ferret, 6);
    let mut written = Vec::new();
    for kind in SchedulerKind::EXTENDED {
        let json = colab_bench::chrome_trace_json(&spec, kind, scale);
        let name = format!("{}-{}.json", spec.name(), kind.name());
        std::fs::write(dir.join(&name), json).map_err(|e| format!("writing {name}: {e}"))?;
        written.push(name);
    }
    Ok(written)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(Some(o)) => o,
        Ok(None) => {
            outln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let wants = |name: &str| options.targets.iter().any(|t| t == name || t == "all");

    if let Some(dir) = &options.trace_dir {
        match export_chrome_traces(dir, options.scale) {
            Ok(files) => {
                eprintln!("wrote {} Chrome traces to {}", files.len(), dir.display());
            }
            Err(e) => {
                eprintln!("error writing Chrome traces: {e}");
                return ExitCode::FAILURE;
            }
        }
        if options.targets.is_empty() && options.csv_dir.is_none() {
            return ExitCode::SUCCESS;
        }
    }

    let start = Instant::now();
    eprintln!(
        "building harness (scale {}, {} model)...",
        options.scale,
        if options.train {
            "trained"
        } else {
            "heuristic"
        }
    );
    let mut harness = colab_bench::harness_with(options.scale, options.train, options.replications);
    eprintln!("harness ready in {:.1?}", start.elapsed());

    let plan = build_plan(&options, wants);
    if !plan.is_empty() {
        match harness.run_plan(&plan, options.jobs) {
            Ok(report) => eprintln!("{report}"),
            Err(e) => {
                eprintln!("error running sweep: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if wants("table2") {
        outln!("{}\n", experiments::table2(&harness));
    }
    if wants("table3") {
        outln!("{}", experiments::table3());
    }
    if wants("table4") {
        outln!("{}", experiments::table4());
    }

    macro_rules! figure {
        ($name:literal, $f:path) => {
            if wants($name) {
                let t = Instant::now();
                match $f(&mut harness) {
                    Ok(result) => {
                        outln!("{result}");
                        eprintln!("[{} done in {:.1?}]\n", $name, t.elapsed());
                    }
                    Err(e) => {
                        eprintln!("error running {}: {e}", $name);
                        return ExitCode::FAILURE;
                    }
                }
            }
        };
    }
    figure!("fig4", experiments::figure4);
    figure!("fig5", experiments::figure5);
    figure!("fig6", experiments::figure6);
    figure!("fig7", experiments::figure7);
    figure!("fig8", experiments::figure8);
    figure!("fig9", experiments::figure9);
    figure!("summary", experiments::summary);
    figure!("ablation", experiments::ablation);
    // Extensions beyond the paper (run with --energy / --table1 / --all).
    figure!("energy", experiments::energy);
    figure!("table1", experiments::table1_quantified);
    figure!("sensitivity", experiments::sensitivity);
    figure!("fairness", experiments::fairness);
    figure!("freqsweep", experiments::frequency_sweep);
    figure!("staggered", experiments::staggered);
    figure!("faults", experiments::faults);

    if wants("summary") {
        outln!("scheduler decision telemetry (pooled over evaluated cells, per run):");
        for (name, report) in harness.telemetry_by_scheduler() {
            outln!("[{name}]");
            out!("{report}");
        }
        outln!();
    }

    // A failed shape claim still writes every requested file; the exit
    // status reports it at the end.
    let mut shapes_hold = true;
    if wants("check") {
        match experiments::shape_check(&mut harness) {
            Ok(report) => {
                outln!("{report}");
                shapes_hold = report.all_pass();
            }
            Err(e) => {
                eprintln!("error running shape check: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(dir) = &options.csv_dir {
        match colab::report::write_all(&mut harness, dir) {
            Ok(files) => eprintln!("wrote {} CSVs to {}", files.len(), dir.display()),
            Err(e) => {
                eprintln!("error writing CSVs: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = &options.bench_json {
        let json = colab_bench::bench_run_json(
            &harness,
            start.elapsed().as_secs_f64(),
            harness.cells_evaluated(),
        );
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("error writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote bench report to {}", path.display());
    }

    eprintln!(
        "total: {:.1?}, {} cells evaluated",
        start.elapsed(),
        harness.cells_evaluated()
    );
    if shapes_hold {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
