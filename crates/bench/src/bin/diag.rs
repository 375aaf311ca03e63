//! Diagnostic: detailed per-scheduler stats for one paper workload.
//!
//! ```text
//! diag [--jobs N] [WORKLOAD [BIG [LITTLE [SCALE]]]]
//! ```
//!
//! `--jobs N` runs the per-scheduler simulations on N worker threads
//! (default: available parallelism). Each scheduler's block is rendered
//! to a buffer and printed in the fixed policy order, so output is
//! byte-identical for every N.
//!
//! An unknown workload or flag, a count that is not a positive integer
//! or a scale that is not a finite positive number prints the usage to
//! stderr and exits 1 before anything runs. `--help` (`-h`) prints the
//! usage and exits 0.

use std::fmt::Write as _;
use std::process::ExitCode;

use amp_perf::SpeedupModel;
use amp_sim::SimParams;
use amp_types::{CoreOrder, MachineConfig};
use amp_workloads::{CompiledWorkload, PaperWorkload, Scale};
use colab::sweep::parallel_map;
use colab::{RunSpec, SchedulerKind};

/// Printed by `--help` and after any argument error.
const USAGE: &str = "\
usage: diag [--jobs N] [WORKLOAD [BIG [LITTLE [SCALE]]]]

  WORKLOAD  a Table 4 workload name: Sync-2, Rand-7, ... (default Sync-2)
  BIG       big cores, a positive count (default 2)
  LITTLE    little cores, a positive count (default 2)
  SCALE     workload scale factor, finite and positive (default 1.0)
  --jobs N  worker threads, a positive count (default: all cores)";

struct Options {
    jobs: usize,
    workload: PaperWorkload,
    big: usize,
    little: usize,
    scale: f64,
}

fn count(what: &str, value: &str) -> Result<usize, String> {
    match value.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{what} must be a positive count, got {value}")),
    }
}

/// Parses the command line; `Ok(None)` means `--help`.
fn parse_args() -> Result<Option<Options>, String> {
    let mut jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => jobs = count("--jobs", &args.next().ok_or("--jobs needs a count")?)?,
            "--help" | "-h" => return Ok(None),
            flag if flag.starts_with("--") => return Err(format!("unrecognized argument {flag}")),
            _ => positional.push(arg),
        }
    }
    if let Some(extra) = positional.get(4) {
        return Err(format!("unexpected argument {extra}"));
    }
    let name = positional.first().map_or("Sync-2", String::as_str);
    let workload = PaperWorkload::all()
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let big = positional.get(1).map_or(Ok(2), |v| count("BIG", v))?;
    let little = positional.get(2).map_or(Ok(2), |v| count("LITTLE", v))?;
    let scale = positional.get(3).map_or(Ok(1.0), |v| {
        colab_bench::parse_scale(v).map_err(|e| format!("SCALE {e}"))
    })?;
    Ok(Some(Options {
        jobs,
        workload,
        big,
        little,
        scale,
    }))
}

fn main() -> ExitCode {
    let Options {
        jobs,
        workload,
        big,
        little,
        scale,
    } = match parse_args() {
        Ok(Some(options)) => options,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let spec = workload.spec();
    println!(
        "workload {} on {big}B{little}S scale {scale}",
        workload.name()
    );

    let model = SpeedupModel::heuristic();
    let blocks = parallel_map(jobs, &SchedulerKind::ALL, |&kind| {
        render_scheduler(kind, &spec, &model, big, little, scale)
    });
    for block in blocks {
        match block {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Runs one scheduler on the workload and renders its diagnostic block.
fn render_scheduler(
    kind: SchedulerKind,
    spec: &amp_workloads::WorkloadSpec,
    model: &SpeedupModel,
    big: usize,
    little: usize,
    scale: f64,
) -> Result<String, String> {
    let machine = MachineConfig::asymmetric(big, little, CoreOrder::BigFirst);
    let out = CompiledWorkload::compile(spec, 42, Scale::new(scale))
        .and_then(|compiled| {
            let apps = compiled.apps().to_vec();
            RunSpec::new(machine, apps, 42, SimParams::default(), kind).simulate(model)
        })
        .map_err(|e| format!("running {} on {}: {e}", kind.name(), spec.name()))?;
    let mut text = String::new();
    let _ = writeln!(
        text,
        "\n== {:<6} makespan {}  util {:.2}  switches {}  migrations {}",
        kind.name(),
        out.makespan,
        out.utilization(),
        out.context_switches,
        out.migrations
    );
    for app in &out.apps {
        let _ = writeln!(text, "  app {:<14} turnaround {}", app.name, app.turnaround);
    }
    let mut by_app: Vec<(f64, f64, f64, f64)> = vec![(0.0, 0.0, 0.0, 0.0); out.apps.len()];
    for t in &out.threads {
        let e = &mut by_app[t.app.index()];
        e.0 += t.big_time.as_secs_f64();
        e.1 += t.little_time.as_secs_f64();
        e.2 += t.blocked_time.as_secs_f64();
        e.3 += t.ready_time.as_secs_f64();
    }
    for (i, (bigt, littlet, blocked, ready)) in by_app.iter().enumerate() {
        let _ = writeln!(
            text,
            "  app {:<14} big {:.3}s little {:.3}s blocked {:.3}s ready {:.3}s",
            out.apps[i].name, bigt, littlet, blocked, ready
        );
    }
    let idle_ratio: f64 = 1.0 - out.utilization();
    let _ = writeln!(text, "  idle fraction {:.3}", idle_ratio);
    let _ = write!(text, "{}", out.telemetry);
    Ok(text)
}
