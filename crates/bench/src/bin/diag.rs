//! Diagnostic: detailed per-scheduler stats for one paper workload.
//!
//! ```text
//! diag [--jobs N] <WorkloadName> <big> <little> [scale]
//! ```
//!
//! `--jobs N` runs the per-scheduler simulations on N worker threads
//! (default: available parallelism). Each scheduler's block is rendered
//! to a buffer and printed in the fixed policy order, so output is
//! byte-identical for every N.

use std::fmt::Write as _;
use std::process::ExitCode;

use amp_perf::SpeedupModel;
use amp_sim::SimParams;
use amp_types::{CoreOrder, MachineConfig};
use amp_workloads::{CompiledWorkload, PaperWorkload, Scale, WorkloadClass};
use colab::sweep::parallel_map;
use colab::{RunSpec, SchedulerKind};

fn main() -> ExitCode {
    let mut jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--jobs" {
            jobs = match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => n,
                None => {
                    eprintln!("error: --jobs needs a count");
                    return ExitCode::FAILURE;
                }
            };
        } else {
            positional.push(arg);
        }
    }
    let name = positional.first().map(String::as_str).unwrap_or("Sync-2");
    let big: usize = positional.get(1).and_then(|s| s.parse().ok()).unwrap_or(2);
    let little: usize = positional.get(2).and_then(|s| s.parse().ok()).unwrap_or(2);
    let scale: f64 = positional.get(3).and_then(|s| s.parse().ok()).unwrap_or(1.0);

    let workload = PaperWorkload::all()
        .into_iter()
        .find(|w| w.name() == name)
        .unwrap_or_else(|| PaperWorkload::new(WorkloadClass::Sync, 2));
    let spec = workload.spec();
    println!("workload {} on {}B{}S scale {}", workload.name(), big, little, scale);

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
