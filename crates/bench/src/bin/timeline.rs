//! Visualizes one workload's schedule as a per-core text timeline.
//!
//! ```text
//! timeline [WORKLOAD [SCHEDULER [SCALE]]]
//! ```
//!
//! Each row is a core; each letter is the thread running there (`A` =
//! thread 0); `.` is idle time. The legend maps letters to thread roles
//! and criticality, and a decision-telemetry block summarizes the run.
//!
//! An unknown workload, scheduler or flag, or a scale that is not a
//! finite positive number prints the usage to stderr and exits 1 before
//! anything runs. `--help` (`-h`) prints the usage and exits 0.
//!
//! The execution trace is bounded ([`SimParams::trace_capacity`]):
//! recording stops once the buffer fills and later events are *dropped*
//! (drop-newest), so the Gantt chart only covers the traced prefix.
//! The telemetry event ring is bounded too but keeps the most *recent*
//! events (drop-oldest). Both report how much was dropped.

use std::process::ExitCode;

use amp_perf::SpeedupModel;
use amp_sim::SimParams;
use amp_types::{CoreOrder, MachineConfig};
use amp_workloads::{BenchmarkId, CompiledWorkload, PaperWorkload, Scale, WorkloadSpec};
use colab::{RunSpec, SchedulerKind};

/// Printed by `--help` and after any argument error.
const USAGE: &str = "\
usage: timeline [WORKLOAD [SCHEDULER [SCALE]]]

  WORKLOAD   a Table 4 name (Sync-2, Rand-7, ...) or a benchmark name
             for single-program mode (default: ferret)
  SCHEDULER  linux | gts | wash | colab (default: colab)
  SCALE      workload scale factor, finite and positive (default: 0.25)";

fn resolve_workload(name: &str) -> Option<WorkloadSpec> {
    if let Some(w) = PaperWorkload::all().into_iter().find(|w| w.name() == name) {
        return Some(w.spec());
    }
    BenchmarkId::ALL
        .into_iter()
        .find(|b| b.name() == name)
        .map(|b| WorkloadSpec::single(b, b.clamp_threads(4)))
}

/// Parses the command line; `Ok(None)` means `--help`.
fn parse_args() -> Result<Option<(WorkloadSpec, SchedulerKind, f64)>, String> {
    let mut positional: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            flag if flag.starts_with("--") => return Err(format!("unrecognized argument {flag}")),
            _ => positional.push(arg),
        }
    }
    if let Some(extra) = positional.get(3) {
        return Err(format!("unexpected argument {extra}"));
    }
    let name = positional.first().map_or("ferret", String::as_str);
    let spec = resolve_workload(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let name = positional.get(1).map_or("colab", String::as_str);
    let kind = SchedulerKind::EXTENDED
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| format!("unknown scheduler {name}"))?;
    let scale = positional.get(2).map_or(Ok(0.25), |v| {
        colab_bench::parse_scale(v).map_err(|e| format!("SCALE {e}"))
    })?;
    Ok(Some((spec, kind, scale)))
}

fn main() -> ExitCode {
    let (spec, kind, scale) = match parse_args() {
        Ok(Some(parsed)) => parsed,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
    let params = SimParams {
        trace_capacity: 1 << 18,
        event_capacity: 1 << 16,
        ..SimParams::default()
    };
    let outcome = CompiledWorkload::compile(&spec, 42, Scale::new(scale)).and_then(|compiled| {
        let apps = compiled.apps().to_vec();
        RunSpec::new(machine.clone(), apps, 42, params, kind).simulate(&SpeedupModel::heuristic())
    });
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error running {} on {}: {e}", kind.name(), spec.name());
            return ExitCode::FAILURE;
        }
    };

    println!(
        "{} under {} on {machine} — makespan {}, {} switches, {} migrations\n",
        spec.name(),
        outcome.scheduler,
        outcome.makespan,
        outcome.context_switches,
        outcome.migrations
    );
    print!("{}", outcome.trace.gantt(&machine, outcome.makespan, 100));

    println!("\nlegend (letter = thread, sorted by caused-wait):");
    let mut by_wait: Vec<_> = outcome.threads.iter().collect();
    by_wait.sort_by_key(|t| std::cmp::Reverse(t.caused_wait.as_nanos()));
    for t in by_wait.iter().take(12) {
        let letter = (b'A' + (t.id.index() % 26) as u8) as char;
        println!(
            "  {letter} {:<20} caused-wait {:>10}  big-share {:>4.2}",
            t.name,
            t.caused_wait.to_string(),
            if t.run_time.as_nanos() > 0 {
                t.big_time.as_secs_f64() / t.run_time.as_secs_f64()
            } else {
                0.0
            }
        );
    }
    if outcome.trace.dropped() > 0 {
        println!(
            "(trace full: {} later events dropped — the chart covers only \
             the traced prefix; raise trace_capacity for longer runs)",
            outcome.trace.dropped()
        );
    }

    println!("\ndecision telemetry:");
    print!("{}", outcome.telemetry);
    ExitCode::SUCCESS
}
