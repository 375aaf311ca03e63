//! End-to-end and per-layer benchmark of the COLAB reproduction.
//!
//! ```text
//! colab-benchmark --workload <paper_grid|studies|trace_dump> --seed N
//!                 --seconds S --trace <0|1> [--scale F]
//! ```
//!
//! One run measures one workload on freshly trained harnesses (scale
//! 1.0 unless `--scale` says otherwise; `--seed` is the harness's master
//! seed, from which every workload input derives) with 2 worker threads.
//! The run starts measuring processes — copies of this binary, one at a
//! time — until `--seconds` have passed, because a process's memory
//! placement sets its speed for its whole life. Each makes one warm-up
//! pass and then a timed pass on a new harness, with the benchmark's
//! fixed [`reference`] simulation timed just before and after it; checks
//! every pass's outputs; and reports its samples on standard output.
//! Times are reported at reference speed: each is scaled by
//! [`REFERENCE_S`] over the median reference run, which cancels the
//! drift of the shared host's speed. With `--trace 0` the run then makes
//! one traced pass purely as a check and prints the end-to-end metrics;
//! with `--trace 1` each process also makes a traced pass and the run
//! prints the per-layer metrics, medians over all traced passes. The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`. See `NOTES.md` beside
//! this package for what each metric means.

mod checks;
mod grid;
mod metrics;
mod probe;
mod procstat;
mod reference;
mod studies;
mod timing;
mod trace_dump;

use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use amp_perf::SpeedupModel;
use amp_types::Result;
use amp_workloads::Scale;
use colab::training::{build_training_set, SELECTED_COUNTERS};
use colab::{ExperimentConfig, Harness};

use checks::Checks;
use metrics::{median, Metrics, END_TO_END};
use probe::{ms, ratio};

/// Worker threads for every parallel phase (`run_plan`, `parallel_map`).
pub const JOBS: usize = 2;
/// Fewest measuring processes per run, however long each takes.
const MIN_PROCESSES: usize = 3;
/// Extra harness set-ups each process times before its timed pass, for
/// `setup_s`; spread over the run like the passes, so both see the same
/// host conditions.
const SETUPS_PER_PASS: usize = 3;
/// Seconds the reference run takes on a host of reference speed. Time
/// metrics are scaled to such a host: a median time `t` is reported as
/// `t × REFERENCE_S / r`, where `r` is the median reference run of the
/// same run. On an unloaded 2-vCPU Xeon guest `r` is 0.09–0.15 s.
const REFERENCE_S: f64 = 0.1;
/// Cores of the symmetric machines the training corpus runs on
/// (`Harness::new` trains with the same value).
const TRAINING_CORES: usize = 4;

/// What one pass produced: its timed cost and the outputs that must be
/// identical across passes.
pub struct Pass {
    pub wall: Duration,
    pub cpu: f64,
    /// FNV-1a over the rendered figure/table/study text or trace bytes.
    pub digest: u64,
    /// COLAB's H_ANTT (or per-app turnaround) relative to Linux.
    pub antt_vs_linux: f64,
    /// COLAB's H_STP (or per-app speedup) relative to Linux.
    pub stp_vs_linux: f64,
}

/// One benchmark workload.
pub trait Workload {
    /// Threads a pass keeps busy; the reference runs on as many.
    fn threads(&self) -> usize;

    /// Runs the workload once on `h` (a fresh harness), timing only the
    /// workload itself, then checks its outputs. With `layers`, also
    /// records the phase timings it can see.
    fn pass(
        &self,
        h: &mut Harness,
        checks: &mut Checks,
        layers: Option<&mut Metrics>,
    ) -> Result<Pass>;

    /// After a traced `pass` on `h`: re-runs its units through the
    /// public API with the timing decorator and fills the per-layer
    /// metrics the pass could not.
    fn probe(
        &self,
        h: &mut Harness,
        checks: &mut Checks,
        pass: &Pass,
        untraced_wall: Duration,
        layers: &mut Metrics,
    ) -> Result<()>;
}

/// Runs `f`, returning its output, wall time and process CPU seconds.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Duration, f64) {
    let cpu = procstat::cpu_seconds();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed();
    (out, wall, procstat::cpu_seconds() - cpu)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    /// Set in a measuring process started by the run: its index.
    process: Option<usize>,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
        process: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            "--scale" => args.scale = value.parse().map_err(|e| bad(&e))?,
            "--process" => args.process = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.scale > 0.0 && args.seconds >= 0.0 && args.seconds.is_finite()) {
        return Err("--scale must be positive and --seconds finite and non-negative".into());
    }
    Ok(args)
}

fn workload(name: &str) -> Option<&'static dyn Workload> {
    match name {
        "paper_grid" => Some(&grid::PaperGrid),
        "studies" => Some(&studies::Studies),
        "trace_dump" => Some(&trace_dump::TraceDump),
        _ => None,
    }
}

/// Times the two training phases through their public functions and
/// checks the result is the model the harness trained.
fn time_training(h: &Harness, checks: &mut Checks, layers: &mut Metrics) -> Result<()> {
    let start = Instant::now();
    let config = h.config();
    let set = build_training_set(TRAINING_CORES, config.seed, config.scale)?;
    let collected = Instant::now();
    let model = SpeedupModel::train(&set, SELECTED_COUNTERS)?;
    layers.set("training.collect_ms", ms(collected - start));
    layers.set("training.fit_ms", ms(collected.elapsed()));
    checks.same(
        "retrained model",
        format!("{:?}", h.model()),
        format!("{model:?}"),
    );
    Ok(())
}

/// One traced pass on a fresh harness: the workload's own phase timings,
/// the program's counter deltas, then the probe.
fn traced_pass(
    w: &dyn Workload,
    config: &ExperimentConfig,
    checks: &mut Checks,
    untraced_wall: Duration,
) -> Result<(Pass, Metrics)> {
    let mut layers = Metrics::zeroed(&metrics::per_layer());
    let mut h = Harness::new(config.clone())?;
    time_training(&h, checks, &mut layers)?;
    let cost = colab::simcost::snapshot();
    let pass = w.pass(&mut h, checks, Some(&mut layers))?;
    let after = colab::simcost::snapshot();
    layers.set("simcost.runs", (after.runs() - cost.runs()) as f64);
    layers.set("simcost.events", (after.events() - cost.events()) as f64);
    let interned = h.intern_stats();
    layers.set("intern.hits", interned.hits as f64);
    layers.set("intern.misses", interned.misses as f64);
    layers.set(
        "intern.hit_ratio",
        ratio(
            interned.hits as f64,
            (interned.hits + interned.misses) as f64,
        ),
    );
    w.probe(&mut h, checks, &pass, untraced_wall, &mut layers)?;
    Ok((pass, layers))
}

/// Every pass must reproduce the first pass's outputs exactly.
fn same_outputs(checks: &mut Checks, reference: &Pass, pass: &Pass) {
    checks.same("output digest", reference.digest, pass.digest);
    checks.same(
        "ANTT ratio",
        reference.antt_vs_linux.to_bits(),
        pass.antt_vs_linux.to_bits(),
    );
    checks.same(
        "STP ratio",
        reference.stp_vs_linux.to_bits(),
        pass.stp_vs_linux.to_bits(),
    );
}

/// What one measuring process measured.
struct Run {
    /// The warm-up pass; the timed and traced passes must match it.
    outputs: Pass,
    /// The timed pass.
    pass: Pass,
    setups: Vec<f64>,
    /// The lesser peak RSS of the warm-up pass, which ran on a fresh heap,
    /// and of the timed pass, which also holds heap the allocator kept
    /// (of the whole process so far when the kernel cannot reset the
    /// peak).
    peak: f64,
    /// Reference runs just before and just after the timed pass.
    refs: [reference::Reference; 2],
    layers: Option<Metrics>,
}

/// The body of one measuring process: a warm-up pass, then one timed
/// pass between two reference runs (followed by a traced pass under
/// `--trace 1`), each on a new harness. A process keeps its speed for
/// its whole life, so the run samples many short processes rather than
/// a few long ones.
fn process_run(
    w: &dyn Workload,
    config: &ExperimentConfig,
    args: &Args,
    checks: &mut Checks,
) -> Result<Run> {
    let mut h = Harness::new(config.clone())?;
    let outputs = w.pass(&mut h, checks, None)?;
    drop(h);
    let warm_up_peak = procstat::peak_rss_mb();

    let before = reference::run(w.threads());
    let mut setups = Vec::new();
    let mut new_harness = || -> Result<Harness> {
        let start = Instant::now();
        let h = Harness::new(config.clone())?;
        setups.push(start.elapsed().as_secs_f64());
        Ok(h)
    };
    for _ in 0..SETUPS_PER_PASS {
        new_harness()?;
    }
    let mut h = new_harness()?;
    procstat::reset_peak_rss();
    let pass = w.pass(&mut h, checks, None)?;
    let peak = procstat::peak_rss_mb().min(warm_up_peak);
    drop(h);
    let after = reference::run(w.threads());
    checks.same("reference checksum", before.checksum, after.checksum);
    same_outputs(checks, &outputs, &pass);

    let layers = if args.trace {
        let (traced, metrics) = traced_pass(w, config, checks, pass.wall)?;
        same_outputs(checks, &outputs, &traced);
        Some(metrics)
    } else {
        None
    };
    Ok(Run {
        outputs,
        pass,
        setups,
        peak,
        refs: [before, after],
        layers,
    })
}

/// Writes a measuring process's samples to standard output, one
/// `key values…` line each, for the run that started it.
fn report_process(run: &Run, checks: &Checks) {
    let setups: Vec<String> = run.setups.iter().map(f64::to_string).collect();
    println!("pass {} {}", run.pass.wall.as_secs_f64(), run.pass.cpu);
    println!("setups {}", setups.join(" "));
    println!("peak {}", run.peak);
    println!("refs {} {}", run.refs[0].seconds, run.refs[1].seconds);
    println!(
        "outputs {} {} {} {}",
        run.outputs.digest,
        run.outputs.antt_vs_linux.to_bits(),
        run.outputs.stp_vs_linux.to_bits(),
        run.refs[0].checksum,
    );
    if let Some(layers) = &run.layers {
        println!("layers {}", layers.encode());
    }
    println!(
        "checks {} {} {}",
        checks.attempted,
        checks.failed,
        checks.problems()
    );
}

/// A measuring process's report, read back by the run.
struct ProcessReport {
    wall: f64,
    cpu: f64,
    setups: Vec<f64>,
    peak: f64,
    refs: Vec<f64>,
    /// Output digest, the two ratios, and the reference checksum.
    outputs: (u64, f64, f64, u64),
    layers: Option<Metrics>,
    /// Units attempted and failed, and failed whole-pass checks.
    checks: (u64, u64, u64),
}

fn parse_report(stdout: &str) -> std::result::Result<ProcessReport, String> {
    fn numbers<T: std::str::FromStr>(rest: &str) -> std::result::Result<Vec<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        rest.split_whitespace()
            .map(|v| v.parse().map_err(|e| format!("bad value {v}: {e}")))
            .collect()
    }
    let mut lines = std::collections::HashMap::new();
    for line in stdout.lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        if lines.insert(key, rest).is_some() {
            return Err(format!("repeated line: {line}"));
        }
    }
    let line = |key: &str| lines.get(key).copied().ok_or(format!("no {key} line"));
    let [wall, cpu] = numbers::<f64>(line("pass")?)?[..] else {
        return Err("malformed pass line".into());
    };
    let [peak] = numbers::<f64>(line("peak")?)?[..] else {
        return Err("malformed peak line".into());
    };
    let [digest, antt, stp, checksum] = numbers::<u64>(line("outputs")?)?[..] else {
        return Err("malformed outputs line".into());
    };
    let [attempted, failed, problems] = numbers::<u64>(line("checks")?)?[..] else {
        return Err("malformed checks line".into());
    };
    let layers = match lines.get("layers") {
        Some(rest) => Some(Metrics::decode(&metrics::per_layer(), rest)?),
        None => None,
    };
    Ok(ProcessReport {
        wall,
        cpu,
        setups: numbers(line("setups")?)?,
        peak,
        refs: numbers(line("refs")?)?,
        outputs: (digest, f64::from_bits(antt), f64::from_bits(stp), checksum),
        layers,
        checks: (attempted, failed, problems),
    })
}

/// Starts measuring process `index` and waits for it to end.
fn run_process(args: &Args, index: usize) -> std::result::Result<ProcessReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--scale", &args.scale.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--process", &index.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start: {e}"))?;
    if !out.status.success() {
        return Err(format!("exited with {}", out.status));
    }
    parse_report(&String::from_utf8_lossy(&out.stdout))
}

/// What the run measured over all its processes.
struct Measured {
    /// Outputs of the first process; every other must match them.
    outputs: Pass,
    /// Each process's timed-pass wall and CPU time.
    walls: Vec<f64>,
    cpus: Vec<f64>,
    /// Every reference run's wall time.
    refs: Vec<f64>,
    /// Each process's median harness set-up time.
    setups: Vec<f64>,
    /// Each process's peak RSS.
    peaks: Vec<f64>,
    /// Every traced pass's per-layer metrics.
    layers: Vec<Metrics>,
}

impl Measured {
    /// `time`, a statistic of this run's times, scaled to a host of
    /// reference speed.
    fn at_reference_speed(&self, time: f64) -> f64 {
        time * ratio(REFERENCE_S, median(&self.refs))
    }

    /// Mean over the processes of each one's median set-up time. A
    /// process sets up in about 3 ms or in about 5 ms for its whole life,
    /// so a median over processes would jump between the two.
    fn setup(&self) -> f64 {
        self.setups.iter().sum::<f64>() / self.setups.len() as f64
    }
}

/// Starts measuring processes one after another until `--seconds` have
/// passed, checks they all produced the same outputs, and pools their
/// samples. With `--trace 0` it then checks one traced pass itself.
fn measure_processes(
    w: &dyn Workload,
    config: &ExperimentConfig,
    args: &Args,
    checks: &mut Checks,
) -> std::result::Result<Measured, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut reports: Vec<ProcessReport> = Vec::new();
    while reports.len() < MIN_PROCESSES || Instant::now() < deadline {
        let index = reports.len();
        let report =
            run_process(args, index).map_err(|e| format!("measuring process {index}: {e}"))?;
        let (attempted, failed, problems) = report.checks;
        checks.attempted += attempted;
        checks.failed += failed;
        if problems > 0 {
            checks.problem(format!(
                "measuring process {index}: {problems} whole-pass checks failed"
            ));
        }
        if let Some(first) = reports.first() {
            checks.same("process outputs", first.outputs, report.outputs);
        }
        reports.push(report);
    }

    let (digest, antt_vs_linux, stp_vs_linux, _) = reports[0].outputs;
    let measured = Measured {
        outputs: Pass {
            wall: Duration::ZERO,
            cpu: 0.0,
            digest,
            antt_vs_linux,
            stp_vs_linux,
        },
        walls: reports.iter().map(|r| r.wall).collect(),
        cpus: reports.iter().map(|r| r.cpu).collect(),
        refs: reports.iter().flat_map(|r| r.refs.clone()).collect(),
        setups: reports.iter().map(|r| median(&r.setups)).collect(),
        peaks: reports.iter().map(|r| r.peak).collect(),
        layers: reports.iter().filter_map(|r| r.layers.clone()).collect(),
    };
    if !args.trace {
        // Untraced runs still verify decorated ≡ plain and the memo.
        let untraced = Duration::from_secs_f64(median(&measured.walls));
        let (traced, _) = traced_pass(w, config, checks, untraced).map_err(|e| e.to_string())?;
        same_outputs(checks, &measured.outputs, &traced);
    }
    Ok(measured)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!("error: --workload must be paper_grid, studies or trace_dump");
        return ExitCode::from(2);
    };
    let config = ExperimentConfig {
        scale: Scale::new(args.scale),
        seed: args.seed,
        train_model: true,
        replications: 1,
        ..ExperimentConfig::default()
    };
    let mut checks = Checks::default();

    if args.process.is_some() {
        return match process_run(w, &config, &args, &mut checks) {
            Ok(run) => {
                report_process(&run, &checks);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    println!(
        "config: workload={} seed={} scale={} model=trained jobs={} nproc={} profile={} commit={} trace={}",
        args.workload,
        args.seed,
        args.scale,
        JOBS,
        procstat::nproc(),
        procstat::profile(),
        procstat::commit(),
        u8::from(args.trace),
    );
    let result = measure_processes(w, &config, &args, &mut checks);
    let metrics = match &result {
        Err(e) => {
            checks.problem(format!("workload failed: {e}"));
            if args.trace {
                Metrics::zeroed(&metrics::per_layer())
            } else {
                end_to_end_zeroed()
            }
        }
        Ok(run) => {
            println!("output_digest: {:#018x}", run.outputs.digest);
            println!(
                "COLAB vs Linux: ANTT gain {:.2} %, STP gain {:.2} %",
                (1.0 - run.outputs.antt_vs_linux) * 100.0,
                (run.outputs.stp_vs_linux - 1.0) * 100.0,
            );
            println!(
                "processes: {}, raw pass wall median {:.6} s (min {:.6}, max {:.6}), raw cpu median {:.6} s, raw set-up {:.6} s",
                run.walls.len(),
                median(&run.walls),
                metrics::quantile(&run.walls, 0.0),
                metrics::quantile(&run.walls, 1.0),
                median(&run.cpus),
                run.setup(),
            );
            println!(
                "reference runs: {} on {} threads, wall median {:.6} s (min {:.6}, max {:.6})",
                run.refs.len(),
                w.threads(),
                median(&run.refs),
                metrics::quantile(&run.refs, 0.0),
                metrics::quantile(&run.refs, 1.0),
            );
            println!(
                "per-process peak RSS: min {:.3} MB, median {:.3} MB, max {:.3} MB",
                metrics::quantile(&run.peaks, 0.0),
                median(&run.peaks),
                metrics::quantile(&run.peaks, 1.0),
            );
            if args.trace {
                let mut m = Metrics::median_of(&run.layers);
                m.set("run.wall_s", median(&run.walls));
                m.set("run.cpu_s", median(&run.cpus));
                m.set("run.setup_s", run.setup());
                m.set("run.reference_s", median(&run.refs));
                m
            } else {
                let mut m = end_to_end_zeroed();
                m.set("wall_s", run.at_reference_speed(median(&run.walls)));
                m.set("setup_s", run.at_reference_speed(run.setup()));
                m.set("cpu_s", run.at_reference_speed(median(&run.cpus)));
                m.set("peak_rss_mb", median(&run.peaks));
                m.set("colab_antt_vs_linux", run.outputs.antt_vs_linux);
                m.set("colab_stp_vs_linux", run.outputs.stp_vs_linux);
                m
            }
        }
    };
    println!(
        "checks: {} units, {} failed (fail_ratio {}), correct={}",
        checks.attempted,
        checks.failed,
        ratio(checks.failed as f64, checks.attempted as f64),
        checks.correct(),
    );
    print!("{}", metrics.lines());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.correct(),
        checks.attempted.max(1),
        checks.failed.max(u64::from(checks.attempted == 0)),
        metrics.json(),
    );
    ExitCode::SUCCESS
}

fn end_to_end_zeroed() -> Metrics {
    let catalogue: Vec<(String, &'static str)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    Metrics::zeroed(&catalogue)
}
