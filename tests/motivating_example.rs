//! The paper's Figure 1 motivating example, reconstructed literally.
//!
//! One big core `Pb`, one little core `Pl`. Three applications:
//! * `α = (α1, α2)` — α1 has high big-core speedup and repeatedly blocks α2;
//! * `β = (β1, β2)` — β1 has *low* speedup and repeatedly blocks β2;
//! * `γ` — single-threaded with high speedup.
//!
//! The mixed-model policy (WASH) is inclined to pile γ, α1 **and** β1 onto
//! the big core; the coordinated policy (COLAB) can leave the low-speedup
//! bottleneck β1 on the little core and *prioritize* it there, losing
//! nothing for β while freeing the big core for α1 and γ.

use colab_suite::prelude::*;
use colab_suite::perf::ExecutionProfile;
use colab_suite::types::{ChannelId, SimDuration};
use colab_suite::workloads::{AppSpec, BenchmarkId, Op, Program, ThreadSpec};

const ITEMS: u32 = 60;

/// A two-thread producer/consumer app: the producer (thread 0) gates a
/// much faster consumer through a buffered channel, making the producer
/// unambiguously the app's bottleneck even under CPU contention.
fn blocking_pair(name: &str, producer_profile: ExecutionProfile) -> AppSpec {
    let q = ChannelId::new(0);
    let producer = ThreadSpec {
        name: format!("{name}1"),
        profile: producer_profile,
        program: Program::new(vec![Op::Loop {
            count: ITEMS,
            body: vec![
                Op::Compute(SimDuration::from_micros(900)),
                Op::Push(q),
            ],
        }]),
    };
    let consumer = ThreadSpec {
        name: format!("{name}2"),
        profile: ExecutionProfile::new(0.5, 0.5, 0.4, 0.3, 0.3, 0.2, 0.1),
        program: Program::new(vec![Op::Loop {
            count: ITEMS,
            body: vec![
                Op::Pop(q),
                Op::Compute(SimDuration::from_micros(150)),
            ],
        }]),
    };
    AppSpec {
        name: name.to_string(),
        benchmark: BenchmarkId::Fft, // placeholder id for a custom app
        threads: vec![producer, consumer],
        num_locks: 0,
        barrier_parties: vec![],
        channel_capacities: vec![8],
    }
}

fn single_threaded(name: &str, profile: ExecutionProfile) -> AppSpec {
    AppSpec {
        name: name.to_string(),
        benchmark: BenchmarkId::Blackscholes,
        threads: vec![ThreadSpec {
            name: name.to_string(),
            profile,
            program: Program::new(vec![Op::Loop {
                count: ITEMS,
                body: vec![Op::Compute(SimDuration::from_micros(900))],
            }]),
        }],
        num_locks: 0,
        barrier_parties: vec![],
        channel_capacities: vec![],
    }
}

fn build_apps() -> Vec<AppSpec> {
    let high_speedup = ExecutionProfile::new(0.95, 0.05, 0.1, 0.7, 0.3, 0.1, 0.05);
    let low_speedup = ExecutionProfile::new(0.05, 0.95, 0.3, 0.05, 0.3, 0.3, 0.1);
    vec![
        blocking_pair("alpha", high_speedup), // α1: high-speedup bottleneck
        blocking_pair("beta", low_speedup),   // β1: low-speedup bottleneck
        single_threaded("gamma", high_speedup),
    ]
}

fn run(kind: &str) -> SimulationOutcome {
    let machine = MachineConfig::asymmetric(1, 1, CoreOrder::BigFirst);
    let sim =
        Simulation::from_apps_with_params(&machine, build_apps(), 9, SimParams::default()).unwrap();
    let model = SpeedupModel::heuristic();
    match kind {
        "linux" => sim.run(&mut CfsScheduler::new(&machine)).unwrap(),
        "wash" => sim
            .run(&mut WashScheduler::new(&machine, model))
            .unwrap(),
        _ => sim
            .run(&mut ColabScheduler::new(&machine, model))
            .unwrap(),
    }
}

#[test]
fn bottlenecks_accumulate_caused_wait() {
    let outcome = run("linux");
    // α1 and β1 gate their consumers: they must carry the caused-wait.
    let by_name = |n: &str| {
        outcome
            .threads
            .iter()
            .find(|t| t.name == n)
            .unwrap_or_else(|| panic!("thread {n} missing"))
    };
    assert!(by_name("alpha1").caused_wait > by_name("alpha2").caused_wait);
    assert!(by_name("beta1").caused_wait > by_name("beta2").caused_wait);
}

#[test]
fn colab_keeps_low_speedup_bottleneck_off_the_big_core() {
    let outcome = run("colab");
    let by_name = |n: &str| {
        outcome
            .threads
            .iter()
            .find(|t| t.name == n)
            .unwrap_or_else(|| panic!("thread {n} missing"))
    };
    let big_share = |n: &str| {
        let t = by_name(n);
        if t.run_time.as_nanos() == 0 {
            0.0
        } else {
            t.big_time.as_secs_f64() / t.run_time.as_secs_f64()
        }
    };
    // The coordinated model gives the high-speedup threads (α1, γ) more of
    // the big core than the low-speedup bottleneck β1.
    let alpha1 = big_share("alpha1");
    let gamma = big_share("gamma");
    let beta1 = big_share("beta1");
    assert!(
        alpha1 > beta1 && gamma > beta1,
        "COLAB big-core shares: α1 {alpha1:.2}, γ {gamma:.2}, β1 {beta1:.2}"
    );
}

#[test]
fn colab_matches_or_beats_the_mixed_model_end_to_end() {
    let colab = run("colab");
    let wash = run("wash");
    let linux = run("linux");
    // Makespan: the coordinated policy must not lose to the baseline, and
    // should be at least competitive with the mixed-model policy.
    assert!(
        colab.makespan.as_secs_f64() <= 1.02 * linux.makespan.as_secs_f64(),
        "COLAB {} vs Linux {}",
        colab.makespan,
        linux.makespan
    );
    assert!(
        colab.makespan.as_secs_f64() <= 1.05 * wash.makespan.as_secs_f64(),
        "COLAB {} vs WASH {}",
        colab.makespan,
        wash.makespan
    );
    // β must not be starved by the coordinated policy: its turnaround
    // stays within 2× of the baseline's.
    let beta = |o: &SimulationOutcome| {
        o.apps
            .iter()
            .find(|a| a.name == "beta")
            .expect("beta app present")
            .turnaround
            .as_secs_f64()
    };
    assert!(beta(&colab) <= 2.0 * beta(&linux));
}
