//! Implementing a custom scheduling policy against the `Scheduler` trait.
//!
//! The simulator treats policies as plug-ins; this example builds a naive
//! "big-cores-first FIFO" scheduler in ~60 lines and races it against
//! CFS and COLAB on a mixed workload. It is deliberately simple — a good
//! starting point for experimenting with your own AMP heuristics.
//!
//! ```text
//! cargo run --release --example custom_scheduler
//! ```

use std::collections::VecDeque;

use colab_suite::prelude::*;
use colab_suite::sim::{EnqueueReason, Pick, SchedCtx, StopReason};
use colab_suite::types::SimDuration;

/// One global FIFO; cores serve it in id order, so with big-first
/// enumeration the big cores soak up work first. No fairness, no
/// criticality, no core sensitivity — a useful straw man.
struct BigFirstFifo {
    queue: VecDeque<ThreadId>,
}

impl Scheduler for BigFirstFifo {
    fn name(&self) -> &'static str {
        "big-first-fifo"
    }

    fn init(&mut self, _ctx: &SchedCtx<'_>) {
        self.queue.clear();
    }

    fn enqueue(&mut self, _ctx: &SchedCtx<'_>, thread: ThreadId, _r: EnqueueReason) -> CoreId {
        self.queue.push_back(thread);
        CoreId::new(0)
    }

    fn pick_next(&mut self, _ctx: &SchedCtx<'_>, _core: CoreId) -> Pick {
        self.queue.pop_front().map_or(Pick::Idle, Pick::Run)
    }

    fn time_slice(&self, _ctx: &SchedCtx<'_>, _t: ThreadId, _c: CoreId) -> SimDuration {
        SimDuration::from_millis(6)
    }

    fn should_preempt(
        &self,
        _ctx: &SchedCtx<'_>,
        _incoming: ThreadId,
        _core: CoreId,
        _running: ThreadId,
    ) -> bool {
        false
    }

    fn on_tick(&mut self, _ctx: &SchedCtx<'_>) {}

    fn on_stop(
        &mut self,
        _ctx: &SchedCtx<'_>,
        _thread: ThreadId,
        _core: CoreId,
        _ran: SimDuration,
        _reason: StopReason,
    ) {
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let machine = MachineConfig::paper_2b4s(CoreOrder::BigFirst);
    let workload = colab_suite::workloads::WorkloadSpec::named(
        "custom-race",
        vec![(BenchmarkId::Dedup, 8), (BenchmarkId::Swaptions, 5)],
    );
    let model = SpeedupModel::heuristic();

    println!("dedup(8) + swaptions(5) on {machine}\n");
    println!(
        "{:<16} {:>12} {:>10} {:>12}",
        "policy", "makespan", "switches", "migrations"
    );
    for run in 0..3 {
        let apps = workload.instantiate(11, Scale::default());
        let sim = Simulation::from_apps_with_params(&machine, apps, 11, SimParams::default())?;
        let outcome = match run {
            0 => sim.run(&mut BigFirstFifo {
                queue: VecDeque::new(),
            })?,
            1 => sim.run(&mut CfsScheduler::new(&machine))?,
            _ => sim.run(&mut ColabScheduler::new(&machine, model.clone()))?,
        };
        println!(
            "{:<16} {:>12} {:>10} {:>12}",
            outcome.scheduler,
            outcome.makespan.to_string(),
            outcome.context_switches,
            outcome.migrations
        );
    }
    Ok(())
}
