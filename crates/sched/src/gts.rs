//! ARM Global Task Scheduling (GTS), the big.LITTLE MP baseline.
//!
//! Table 1 lists ARM's GTS [11] among the schedulers that target general
//! multiprogrammed workloads: it "only controls the affinity of threads
//! based on each thread's load average — high load threads run on big
//! cores, low load threads run on little cores", with no provision for
//! fairness or inter-thread communication. This module implements that
//! policy over the same CFS mechanics WASH uses, turning the paper's
//! qualitative comparison row into a quantitative one.
//!
//! Load tracking approximates the kernel's per-entity load average: an
//! exponentially weighted fraction of wall time the thread spent
//! *runnable* (running or queued) over each 10 ms window. Threads whose
//! load crosses the up-migration threshold are bound to big cores;
//! threads below the down-migration threshold are bound to little cores;
//! the band in between keeps its previous placement.

use amp_sim::telemetry::{LabelClass, SchedEvent};
use amp_sim::{EnqueueReason, Pick, SchedCtx, Scheduler, StopReason};
use amp_types::{CoreId, CoreKind, InlineVec, MachineConfig, SimDuration, ThreadId};

use crate::cfs::CfsEngine;

/// GTS migration thresholds (fractions of wall time spent runnable,
/// mirroring big.LITTLE MP's up/down hysteresis).
#[derive(Debug, Clone, Copy)]
pub struct GtsConfig {
    /// Load above which a thread is bound to big cores.
    pub up_threshold: f64,
    /// Load below which a thread is bound to little cores.
    pub down_threshold: f64,
    /// EWMA weight of the newest window.
    pub alpha: f64,
}

impl Default for GtsConfig {
    fn default() -> Self {
        GtsConfig {
            up_threshold: 0.8,
            down_threshold: 0.3,
            alpha: 0.5,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Placement {
    Big,
    Little,
    Anywhere,
}

impl Placement {
    /// The telemetry vocabulary equivalent: big-bound threads behave as
    /// high-speedup, little-bound as non-critical, the band as flexible.
    fn class(self) -> LabelClass {
        match self {
            Placement::Big => LabelClass::HighSpeedup,
            Placement::Little => LabelClass::NonCritical,
            Placement::Anywhere => LabelClass::Flexible,
        }
    }
}

/// The GTS policy: load-average affinity over CFS mechanics.
///
/// # Examples
///
/// ```
/// use amp_sched::{GtsScheduler, Scheduler};
/// use amp_types::{CoreOrder, MachineConfig};
///
/// let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
/// assert_eq!(GtsScheduler::new(&machine).name(), "gts");
/// ```
#[derive(Debug, Clone)]
pub struct GtsScheduler {
    engine: CfsEngine,
    config: GtsConfig,
    big_cores: InlineVec<CoreId, 8>,
    little_cores: InlineVec<CoreId, 8>,
    placement: Vec<Placement>,
    load: Vec<f64>,
    /// `(run_time, ready_time)` snapshots at the last window boundary.
    snapshots: Vec<(SimDuration, SimDuration)>,
    last_tick: amp_types::SimTime,
}

impl GtsScheduler {
    /// Creates GTS with default thresholds.
    pub fn new(machine: &MachineConfig) -> GtsScheduler {
        GtsScheduler::with_config(machine, GtsConfig::default())
    }

    /// Creates GTS with explicit thresholds.
    pub fn with_config(machine: &MachineConfig, config: GtsConfig) -> GtsScheduler {
        GtsScheduler {
            engine: CfsEngine::new(machine.num_cores()),
            config,
            big_cores: machine.cores_of_kind(CoreKind::Big).collect(),
            little_cores: machine.cores_of_kind(CoreKind::Little).collect(),
            placement: Vec::new(),
            load: Vec::new(),
            snapshots: Vec::new(),
            last_tick: amp_types::SimTime::ZERO,
        }
    }

    fn allowed(&self, ctx: &SchedCtx<'_>, thread: ThreadId, core: CoreId) -> bool {
        match self.placement[thread.index()] {
            Placement::Anywhere => true,
            Placement::Big => {
                ctx.core_kind(core).is_big() || self.big_cores.is_empty()
            }
            Placement::Little => {
                !ctx.core_kind(core).is_big() || self.little_cores.is_empty()
            }
        }
    }

    fn retrack_loads(&mut self, ctx: &SchedCtx<'_>) {
        let window = ctx.now.saturating_since(self.last_tick);
        self.last_tick = ctx.now;
        if window.is_zero() {
            return;
        }
        let window_s = window.as_secs_f64();
        for t in ctx.live_threads() {
            let v = ctx.thread(t);
            let (prev_run, prev_ready) = self.snapshots[t.index()];
            let runnable = (v.run_time - prev_run) + (v.ready_time - prev_ready);
            self.snapshots[t.index()] = (v.run_time, v.ready_time);
            let instant = (runnable.as_secs_f64() / window_s).min(1.0);
            let load = &mut self.load[t.index()];
            *load = (1.0 - self.config.alpha) * *load + self.config.alpha * instant;

            let placement = if *load >= self.config.up_threshold {
                Placement::Big
            } else if *load <= self.config.down_threshold {
                Placement::Little
            } else {
                // Hysteresis: keep the previous binding.
                self.placement[t.index()]
            };
            let old = self.placement[t.index()];
            if old != placement {
                let core = ctx.thread(t).last_core.unwrap_or(CoreId::new(0));
                ctx.emit(
                    core,
                    SchedEvent::Relabel { thread: t, from: old.class(), to: placement.class() },
                );
            }
            self.placement[t.index()] = placement;
        }
    }
}

impl Scheduler for GtsScheduler {
    fn name(&self) -> &'static str {
        "gts"
    }

    fn init(&mut self, ctx: &SchedCtx<'_>) {
        let n = ctx.num_threads();
        self.engine.reset(n);
        self.placement = vec![Placement::Anywhere; n];
        self.load = vec![1.0; n]; // fresh threads look busy, as in the kernel
        self.snapshots = vec![(SimDuration::ZERO, SimDuration::ZERO); n];
        self.last_tick = ctx.now;
    }

    fn enqueue(&mut self, ctx: &SchedCtx<'_>, thread: ThreadId, reason: EnqueueReason) -> CoreId {
        let core = match reason {
            EnqueueReason::Requeue => {
                let last = self.engine.requeue_core(ctx, thread);
                if self.allowed(ctx, thread, last) {
                    last
                } else {
                    self.fallback_core(ctx, thread)
                }
            }
            EnqueueReason::Spawn | EnqueueReason::Wake => self.fallback_core(ctx, thread),
        };
        self.engine.enqueue(thread, core);
        core
    }

    fn pick_next(&mut self, ctx: &SchedCtx<'_>, core: CoreId) -> Pick {
        if let Some(t) = self.engine.pop_local(core) {
            return Pick::Run(t);
        }
        // Disjoint field borrows: the closure reads `placement` while the
        // engine runqueues are mutated — no defensive clone needed.
        let placement = &self.placement;
        let kind_is_big = ctx.core_kind(core).is_big();
        match self.engine.steal_for(core, |t, _| match placement[t.index()] {
            Placement::Anywhere => true,
            Placement::Big => kind_is_big,
            Placement::Little => !kind_is_big,
        }) {
            Some(t) => Pick::Run(t),
            None => Pick::Idle,
        }
    }

    fn time_slice(&self, ctx: &SchedCtx<'_>, _thread: ThreadId, core: CoreId) -> SimDuration {
        self.engine.slice(ctx, core)
    }

    fn should_preempt(
        &self,
        _ctx: &SchedCtx<'_>,
        incoming: ThreadId,
        _core: CoreId,
        running: ThreadId,
    ) -> bool {
        self.engine.should_preempt(incoming, running)
    }

    fn on_tick(&mut self, ctx: &SchedCtx<'_>) {
        self.retrack_loads(ctx);
        let placement = &self.placement;
        self.engine.balance(ctx, |t, dest| {
            let big = ctx.core_kind(dest).is_big();
            match placement[t.index()] {
                Placement::Anywhere => true,
                Placement::Big => big,
                Placement::Little => !big,
            }
        });
    }

    fn on_stop(
        &mut self,
        _ctx: &SchedCtx<'_>,
        thread: ThreadId,
        _core: CoreId,
        ran: SimDuration,
        _reason: StopReason,
    ) {
        self.engine.charge(thread, ran);
    }

    fn drain_core(&mut self, _ctx: &SchedCtx<'_>, core: CoreId) -> Vec<ThreadId> {
        self.engine.drain(core)
    }
}

impl GtsScheduler {
    /// Least-loaded core within the thread's current placement group.
    fn fallback_core(&self, ctx: &SchedCtx<'_>, thread: ThreadId) -> CoreId {
        let group: &[CoreId] = match self.placement[thread.index()] {
            Placement::Big if !self.big_cores.is_empty() => &self.big_cores,
            Placement::Little if !self.little_cores.is_empty() => &self.little_cores,
            _ => &[],
        };
        if group.is_empty() {
            // Unrestricted (or degenerate machine): range over every
            // online core without materializing the list.
            self.engine.select_core(ctx, ctx.online_cores())
        } else {
            // The preferred cluster may be entirely hot-unplugged; fall
            // back to any online core rather than stranding the thread.
            self.engine
                .select_core(ctx, group.iter().copied().filter(|&c| ctx.core_online(c)))
                .or_else(|| self.engine.select_core(ctx, ctx.online_cores()))
        }
        .unwrap_or(CoreId::new(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_sim::{SimParams, Simulation};
    use amp_types::{CoreOrder, SimTime};
    use amp_workloads::{BenchmarkId, Scale, WorkloadSpec};

    #[test]
    fn completes_mixed_workloads() {
        let machine = MachineConfig::paper_2b4s(CoreOrder::BigFirst);
        let spec = WorkloadSpec::named(
            "gts-mix",
            vec![(BenchmarkId::Ferret, 6), (BenchmarkId::Radix, 4)],
        );
        let outcome = Simulation::from_apps_with_params(
            &machine,
            spec.instantiate(3, Scale::quick()),
            3,
            SimParams::default(),
        )
        .unwrap()
        .run(&mut GtsScheduler::new(&machine))
        .unwrap();
        assert!(outcome.makespan > SimTime::ZERO);
        assert_eq!(outcome.scheduler, "gts");
    }

    #[test]
    fn busy_threads_climb_to_big_cores() {
        // A compute-only workload with fewer threads than cores: every
        // thread is 100% runnable, so all of them bind to big cores and
        // contend there; little cores see at most spillover.
        let machine = MachineConfig::paper_2b2s(CoreOrder::LittleFirst);
        let spec = WorkloadSpec::single(BenchmarkId::Blackscholes, 2);
        let outcome = Simulation::from_apps_with_params(
            &machine,
            spec.instantiate(5, Scale::new(0.5)),
            5,
            SimParams::default(),
        )
        .unwrap()
        .run(&mut GtsScheduler::new(&machine))
        .unwrap();
        let total_big: f64 = outcome.threads.iter().map(|t| t.big_time.as_secs_f64()).sum();
        let total_run: f64 = outcome.threads.iter().map(|t| t.run_time.as_secs_f64()).sum();
        assert!(
            total_big / total_run > 0.8,
            "busy threads only {:.2} on big cores",
            total_big / total_run
        );
    }

    #[test]
    fn thresholds_have_hysteresis_band() {
        let cfg = GtsConfig::default();
        assert!(cfg.up_threshold > cfg.down_threshold);
    }
}
