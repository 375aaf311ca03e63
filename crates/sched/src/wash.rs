//! WASH re-implementation (the paper's state-of-the-art comparator).
//!
//! WASH (Jibaja et al., CGO 2016) handles core sensitivity, bottlenecks and
//! fairness for general workloads — but only through **thread affinity**:
//! every 10 ms it ranks threads by a single mixed score and binds the
//! top-ranked ones to the big cores, leaving everything else (placement
//! within the mask, selection, preemption) to the underlying CFS. The
//! paper's critique, which its motivating example illustrates, is that the
//! mixed ranking piles both high-speedup *and* blocking threads onto the
//! big cores, where they queue behind each other.
//!
//! As in the paper's methodology (§5.1), this re-implementation drives the
//! original heuristic with a speedup model fit to the simulated system and
//! applies it to all application threads.

use amp_perf::SpeedupModel;
use amp_sim::telemetry::{LabelClass, SchedEvent};
use amp_sim::{EnqueueReason, Pick, SchedCtx, Scheduler, StopReason};
use amp_types::{CoreId, CoreKind, InlineVec, MachineConfig, SimDuration, ThreadId};

use crate::cfs::CfsEngine;

/// WASH's binary affinity in the telemetry label vocabulary: big-bound
/// threads behave as high-speedup picks, everything else floats.
fn wash_class(big_only: bool) -> LabelClass {
    if big_only {
        LabelClass::HighSpeedup
    } else {
        LabelClass::Flexible
    }
}

/// Weights and thresholds of the WASH scoring heuristic.
#[derive(Debug, Clone, Copy)]
pub struct WashConfig {
    /// Weight of the predicted-speedup z-score.
    pub speedup_weight: f64,
    /// Weight of the blocking (criticality) z-score.
    pub blocking_weight: f64,
    /// Weight of the fairness term (big-core-time deficit z-score).
    pub fairness_weight: f64,
    /// Combined-score threshold above which a thread is bound to big cores.
    pub big_threshold: f64,
}

impl Default for WashConfig {
    fn default() -> Self {
        WashConfig {
            speedup_weight: 1.0,
            blocking_weight: 1.0,
            fairness_weight: 0.5,
            big_threshold: 0.25,
        }
    }
}

/// The WASH policy: CFS mechanics plus mixed-score big-core affinity.
///
/// # Examples
///
/// ```
/// use amp_perf::SpeedupModel;
/// use amp_sched::{Scheduler, WashScheduler};
/// use amp_types::{CoreOrder, MachineConfig};
///
/// let machine = MachineConfig::paper_4b4s(CoreOrder::BigFirst);
/// let wash = WashScheduler::new(&machine, SpeedupModel::heuristic());
/// assert_eq!(wash.name(), "wash");
/// ```
#[derive(Debug, Clone)]
pub struct WashScheduler {
    engine: CfsEngine,
    model: SpeedupModel,
    config: WashConfig,
    /// Per-thread: restricted to big cores?
    big_only: Vec<bool>,
    big_cores: InlineVec<CoreId, 8>,
    scratch: WashScratch,
}

/// Reused buffers for the 10 ms scoring pass, so a tick allocates
/// nothing once the buffers reach the live-thread high-water mark.
#[derive(Debug, Clone, Default)]
struct WashScratch {
    live: Vec<ThreadId>,
    speedup: Vec<f64>,
    blocking: Vec<f64>,
    deficit: Vec<f64>,
}

impl WashScheduler {
    /// Creates WASH with default weights.
    pub fn new(machine: &MachineConfig, model: SpeedupModel) -> WashScheduler {
        WashScheduler::with_config(machine, model, WashConfig::default())
    }

    /// Creates WASH with explicit weights.
    pub fn with_config(
        machine: &MachineConfig,
        model: SpeedupModel,
        config: WashConfig,
    ) -> WashScheduler {
        WashScheduler {
            engine: CfsEngine::new(machine.num_cores()),
            model,
            config,
            big_only: Vec::new(),
            big_cores: machine.cores_of_kind(CoreKind::Big).collect(),
            scratch: WashScratch::default(),
        }
    }

    /// Whether `thread` may run on `core` under the current affinities.
    fn allowed(&self, ctx: &SchedCtx<'_>, thread: ThreadId, core: CoreId) -> bool {
        !self.big_only[thread.index()] || ctx.core_kind(core).is_big()
    }

    /// The 10 ms WASH pass: z-score speedup, blocking and fairness across
    /// live threads, combine, and bind above-threshold threads to big
    /// cores.
    fn recompute_affinities(&mut self, ctx: &SchedCtx<'_>) {
        if self.big_cores.is_empty() {
            return;
        }
        // Take the scratch buffers out of `self` for the duration of the
        // pass (set_affinity needs `&mut self`); they go back at the end,
        // retaining their capacity, so steady-state ticks don't allocate.
        let mut s = std::mem::take(&mut self.scratch);
        s.live.clear();
        s.live.extend(ctx.live_threads());
        if s.live.len() < 2 {
            for i in 0..s.live.len() {
                let t = s.live[i];
                self.set_affinity(ctx, t, false);
            }
            self.scratch = s;
            return;
        }
        s.speedup.clear();
        s.speedup.extend(
            s.live
                .iter()
                .map(|&t| self.model.predict(&ctx.thread(t).pmu_window)),
        );
        s.blocking.clear();
        s.blocking.extend(
            s.live
                .iter()
                .map(|&t| ctx.thread(t).blocking_ewma.as_secs_f64()),
        );
        // Fairness: threads that have had *less* big-core share deserve a
        // boost (negated share, z-scored).
        s.deficit.clear();
        s.deficit.extend(s.live.iter().map(|&t| {
            let v = ctx.thread(t);
            let run = v.run_time.as_secs_f64();
            if run > 0.0 {
                -(v.big_time.as_secs_f64() / run)
            } else {
                0.0
            }
        }));

        // z-scores are computed on the fly from (mean, std) — same
        // per-element arithmetic as materializing the z vectors, without
        // three more buffers.
        let (ms, ss) = zstats(&s.speedup);
        let (mb, sb) = zstats(&s.blocking);
        let (mf, sf) = zstats(&s.deficit);
        for i in 0..s.live.len() {
            let t = s.live[i];
            let score = self.config.speedup_weight * zscore(s.speedup[i], ms, ss)
                + self.config.blocking_weight * zscore(s.blocking[i], mb, sb)
                + self.config.fairness_weight * zscore(s.deficit[i], mf, sf);
            self.set_affinity(ctx, t, score > self.config.big_threshold);
        }
        self.scratch = s;
    }

    /// Updates one thread's big-core binding, emitting a telemetry
    /// relabel when the binding flips.
    fn set_affinity(&mut self, ctx: &SchedCtx<'_>, thread: ThreadId, big_only: bool) {
        let old = self.big_only[thread.index()];
        if old != big_only {
            let core = ctx.thread(thread).last_core.unwrap_or(CoreId::new(0));
            ctx.emit(
                core,
                SchedEvent::Relabel {
                    thread,
                    from: wash_class(old),
                    to: wash_class(big_only),
                },
            );
        }
        self.big_only[thread.index()] = big_only;
    }
}

/// Population mean and standard deviation of `values`.
fn zstats(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// One population z-score; zero when the population is degenerate.
fn zscore(value: f64, mean: f64, std: f64) -> f64 {
    if std < 1e-12 {
        0.0
    } else {
        (value - mean) / std
    }
}

/// Population z-scores; zeros when the population is degenerate.
#[cfg(test)]
fn zscores(values: &[f64]) -> Vec<f64> {
    let (mean, std) = zstats(values);
    values.iter().map(|&v| zscore(v, mean, std)).collect()
}

impl Scheduler for WashScheduler {
    fn name(&self) -> &'static str {
        "wash"
    }

    fn init(&mut self, ctx: &SchedCtx<'_>) {
        self.engine.reset(ctx.num_threads());
        self.big_only = vec![false; ctx.num_threads()];
    }

    fn enqueue(&mut self, ctx: &SchedCtx<'_>, thread: ThreadId, reason: EnqueueReason) -> CoreId {
        let core = match reason {
            EnqueueReason::Requeue => {
                let last = self.engine.requeue_core(ctx, thread);
                if self.allowed(ctx, thread, last) {
                    last
                } else {
                    // Affinity changed since it last ran: go to a big core
                    // — or, if every big core is hot-unplugged, to any
                    // online core rather than stranding the thread.
                    self.engine
                        .select_core(
                            ctx,
                            self.big_cores
                                .iter()
                                .copied()
                                .filter(|&c| ctx.core_online(c)),
                        )
                        .or_else(|| self.engine.select_core(ctx, ctx.online_cores()))
                        .unwrap_or(last)
                }
            }
            EnqueueReason::Spawn | EnqueueReason::Wake => self
                .engine
                .select_core(
                    ctx,
                    ctx.online_cores().filter(|&c| self.allowed(ctx, thread, c)),
                )
                .or_else(|| self.engine.select_core(ctx, ctx.online_cores()))
                .unwrap_or(CoreId::new(0)),
        };
        self.engine.enqueue(thread, core);
        core
    }

    fn pick_next(&mut self, ctx: &SchedCtx<'_>, core: CoreId) -> Pick {
        if let Some(t) = self.engine.pop_local(core) {
            return Pick::Run(t);
        }
        let big_only = &self.big_only;
        let kind = ctx.core_kind(core);
        match self
            .engine
            .steal_for(core, |t, _| !big_only[t.index()] || kind.is_big())
        {
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
        self.recompute_affinities(ctx);
        let big_only = &self.big_only;
        self.engine.balance(ctx, |t, dest| {
            !big_only[t.index()] || ctx.core_kind(dest).is_big()
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

#[cfg(test)]
mod tests {
    use super::*;
    use amp_sim::{SimParams, Simulation};
    use amp_types::{CoreOrder, SimTime};
    use amp_workloads::{BenchmarkId, Scale, WorkloadSpec};

    #[test]
    fn zscores_standardize() {
        let z = zscores(&[1.0, 2.0, 3.0]);
        assert!((z[0] + z[2]).abs() < 1e-12);
        assert!(z[1].abs() < 1e-12);
        assert_eq!(zscores(&[5.0, 5.0, 5.0]), vec![0.0; 3]);
    }

    #[test]
    fn runs_single_and_multi_program_workloads() {
        let machine = MachineConfig::paper_2b4s(CoreOrder::LittleFirst);
        for spec in [
            WorkloadSpec::single(BenchmarkId::Ferret, 6),
            WorkloadSpec::named(
                "mix",
                vec![(BenchmarkId::Swaptions, 4), (BenchmarkId::Radix, 4)],
            ),
        ] {
            let outcome = Simulation::from_apps_with_params(
                &machine,
                spec.instantiate(2, Scale::quick()),
                2,
                SimParams::default(),
            )
            .unwrap()
            .run(&mut WashScheduler::new(&machine, SpeedupModel::heuristic()))
            .unwrap();
            assert!(outcome.makespan > SimTime::ZERO);
            assert_eq!(outcome.scheduler, "wash");
        }
    }

    #[test]
    fn high_speedup_threads_get_more_big_core_time() {
        // Swaptions: core-insensitive master, core-sensitive workers. WASH
        // should route worker time to big cores disproportionately.
        let machine = MachineConfig::paper_2b2s(CoreOrder::BigFirst);
        let spec = WorkloadSpec::single(BenchmarkId::Swaptions, 5);
        let outcome = Simulation::from_apps_with_params(
            &machine,
            spec.instantiate(4, Scale::new(0.3)),
            4,
            SimParams::default(),
        )
        .unwrap()
        .run(&mut WashScheduler::new(&machine, SpeedupModel::heuristic()))
        .unwrap();
        let master = &outcome.threads[0];
        let workers = &outcome.threads[1..];
        let master_share = master.big_time.as_secs_f64() / master.run_time.as_secs_f64().max(1e-12);
        let worker_share: f64 = workers
            .iter()
            .map(|w| w.big_time.as_secs_f64() / w.run_time.as_secs_f64().max(1e-12))
            .sum::<f64>()
            / workers.len() as f64;
        assert!(
            worker_share > master_share,
            "workers {worker_share:.2} vs master {master_share:.2}"
        );
    }
}
