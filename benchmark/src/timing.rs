//! A timing [`Scheduler`] decorator: wraps any policy, forwards every
//! hook unchanged, and records the wall time and call count of each of
//! the six decision hooks. Used only in traced runs.

use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

use amp_sim::{EnqueueReason, Pick, SchedCtx, Scheduler, StopReason};
use amp_types::{CoreId, SimDuration, ThreadId};

/// The decision hooks the decorator times, in report order.
pub const HOOKS: [&str; 6] = [
    "enqueue",
    "pick_next",
    "time_slice",
    "should_preempt",
    "on_tick",
    "on_stop",
];

const ENQUEUE: usize = 0;
const PICK_NEXT: usize = 1;
const TIME_SLICE: usize = 2;
const SHOULD_PREEMPT: usize = 3;
const ON_TICK: usize = 4;
const ON_STOP: usize = 5;

/// Raw per-hook span totals: nanoseconds (timer cost included) and calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct HookTotals {
    pub ns: [u64; 6],
    pub calls: [u64; 6],
}

impl HookTotals {
    pub fn absorb(&mut self, other: &HookTotals) {
        for i in 0..HOOKS.len() {
            self.ns[i] += other.ns[i];
            self.calls[i] += other.calls[i];
        }
    }

    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }
}

/// Wraps `inner`, timing its hooks. The `&self` hooks (`time_slice`,
/// `should_preempt`) record through `Cell`s, so every hook shares one
/// code path.
pub struct Timed {
    inner: Box<dyn Scheduler>,
    ns: [Cell<u64>; 6],
    calls: [Cell<u64>; 6],
}

impl Timed {
    pub fn new(inner: Box<dyn Scheduler>) -> Timed {
        Timed {
            inner,
            ns: Default::default(),
            calls: Default::default(),
        }
    }

    pub fn totals(&self) -> HookTotals {
        HookTotals {
            ns: self.ns.each_ref().map(Cell::get),
            calls: self.calls.each_ref().map(Cell::get),
        }
    }

    fn span<R>(ns: &Cell<u64>, calls: &Cell<u64>, hook: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = hook();
        ns.set(ns.get() + start.elapsed().as_nanos() as u64);
        calls.set(calls.get() + 1);
        out
    }
}

impl Scheduler for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&mut self, ctx: &SchedCtx<'_>) {
        self.inner.init(ctx);
    }

    fn enqueue(&mut self, ctx: &SchedCtx<'_>, thread: ThreadId, reason: EnqueueReason) -> CoreId {
        Timed::span(&self.ns[ENQUEUE], &self.calls[ENQUEUE], || {
            self.inner.enqueue(ctx, thread, reason)
        })
    }

    fn pick_next(&mut self, ctx: &SchedCtx<'_>, core: CoreId) -> Pick {
        Timed::span(&self.ns[PICK_NEXT], &self.calls[PICK_NEXT], || {
            self.inner.pick_next(ctx, core)
        })
    }

    fn time_slice(&self, ctx: &SchedCtx<'_>, thread: ThreadId, core: CoreId) -> SimDuration {
        Timed::span(&self.ns[TIME_SLICE], &self.calls[TIME_SLICE], || {
            self.inner.time_slice(ctx, thread, core)
        })
    }

    fn should_preempt(
        &self,
        ctx: &SchedCtx<'_>,
        incoming: ThreadId,
        core: CoreId,
        running: ThreadId,
    ) -> bool {
        Timed::span(
            &self.ns[SHOULD_PREEMPT],
            &self.calls[SHOULD_PREEMPT],
            || self.inner.should_preempt(ctx, incoming, core, running),
        )
    }

    fn on_tick(&mut self, ctx: &SchedCtx<'_>) {
        Timed::span(&self.ns[ON_TICK], &self.calls[ON_TICK], || {
            self.inner.on_tick(ctx)
        });
    }

    fn on_stop(
        &mut self,
        ctx: &SchedCtx<'_>,
        thread: ThreadId,
        core: CoreId,
        ran: SimDuration,
        reason: StopReason,
    ) {
        Timed::span(&self.ns[ON_STOP], &self.calls[ON_STOP], || {
            self.inner.on_stop(ctx, thread, core, ran, reason)
        });
    }

    fn drain_core(&mut self, ctx: &SchedCtx<'_>, core: CoreId) -> Vec<ThreadId> {
        self.inner.drain_core(ctx, core)
    }
}

/// Mean cost in nanoseconds of one empty span, measured by timing an
/// empty closure through the same code path `calls` times. Subtracting
/// `calls × cost` from a hook's raw total leaves its self time.
pub fn empty_span_ns(calls: u64) -> f64 {
    let ns = Cell::new(0u64);
    let count = Cell::new(0u64);
    for _ in 0..calls.max(1) {
        Timed::span(&ns, &count, || black_box(()));
    }
    ns.get() as f64 / count.get() as f64
}
