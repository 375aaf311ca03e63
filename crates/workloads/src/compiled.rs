//! Segment-compiled thread programs.
//!
//! [`Cursor`] re-interprets the op tree on every action: each `next` call
//! re-resolves the loop chain (`list_at`) and yields exactly one leaf, so a
//! thread that computes in ten thousand small slices costs the engine ten
//! thousand tree walks *and* ten thousand `CoreDone` events. This module
//! lowers a [`Program`] once, at load time, into a flat immutable segment
//! stream:
//!
//! * adjacent `Compute` leaves and fully-compute loop bodies collapse into
//!   run-length [`Run`] segments with precomputed big/little execution
//!   sums, so the engine can arm **one** timer event for a whole run and
//!   retire the constituent leaves arithmetically when it fires;
//! * blocking actions (lock/unlock, barrier, channel push/pop) and profile
//!   switches stay as explicit segment boundaries;
//! * loops whose bodies block are *not* unrolled — a backward-jump
//!   [`Segment::Repeat`] replays the compiled body, keeping the compiled
//!   form proportional to the source tree, not to the flat action count.
//!
//! [`SegPos`] is the compiled-stream analogue of [`Cursor`]: a resumable
//! position the simulator stores per thread. [`CompiledProgram::next`]
//! yields exactly the same [`Action`] sequence `Cursor::next` would — a
//! property pinned by the unit tests here and the randomized differential
//! test in `tests/compiled_differential.rs`.
//!
//! [`Cursor`]: crate::Cursor

use std::sync::Arc;

use amp_perf::ExecutionProfile;
use amp_types::{CoreKind, Result, SimDuration};

use crate::program::{Action, Op, Program};
use crate::spec::{AppSpec, Scale, WorkloadSpec};

/// One pass of an all-compute loop body never expands beyond this many
/// leaves; nests that would (e.g. `Loop{1000, Loop{1000, [C]}}`) compile
/// to a `Repeat` over an inner `Run` instead, bounding compiled size.
const MAX_PATTERN_LEAVES: usize = 4096;

/// A maximal merged stretch of compute leaves: `reps` passes over
/// `pattern`. Adjacent top-level computes form a single-rep run; a fully
/// compute loop body (nested all-compute loops flattened) forms a
/// multi-rep run.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Number of passes over `pattern` (≥ 1).
    reps: u32,
    /// Big-core durations of one pass's leaves (≥ 1 leaf).
    pattern: Vec<SimDuration>,
    /// `suffix_big[i]` = big-core execution of `pattern[i..]`;
    /// `suffix_big[len]` = 0. Exact integer sums.
    suffix_big: Vec<SimDuration>,
    /// Little-core analogue under the compile-time profile: each leaf
    /// independently rounded by [`ExecutionProfile::exec_duration`], then
    /// summed — the same value the per-leaf engine accumulates event by
    /// event.
    suffix_little: Vec<SimDuration>,
    /// `f64::to_bits` of the `true_speedup` the little sums were computed
    /// with. A `SetProfile` inside a repeated loop body can leave later
    /// passes running a different profile than the compile-time one; the
    /// engine compares bits at arm time and falls back to an on-the-fly
    /// sum on mismatch.
    speedup_bits: u64,
}

impl Run {
    fn new(reps: u32, pattern: Vec<SimDuration>, profile: &ExecutionProfile) -> Run {
        debug_assert!(reps >= 1 && !pattern.is_empty());
        let n = pattern.len();
        let mut suffix_big = vec![SimDuration::ZERO; n + 1];
        let mut suffix_little = vec![SimDuration::ZERO; n + 1];
        for i in (0..n).rev() {
            suffix_big[i] = suffix_big[i + 1] + pattern[i];
            suffix_little[i] =
                suffix_little[i + 1] + profile.exec_duration(pattern[i], CoreKind::Little);
        }
        Run {
            reps,
            pattern,
            suffix_big,
            suffix_little,
            speedup_bits: profile.true_speedup().to_bits(),
        }
    }

    /// Leaves in one pass.
    pub fn pattern_len(&self) -> usize {
        self.pattern.len()
    }

    /// Passes over the pattern.
    pub fn reps(&self) -> u32 {
        self.reps
    }

    /// Execution time of `pattern[i]` on `kind` at `speedup` (the
    /// caller's cached [`ExecutionProfile::true_speedup`]). When the
    /// speedup matches the compile-time one, little-core leaves come from
    /// adjacent suffix-sum differences — exact by construction, with no
    /// floating-point scaling at all.
    #[inline]
    fn leaf_exec(&self, i: usize, kind: CoreKind, speedup: f64) -> SimDuration {
        match kind {
            CoreKind::Big => self.pattern[i],
            CoreKind::Little if speedup.to_bits() == self.speedup_bits => {
                self.suffix_little[i] - self.suffix_little[i + 1]
            }
            CoreKind::Little => self.pattern[i].mul_f64(speedup),
        }
    }

    /// Execution time of one full pattern pass on `kind` at `speedup`
    /// (per-leaf rounding, like the per-leaf engine).
    fn pass_exec(&self, kind: CoreKind, speedup: f64) -> SimDuration {
        match kind {
            CoreKind::Big => self.suffix_big[0],
            CoreKind::Little if speedup.to_bits() == self.speedup_bits => self.suffix_little[0],
            CoreKind::Little => self.pattern.iter().map(|&d| d.mul_f64(speedup)).sum(),
        }
    }

    /// Execution time of the not-yet-fetched tail of this run: the leaves
    /// `pattern[leaf..]` of the current pass plus `reps_left` further full
    /// passes, on a core of `kind` at `speedup`. Matches the sum of the
    /// per-leaf `exec_duration` values the unmerged engine would arm.
    fn remaining_exec(&self, leaf: usize, reps_left: u32, kind: CoreKind, speedup: f64) -> SimDuration {
        let tail = match kind {
            CoreKind::Big => self.suffix_big[leaf],
            CoreKind::Little if speedup.to_bits() == self.speedup_bits => {
                self.suffix_little[leaf]
            }
            CoreKind::Little => {
                // Profile drifted from the compile-time one (SetProfile in
                // a repeated body): recompute with per-leaf rounding.
                self.pattern[leaf..].iter().map(|&d| d.mul_f64(speedup)).sum()
            }
        };
        tail + self.pass_exec(kind, speedup) * u64::from(reps_left)
    }

    /// The latest leaf wall boundary of this run that lies *strictly*
    /// inside both the run and `limit`, measured from the current leaf's
    /// start; `first` is the current leaf's (remaining) execution time.
    /// Returns `None` unless the boundary merges at least one extra whole
    /// leaf beyond the current one.
    ///
    /// Strictness is what keeps merged execution event-for-event
    /// compatible with per-leaf arming at shared timestamps: every event
    /// at which something *observable* happens — the run end, where a
    /// sync action or thread exit follows, and the quantum expiry, which
    /// deschedules — is excluded from the merge and armed individually by
    /// the engine, so it enters the queue at the same instant (and hence
    /// the same FIFO tie-break position) as the per-leaf engine's event.
    fn merge_horizon(
        &self,
        leaf: usize,
        reps_left: u32,
        kind: CoreKind,
        speedup: f64,
        first: SimDuration,
        limit: SimDuration,
    ) -> Option<SimDuration> {
        let remaining = self.remaining_exec(leaf, reps_left, kind, speedup);
        if remaining.is_zero() || first >= limit {
            return None;
        }
        let total = first + remaining;
        if limit >= total {
            // Unconstrained by the quantum: merge everything up to the
            // final leaf's start.
            let last = self.leaf_exec(self.pattern.len() - 1, kind, speedup);
            let b = total - last;
            return (b > first && b < total).then_some(b);
        }
        // Quantum-capped: walk boundaries (skipping whole passes
        // arithmetically) to the largest one below the cap.
        let mut acc = first;
        let mut i = leaf;
        let mut reps = u64::from(reps_left);
        'walk: loop {
            while i < self.pattern.len() {
                let e = self.leaf_exec(i, kind, speedup);
                if acc + e >= limit {
                    break 'walk;
                }
                acc += e;
                i += 1;
            }
            if reps == 0 {
                break;
            }
            let pass = self.pass_exec(kind, speedup);
            if pass.is_zero() {
                break;
            }
            // acc < limit throughout, so the headroom below is >= 0; the
            // cap lands before the run ends, so fewer than `reps` whole
            // passes ever fit (`min` is a defensive clamp).
            let skip = ((limit.as_nanos() - 1 - acc.as_nanos()) / pass.as_nanos()).min(reps - 1);
            acc += pass * skip;
            reps -= skip + 1;
            i = 0;
        }
        (acc > first).then_some(acc)
    }
}

/// One element of the compiled stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Segment {
    /// A merged stretch of compute leaves.
    Run(Run),
    /// A synchronization action — always a segment boundary.
    Sync(Action),
    /// A profile switch — a boundary because it changes little-core
    /// execution time of everything after it.
    SetProfile(ExecutionProfile),
    /// Backward jump: replay segments `[body_start, self)` `count` times
    /// total. Compiled from loops whose bodies contain blocking actions.
    Repeat {
        /// First segment of the loop body.
        body_start: u32,
        /// Total iterations (≥ 2; single-pass loops emit only the body).
        count: u32,
    },
}

/// A resumable position in a compiled stream — the compiled analogue of
/// [`Cursor`]. Holds no reference to the program; pass the *same*
/// [`CompiledProgram`] to every call.
///
/// [`Cursor`]: crate::Cursor
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegPos {
    /// Current segment index.
    seg: u32,
    /// Next leaf of the current pass (valid while `in_run`).
    leaf: u32,
    /// Full passes left after the current one (valid while `in_run`).
    reps_left: u32,
    /// Whether we are mid-[`Run`] at segment `seg`.
    in_run: bool,
    /// Active `Repeat` frames: `(segment index, jumps remaining)`.
    stack: Vec<(u32, u32)>,
}

impl SegPos {
    /// A position before the first action.
    pub fn new() -> SegPos {
        SegPos {
            seg: 0,
            leaf: 0,
            reps_left: 0,
            in_run: false,
            stack: Vec::new(),
        }
    }
}

impl Default for SegPos {
    fn default() -> Self {
        SegPos::new()
    }
}

/// A [`Program`] lowered to a flat segment stream.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    segments: Vec<Segment>,
    total_compute: SimDuration,
    flat_len: u64,
}

impl CompiledProgram {
    /// Lowers `program`. `initial_profile` seeds the little-core execution
    /// caches; runs compiled after a `SetProfile` boundary use the updated
    /// profile (stale caches from `SetProfile`s *inside* repeated bodies
    /// are detected at arm time via `Run::speedup_bits`).
    pub fn compile(program: &Program, initial_profile: ExecutionProfile) -> CompiledProgram {
        let mut c = Compiler {
            segments: Vec::new(),
            pending: Vec::new(),
            profile: initial_profile,
        };
        c.emit_ops(program.ops());
        c.flush_pending();
        CompiledProgram {
            segments: c.segments,
            total_compute: program.total_compute(),
            flat_len: program.flat_len(),
        }
    }

    /// The segment stream.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Total big-core compute, loops expanded (copied from the source
    /// program's cached value).
    pub fn total_compute(&self) -> SimDuration {
        self.total_compute
    }

    /// Flat action count (copied from the source program's cached value).
    pub fn flat_len(&self) -> u64 {
        self.flat_len
    }

    /// Whether `pos` has consumed the whole stream.
    pub fn is_finished(&self, pos: &SegPos) -> bool {
        !pos.in_run && pos.seg as usize >= self.segments.len()
    }

    /// Yields the next flat action, or `None` at the end. Produces exactly
    /// the sequence [`Cursor::next`] yields for the source program.
    ///
    /// [`Cursor::next`]: crate::Cursor::next
    pub fn next(&self, pos: &mut SegPos) -> Option<Action> {
        loop {
            if pos.in_run {
                if let Some(d) = self.next_run_leaf(pos) {
                    return Some(Action::Compute(d));
                }
                pos.in_run = false;
                pos.seg += 1;
                continue;
            }
            match self.segments.get(pos.seg as usize)? {
                Segment::Run(run) => {
                    pos.in_run = true;
                    pos.leaf = 0;
                    pos.reps_left = run.reps - 1;
                }
                Segment::Sync(a) => {
                    pos.seg += 1;
                    return Some(*a);
                }
                Segment::SetProfile(p) => {
                    pos.seg += 1;
                    return Some(Action::SetProfile(*p));
                }
                Segment::Repeat { body_start, count } => {
                    let here = pos.seg;
                    if pos.stack.last().map(|f| f.0) != Some(here) {
                        // First arrival: `count - 1` jumps remain.
                        pos.stack.push((here, count - 1));
                    }
                    let top = pos.stack.last_mut().expect("frame pushed above");
                    if top.1 > 0 {
                        top.1 -= 1;
                        pos.seg = *body_start;
                    } else {
                        pos.stack.pop();
                        pos.seg += 1;
                    }
                }
            }
        }
    }

    /// Yields the next compute leaf of the *current* run, or `None` when
    /// the run is exhausted (never crosses into the next segment). This is
    /// how the engine retires leaves of a merged timer event.
    pub fn next_run_leaf(&self, pos: &mut SegPos) -> Option<SimDuration> {
        if !pos.in_run {
            return None;
        }
        let Segment::Run(run) = &self.segments[pos.seg as usize] else {
            unreachable!("in_run points at a non-Run segment");
        };
        if (pos.leaf as usize) < run.pattern.len() {
            let d = run.pattern[pos.leaf as usize];
            pos.leaf += 1;
            return Some(d);
        }
        if pos.reps_left > 0 {
            pos.reps_left -= 1;
            pos.leaf = 1;
            return Some(run.pattern[0]);
        }
        None
    }

    /// Execution time of every not-yet-fetched leaf in the current run on
    /// a core of `kind` at `speedup` — the caller's cached
    /// [`ExecutionProfile::true_speedup`] of the thread's current profile
    /// (zero when not mid-run). The engine adds this to the current
    /// leaf's remaining time to arm one `CoreDone` for the whole run.
    pub fn run_remaining_exec(&self, pos: &SegPos, kind: CoreKind, speedup: f64) -> SimDuration {
        if !pos.in_run {
            return SimDuration::ZERO;
        }
        let Segment::Run(run) = &self.segments[pos.seg as usize] else {
            unreachable!("in_run points at a non-Run segment");
        };
        run.remaining_exec(pos.leaf as usize, pos.reps_left, kind, speedup)
    }

    /// The merged-arm horizon for the current run: the latest leaf wall
    /// boundary strictly inside both the run and `limit`, measured from
    /// now, where `first` is the current leaf's remaining execution time
    /// and `limit` the time to the core's quantum end. `None` when not
    /// mid-run or when nothing beyond the current leaf can be merged —
    /// the engine then arms the current leaf individually, exactly like
    /// the per-leaf engine. See `Run::merge_horizon` for why the run
    /// end and the quantum expiry are always excluded.
    pub fn merge_horizon(
        &self,
        pos: &SegPos,
        kind: CoreKind,
        speedup: f64,
        first: SimDuration,
        limit: SimDuration,
    ) -> Option<SimDuration> {
        if !pos.in_run {
            return None;
        }
        let Segment::Run(run) = &self.segments[pos.seg as usize] else {
            unreachable!("in_run points at a non-Run segment");
        };
        run.merge_horizon(pos.leaf as usize, pos.reps_left, kind, speedup, first, limit)
    }
}

struct Compiler {
    segments: Vec<Segment>,
    /// Compute leaves accumulating toward the next single-rep run.
    pending: Vec<SimDuration>,
    /// Profile in effect at the current emission point (straight-line
    /// tracking; see [`Run::speedup_bits`] for the loop-body caveat).
    profile: ExecutionProfile,
}

impl Compiler {
    fn flush_pending(&mut self) {
        if !self.pending.is_empty() {
            let pattern = std::mem::take(&mut self.pending);
            self.segments.push(Segment::Run(Run::new(1, pattern, &self.profile)));
        }
    }

    fn emit_ops(&mut self, ops: &[Op]) {
        for op in ops {
            match op {
                Op::Compute(d) => self.pending.push(*d),
                Op::Lock(l) => self.emit_sync(Action::Lock(*l)),
                Op::Unlock(l) => self.emit_sync(Action::Unlock(*l)),
                Op::Barrier(b) => self.emit_sync(Action::Barrier(*b)),
                Op::Push(ch) => self.emit_sync(Action::Push(*ch)),
                Op::Pop(ch) => self.emit_sync(Action::Pop(*ch)),
                Op::SetProfile(p) => {
                    self.flush_pending();
                    self.profile = *p;
                    self.segments.push(Segment::SetProfile(*p));
                }
                Op::Loop { count, body } => self.emit_loop(*count, body),
            }
        }
    }

    fn emit_sync(&mut self, action: Action) {
        self.flush_pending();
        self.segments.push(Segment::Sync(action));
    }

    fn emit_loop(&mut self, count: u32, body: &[Op]) {
        if count == 0 || !produces_actions(body) {
            return; // Cursor yields nothing for these.
        }
        if let Some(leaves) = flatten_compute(body) {
            // Fully-compute body: fold the whole loop into one run.
            if count == 1 {
                self.pending.extend(leaves);
            } else {
                self.flush_pending();
                self.segments
                    .push(Segment::Run(Run::new(count, leaves, &self.profile)));
            }
            return;
        }
        // Body blocks (or is too large to flatten): compile it once and
        // replay via a backward jump.
        self.flush_pending();
        let body_start = self.segments.len() as u32;
        self.emit_ops(body);
        self.flush_pending();
        if count > 1 {
            self.segments.push(Segment::Repeat { body_start, count });
        }
    }
}

/// Whether the op list yields at least one action when walked.
fn produces_actions(ops: &[Op]) -> bool {
    ops.iter().any(|op| match op {
        Op::Loop { count, body } => *count > 0 && produces_actions(body),
        _ => true,
    })
}

/// If `ops` expands to nothing but compute leaves (only `Compute` and
/// all-compute `Loop`s, with at most [`MAX_PATTERN_LEAVES`] leaves per
/// flattened pass), returns the flattened leaf durations; otherwise `None`.
fn flatten_compute(ops: &[Op]) -> Option<Vec<SimDuration>> {
    let mut leaves = Vec::new();
    fn walk(ops: &[Op], out: &mut Vec<SimDuration>) -> bool {
        for op in ops {
            match op {
                Op::Compute(d) => {
                    if out.len() >= MAX_PATTERN_LEAVES {
                        return false;
                    }
                    out.push(*d);
                }
                Op::Loop { count, body } => {
                    for _ in 0..*count {
                        if !walk(body, out) {
                            return false;
                        }
                    }
                }
                _ => return false,
            }
        }
        true
    }
    if walk(ops, &mut leaves) {
        Some(leaves)
    } else {
        None
    }
}

/// One thread of a compiled application.
#[derive(Debug, Clone)]
pub struct CompiledThread {
    /// Human-readable role, from [`ThreadSpec::name`](crate::ThreadSpec).
    pub name: String,
    /// Initial execution profile.
    pub profile: ExecutionProfile,
    /// The compiled behaviour, shared across simulations.
    pub program: Arc<CompiledProgram>,
}

/// A validated, compiled application: the load-time form the simulator
/// executes. Compiling runs [`AppSpec::validate`] first, so a
/// `CompiledApp` is structurally sound by construction.
#[derive(Debug, Clone)]
pub struct CompiledApp {
    /// Application name.
    pub name: String,
    /// Compiled threads, index order = app-local thread index.
    pub threads: Vec<CompiledThread>,
    /// Number of app-local locks.
    pub num_locks: u32,
    /// Parties per app-local barrier.
    pub barrier_parties: Vec<u32>,
    /// Capacity per app-local channel.
    pub channel_capacities: Vec<u32>,
}

impl CompiledApp {
    /// Validates and compiles an application spec.
    ///
    /// # Errors
    ///
    /// Propagates [`AppSpec::validate`] failures.
    pub fn compile(spec: &AppSpec) -> Result<CompiledApp> {
        spec.validate()?;
        Ok(CompiledApp {
            name: spec.name.clone(),
            threads: spec
                .threads
                .iter()
                .map(|t| CompiledThread {
                    name: t.name.clone(),
                    profile: t.profile,
                    program: Arc::new(CompiledProgram::compile(&t.program, t.profile)),
                })
                .collect(),
            num_locks: spec.num_locks,
            barrier_parties: spec.barrier_parties.clone(),
            channel_capacities: spec.channel_capacities.clone(),
        })
    }
}

/// A fully compiled workload instantiation: what the harness interns and
/// shares (via `Arc`) across every sweep cell that replays the same
/// `(workload, seed, scale)` triple.
#[derive(Debug, Clone)]
pub struct CompiledWorkload {
    name: String,
    apps: Vec<Arc<CompiledApp>>,
}

impl CompiledWorkload {
    /// Instantiates `spec` at `(seed, scale)` and compiles every app.
    ///
    /// # Errors
    ///
    /// Propagates app validation failures.
    pub fn compile(spec: &WorkloadSpec, seed: u64, scale: Scale) -> Result<CompiledWorkload> {
        Ok(CompiledWorkload {
            name: spec.name().to_string(),
            apps: spec
                .instantiate(seed, scale)
                .iter()
                .map(|app| CompiledApp::compile(app).map(Arc::new))
                .collect::<Result<_>>()?,
        })
    }

    /// The workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The compiled applications.
    pub fn apps(&self) -> &[Arc<CompiledApp>] {
        &self.apps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Cursor;
    use amp_types::{BarrierId, LockId};

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    fn profile() -> ExecutionProfile {
        ExecutionProfile::new(0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5)
    }

    fn cursor_drain(p: &Program) -> Vec<Action> {
        let mut cursor = Cursor::new();
        let mut out = Vec::new();
        while let Some(a) = cursor.next(p) {
            out.push(a);
            assert!(out.len() < 1_000_000, "runaway cursor");
        }
        out
    }

    fn compiled_drain(c: &CompiledProgram) -> Vec<Action> {
        let mut pos = SegPos::new();
        let mut out = Vec::new();
        while let Some(a) = c.next(&mut pos) {
            out.push(a);
            assert!(out.len() < 1_000_000, "runaway stream");
        }
        assert!(c.is_finished(&pos));
        out
    }

    fn assert_equivalent(p: &Program) {
        let c = CompiledProgram::compile(p, profile());
        assert_eq!(compiled_drain(&c), cursor_drain(p), "program {p:?}");
    }

    #[test]
    fn empty_program_compiles_to_nothing() {
        let p = Program::new(vec![]);
        let c = CompiledProgram::compile(&p, profile());
        assert!(c.segments().is_empty());
        assert_equivalent(&p);
    }

    #[test]
    fn adjacent_computes_merge_into_one_run() {
        let p = Program::new(vec![
            Op::Compute(us(1)),
            Op::Compute(us(2)),
            Op::Compute(us(3)),
        ]);
        let c = CompiledProgram::compile(&p, profile());
        assert_eq!(c.segments().len(), 1);
        assert!(matches!(&c.segments()[0], Segment::Run(r) if r.pattern_len() == 3));
        assert_equivalent(&p);
    }

    #[test]
    fn all_compute_loop_folds_into_multirep_run() {
        let p = Program::new(vec![Op::Loop {
            count: 50,
            body: vec![Op::Compute(us(1)), Op::Compute(us(2))],
        }]);
        let c = CompiledProgram::compile(&p, profile());
        assert_eq!(c.segments().len(), 1);
        assert!(matches!(
            &c.segments()[0],
            Segment::Run(r) if r.reps() == 50 && r.pattern_len() == 2
        ));
        assert_equivalent(&p);
    }

    #[test]
    fn nested_all_compute_loops_flatten() {
        let p = Program::new(vec![Op::Loop {
            count: 3,
            body: vec![
                Op::Loop { count: 4, body: vec![Op::Compute(us(2))] },
                Op::Compute(us(7)),
            ],
        }]);
        let c = CompiledProgram::compile(&p, profile());
        assert_eq!(c.segments().len(), 1);
        assert!(matches!(
            &c.segments()[0],
            Segment::Run(r) if r.reps() == 3 && r.pattern_len() == 5
        ));
        assert_equivalent(&p);
    }

    #[test]
    fn blocking_loop_body_compiles_to_repeat() {
        let p = Program::new(vec![Op::Loop {
            count: 3,
            body: vec![Op::Compute(us(1)), Op::Barrier(BarrierId::new(0))],
        }]);
        let c = CompiledProgram::compile(&p, profile());
        assert!(c
            .segments()
            .iter()
            .any(|s| matches!(s, Segment::Repeat { count: 3, .. })));
        assert_equivalent(&p);
    }

    #[test]
    fn single_pass_blocking_loop_emits_no_repeat() {
        let p = Program::new(vec![Op::Loop {
            count: 1,
            body: vec![Op::Compute(us(1)), Op::Barrier(BarrierId::new(0))],
        }]);
        let c = CompiledProgram::compile(&p, profile());
        assert!(!c
            .segments()
            .iter()
            .any(|s| matches!(s, Segment::Repeat { .. })));
        assert_equivalent(&p);
    }

    #[test]
    fn zero_count_and_actionless_loops_disappear() {
        let p = Program::new(vec![
            Op::Loop { count: 0, body: vec![Op::Compute(us(1))] },
            Op::Loop { count: 9, body: vec![] },
            Op::Loop {
                count: 5,
                body: vec![Op::Loop { count: 0, body: vec![Op::Barrier(BarrierId::new(0))] }],
            },
            Op::Compute(us(7)),
        ]);
        let c = CompiledProgram::compile(&p, profile());
        assert_eq!(c.segments().len(), 1);
        assert_equivalent(&p);
    }

    #[test]
    fn nested_blocking_loops_replay_correctly() {
        let p = Program::new(vec![Op::Loop {
            count: 2,
            body: vec![
                Op::Compute(us(1)),
                Op::Loop {
                    count: 3,
                    body: vec![
                        Op::Lock(LockId::new(0)),
                        Op::Compute(us(2)),
                        Op::Unlock(LockId::new(0)),
                    ],
                },
                Op::Compute(us(4)),
            ],
        }]);
        assert_equivalent(&p);
    }

    #[test]
    fn computes_straddling_inner_structures_merge_where_legal() {
        // compute, all-compute single loop, compute → one merged run.
        let p = Program::new(vec![
            Op::Compute(us(1)),
            Op::Loop { count: 1, body: vec![Op::Compute(us(2))] },
            Op::Compute(us(3)),
        ]);
        let c = CompiledProgram::compile(&p, profile());
        assert_eq!(c.segments().len(), 1);
        assert!(matches!(&c.segments()[0], Segment::Run(r) if r.pattern_len() == 3));
        assert_equivalent(&p);
    }

    #[test]
    fn multiplicative_nest_folds_without_unrolling() {
        // 100×100 = 10_000 flat leaves, but one outer pass is only 100
        // leaves: folds into reps=100 over a 100-leaf pattern.
        let p = Program::new(vec![Op::Loop {
            count: 100,
            body: vec![Op::Loop { count: 100, body: vec![Op::Compute(us(1))] }],
        }]);
        let c = CompiledProgram::compile(&p, profile());
        assert_eq!(c.segments().len(), 1);
        assert!(matches!(
            &c.segments()[0],
            Segment::Run(r) if r.reps() == 100 && r.pattern_len() == 100
        ));
        assert_equivalent(&p);
    }

    #[test]
    fn oversized_all_compute_pass_falls_back_to_repeat() {
        // One pass of the outer body is 5000 leaves > MAX_PATTERN_LEAVES:
        // must not materialize it as a single huge pattern.
        let p = Program::new(vec![Op::Loop {
            count: 3,
            body: vec![Op::Loop { count: 5000, body: vec![Op::Compute(us(1))] }],
        }]);
        let c = CompiledProgram::compile(&p, profile());
        let max_pattern = c
            .segments()
            .iter()
            .filter_map(|s| match s {
                Segment::Run(r) => Some(r.pattern_len()),
                _ => None,
            })
            .max()
            .unwrap();
        assert!(max_pattern <= MAX_PATTERN_LEAVES);
        assert!(c
            .segments()
            .iter()
            .any(|s| matches!(s, Segment::Repeat { .. })));
        assert_equivalent(&p);
    }

    #[test]
    fn set_profile_is_a_segment_boundary() {
        let p2 = ExecutionProfile::new(0.9, 0.1, 0.9, 0.1, 0.9, 0.1, 0.9);
        let p = Program::new(vec![
            Op::Compute(us(1)),
            Op::SetProfile(p2),
            Op::Compute(us(2)),
        ]);
        let c = CompiledProgram::compile(&p, profile());
        assert_eq!(c.segments().len(), 3);
        assert_equivalent(&p);
    }

    #[test]
    fn run_remaining_exec_matches_per_leaf_sums() {
        let prof = profile();
        let p = Program::new(vec![Op::Loop {
            count: 3,
            body: vec![Op::Compute(us(5)), Op::Compute(us(3))],
        }]);
        let c = CompiledProgram::compile(&p, prof);
        let mut pos = SegPos::new();
        for kind in CoreKind::ALL {
            let mut pos2 = SegPos::new();
            // Fetch the first leaf, then compare the armed tail with a
            // manual per-leaf accumulation.
            let Some(Action::Compute(_)) = c.next(&mut pos2) else {
                panic!("expected compute")
            };
            let merged = c.run_remaining_exec(&pos2, kind, prof.true_speedup());
            let mut manual = SimDuration::ZERO;
            let mut probe = pos2.clone();
            while let Some(d) = c.next_run_leaf(&mut probe) {
                manual += prof.exec_duration(d, kind);
            }
            assert_eq!(merged, manual, "{kind:?}");
        }
        // Mid-run positions agree too.
        let _ = c.next(&mut pos);
        let _ = c.next(&mut pos);
        let _ = c.next(&mut pos);
        let merged = c.run_remaining_exec(&pos, CoreKind::Little, prof.true_speedup());
        let mut manual = SimDuration::ZERO;
        let mut probe = pos.clone();
        while let Some(d) = c.next_run_leaf(&mut probe) {
            manual += prof.exec_duration(d, CoreKind::Little);
        }
        assert_eq!(merged, manual);
    }

    #[test]
    fn stale_profile_cache_recomputes_exactly() {
        let prof = profile();
        let hot = ExecutionProfile::new(0.95, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9);
        let p = Program::new(vec![Op::Loop {
            count: 4,
            body: vec![Op::Compute(us(7)), Op::Compute(us(11))],
        }]);
        let c = CompiledProgram::compile(&p, prof);
        let mut pos = SegPos::new();
        let _ = c.next(&mut pos);
        // Query under a *different* profile than compile time: must match
        // per-leaf rounding under that profile, not the cached sums.
        let merged = c.run_remaining_exec(&pos, CoreKind::Little, hot.true_speedup());
        let mut manual = SimDuration::ZERO;
        let mut probe = pos.clone();
        while let Some(d) = c.next_run_leaf(&mut probe) {
            manual += hot.exec_duration(d, CoreKind::Little);
        }
        assert_eq!(merged, manual);
        assert_ne!(hot.true_speedup().to_bits(), prof.true_speedup().to_bits());
    }

    #[test]
    fn next_run_leaf_stops_at_run_end() {
        let p = Program::new(vec![
            Op::Compute(us(1)),
            Op::Barrier(BarrierId::new(0)),
            Op::Compute(us(2)),
        ]);
        let c = CompiledProgram::compile(&p, profile());
        let mut pos = SegPos::new();
        assert_eq!(c.next(&mut pos), Some(Action::Compute(us(1))));
        assert_eq!(c.next_run_leaf(&mut pos), None, "must not cross the barrier");
        assert_eq!(c.next(&mut pos), Some(Action::Barrier(BarrierId::new(0))));
    }

    #[test]
    fn benchmark_programs_compile_equivalently() {
        use crate::{BenchmarkId, Scale, WorkloadSpec};
        for id in BenchmarkId::ALL {
            let spec = WorkloadSpec::single(id, 4);
            for app in spec.instantiate(11, Scale::quick()) {
                for t in &app.threads {
                    assert_equivalent(&t.program);
                }
            }
        }
    }

    #[test]
    fn compiled_workload_shares_programs_via_arc() {
        use crate::{BenchmarkId, Scale, WorkloadSpec};
        let spec = WorkloadSpec::single(BenchmarkId::Ferret, 4);
        let w = CompiledWorkload::compile(&spec, 3, Scale::quick()).unwrap();
        assert_eq!(w.apps().len(), 1);
        assert!(!w.apps()[0].threads.is_empty());
        assert_eq!(w.name(), spec.name());
    }
}
