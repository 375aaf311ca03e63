//! The reference run: a fixed miniature scheduler simulation written in
//! the benchmark itself, timed beside the workload's passes.
//!
//! The host this benchmark runs on is shared, and its speed drifts by
//! up to half over seconds to minutes: the median `studies` pass took
//! 0.70 s in one run and 0.45 s a few minutes later, CPU time included.
//! The reference does the same kind of work as the simulator — a
//! binary-heap event queue, a hash-mapped task table, per-core run
//! queues, float arithmetic — on the workload's number of threads, so a
//! slow host slows both alike and their ratio stays put. It depends on
//! no crate of the program, so no change to the program moves it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Simulated cores, tasks and events of one reference thread.
const CORES: usize = 6;
const TASKS: u64 = 20_000;
const EVENTS: usize = 1_200_000;

/// Seed of the first thread's simulation; thread `t` uses `SEED + t`.
const SEED: u64 = 7;

struct Task {
    remaining: f64,
    speed: f64,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One reference simulation; returns a checksum of what it computed.
fn simulate(seed: u64) -> u64 {
    let mut rng = seed | 1;
    let mut tasks: HashMap<u64, Task> = HashMap::with_capacity(TASKS as usize);
    let mut queues: Vec<VecDeque<u64>> = vec![VecDeque::new(); CORES];
    for id in 0..TASKS {
        let r = xorshift(&mut rng);
        let task = Task {
            remaining: 1.0 + (r % 1000) as f64,
            speed: 1.0 + (r % 7) as f64 * 0.25,
        };
        tasks.insert(id, task);
        queues[id as usize % CORES].push_back(id);
    }
    // Events are (time, sequence, core); the sequence breaks ties FIFO.
    let mut events: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
    let mut seq = 0u64;
    for core in 0..CORES {
        events.push(Reverse((0, seq, core)));
        seq += 1;
    }
    let mut log: Vec<(u64, u64)> = Vec::new();
    let mut sum = 0u64;
    for _ in 0..EVENTS {
        let Some(Reverse((now, _, core))) = events.pop() else {
            break;
        };
        let Some(id) = queues[core].pop_front() else {
            events.push(Reverse((now + 1000, seq, core)));
            seq += 1;
            continue;
        };
        let r = xorshift(&mut rng);
        let task = tasks
            .get_mut(&id)
            .expect("every queued task is in the table");
        let slice = ((r % 3000) as f64 + 500.0) * task.speed;
        let ran = slice.min(task.remaining * 100.0);
        task.remaining -= ran / 100.0;
        let weight = task.remaining.max(1.0).ln() * task.speed.sqrt();
        sum = sum.wrapping_add(weight.to_bits() >> 20);
        if task.remaining <= 0.0 {
            task.remaining = 1.0 + (r % 1000) as f64;
        }
        log.push((now, id));
        if log.len() == 4096 {
            sum = log.iter().fold(sum, |s, &(t, id)| s.wrapping_add(t ^ id));
            log.clear();
        }
        // One task in five migrates to another core's queue.
        let target = if r.is_multiple_of(5) {
            (r / 5) as usize % CORES
        } else {
            core
        };
        queues[target].push_back(id);
        events.push(Reverse((now + ran as u64, seq, core)));
        seq += 1;
    }
    sum ^ seq
}

/// One timed reference run.
pub struct Reference {
    /// Seconds one thread's simulation took, averaged over the threads.
    pub seconds: f64,
    /// Sum of the threads' checksums; identical on every run.
    pub checksum: u64,
}

/// Runs the reference simulation once on each of `threads` threads at
/// the same time, as the workload's passes use them. A single thread is
/// the calling one, which a serial pass runs on: the two cores of a
/// shared host need not run at the same speed. A parallel pass shares
/// its work out between its threads, so it runs at their mean speed;
/// hence the mean time, not that of the slowest thread.
pub fn run(threads: usize) -> Reference {
    let timed = |seed: u64| {
        let start = Instant::now();
        let checksum = black_box(simulate(seed));
        (checksum, start.elapsed().as_secs_f64())
    };
    let runs: Vec<(u64, f64)> = if threads <= 1 {
        vec![timed(SEED)]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| s.spawn(move || timed(SEED + t as u64)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("the reference simulation does not panic"))
                .collect()
        })
    };
    Reference {
        seconds: runs.iter().map(|r| r.1).sum::<f64>() / runs.len() as f64,
        checksum: runs.iter().fold(0u64, |acc, r| acc.wrapping_add(r.0)),
    }
}
