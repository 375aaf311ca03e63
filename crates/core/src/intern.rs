//! Cross-cell interning of compiled workloads.
//!
//! Every experiment cell instantiates and compiles the same workload at
//! the same `(seed, scale)` — once per core-enumeration order per
//! replication, and again for the isolated baseline and for every other
//! machine configuration and scheduler of the grid. The compiled
//! segment stream ([`CompiledWorkload`]) is immutable and position-free
//! (per-thread progress lives in the engine's `SegPos`), so one copy
//! can back every one of those simulations. [`ProgramStore`] memoizes
//! compilation behind an `Arc`, keyed by the same FNV-1a construction
//! as [`SweepCell::stable_hash`](crate::SweepCell::stable_hash) so keys
//! are stable across processes and platforms.
//!
//! Concurrency contract: each key owns one slot behind its own mutex.
//! The store-wide lock is held only to find or create that slot;
//! compilation (which walks whole op trees) runs under the slot's lock,
//! so callers racing on one key wait for a single compilation and
//! callers on other keys proceed in parallel. `misses` therefore equals
//! the number of distinct keys compiled, whatever the thread count. A
//! failed compilation leaves the slot empty, so the error reaches its
//! caller and the next lookup retries. Interning is a pure cache — hit
//! or miss, callers receive a compilation of exactly
//! `spec.instantiate(seed, scale)`, which is deterministic — so it
//! cannot perturb simulation results, only skip redundant work.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use amp_types::Result;
use amp_workloads::{CompiledWorkload, Scale, WorkloadSpec};

/// A thread-safe memo table `(workload name, seed, scale) → compiled
/// workload`. One store lives in the [`Harness`](crate::Harness) and is
/// shared by the serial memoized path and every `run_plan` worker.
#[derive(Debug, Default)]
pub struct ProgramStore {
    map: Mutex<HashMap<u64, Slot>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// One key's entry: empty until its first successful compilation.
type Slot = Arc<Mutex<Option<Arc<CompiledWorkload>>>>;

/// Point-in-time interning statistics, for the `--bench-json` report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InternStats {
    /// Lookups served from the store.
    pub hits: u64,
    /// Lookups that had to compile (== unique workloads compiled).
    pub misses: u64,
}

impl ProgramStore {
    /// An empty store.
    pub fn new() -> ProgramStore {
        ProgramStore::default()
    }

    /// The stable key: FNV-1a over `name \0 seed \0 scale-bits`, the
    /// same construction (and constants) as `SweepCell::stable_hash`.
    fn key(spec: &WorkloadSpec, seed: u64, scale: Scale) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h = OFFSET;
        for chunk in [
            spec.name().as_bytes(),
            b"\0",
            &seed.to_le_bytes(),
            b"\0",
            &scale.factor().to_bits().to_le_bytes(),
        ] {
            for &byte in chunk {
                h = (h ^ u64::from(byte)).wrapping_mul(PRIME);
            }
        }
        h
    }

    /// Returns the compiled form of `spec.instantiate(seed, scale)`,
    /// compiling at most once per distinct `(name, seed, scale)`.
    ///
    /// # Errors
    ///
    /// Propagates app validation failures from compilation.
    pub fn get_or_compile(
        &self,
        spec: &WorkloadSpec,
        seed: u64,
        scale: Scale,
    ) -> Result<Arc<CompiledWorkload>> {
        self.intern(ProgramStore::key(spec, seed, scale), || {
            CompiledWorkload::compile(spec, seed, scale)
        })
    }

    /// Returns `key`'s compiled workload, running `compile` only if no
    /// earlier call for `key` succeeded. Callers racing on one key wait
    /// on its slot; an error is returned to its caller and not stored.
    fn intern(
        &self,
        key: u64,
        compile: impl FnOnce() -> Result<CompiledWorkload>,
    ) -> Result<Arc<CompiledWorkload>> {
        let slot = Arc::clone(
            self.map
                .lock()
                .expect("program store poisoned")
                .entry(key)
                .or_default(),
        );
        let mut entry = slot.lock().expect("program store slot poisoned");
        if let Some(found) = entry.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(found));
        }
        let compiled = Arc::new(compile()?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        *entry = Some(Arc::clone(&compiled));
        Ok(compiled)
    }

    /// Current hit/miss counts.
    pub fn stats(&self) -> InternStats {
        InternStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_types::Error;
    use amp_workloads::BenchmarkId;

    #[test]
    fn second_lookup_is_a_hit_sharing_the_allocation() {
        let store = ProgramStore::new();
        let spec = WorkloadSpec::single(BenchmarkId::Blackscholes, 4);
        let a = store.get_or_compile(&spec, 7, Scale::quick()).unwrap();
        let b = store.get_or_compile(&spec, 7, Scale::quick()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.stats(), InternStats { hits: 1, misses: 1 });
    }

    #[test]
    fn seed_and_scale_key_distinct_entries() {
        let store = ProgramStore::new();
        let spec = WorkloadSpec::single(BenchmarkId::Swaptions, 4);
        let a = store.get_or_compile(&spec, 1, Scale::quick()).unwrap();
        let b = store.get_or_compile(&spec, 2, Scale::quick()).unwrap();
        let c = store.get_or_compile(&spec, 1, Scale::new(0.2)).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(store.stats().misses, 3);
    }

    #[test]
    fn compile_errors_propagate_and_are_not_cached() {
        let store = ProgramStore::new();
        let spec = WorkloadSpec::single(BenchmarkId::Dedup, 4);
        let key = ProgramStore::key(&spec, 5, Scale::quick());
        let failed = store.intern(key, || Err(Error::InvalidConfig("broken".into())));
        assert!(matches!(failed, Err(Error::InvalidConfig(_))));
        assert_eq!(store.stats(), InternStats { hits: 0, misses: 0 });
        let compiled = store.get_or_compile(&spec, 5, Scale::quick()).unwrap();
        let again = store.get_or_compile(&spec, 5, Scale::quick()).unwrap();
        assert!(Arc::ptr_eq(&compiled, &again));
        assert_eq!(store.stats(), InternStats { hits: 1, misses: 1 });
    }

    #[test]
    fn concurrent_lookups_converge_on_one_copy() {
        let store = ProgramStore::new();
        let spec = WorkloadSpec::single(BenchmarkId::Ferret, 5);
        // All eight threads look the key up at once.
        let start = std::sync::Barrier::new(8);
        let copies: Vec<Arc<CompiledWorkload>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        store.get_or_compile(&spec, 3, Scale::quick()).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let map = store.map.lock().unwrap();
        assert_eq!(map.len(), 1);
        let slot = map.values().next().unwrap().lock().unwrap();
        let canonical = slot.as_ref().unwrap();
        for copy in &copies {
            assert!(Arc::ptr_eq(copy, canonical));
        }
        assert_eq!(store.stats(), InternStats { hits: 7, misses: 1 });
    }
}
