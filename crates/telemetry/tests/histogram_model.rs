//! The windowed `LatencyHistogram` against a dense reference model: a
//! plain 976-slot array with the same log-bucketing, recorded, merged and
//! queried the obvious way. Samples are split into parts that are
//! absorbed in a random order, with empty parts on either side of an
//! absorb, and every observable must match the model's.

use amp_telemetry::LatencyHistogram;
use amp_types::SimDuration;
use proptest::prelude::*;

/// Buckets of the reference model: 16 exact unit buckets, then 16 linear
/// sub-buckets for each octave 2^4 ..= 2^63.
const BUCKETS: usize = 16 + 60 * 16;
const PARTS: usize = 5;

fn bucket_of(v: u64) -> usize {
    if v < 16 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros() as usize;
    let sub = (v >> (octave - 4)) as usize - 16;
    16 + (octave - 4) * 16 + sub
}

fn bucket_upper(index: usize) -> u64 {
    if index < 16 {
        return index as u64;
    }
    let octave = 4 + (index - 16) / 16;
    let sub = ((index - 16) % 16) as u128;
    (((17 + sub) << (octave - 4)) - 1).min(u128::from(u64::MAX)) as u64
}

/// The dense reference model.
#[derive(Clone)]
struct Dense {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Dense {
    fn new() -> Dense {
        Dense {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0;
        for (index, &n) in self.counts.iter().enumerate() {
            cumulative += n;
            if cumulative >= target {
                return bucket_upper(index).min(self.max);
            }
        }
        self.max
    }

    fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

fn sample() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        1u64..16,
        16u64..100_000,
        100_000u64..10_000_000_000,
        (1u64 << 40)..=u64::MAX,
        Just(u64::MAX),
    ]
}

const QS: [f64; 11] = [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0];

fn assert_matches(h: &LatencyHistogram, model: &Dense) -> Result<(), proptest::TestCaseError> {
    for q in QS {
        prop_assert_eq!(h.quantile(q).as_nanos(), model.quantile(q), "q = {}", q);
    }
    prop_assert_eq!(h.count(), model.count);
    prop_assert_eq!(h.min().as_nanos(), model.min());
    prop_assert_eq!(h.max().as_nanos(), model.max);
    prop_assert_eq!(h.mean().as_nanos(), model.mean());
    prop_assert_eq!(h.bucket_counts(), model.counts.clone());
    // The stored window is exactly the occupied one.
    let (lo, window) = h.window();
    match model.counts.iter().position(|&n| n > 0) {
        None => prop_assert!(
            window.is_empty() && lo == 0,
            "empty histogram stores {lo}+{}",
            window.len()
        ),
        Some(first) => {
            let last = model.counts.iter().rposition(|&n| n > 0).unwrap();
            prop_assert_eq!((lo, window), (first, &model.counts[first..=last]));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn windowed_histogram_matches_dense_reference(
        samples in proptest::collection::vec((sample(), 0..PARTS), 0..200),
        order in proptest::collection::vec(any::<u64>(), PARTS),
    ) {
        let mut model = Dense::new();
        let mut direct = LatencyHistogram::new();
        let mut parts: Vec<LatencyHistogram> = (0..PARTS).map(|_| LatencyHistogram::new()).collect();
        for &(v, part) in &samples {
            model.record(v);
            direct.record(SimDuration::from_nanos(v));
            parts[part].record(SimDuration::from_nanos(v));
        }
        assert_matches(&direct, &model)?;

        // Absorb the parts (some of them empty) in a random order.
        let mut by_key: Vec<usize> = (0..PARTS).collect();
        by_key.sort_by_key(|&i| order[i]);
        let mut merged = LatencyHistogram::new();
        for &i in &by_key {
            merged.absorb(&parts[i]);
        }
        assert_matches(&merged, &model)?;
        prop_assert!(merged == direct, "equal content built in different orders compares unequal");

        // Empty into non-empty and non-empty into empty are identities.
        let mut with_empty = direct.clone();
        with_empty.absorb(&LatencyHistogram::new());
        prop_assert!(with_empty == direct);
        let mut into_empty = LatencyHistogram::new();
        into_empty.absorb(&direct);
        prop_assert!(into_empty == direct);
        assert_matches(&into_empty, &model)?;
    }
}

#[test]
fn new_histogram_holds_no_heap_storage() {
    let h = LatencyHistogram::new();
    assert_eq!(h.heap_bytes(), 0);
    assert_eq!(h.window(), (0, &[][..]));
    let mut empty = LatencyHistogram::new();
    empty.absorb(&h);
    assert_eq!(empty.heap_bytes(), 0);
    assert_eq!(LatencyHistogram::default().heap_bytes(), 0);
}
