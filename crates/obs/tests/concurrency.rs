//! Concurrency property tests for `AtomicHistogram`: N threads hammer
//! one histogram; the total count, sum, and max must be conserved and
//! no bucket may tear.

use ddc_obs::{AtomicHistogram, LOG2_EDGES};
use proptest::prelude::*;
use std::sync::Arc;

fn hammer(threads: usize, per_thread: Vec<Vec<u64>>) -> (u64, u64, u64) {
    let hist = Arc::new(AtomicHistogram::new(&LOG2_EDGES));
    let mut handles = Vec::with_capacity(threads);
    for values in per_thread {
        let h = Arc::clone(&hist);
        handles.push(std::thread::spawn(move || {
            for v in values {
                h.record(v);
            }
        }));
    }
    for jh in handles {
        jh.join().unwrap();
    }
    let snap = hist.snapshot();
    (snap.count(), snap.sum, snap.max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn concurrent_records_conserve_count_sum_max(
        per_thread in proptest::collection::vec(
            proptest::collection::vec(0u64..1_000_000_000, 1..400),
            2..8,
        )
    ) {
        let threads = per_thread.len();
        let expect_count: u64 = per_thread.iter().map(|v| v.len() as u64).sum();
        let expect_sum: u64 = per_thread.iter().flatten().sum();
        let expect_max: u64 = per_thread.iter().flatten().copied().max().unwrap_or(0);
        let (count, sum, max) = hammer(threads, per_thread);
        prop_assert_eq!(count, expect_count);
        prop_assert_eq!(sum, expect_sum);
        prop_assert_eq!(max, expect_max);
    }
}

#[test]
fn heavy_hammer_no_torn_buckets() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 50_000;
    let hist = Arc::new(AtomicHistogram::new(&LOG2_EDGES));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let h = Arc::clone(&hist);
            std::thread::spawn(move || {
                // Deterministic per-thread value stream spanning many buckets.
                let mut x = (t as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(1);
                let mut sum = 0u64;
                for _ in 0..PER_THREAD {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let v = x % 1_000_000_000;
                    h.record(v);
                    sum = sum.wrapping_add(v);
                }
                sum
            })
        })
        .collect();
    let expect_sum: u64 = handles
        .into_iter()
        .map(|jh| jh.join().unwrap())
        .fold(0, u64::wrapping_add);
    let snap = hist.snapshot();
    assert_eq!(snap.count(), (THREADS * PER_THREAD) as u64);
    assert_eq!(snap.sum, expect_sum);
}
