//! The observability layer's arithmetic, pinned.
//!
//! Two families of guarantees live here:
//!
//! - the loadgen percentile math (`ClassStats::percentile_us`) against
//!   hand-computed nearest-rank values on known distributions, so a
//!   refactor cannot silently shift what "p99" means in
//!   `BENCH_SERVE.json`;
//! - property tests over the live-metrics histograms: bucket counts
//!   always sum to the observation count, merging commutes, and merged
//!   renders are byte-deterministic regardless of observation order,
//!   partitioning, or merge order. These are the properties the bench
//!   trajectory and the CI metrics grep rely on.
//!
//! The property tests use a seeded LCG rather than a proptest
//! dependency, matching the workspace's offline-registry constraint.

use epre_serve::ClassStats;
use epre_telemetry::{quantile_le, Histogram, MetricsRegistry, LATENCY_BUCKETS_US};

fn stats(mut latencies_us: Vec<u64>) -> ClassStats {
    latencies_us.sort_unstable();
    ClassStats { ops: latencies_us.len() as u64, latencies_us, ..Default::default() }
}

#[test]
fn loadgen_percentiles_pin_a_known_distribution() {
    // 1..=100: nearest-rank on 100 samples. idx = round(99 * p / 100).
    let uniform = stats((1..=100).collect());
    assert_eq!(uniform.percentile_us(0.0), 1);
    assert_eq!(uniform.percentile_us(50.0), 51); // round(49.5) = 50 -> value 51
    assert_eq!(uniform.percentile_us(95.0), 95); // round(94.05) = 94 -> value 95
    assert_eq!(uniform.percentile_us(99.0), 99); // round(98.01) = 98 -> value 99
    assert_eq!(uniform.percentile_us(100.0), 100);

    // A long-tailed distribution: the tail only shows up at p99.
    let skewed = stats(vec![10, 10, 10, 1_000]);
    assert_eq!(skewed.percentile_us(50.0), 10);
    assert_eq!(skewed.percentile_us(99.0), 1_000);

    // Degenerate sizes: one sample answers every percentile; zero
    // samples answer 0, not a panic.
    let single = stats(vec![42]);
    assert_eq!(single.percentile_us(50.0), 42);
    assert_eq!(single.percentile_us(99.0), 42);
    assert_eq!(ClassStats::default().percentile_us(99.0), 0);
}

/// Deterministic pseudo-random stream; same constants as the other
/// seeded generators in the workspace (LCG from Numerical Recipes).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0
    }

    /// A latency-shaped value: uniform mantissa scaled by a random
    /// power of two, so every bucket of the ladder sees traffic.
    fn latency_us(&mut self) -> u64 {
        let shift = self.next() % 28; // up to ~268s: exercises overflow
        (self.next() % 1_000) << shift
    }
}

#[test]
fn histogram_bucket_counts_sum_to_observation_count() {
    let mut rng = Lcg(0xE9_7E);
    for case in 0..50 {
        let h = Histogram::default();
        let n = (rng.next() % 200) as usize;
        let mut expected_sum = 0u64;
        for _ in 0..n {
            let v = rng.latency_us();
            expected_sum += v;
            h.observe(v);
        }
        let counts = h.bucket_counts();
        assert_eq!(counts.len(), LATENCY_BUCKETS_US.len() + 1, "ladder plus overflow");
        assert_eq!(
            counts.iter().sum::<u64>(),
            n as u64,
            "case {case}: bucket counts must sum to the observation count"
        );
        assert_eq!(h.count(), n as u64);
        assert_eq!(h.sum(), expected_sum);
    }
}

#[test]
fn every_observation_lands_in_the_bucket_its_bound_names() {
    // Boundary semantics: bucket i counts v <= bound[i] (and > bound[i-1]);
    // values past the last bound land in the overflow cell.
    for (i, &bound) in LATENCY_BUCKETS_US.iter().enumerate() {
        let h = Histogram::default();
        h.observe(bound); // exactly on the bound: le includes it
        assert_eq!(h.bucket_counts()[i], 1, "bound {bound} must count in its own bucket");
    }
    let h = Histogram::default();
    h.observe(LATENCY_BUCKETS_US[LATENCY_BUCKETS_US.len() - 1] + 1);
    assert_eq!(*h.bucket_counts().last().unwrap(), 1, "past the ladder lands in overflow");
}

#[test]
fn merged_histogram_renders_are_byte_deterministic() {
    let mut rng = Lcg(0xBEEF);
    for case in 0..20 {
        let values: Vec<u64> = (0..(rng.next() % 150)).map(|_| rng.latency_us()).collect();

        // One histogram observing in order.
        let direct = Histogram::default();
        for &v in &values {
            direct.observe(v);
        }

        // Three shards observing a partition of the same multiset, in
        // reversed order, merged in a scrambled order.
        let shards = [Histogram::default(), Histogram::default(), Histogram::default()];
        for (i, &v) in values.iter().rev().enumerate() {
            shards[i % 3].observe(v);
        }
        let merged = Histogram::default();
        for idx in [2, 0, 1] {
            merged.merge_from(&shards[idx]);
        }

        assert_eq!(merged.bucket_counts(), direct.bucket_counts(), "case {case}");
        assert_eq!(merged.count(), direct.count());
        assert_eq!(merged.sum(), direct.sum());

        // The render is a pure function of the observed multiset: two
        // registries reached by different paths emit identical bytes.
        let render = |h: &Histogram| {
            let reg = MetricsRegistry::new();
            let handle = reg.histogram("epre_test_latency_us", "test histogram");
            handle.merge_from(h);
            let snap = reg.snapshot();
            (snap.to_text(), snap.to_json().encode())
        };
        assert_eq!(render(&direct), render(&merged), "case {case}: renders must be byte-equal");
    }
}

#[test]
fn quantile_le_matches_a_brute_force_reference() {
    let mut rng = Lcg(0x51DE);
    for case in 0..30 {
        let values: Vec<u64> = (0..(rng.next() % 120 + 1)).map(|_| rng.latency_us()).collect();
        let h = Histogram::default();
        for &v in &values {
            h.observe(v);
        }
        let counts = h.bucket_counts();
        for (num, den) in [(50u64, 100u64), (95, 100), (99, 100), (1, 1)] {
            // Reference: nearest-rank over per-value bucket *bounds* —
            // the smallest ladder bound at or above each observation,
            // with overflow sorting above every finite bound.
            let mut bounded: Vec<u64> = values
                .iter()
                .map(|&v| {
                    LATENCY_BUCKETS_US.iter().copied().find(|&b| b >= v).unwrap_or(u64::MAX)
                })
                .collect();
            bounded.sort_unstable();
            let rank = (values.len() as u64 * num).div_ceil(den).max(1) as usize;
            let expected = Some(bounded[rank - 1]).filter(|&b| b != u64::MAX);
            assert_eq!(
                quantile_le(&LATENCY_BUCKETS_US, &counts, num, den),
                expected,
                "case {case}: q={num}/{den} over {} values",
                values.len()
            );
        }
    }
    // Empty histograms have no quantiles, not a zero.
    assert_eq!(quantile_le(&LATENCY_BUCKETS_US, &[0; 27], 99, 100), None);
}
