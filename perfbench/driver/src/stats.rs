//! Summary statistics for timing samples.
//!
//! A timing is reported as a median and a tail percentile, and a
//! percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it: a p99 over 150 samples is one sample's opinion.
//!
//! On a shared virtual machine two things disturb a run, and each
//! figure removes both:
//!
//! * the hypervisor steals CPU time — a few percent in a quiet minute,
//!   over a third in a bad one — and a thread that wanted the CPU waits.
//!   Single-threaded work is timed as the thread's CPU time
//!   ([`thread_cpu_ms`]), which leaves stolen time out, and a sequential
//!   setup spread over threads as the process's ([`process_cpu_ms`]). Multi-threaded
//!   work is wall time: a sampler reads the host's busy and stolen CPU
//!   time while the run measures, and each latency is scaled by the share
//!   of wanted CPU time that was *not* stolen around it ([`StealLog`]);
//! * another tenant can stall a few seconds of a run. So a run's samples
//!   are cut into up to [`WINDOWS`] consecutive windows and the reported
//!   figure is the median of the windows' figures: one disturbed window
//!   cannot move it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A timed sample: when it completed, s since the measurement started,
/// and how long it took, ms.
pub type Sample = (f64, f64);

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Most windows a run's samples are cut into.
pub const WINDOWS: usize = 5;

/// Nearest-rank percentile of `sorted` (ascending), or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Host CPU time readings taken while a measurement ran: (s since the
/// measurement started, busy ticks, stolen ticks), cumulative.
#[derive(Debug, Default)]
pub struct StealLog {
    readings: Vec<(f64, u64, u64)>,
}

/// How often the sampler reads the host's CPU counters.
const STEAL_SAMPLE: Duration = Duration::from_millis(100);

/// The host's cumulative (busy, stolen) CPU ticks from `/proc/stat`;
/// zeros where it does not exist.
fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    if f.len() < 8 {
        return (0, 0);
    }
    // user nice system idle iowait irq softirq steal
    (f[0] + f[1] + f[2] + f[5] + f[6], f[7])
}

impl StealLog {
    /// Run `body` while a sampler thread reads the host's CPU counters
    /// every [`STEAL_SAMPLE`], times taken from `start`.
    pub fn record<R>(start: Instant, body: impl FnOnce() -> R) -> (R, StealLog) {
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let sampler = s.spawn(|| {
                let mut readings = Vec::new();
                loop {
                    let (busy, stolen) = host_ticks();
                    readings.push((start.elapsed().as_secs_f64(), busy, stolen));
                    if stop.load(Ordering::SeqCst) {
                        return readings;
                    }
                    std::thread::sleep(STEAL_SAMPLE);
                }
            });
            let out = body();
            stop.store(true, Ordering::SeqCst);
            (out, StealLog { readings: sampler.join().expect("steal sampler panicked") })
        })
    }

    /// Share of the CPU time the host's threads wanted between `from`
    /// and `to` (s) that the hypervisor stole; 0 without readings.
    pub fn share(&self, from: f64, to: f64) -> f64 {
        let at = |t: f64| {
            let i = self.readings.partition_point(|r| r.0 <= t);
            self.readings.get(i.saturating_sub(1)).map_or((0, 0), |r| (r.1, r.2))
        };
        let ((b0, s0), (b1, s1)) = (at(from), at(to));
        let (busy, stolen) = (b1.saturating_sub(b0), s1.saturating_sub(s0));
        if busy + stolen == 0 {
            0.0
        } else {
            stolen as f64 / (busy + stolen) as f64
        }
    }

    /// The factor a latency measured between `from` and `to` is scaled
    /// by: the share of wanted CPU time that was not stolen.
    fn keep(&self, from: f64, to: f64) -> f64 {
        (1.0 - self.share(from, to)).max(0.05)
    }
}

/// The median, over consecutive windows of `samples` (in completion
/// order), of each window's `p`-th percentile after removing steal:
/// every latency in a window is scaled by [`StealLog::share`] over the
/// window's span. Uses as many windows, up to [`WINDOWS`], as leave
/// every window enough samples for [`percentile`]; `None` when even one
/// window would have too few.
pub fn windowed_percentile(samples: &[Sample], p: f64, steal: &StealLog) -> Option<f64> {
    let windows = (samples.len() / samples_needed(p)).min(WINDOWS);
    let per_window: Option<Vec<f64>> = split(samples.len(), windows)
        .map(|range| {
            let w = &samples[range];
            let keep = steal.keep(w[0].0 - w[0].1 / 1e3, w[w.len() - 1].0);
            let mut v: Vec<f64> = w.iter().map(|&(_, ms)| ms * keep).collect();
            v.sort_by(f64::total_cmp);
            percentile(&v, p)
        })
        .collect();
    per_window.filter(|v| !v.is_empty()).map(|v| median(&v))
}

/// CPU time the calling thread has run, ms. The kernel's paravirtual
/// steal accounting leaves out the time the hypervisor stole.
pub fn thread_cpu_ms() -> f64 {
    cpu_clock_ms(3) // CLOCK_THREAD_CPUTIME_ID
}

/// CPU time all threads of this process have run, ms, stolen time left
/// out as in [`thread_cpu_ms`].
pub fn process_cpu_ms() -> f64 {
    cpu_clock_ms(2) // CLOCK_PROCESS_CPUTIME_ID
}

fn cpu_clock_ms(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this builds for, see the
    // `compile_error!` below), and `clock_gettime` writes only through
    // that pointer.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads thread CPU time and steal through 64-bit Linux interfaces");

/// Completions per second: the median over [`WINDOWS`] equal slices of
/// `[0, span_s]` of each slice's count over its length, with the slice's
/// stolen CPU time given back. `ends_s` are completion times in seconds
/// from the start.
pub fn windowed_rate(ends_s: &[f64], span_s: f64, steal: &StealLog) -> f64 {
    let len = span_s / WINDOWS as f64;
    let mut counts = [0usize; WINDOWS];
    for &t in ends_s {
        counts[((t / len) as usize).min(WINDOWS - 1)] += 1;
    }
    let rates: Vec<f64> = (0..WINDOWS)
        .map(|k| counts[k] as f64 / len / steal.keep(k as f64 * len, (k + 1) as f64 * len))
        .collect();
    median(&rates)
}

/// One line describing a class of samples: its count and the pooled
/// percentiles the count supports, ms.
pub fn describe(class: &str, samples: &[Sample]) -> String {
    let mut sorted: Vec<f64> = samples.iter().map(|&(_, ms)| ms).collect();
    sorted.sort_by(f64::total_cmp);
    let mut line = format!("{class}: {} samples", sorted.len());
    for p in [50.0, 75.0, 90.0, 99.0] {
        if let Some(v) = percentile(&sorted, p) {
            line.push_str(&format!(", p{p} {v:.3}"));
        }
    }
    line + " ms, as measured"
}

/// `n` indices cut into `windows` consecutive ranges; the last takes
/// the remainder.
fn split(n: usize, windows: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    let size = n.checked_div(windows).unwrap_or(0);
    (0..windows).map(move |i| i * size..if i + 1 == windows { n } else { (i + 1) * size })
}

/// Smallest sample count at which [`percentile`] reports `p`.
pub fn samples_needed(p: f64) -> usize {
    (1..).find(|&n| percentile(&vec![0.0; n], p).is_some()).expect("some n satisfies the rule")
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean (0 for no values).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(percentile(&ramp(99), 90.0), None, "rank 90 of 99 leaves 9 beyond");
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(percentile(&ramp(999), 99.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn samples_needed_matches_the_rule() {
        assert_eq!(samples_needed(50.0), 20);
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(samples_needed(99.0), 1000);
    }

    /// Samples one per 10 ms of the given latencies.
    fn timed(ms: &[f64]) -> Vec<Sample> {
        ms.iter().enumerate().map(|(i, &v)| ((i + 1) as f64 * 0.01, v)).collect()
    }

    /// A log over `[0, 100]` s with 10% steal, except 50% in `[a, b)`.
    fn steal_log(a: f64, b: f64) -> StealLog {
        let (mut busy, mut stolen) = (0, 0);
        let readings = (0..=1000)
            .map(|i| {
                let t = i as f64 * 0.1;
                let r = (t, busy, stolen);
                let heavy = (a..b).contains(&t);
                busy += if heavy { 5 } else { 9 };
                stolen += if heavy { 5 } else { 1 };
                r
            })
            .collect();
        StealLog { readings }
    }

    #[test]
    fn windows_outvote_one_disturbed_stretch() {
        let none = StealLog::default();
        let mut v: Vec<f64> = (0..500).map(|i| 10.0 + (i % 7) as f64).collect();
        let steady = windowed_percentile(&timed(&v), 90.0, &none).unwrap();
        for x in &mut v[100..200] {
            *x *= 10.0;
        }
        assert_eq!(windowed_percentile(&timed(&v), 90.0, &none), Some(steady));
        let mut pooled = v.clone();
        pooled.sort_by(f64::total_cmp);
        assert!(percentile(&pooled, 90.0).unwrap() > steady);
    }

    #[test]
    fn windows_keep_the_percentile_rule() {
        let none = StealLog::default();
        assert_eq!(windowed_percentile(&timed(&ramp(99)), 90.0, &none), None);
        assert_eq!(windowed_percentile(&timed(&ramp(100)), 90.0, &none), Some(90.0));
        let two = windowed_percentile(&timed(&ramp(250)), 90.0, &none);
        assert_eq!(two, Some((113.0 + 238.0) / 2.0), "p90 of 1..=125 and of 126..=250");
        assert_eq!(split(10, 3).collect::<Vec<_>>(), vec![0..3, 3..6, 6..10]);
    }

    #[test]
    fn stolen_time_is_given_back() {
        let log = steal_log(20.0, 40.0);
        assert!((log.share(0.0, 10.0) - 0.1).abs() < 1e-9);
        assert!((log.share(25.0, 35.0) - 0.5).abs() < 1e-9);
        // A latency stretched by steal reads as its unstolen share.
        let samples: Vec<Sample> = (0..100).map(|i| (21.0 + i as f64 * 0.1, 20.0)).collect();
        assert_eq!(windowed_percentile(&samples, 50.0, &log), Some(10.0));
        assert_eq!(StealLog::default().share(0.0, 10.0), 0.0);
    }

    #[test]
    fn windowed_rate_is_the_median_slice_rate() {
        let none = StealLog::default();
        let mut ends: Vec<f64> = (0..100).map(|i| i as f64 / 10.0).collect();
        assert_eq!(windowed_rate(&ends, 10.0, &none), 10.0);
        ends.retain(|&t| !(4.0..6.0).contains(&t));
        assert_eq!(
            windowed_rate(&ends, 10.0, &none),
            10.0,
            "one empty slice of five does not move it"
        );
        let ends: Vec<f64> = (0..1000).map(|i| i as f64 / 10.0).collect();
        assert!((windowed_rate(&ends, 100.0, &steal_log(0.0, 0.0)) - 10.0 / 0.9).abs() < 1e-9);
    }

    #[test]
    fn thread_cpu_time_counts_work_not_sleep() {
        let t0 = thread_cpu_ms();
        std::thread::sleep(Duration::from_millis(50));
        let slept = thread_cpu_ms() - t0;
        let t0 = thread_cpu_ms();
        let mut x = 0u64;
        while thread_cpu_ms() - t0 < 20.0 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(slept < 5.0, "sleeping cost {slept} ms of CPU");
    }

    #[test]
    fn process_cpu_time_counts_other_threads() {
        let t0 = process_cpu_ms();
        std::thread::spawn(|| {
            let t0 = thread_cpu_ms();
            while thread_cpu_ms() - t0 < 20.0 {}
        })
        .join()
        .unwrap();
        let spent = process_cpu_ms() - t0;
        assert!(spent >= 20.0, "a thread's 20 ms of work counted as {spent} ms");
    }

    #[test]
    fn the_sampler_reads_until_the_body_ends() {
        let (answer, log) = StealLog::record(Instant::now(), || {
            std::thread::sleep(Duration::from_millis(250));
            42
        });
        assert_eq!(answer, 42);
        assert!(log.readings.len() >= 3, "{} readings", log.readings.len());
        assert!(log.readings.last().unwrap().0 >= 0.25);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
