//! Order statistics, the skewed sampler, and the process probes
//! (`/proc` readers and the process CPU clock) the benchmark reports from.

use axml_support::rng::{Rng, RngExt};

/// A tail percentile is never reported with fewer samples than this
/// beyond it: the helper lowers the rank instead.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank tail percentile and the sample counts behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the reported rank.
    pub value: u64,
    /// The percentile actually reported (lower than the one asked for
    /// when the sample is too small to leave `MIN_BEYOND` beyond it).
    pub pct: f64,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// The nearest-rank `pct` percentile of `sorted` (ascending), clamped so
/// that at least [`MIN_BEYOND`] samples lie beyond it. `None` when there
/// are not even `MIN_BEYOND + 1` samples.
pub fn tail(sorted: &[u64], pct: f64) -> Option<Tail> {
    let n = sorted.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    let idx = rank.clamp(1, n).saturating_sub(1).min(n - 1 - MIN_BEYOND);
    Some(Tail {
        value: sorted[idx],
        pct: 100.0 * (idx + 1) as f64 / n as f64,
        beyond: n - 1 - idx,
        samples: n,
    })
}

/// Median of `values` (mean of the two middle values for an even count);
/// `None` on an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The `q` quantile (`0.0..=1.0`) of `values`, interpolated linearly
/// between neighbouring order statistics; non-finite values are ignored.
/// `None` on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let at = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    Some(v[lo] + (v[hi] - v[lo]) * (at - lo as f64))
}

/// Median of integer samples, as `f64`.
pub fn median_u64(sorted: &[u64]) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    Some(if n % 2 == 1 {
        sorted[n / 2] as f64
    } else {
        (sorted[n / 2 - 1] as f64 + sorted[n / 2] as f64) / 2.0
    })
}

/// Zipf-skewed draws over ranks `0..n`: rank `r` has weight
/// `1 / (r + 1)^s`. Deterministic for a given generator state.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n >= 1` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n >= 1, "Zipf needs at least one rank");
        let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u = rng.random_unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// The reading of CPU-time clock `clock`, in nanoseconds.
pub fn clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on) for the
    // whole call; an invalid clock id makes the call fail, not misbehave.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// User plus system CPU time of the whole process (every thread, live or
/// exited), in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// Host-wide CPU tick counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTicks {
    /// Ticks stolen by the hypervisor.
    pub steal: u64,
    /// All ticks (user through steal).
    pub total: u64,
}

impl HostTicks {
    /// Reads `/proc/stat`; zeros where it is unavailable.
    pub fn read() -> HostTicks {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        HostTicks {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().sum(),
        }
    }

    /// Share of host ticks stolen between `self` and a later reading.
    pub fn steal_share(&self, later: &HostTicks) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// A `/proc/self/status` field in KiB (`VmRSS`, `VmHWM`, ...).
pub fn status_kib(field: &str) -> u64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_support::rng::{SeedableRng, StdRng};

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        for n in 11..3000usize {
            let sorted: Vec<u64> = (0..n as u64).collect();
            for pct in [50.0, 90.0, 95.0, 99.0, 99.9, 100.0] {
                let t = tail(&sorted, pct).unwrap();
                assert!(t.beyond >= MIN_BEYOND, "n={n} pct={pct}: {t:?}");
                assert_eq!(t.beyond, n - 1 - t.value as usize);
                // Nearest rank: never more than one rank above `pct`.
                assert!(
                    t.pct <= pct + 100.0 / n as f64 + 1e-9,
                    "n={n} pct={pct}: {t:?}"
                );
            }
        }
        assert_eq!(tail(&[1, 2, 3], 99.0), None);
        // Large samples keep the asked-for rank.
        let sorted: Vec<u64> = (1..=10_000).collect();
        let t = tail(&sorted, 99.0).unwrap();
        assert_eq!((t.value, t.beyond), (9_900, 100));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median_u64(&[1, 2, 3, 10]), Some(2.5));
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v: Vec<f64> = (0..=10).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.1), Some(1.0));
        assert_eq!(quantile(&v, 0.9), Some(9.0));
        assert_eq!(quantile(&v, 0.5), median(&v));
        assert_eq!(quantile(&[1.0, 2.0], 0.25), Some(1.25));
        assert_eq!(quantile(&[4.0, f64::NAN], 0.9), Some(4.0));
        assert_eq!(quantile(&[7.0], 0.1), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let z = Zipf::new(2048, 1.1);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..5000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let d = draw(7);
        assert!(d.iter().all(|&r| r < 2048));
        let head = d.iter().filter(|&&r| r < 16).count();
        let tail = d.iter().filter(|&&r| r >= 2032).count();
        assert!(head > 10 * tail.max(1), "head={head} tail={tail}");
    }

    #[test]
    fn probes_read_this_process() {
        let a = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > a);
        assert!(status_kib("VmRSS") > 0);
        assert!(status_kib("VmHWM") >= status_kib("VmRSS") / 2);
    }
}
