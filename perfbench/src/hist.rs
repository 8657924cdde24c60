//! Histograms and latency summaries.
//!
//! Both kinds of histogram share one log-linear bucket scheme: exact below
//! 256, then 128 sub-buckets per power of two (under 1% wide), and
//! quantiles interpolate within a bucket. Memory stays fixed however long
//! a run is, so the benchmark's own bookkeeping does not grow the resident
//! set of the process it measures.
//!
//! - [`SpanHist`] is lock-free, so any number of threads on any LWP can
//!   record into one without a lock of their own perturbing the layer
//!   being timed.
//! - [`Latencies`] keeps one histogram per second of a window, so the rate
//!   and the tail can be reported as medians of per-second figures: one
//!   stalled second on a shared host then moves them by one rank, not by
//!   the whole stall.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

const SUB_BITS: u32 = 7;
const SUBS: usize = 1 << SUB_BITS;
const LINEAR: usize = 2 * SUBS;
/// Values from 2^40 (ns: about 18 minutes) up share the last bucket.
const NBUCKETS: usize = LINEAR + (40 - SUB_BITS as usize - 1) * SUBS;

fn bucket_of(v: u64) -> usize {
    if v < LINEAR as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let sub = ((v >> (exp - SUB_BITS)) as usize) & (SUBS - 1);
    (LINEAR + (exp - SUB_BITS - 1) as usize * SUBS + sub).min(NBUCKETS - 1)
}

/// A bucket's lowest value and width.
fn bucket_range(i: usize) -> (f64, f64) {
    if i < LINEAR {
        return (i as f64, 1.0);
    }
    let exp = ((i - LINEAR) / SUBS) as u32 + SUB_BITS + 1;
    let sub = ((i - LINEAR) % SUBS) as u64;
    let lo = (1u64 << exp) | (sub << (exp - SUB_BITS));
    (lo as f64, (1u64 << (exp - SUB_BITS)) as f64)
}

/// The `q` quantile (0..=1) of bucket counts, interpolated within the
/// bucket it falls in; 0 when empty.
fn quantile(counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = (q * total as f64).clamp(0.5, total as f64 - 0.5);
    let mut below = 0.0;
    for (i, &c) in counts.iter().enumerate() {
        let c = c as f64;
        if below + c >= target && c > 0.0 {
            let (lo, width) = bucket_range(i);
            return lo + width * (target - below) / c;
        }
        below += c;
    }
    bucket_range(NBUCKETS - 1).0
}

/// A concurrent histogram of cycle deltas.
pub struct SpanHist {
    buckets: Box<[AtomicU64]>,
}

impl Default for SpanHist {
    fn default() -> SpanHist {
        SpanHist {
            buckets: (0..NBUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl SpanHist {
    /// Records one delta.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Relaxed);
    }

    /// Clears every bucket.
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Relaxed);
        }
    }

    fn counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Relaxed)).collect()
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.counts().iter().sum()
    }

    /// The `q` quantile in the recorded unit; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.counts(), q)
    }
}

/// Median of unsorted values (the mean of the middle two for an even
/// count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Latencies of one window in nanoseconds, one histogram per second.
#[derive(Default)]
pub struct Latencies {
    seconds: Vec<Vec<u64>>,
}

/// What a window's latencies summarise to.
pub struct Summary {
    /// Samples in the whole window.
    pub samples: u64,
    /// Median over all samples, microseconds.
    pub p50_us: f64,
    /// 90th percentile over all samples, microseconds.
    pub p90_us: f64,
    /// Median of the per-second 99th percentiles, microseconds.
    pub p99_us: f64,
    /// 99th percentile over all samples, microseconds.
    pub p99_all_us: f64,
    /// Median of the per-second sample counts: operations per second.
    pub rate: f64,
    /// `samples:p99_us` for each second, for the run's notes.
    pub per_second: String,
}

impl Summary {
    /// `key=value` form, for passing between processes.
    pub fn render(&self) -> String {
        format!(
            "samples={} p50_us={} p90_us={} p99_us={} p99_all_us={} rate={} per_second={}",
            self.samples,
            self.p50_us,
            self.p90_us,
            self.p99_us,
            self.p99_all_us,
            self.rate,
            self.per_second.replace(' ', ",")
        )
    }

    /// Parses [`Summary::render`]'s output out of a line of other pairs.
    pub fn parse(line: &str) -> Summary {
        let field = |k: &str| {
            line.split_whitespace()
                .find_map(|t| t.strip_prefix(k)?.strip_prefix('='))
                .unwrap_or("")
        };
        let num = |k: &str| field(k).parse().unwrap_or(0.0);
        Summary {
            samples: num("samples") as u64,
            p50_us: num("p50_us"),
            p90_us: num("p90_us"),
            p99_us: num("p99_us"),
            p99_all_us: num("p99_all_us"),
            rate: num("rate"),
            per_second: field("per_second").replace(',', " "),
        }
    }
}

impl Latencies {
    /// Records a latency seen `offset_ns` into the window.
    pub fn record(&mut self, offset_ns: u64, latency_ns: u64) {
        let i = (offset_ns / 1_000_000_000) as usize;
        if self.seconds.len() <= i {
            self.seconds.resize_with(i + 1, || vec![0; NBUCKETS]);
        }
        self.seconds[i][bucket_of(latency_ns)] += 1;
    }

    /// Folds another connection's samples into this one.
    pub fn merge(&mut self, other: Latencies) {
        for (i, h) in other.seconds.into_iter().enumerate() {
            if self.seconds.len() <= i {
                self.seconds.push(h);
            } else {
                for (a, b) in self.seconds[i].iter_mut().zip(h) {
                    *a += b;
                }
            }
        }
    }

    /// Summarises the window; per-second figures use only its first
    /// `seconds` whole seconds.
    pub fn summary(&self, seconds: usize) -> Summary {
        let mut all = vec![0u64; NBUCKETS];
        let (mut p99s, mut rates, mut per_second) = (Vec::new(), Vec::new(), Vec::new());
        for (i, h) in self.seconds.iter().enumerate() {
            for (a, b) in all.iter_mut().zip(h) {
                *a += b;
            }
            if i < seconds {
                let (n, p99) = (h.iter().sum::<u64>(), quantile(h, 0.99));
                p99s.push(p99);
                rates.push(n as f64);
                per_second.push(format!("{n}:{:.0}", p99 / 1e3));
            }
        }
        Summary {
            samples: all.iter().sum(),
            p50_us: quantile(&all, 0.5) / 1e3,
            p90_us: quantile(&all, 0.9) / 1e3,
            p99_us: median(&p99s) / 1e3,
            p99_all_us: quantile(&all, 0.99) / 1e3,
            rate: median(&rates),
            per_second: per_second.join(" "),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_tight() {
        let mut last = 0;
        for v in (0..10_000_000u64).step_by(7) {
            let b = bucket_of(v);
            assert!(b >= last);
            last = b;
            let (lo, width) = bucket_range(b);
            assert!(
                lo <= v as f64 && (v as f64) < lo + width,
                "{v} -> [{lo}, +{width})"
            );
            assert!(width <= 1.0_f64.max(v as f64 / 128.0), "{v}: width {width}");
        }
    }

    #[test]
    fn quantiles_follow_the_samples() {
        let h = SpanHist::default();
        for v in 1..=1000u64 {
            h.record(v * 100);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5);
        assert!((p50 - 50_000.0).abs() < 500.0, "{p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 - 99_000.0).abs() < 1_000.0, "{p99}");
        assert_eq!(SpanHist::default().quantile(0.5), 0.0);
    }

    #[test]
    fn summary_takes_medians_of_whole_seconds() {
        let mut a = Latencies::default();
        let mut b = Latencies::default();
        for sec in 0..3u64 {
            for i in 0..100u64 {
                let l = if i % 2 == 0 { &mut a } else { &mut b };
                l.record(sec * 1_000_000_000 + i, (sec + 1) * 1000 * (i + 1));
            }
        }
        a.record(3_000_000_001, 5);
        a.merge(b);
        let s = a.summary(3);
        assert_eq!(s.samples, 301);
        assert_eq!(s.rate, 100.0);
        // Per-second p99s sit near 99, 198 and 297 us; the median is the
        // middle second's.
        assert!((s.p99_us - 198.0).abs() < 2.0, "{}", s.p99_us);
        let back = Summary::parse(&format!("stop ok=1 {}", s.render()));
        assert_eq!(
            (back.samples, back.rate, back.p99_us),
            (301, 100.0, s.p99_us)
        );
        assert_eq!(back.per_second, s.per_second);
    }
}
