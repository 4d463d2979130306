//! Log-linear latency recorder: 32 linear sub-buckets per power of two.
//!
//! A value `v >= 32` lands in the bucket `[(32 + s) << (e - 5), (33 + s) << (e - 5))`
//! where `e = floor(log2 v)`, so every bucket is at most 1/32 of its
//! lower bound wide (≤3.2% relative error before interpolation); values
//! below 32 are exact. Quantiles interpolate linearly by rank inside the
//! bucket that holds them. Memory is fixed (about 15 KiB), whatever the
//! sample count.

const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// A fixed-size latency histogram over `u64` samples (nanoseconds here).
#[derive(Clone)]
pub struct Hist {
    counts: Box<[u64; BUCKETS]>,
    n: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: Box::new([0; BUCKETS]),
            n: 0,
            max: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let sub = (v >> (e - SUB_BITS)) as usize & (SUB - 1);
    (e - SUB_BITS + 1) as usize * SUB + sub
}

/// `(lower bound, width)` of bucket `i`.
fn bounds(i: usize) -> (f64, f64) {
    if i < SUB {
        return (i as f64, 1.0);
    }
    let e = (i / SUB) as u32 + SUB_BITS - 1;
    let sub = (i % SUB) as u64;
    let width = 1u64 << (e - SUB_BITS);
    (((SUB as u64 + sub) * width) as f64, width as f64)
}

impl Hist {
    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.n += 1;
        self.max = self.max.max(v);
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.n += other.n;
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The `q`-quantile (`0 < q <= 1`), interpolated inside its bucket;
    /// 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let (lo, width) = bounds(i);
                let pos = (rank - seen) as f64 - 0.5;
                return (lo + width * pos / c as f64).min(self.max as f64);
            }
            seen += c;
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_value_space() {
        let mut next = 0.0;
        for i in 0..index(u64::MAX) {
            let (lo, width) = bounds(i);
            assert_eq!(lo, next, "bucket {i}");
            next = lo + width;
        }
        for v in [0u64, 1, 31, 32, 33, 63, 64, 1000, 123_456, u64::MAX / 3] {
            let (lo, width) = bounds(index(v));
            assert!(lo <= v as f64 && (v as f64) < lo + width, "{v}");
        }
    }

    #[test]
    fn quantiles_are_within_a_bucket_of_exact() {
        let mut h = Hist::default();
        let mut exact: Vec<u64> = (0..100_000u64).map(|i| (i * 7919) % 50_000 + 100).collect();
        for &v in &exact {
            h.record(v);
        }
        exact.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let want = exact[(q * exact.len() as f64).ceil() as usize - 1] as f64;
            let got = h.quantile(q);
            assert!(
                (got - want).abs() / want < 1.0 / 32.0,
                "q={q} got {got} want {want}"
            );
        }
        assert_eq!(h.count(), 100_000);
    }

    #[test]
    fn a_ten_percent_shift_moves_the_median_by_ten_percent() {
        let (mut a, mut b) = (Hist::default(), Hist::default());
        for i in 0..10_000u64 {
            let v = 600 + i % 64;
            a.record(v);
            b.record(v * 11 / 10);
        }
        let ratio = b.quantile(0.5) / a.quantile(0.5);
        assert!((ratio - 1.1).abs() < 0.02, "ratio {ratio}");
    }
}
