//! Streaming quantile sketch.
//!
//! [`Digest`] answers "what is the p99 sojourn time?" without storing
//! every sample: a fixed-resolution log-linear histogram over
//! non-negative floats with 32 linear sub-buckets per power-of-two
//! octave (≤ ~3% relative error) and any quantile after the fact. It is
//! *mergeable*: two digests with the identical fixed layout combine by
//! elementwise addition, so per-replication digests recorded on worker
//! threads fold into one distribution. It never allocates after
//! construction.

/// Sub-buckets per octave (top 5 mantissa bits → 32 linear slots).
const SUBS: usize = 32;
/// Smallest resolved exponent: values below `2^MIN_EXP` land in the
/// underflow bucket together with exact zeros.
const MIN_EXP: i32 = -32;
/// Largest resolved exponent: values at or above `2^MAX_EXP` clamp into
/// the overflow bucket.
const MAX_EXP: i32 = 32;
/// Bucket count: underflow + resolved octaves + overflow.
const BUCKETS: usize = (MAX_EXP - MIN_EXP) as usize * SUBS + 2;

/// A mergeable fixed-resolution quantile digest over `f64 >= 0`.
///
/// Negative and non-finite observations are counted in `rejected` and
/// otherwise ignored, so adversarial inputs cannot poison quantiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Digest {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Observations refused (negative or non-finite).
    pub rejected: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            rejected: 0,
        }
    }
}

/// Bucket index for a valid (finite, non-negative) observation.
#[inline]
fn bucket_index(v: f64) -> usize {
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
    if exp < MIN_EXP {
        return 0; // zero, subnormals, tiny values
    }
    if exp >= MAX_EXP {
        return BUCKETS - 1;
    }
    let sub = ((bits >> 47) & (SUBS as u64 - 1)) as usize;
    (exp - MIN_EXP) as usize * SUBS + sub + 1
}

/// Inclusive-lower / exclusive-upper value bounds of bucket `i`.
fn bucket_bounds(i: usize) -> (f64, f64) {
    if i == 0 {
        return (0.0, (MIN_EXP as f64).exp2());
    }
    if i == BUCKETS - 1 {
        return ((MAX_EXP as f64).exp2(), f64::MAX);
    }
    let slot = i - 1;
    let exp = MIN_EXP + (slot / SUBS) as i32;
    let sub = (slot % SUBS) as f64;
    let base = (exp as f64).exp2();
    let width = base / SUBS as f64;
    (base + sub * width, base + (sub + 1.0) * width)
}

impl Digest {
    /// Fresh empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, v: f64) {
        if !(v.is_finite() && v >= 0.0) {
            self.rejected += 1;
            return;
        }
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Fold another digest into this one. Always succeeds: every digest
    /// shares the same fixed layout.
    pub fn merge(&mut self, other: &Digest) {
        for (dst, src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.rejected += other.rejected;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Estimate the `q`-quantile (`q` clamped to `[0, 1]`), or `None`
    /// when the digest is empty.
    ///
    /// Interpolates linearly inside the covering bucket and clamps to
    /// the exact observed min/max, so `quantile(0)` and `quantile(1)`
    /// are exact and interior quantiles carry the bucket's ≤ ~3%
    /// relative error.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Target rank in [1, count] (nearest-rank with interpolation).
        let rank = q * (self.count - 1) as f64 + 1.0;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let lo_rank = seen as f64 + 1.0;
            seen += c;
            if rank <= seen as f64 {
                let (lo, hi) = bucket_bounds(i);
                let frac = if c == 1 {
                    0.5
                } else {
                    (rank - lo_rank) / (c - 1) as f64
                };
                let v = lo + frac * (hi - lo);
                return Some(v.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let rank = q * (sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
    }

    /// Deterministic pseudo-uniform stream (SplitMix64).
    fn stream(seed: u64, len: usize) -> Vec<f64> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^= z >> 31;
                (z >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    #[test]
    fn digest_empty_and_single() {
        let mut d = Digest::new();
        assert_eq!(d.quantile(0.5), None);
        assert_eq!(d.count(), 0);
        d.record(3.25);
        assert_eq!(d.quantile(0.0), Some(3.25));
        assert_eq!(d.quantile(0.5), Some(3.25));
        assert_eq!(d.quantile(1.0), Some(3.25));
        assert_eq!(d.min(), Some(3.25));
        assert_eq!(d.max(), Some(3.25));
    }

    #[test]
    fn digest_quantiles_track_exact_within_resolution() {
        let mut xs: Vec<f64> = stream(7, 20_000).iter().map(|u| -u.ln() * 2.0).collect();
        let mut d = Digest::new();
        for &x in &xs {
            d.record(x);
        }
        xs.sort_by(f64::total_cmp);
        for q in [0.1, 0.5, 0.9, 0.95, 0.99] {
            let exact = exact_quantile(&xs, q);
            let est = d.quantile(q).unwrap();
            assert!(
                (est - exact).abs() / exact < 0.05,
                "q={q}: est {est} vs exact {exact}"
            );
        }
        assert!((d.mean() - 2.0).abs() < 0.1, "mean {}", d.mean());
    }

    #[test]
    fn digest_handles_zero_tiny_and_huge() {
        let mut d = Digest::new();
        d.record(0.0);
        d.record(1e-300); // underflow bucket
        d.record(1e300); // overflow bucket
        assert_eq!(d.count(), 3);
        assert_eq!(d.quantile(0.0), Some(0.0));
        assert_eq!(d.quantile(1.0), Some(1e300));
    }

    #[test]
    fn digest_rejects_negative_and_non_finite() {
        let mut d = Digest::new();
        d.record(-1.0);
        d.record(f64::NAN);
        d.record(f64::INFINITY);
        assert_eq!(d.count(), 0);
        assert_eq!(d.rejected, 3);
        assert_eq!(d.quantile(0.5), None);
    }

    #[test]
    fn digest_merge_equals_single_pass() {
        let xs = stream(11, 5_000);
        let (a_half, b_half) = xs.split_at(2_500);
        let mut a = Digest::new();
        let mut b = Digest::new();
        let mut whole = Digest::new();
        for &x in a_half {
            a.record(x);
        }
        for &x in b_half {
            b.record(x);
        }
        for &x in &xs {
            whole.record(x);
        }
        a.merge(&b);
        // Bucket counts and extremes are exactly the single-pass digest;
        // the float sum may differ by addition order only.
        assert_eq!(a.counts, whole.counts);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        assert!((a.sum() - whole.sum()).abs() < 1e-9 * whole.sum());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), whole.quantile(q), "q={q}");
        }
    }

    #[test]
    fn bucket_bounds_cover_the_index_map() {
        for v in [1e-9, 0.37, 1.0, 1.5, 2.0, 1000.0, 123456.789, 4e9] {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v < hi, "v={v} i={i} bounds=({lo},{hi})");
        }
    }
}
