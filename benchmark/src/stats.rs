//! Order statistics, the quartile spread the driver gates on, and the
//! FNV-1a digest used for output comparison.

/// Sorts a sample in place; NaNs (never produced here) sort last.
fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
}

/// The `p`-th percentile (nearest-rank on the sorted sample); `0.0`
/// for an empty sample so an absent layer reads as "no time spent".
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (mean of the two middle values for even sizes).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method) computes them — the rule the driver applies to ten runs.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median: the spread the
/// driver compares against a metric's bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let mid = median(values);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}

/// Incremental FNV-1a-64.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub const fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Fnv {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, value: u64) -> &mut Fnv {
        self.bytes(&value.to_le_bytes())
    }
}

/// One-shot FNV-1a-64 of a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv::new().bytes(bytes).0
}

/// SplitMix64 finalizer: decorrelates `(master seed, index)` pairs
/// into request seeds so neighbouring operations share nothing.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(0x94d0_49bb_1331_11eb);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    // Seeds travel as JSON numbers; staying below 2^53 keeps them
    // exact in any reader.
    (z ^ (z >> 31)) >> 11
}

/// Zipf(1.0) over `n` ranks: rank `r` (0-based) has weight `1/(r+1)`.
pub struct Zipf {
    /// Cumulative probabilities by rank.
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        let cdf = (1..=n)
            .scan(0.0, |sum, r| {
                *sum += 1.0 / r as f64 / total;
                Some(*sum)
            })
            .collect();
        Zipf { cdf }
    }

    /// The rank a uniform draw `u` in `[0, 1)` falls on.
    pub fn rank(&self, u: f64) -> usize {
        self.cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_ranks_follow_the_harmonic_weights() {
        let zipf = Zipf::new(3);
        // Weights 1, 1/2, 1/3 over 11/6: boundaries at 6/11 and 9/11.
        assert_eq!(zipf.rank(0.0), 0);
        assert_eq!(zipf.rank(0.54), 0);
        assert_eq!(zipf.rank(0.55), 1);
        assert_eq!(zipf.rank(0.82), 2);
        assert_eq!(zipf.rank(0.999_999), 2);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&values);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]);
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn fnv_matches_known_vector() {
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn percentiles_and_median() {
        let values = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&values), 3.0);
        assert_eq!(percentile(&values, 95.0), 5.0);
        assert_eq!(percentile(&values, 50.0), 3.0);
        assert_eq!(median(&[]), 0.0);
    }
}
