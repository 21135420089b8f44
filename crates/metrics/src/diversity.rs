//! Diversity: Shannon entropy over pattern complexities (paper Eq. 8).

use cp_layout::squish::{complexity, Complexity, Topology};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::hash::Hash;

/// Histogram of `(cx, cy)` complexities over a library.
#[must_use]
pub(crate) fn complexity_histogram<'a>(
    library: impl Iterator<Item = &'a Topology>,
) -> HashMap<Complexity, usize> {
    let mut hist = HashMap::new();
    for t in library {
        *hist.entry(complexity(t)).or_insert(0) += 1;
    }
    hist
}

/// Shannon entropy in bits of a count histogram.
///
/// Returns `0.0` for empty input.
#[must_use]
pub fn entropy_bits<K>(hist: &HashMap<K, usize>) -> f64 {
    let total: usize = hist.values().sum();
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    // A float sum depends on the order of its terms and a `HashMap`
    // yields its values in an order that differs from process to
    // process, so the terms are summed in ascending count order: equal
    // counts give equal terms, which makes the result a function of the
    // multiset of counts alone (an `Evaluate` reply is cached and
    // compared byte for byte across processes).
    let mut counts: Vec<usize> = hist.values().copied().filter(|&n| n > 0).collect();
    counts.sort_unstable();
    counts
        .iter()
        .map(|&n| {
            let p = n as f64 / total;
            -p * p.log2()
        })
        .sum()
}

/// Diversity `H` of a library: entropy of the joint `(cx, cy)`
/// complexity distribution (paper Eq. 8), in bits.
#[must_use]
pub fn diversity<'a>(library: impl Iterator<Item = &'a Topology>) -> f64 {
    entropy_bits(&complexity_histogram(library))
}

/// Resamples [`entropy_interval`] draws: enough that the 5th and 95th
/// percentiles move by less than a hundredth of a bit between seeds.
const RESAMPLES: usize = 400;

/// The fixed seed of [`entropy_interval`]'s resamples, so an interval is
/// a function of its samples alone.
const RESAMPLE_SEED: u64 = 0x0005_EED0_F0E8;

/// A 90 % bootstrap interval on [`entropy_bits`] of `samples`' histogram:
/// the 5th and 95th percentiles of the entropy of 400
/// resamples with replacement, drawn from a fixed seed. `(0, 0)` of no
/// samples.
///
/// This is a percentile interval, and the plug-in entropy of a resample
/// is biased low (a resample repeats some samples and misses others),
/// so the interval can lie below the point value; it exists to compare
/// two libraries of like size, whose intervals share that bias.
#[must_use]
pub fn entropy_interval<K: Hash + Eq + Clone>(samples: &[K]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(RESAMPLE_SEED);
    let mut entropies: Vec<f64> = (0..RESAMPLES)
        .map(|_| {
            let mut hist = HashMap::new();
            for _ in 0..samples.len() {
                let pick = &samples[rng.gen_range(0..samples.len())];
                *hist.entry(pick.clone()).or_insert(0usize) += 1;
            }
            entropy_bits(&hist) + 0.0
        })
        .collect();
    entropies.sort_unstable_by(f64::total_cmp);
    let at = |quantile: f64| entropies[((RESAMPLES - 1) as f64 * quantile).round() as usize];
    (at(0.05), at(0.95))
}

/// The 1-D Wasserstein-1 (earth mover's) distance between the empirical
/// distributions of two samples of integers: `∫ |F_a − F_b|`, which on
/// integers is the sum over unit steps of the gap between the two
/// cumulative shares. `None` when either sample is empty.
#[must_use]
pub fn wasserstein_1(a: &[u32], b: &[u32]) -> Option<f64> {
    if a.is_empty() || b.is_empty() {
        return None;
    }
    let (mut a, mut b) = (a.to_vec(), b.to_vec());
    a.sort_unstable();
    b.sort_unstable();
    // Summed in whole units of `1 / (|a| · |b|)`, so the result is one
    // rounding of an exact integer.
    let (na, nb) = (a.len() as u128, b.len() as u128);
    let (mut i, mut j) = (0, 0);
    let mut units = 0u128;
    let mut at = a[0].min(b[0]);
    loop {
        // Both cumulative shares are constant from `at` to the next
        // sample value of either side.
        while i < a.len() && a[i] <= at {
            i += 1;
        }
        while j < b.len() && b[j] <= at {
            j += 1;
        }
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) => x.min(y),
            (Some(&x), None) => x,
            (None, Some(&y)) => y,
            (None, None) => break,
        };
        units += (i as u128 * nb).abs_diff(j as u128 * na) * u128::from(next - at);
        at = next;
    }
    let distance = units as f64 / (na * nb) as f64;
    Some(distance)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wasserstein_1_is_the_mean_shift_of_a_shifted_sample() {
        assert_eq!(wasserstein_1(&[1, 2, 3], &[1, 2, 3]), Some(0.0));
        assert_eq!(wasserstein_1(&[1, 2, 3], &[4, 5, 6]), Some(3.0));
        assert_eq!(wasserstein_1(&[4, 5, 6], &[1, 2, 3]), Some(3.0));
        // Unequal counts: half the mass moves 10, half stays.
        assert_eq!(wasserstein_1(&[0, 10], &[0]), Some(5.0));
        assert_eq!(wasserstein_1(&[7, 0, 7, 0], &[0, 7]), Some(0.0));
        assert_eq!(wasserstein_1(&[], &[1]), None);
    }

    #[test]
    fn entropy_interval_is_fixed_and_brackets_a_spread_library() {
        let spread: Vec<u32> = (0..40).map(|i| i % 10).collect();
        let (lo, hi) = entropy_interval(&spread);
        assert_eq!(entropy_interval(&spread), (lo, hi), "fixed seed");
        let point = {
            let mut hist = HashMap::new();
            for &k in &spread {
                *hist.entry(k).or_insert(0usize) += 1;
            }
            entropy_bits(&hist)
        };
        assert!(lo < hi && hi <= point + 1e-9, "{lo} {hi} {point}");
        assert!(point - lo < 0.6, "{lo} {point}");
        assert_eq!(entropy_interval(&[3u32; 12]), (0.0, 0.0));
        assert_eq!(entropy_interval::<u32>(&[]), (0.0, 0.0));
    }

    #[test]
    fn identical_patterns_have_zero_diversity() {
        let t = Topology::from_ascii("1.\n..");
        let lib = [t.clone(), t.clone(), t];
        assert_eq!(diversity(lib.iter()), 0.0);
    }

    #[test]
    fn empty_library_has_zero_diversity() {
        let lib: Vec<Topology> = Vec::new();
        assert_eq!(diversity(lib.iter()), 0.0);
    }

    #[test]
    fn uniform_two_class_library_has_one_bit() {
        let a = Topology::from_ascii("1...\n....");
        let b = Topology::from_ascii("1.1.\n....");
        let lib = [a.clone(), a, b.clone(), b];
        assert!((diversity(lib.iter()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_is_maximal_for_uniform() {
        let mut skewed = HashMap::new();
        skewed.insert(0u32, 9usize);
        skewed.insert(1u32, 1usize);
        let mut uniform = HashMap::new();
        uniform.insert(0u32, 5usize);
        uniform.insert(1u32, 5usize);
        assert!(entropy_bits(&uniform) > entropy_bits(&skewed));
    }

    #[test]
    fn entropy_does_not_depend_on_the_histograms_iteration_order() {
        // 40 topologies in seven complexity classes of unequal sizes:
        // every freshly built `HashMap` hashes with keys of its own, so
        // 200 of them walk the same seven counts in many orders.
        let sizes = [1usize, 2, 3, 5, 7, 9, 13];
        let library: Vec<Topology> = sizes
            .iter()
            .enumerate()
            .flat_map(|(class, &size)| {
                let stripes = "1.".repeat(class + 1);
                std::iter::repeat_n(Topology::from_ascii(&stripes), size)
            })
            .collect();
        assert_eq!(library.len(), 40);
        let bits: std::collections::HashSet<u64> = (0..200)
            .map(|_| diversity(library.iter()).to_bits())
            .collect();
        assert_eq!(bits.len(), 1, "one library, one diversity: {bits:?}");
    }

    #[test]
    fn histogram_counts_complexities() {
        let a = Topology::from_ascii("1...\n...."); // (2,2)
        let b = Topology::from_ascii("1.1.\n...."); // (4,2)
        let lib = [a.clone(), a, b];
        let hist = complexity_histogram(lib.iter());
        assert_eq!(hist.len(), 2);
        assert_eq!(hist.values().sum::<usize>(), 3);
        assert_eq!(hist[&Complexity::new(2, 2)], 2);
    }
}
