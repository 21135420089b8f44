//! Diversity: Shannon entropy over pattern complexities (paper Eq. 8).

use cp_squish::{complexity, Complexity, Topology};
use std::collections::HashMap;

/// Histogram of `(cx, cy)` complexities over a library.
#[must_use]
pub fn complexity_histogram<'a>(
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

#[cfg(test)]
mod tests {
    use super::*;

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
