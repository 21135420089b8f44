//! Offline stand-in for the subset of the `rand` crate API this
//! workspace uses.
//!
//! The build environment has no registry access, so the workspace ships
//! its own implementation of the traits the code was written against:
//! [`RngCore`], [`SeedableRng`] and the [`Rng`] extension trait with
//! `gen`, `gen_range` and `gen_bool`. The trait names, bounds and
//! blanket impls mirror `rand 0.8` closely enough that swapping the real
//! crate back in is a one-line manifest change.

use std::ops::{Range, RangeInclusive};

/// A source of uniformly distributed random bits.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;

    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Fills `dest` with random bytes: the little-endian bytes of one
    /// [`next_u64`](RngCore::next_u64) per eight bytes, a whole one for
    /// a shorter tail. Callers that draw in bulk rely on exactly that
    /// (eight bytes here are one `gen::<f64>()` there), so an override
    /// may only be a faster way to the same bytes and stream position.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rest.copy_from_slice(&bytes[..rest.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest);
    }
}

impl<R: RngCore + ?Sized> RngCore for Box<R> {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest);
    }
}

/// A generator that can be instantiated from a `u64` seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed (deterministic).
    fn seed_from_u64(state: u64) -> Self;
}

/// Types samplable uniformly from the full bit stream (`rng.gen()`).
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u32() & 1 == 1
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 uniform bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Types with a uniform bounded sampler (the `T` of `gen_range`).
pub trait SampleUniform: Copy + PartialOrd {
    /// Samples uniformly from `[low, high)` (`high` included when
    /// `inclusive`).
    fn sample_uniform<R: RngCore + ?Sized>(
        rng: &mut R,
        low: Self,
        high: Self,
        inclusive: bool,
    ) -> Self;
}

/// Maps 64 random bits to `[0, span)` by widening multiplication.
fn bounded(rng_bits: u64, span: u64) -> u64 {
    ((u128::from(rng_bits) * u128::from(span)) >> 64) as u64
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_uniform<R: RngCore + ?Sized>(
                rng: &mut R,
                low: $t,
                high: $t,
                inclusive: bool,
            ) -> $t {
                let span = high.abs_diff(low) as u64;
                if inclusive {
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    low.wrapping_add(bounded(rng.next_u64(), span + 1) as $t)
                } else {
                    low.wrapping_add(bounded(rng.next_u64(), span) as $t)
                }
            }
        }
    )*};
}

impl_sample_uniform_int!(usize, u64, u32, u16, u8, isize, i64, i32, i16, i8);

impl SampleUniform for f64 {
    fn sample_uniform<R: RngCore + ?Sized>(
        rng: &mut R,
        low: f64,
        high: f64,
        _inclusive: bool,
    ) -> f64 {
        low + (high - low) * f64::sample(rng)
    }
}

impl SampleUniform for f32 {
    fn sample_uniform<R: RngCore + ?Sized>(
        rng: &mut R,
        low: f32,
        high: f32,
        _inclusive: bool,
    ) -> f32 {
        low + (high - low) * f32::sample(rng)
    }
}

/// Ranges samplable by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_uniform(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "cannot sample empty range");
        T::sample_uniform(rng, start, end, true)
    }
}

/// Convenience sampling methods, blanket-implemented for every
/// [`RngCore`] (including `&mut dyn RngCore`).
pub trait Rng: RngCore {
    /// Samples a value of type `T` from the uniform bit stream.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Samples uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(u64);

    impl RngCore for Counter {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Counter(7);
        for _ in 0..1000 {
            let v: i64 = rng.gen_range(-5..5);
            assert!((-5..5).contains(&v));
            let u: usize = rng.gen_range(0..=3);
            assert!(u <= 3);
            let f: f64 = rng.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn unit_interval_sampling() {
        let mut rng = Counter(3);
        for _ in 0..1000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn dyn_rng_supports_extension_methods() {
        let mut rng = Counter(1);
        let dyn_rng: &mut dyn RngCore = &mut rng;
        let v: usize = dyn_rng.gen_range(0..10);
        assert!(v < 10);
    }
}
