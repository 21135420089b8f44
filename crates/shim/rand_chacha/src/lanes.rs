//! The ChaCha8 block function, several blocks a call: one round
//! function generic over a [`Lanes`] type, and the lane types.

use crate::{counter, BLOCK, ROUNDS};

/// Most blocks one call produces: the lanes of the widest lane type.
pub const MAX_WIDTH: usize = 16;

/// Room for the blocks of the widest lane type.
pub type Blocks = [u32; MAX_WIDTH * BLOCK];

/// A buffer nothing has been produced into yet.
pub const NO_BLOCKS: Blocks = [0; MAX_WIDTH * BLOCK];

/// One state word of `WIDTH` consecutive blocks, a block a lane, with
/// the operations the block function is made of. Written out over an
/// array the compiler keeps all of it scalar (the dependency chain of a
/// block is deeper than its vectorizer looks), so on x86-64 the lanes
/// are a vector register — as wide a one as the CPU has — and
/// elsewhere they are the array, [`Portable`].
///
/// # Safety
///
/// The methods of a lane type use the instruction set it is named
/// after, whatever the build's target features: call them only on a
/// CPU that has it.
pub trait Lanes: Copy {
    /// Blocks a call of [`blocks`] produces.
    const WIDTH: usize;

    /// `word` in every lane.
    unsafe fn splat(word: u32) -> Self;

    /// `words[lane]` in each of the `WIDTH` lanes.
    unsafe fn load(words: &[u32; MAX_WIDTH]) -> Self;

    unsafe fn add(self, other: Self) -> Self;

    /// `(self ^ other).rotate_left(LEFT)`; `RIGHT` is `32 - LEFT`.
    unsafe fn xor_rotate<const LEFT: i32, const RIGHT: i32>(self, other: Self) -> Self;

    /// Writes the lanes out block after block: `out[16 * lane + word]`
    /// is lane `lane` of `words[word]`.
    unsafe fn store(words: &[Self; BLOCK], out: &mut Blocks);
}

#[inline(always)]
unsafe fn quarter_round<L: Lanes>(s: &mut [L; BLOCK], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].add(s[b]);
    s[d] = s[d].xor_rotate::<16, 16>(s[a]);
    s[c] = s[c].add(s[d]);
    s[b] = s[b].xor_rotate::<12, 20>(s[c]);
    s[a] = s[a].add(s[b]);
    s[d] = s[d].xor_rotate::<8, 24>(s[a]);
    s[c] = s[c].add(s[d]);
    s[b] = s[b].xor_rotate::<7, 25>(s[c]);
}

/// The keystream blocks of `input` and of the `L::WIDTH - 1` counters
/// after it, block after block from the start of `out`.
///
/// # Safety
///
/// The CPU must have the instruction set `L` is named after. To get
/// that instruction set's code out of this function, inline it into
/// one that enables the feature ([`blocks_avx2`], [`blocks_avx512`]).
#[inline(always)]
pub unsafe fn blocks<L: Lanes>(input: &[u32; BLOCK], out: &mut Blocks) {
    let first = counter(input);
    let mut counters = [0u64; MAX_WIDTH];
    for (lane, counter) in counters.iter_mut().take(L::WIDTH).enumerate() {
        *counter = first.wrapping_add(lane as u64);
    }
    let mut initial = [L::splat(0); BLOCK];
    for (lanes, &word) in initial.iter_mut().zip(input) {
        *lanes = L::splat(word);
    }
    initial[12] = L::load(&counters.map(|counter| counter as u32));
    initial[13] = L::load(&counters.map(|counter| (counter >> 32) as u32));
    let mut s = initial;
    for _ in 0..ROUNDS / 2 {
        quarter_round(&mut s, 0, 4, 8, 12);
        quarter_round(&mut s, 1, 5, 9, 13);
        quarter_round(&mut s, 2, 6, 10, 14);
        quarter_round(&mut s, 3, 7, 11, 15);
        quarter_round(&mut s, 0, 5, 10, 15);
        quarter_round(&mut s, 1, 6, 11, 12);
        quarter_round(&mut s, 2, 7, 8, 13);
        quarter_round(&mut s, 3, 4, 9, 14);
    }
    for (word, &initial) in s.iter_mut().zip(&initial) {
        *word = word.add(initial);
    }
    L::store(&s, out);
}

/// Four blocks in a plain array: what targets other than x86-64 run,
/// and what the tests compare the vector types with.
#[cfg(any(test, not(target_arch = "x86_64")))]
#[derive(Clone, Copy)]
pub struct Portable([u32; 4]);

// (Nothing here needs more than the language: the functions are
// `unsafe` because the trait's are.)
#[cfg(any(test, not(target_arch = "x86_64")))]
impl Lanes for Portable {
    const WIDTH: usize = 4;

    #[inline(always)]
    unsafe fn splat(word: u32) -> Portable {
        Portable([word; 4])
    }

    #[inline(always)]
    unsafe fn load(words: &[u32; MAX_WIDTH]) -> Portable {
        Portable(std::array::from_fn(|lane| words[lane]))
    }

    #[inline(always)]
    unsafe fn add(self, other: Portable) -> Portable {
        Portable(std::array::from_fn(|lane| {
            self.0[lane].wrapping_add(other.0[lane])
        }))
    }

    #[inline(always)]
    unsafe fn xor_rotate<const LEFT: i32, const RIGHT: i32>(self, other: Portable) -> Portable {
        Portable(std::array::from_fn(|lane| {
            (self.0[lane] ^ other.0[lane]).rotate_left(LEFT as u32)
        }))
    }

    #[inline(always)]
    unsafe fn store(words: &[Portable; BLOCK], out: &mut Blocks) {
        for (word, lanes) in words.iter().enumerate() {
            for (lane, &value) in lanes.0.iter().enumerate() {
                out[lane * BLOCK + word] = value;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub use x86::{blocks_avx2, blocks_avx512, Avx2, Avx512, Sse2};

/// The x86-64 lane types. Every intrinsic below is register-to-register
/// except the unaligned loads in `load` (16, 32 or 64 bytes from a
/// 64-byte array) and the unaligned stores in `store` (into a slice of
/// exactly the stored length, cut from `out` with bounds checks).
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{blocks, Blocks, Lanes, BLOCK, MAX_WIDTH};
    use std::arch::x86_64::*;

    /// Four blocks in an `xmm` register. SSE2 is part of x86-64's base
    /// instruction set.
    #[derive(Clone, Copy)]
    pub struct Sse2(__m128i);

    impl Lanes for Sse2 {
        const WIDTH: usize = 4;

        #[inline(always)]
        unsafe fn splat(word: u32) -> Sse2 {
            Sse2(_mm_set1_epi32(word as i32))
        }

        #[inline(always)]
        unsafe fn load(words: &[u32; MAX_WIDTH]) -> Sse2 {
            Sse2(_mm_loadu_si128(words.as_ptr().cast()))
        }

        #[inline(always)]
        unsafe fn add(self, other: Sse2) -> Sse2 {
            Sse2(_mm_add_epi32(self.0, other.0))
        }

        #[inline(always)]
        unsafe fn xor_rotate<const LEFT: i32, const RIGHT: i32>(self, other: Sse2) -> Sse2 {
            let x = _mm_xor_si128(self.0, other.0);
            Sse2(_mm_or_si128(
                _mm_slli_epi32::<LEFT>(x),
                _mm_srli_epi32::<RIGHT>(x),
            ))
        }

        /// Four 4×4 transposes: words `4q..4q + 4` of the four blocks.
        #[inline(always)]
        unsafe fn store(words: &[Sse2; BLOCK], out: &mut Blocks) {
            for quarter in 0..BLOCK / 4 {
                let w = &words[4 * quarter..][..4];
                let (a, b, c, d) = (w[0].0, w[1].0, w[2].0, w[3].0);
                let (ab_lo, ab_hi) = (_mm_unpacklo_epi32(a, b), _mm_unpackhi_epi32(a, b));
                let (cd_lo, cd_hi) = (_mm_unpacklo_epi32(c, d), _mm_unpackhi_epi32(c, d));
                let rows = [
                    _mm_unpacklo_epi64(ab_lo, cd_lo),
                    _mm_unpackhi_epi64(ab_lo, cd_lo),
                    _mm_unpacklo_epi64(ab_hi, cd_hi),
                    _mm_unpackhi_epi64(ab_hi, cd_hi),
                ];
                for (lane, row) in rows.into_iter().enumerate() {
                    let dest = &mut out[lane * BLOCK + 4 * quarter..][..4];
                    _mm_storeu_si128(dest.as_mut_ptr().cast(), row);
                }
            }
        }
    }

    /// Eight blocks in a `ymm` register.
    #[derive(Clone, Copy)]
    pub struct Avx2(__m256i);

    impl Lanes for Avx2 {
        const WIDTH: usize = 8;

        #[inline(always)]
        unsafe fn splat(word: u32) -> Avx2 {
            Avx2(_mm256_set1_epi32(word as i32))
        }

        #[inline(always)]
        unsafe fn load(words: &[u32; MAX_WIDTH]) -> Avx2 {
            Avx2(_mm256_loadu_si256(words.as_ptr().cast()))
        }

        #[inline(always)]
        unsafe fn add(self, other: Avx2) -> Avx2 {
            Avx2(_mm256_add_epi32(self.0, other.0))
        }

        /// The rotates by whole bytes are one `vpshufb`.
        #[inline(always)]
        unsafe fn xor_rotate<const LEFT: i32, const RIGHT: i32>(self, other: Avx2) -> Avx2 {
            let x = _mm256_xor_si256(self.0, other.0);
            Avx2(match LEFT {
                16 => _mm256_shuffle_epi8(
                    x,
                    _mm256_setr_epi8(
                        2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, //
                        2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
                    ),
                ),
                8 => _mm256_shuffle_epi8(
                    x,
                    _mm256_setr_epi8(
                        3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, //
                        3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
                    ),
                ),
                _ => _mm256_or_si256(_mm256_slli_epi32::<LEFT>(x), _mm256_srli_epi32::<RIGHT>(x)),
            })
        }

        /// Two 8×8 transposes: words `8h..8h + 8` of the eight blocks.
        /// The unpacks work within each 128-bit half, so after them a
        /// register holds four words of block `b` and four of block
        /// `b + 4`; the permutes pair the halves up.
        #[inline(always)]
        unsafe fn store(words: &[Avx2; BLOCK], out: &mut Blocks) {
            for half in 0..BLOCK / 8 {
                let w = &words[8 * half..][..8];
                let (lo0, hi0) = (
                    _mm256_unpacklo_epi32(w[0].0, w[1].0),
                    _mm256_unpackhi_epi32(w[0].0, w[1].0),
                );
                let (lo1, hi1) = (
                    _mm256_unpacklo_epi32(w[2].0, w[3].0),
                    _mm256_unpackhi_epi32(w[2].0, w[3].0),
                );
                let (lo2, hi2) = (
                    _mm256_unpacklo_epi32(w[4].0, w[5].0),
                    _mm256_unpackhi_epi32(w[4].0, w[5].0),
                );
                let (lo3, hi3) = (
                    _mm256_unpacklo_epi32(w[6].0, w[7].0),
                    _mm256_unpackhi_epi32(w[6].0, w[7].0),
                );
                // Words 0..4, then 4..8, of blocks `b` and `b + 4`.
                let first = [
                    _mm256_unpacklo_epi64(lo0, lo1),
                    _mm256_unpackhi_epi64(lo0, lo1),
                    _mm256_unpacklo_epi64(hi0, hi1),
                    _mm256_unpackhi_epi64(hi0, hi1),
                ];
                let second = [
                    _mm256_unpacklo_epi64(lo2, lo3),
                    _mm256_unpackhi_epi64(lo2, lo3),
                    _mm256_unpacklo_epi64(hi2, hi3),
                    _mm256_unpackhi_epi64(hi2, hi3),
                ];
                for block in 0..4 {
                    let (first, second) = (first[block], second[block]);
                    let rows = [
                        (block, _mm256_permute2x128_si256::<0x20>(first, second)),
                        (block + 4, _mm256_permute2x128_si256::<0x31>(first, second)),
                    ];
                    for (lane, row) in rows {
                        let dest = &mut out[lane * BLOCK + 8 * half..][..8];
                        _mm256_storeu_si256(dest.as_mut_ptr().cast(), row);
                    }
                }
            }
        }
    }

    /// Sixteen blocks in a `zmm` register.
    #[derive(Clone, Copy)]
    pub struct Avx512(__m512i);

    impl Lanes for Avx512 {
        const WIDTH: usize = 16;

        #[inline(always)]
        unsafe fn splat(word: u32) -> Avx512 {
            Avx512(_mm512_set1_epi32(word as i32))
        }

        #[inline(always)]
        unsafe fn load(words: &[u32; MAX_WIDTH]) -> Avx512 {
            Avx512(_mm512_loadu_si512(words.as_ptr().cast()))
        }

        #[inline(always)]
        unsafe fn add(self, other: Avx512) -> Avx512 {
            Avx512(_mm512_add_epi32(self.0, other.0))
        }

        /// Every rotate is one `vprold`.
        #[inline(always)]
        unsafe fn xor_rotate<const LEFT: i32, const RIGHT: i32>(self, other: Avx512) -> Avx512 {
            Avx512(_mm512_rol_epi32::<LEFT>(_mm512_xor_si512(self.0, other.0)))
        }

        /// One 16×16 transpose. The unpacks work within each 128-bit
        /// quarter, so after them a register holds four words of each
        /// of blocks `b`, `b + 4`, `b + 8`, `b + 12`; two rounds of
        /// quarter shuffles gather a block's four quarters.
        #[inline(always)]
        unsafe fn store(words: &[Avx512; BLOCK], out: &mut Blocks) {
            let mut lo = [words[0].0; BLOCK / 2];
            let mut hi = lo;
            for pair in 0..BLOCK / 2 {
                let (even, odd) = (words[2 * pair].0, words[2 * pair + 1].0);
                lo[pair] = _mm512_unpacklo_epi32(even, odd);
                hi[pair] = _mm512_unpackhi_epi32(even, odd);
            }
            // `quarters[b][q]`: words `4q..4q + 4` of blocks `b`, `b + 4`,
            // `b + 8`, `b + 12`.
            let mut quarters = [[lo[0]; 4]; 4];
            for (q, (lo, hi)) in lo.chunks_exact(2).zip(hi.chunks_exact(2)).enumerate() {
                quarters[0][q] = _mm512_unpacklo_epi64(lo[0], lo[1]);
                quarters[1][q] = _mm512_unpackhi_epi64(lo[0], lo[1]);
                quarters[2][q] = _mm512_unpacklo_epi64(hi[0], hi[1]);
                quarters[3][q] = _mm512_unpackhi_epi64(hi[0], hi[1]);
            }
            for (block, [a, b, c, d]) in quarters.into_iter().enumerate() {
                // Quarters 0 and 2 of each (`even`), 1 and 3 (`odd`).
                let ab_even = _mm512_shuffle_i32x4::<0x88>(a, b);
                let ab_odd = _mm512_shuffle_i32x4::<0xdd>(a, b);
                let cd_even = _mm512_shuffle_i32x4::<0x88>(c, d);
                let cd_odd = _mm512_shuffle_i32x4::<0xdd>(c, d);
                let rows = [
                    (block, _mm512_shuffle_i32x4::<0x88>(ab_even, cd_even)),
                    (block + 4, _mm512_shuffle_i32x4::<0x88>(ab_odd, cd_odd)),
                    (block + 8, _mm512_shuffle_i32x4::<0xdd>(ab_even, cd_even)),
                    (block + 12, _mm512_shuffle_i32x4::<0xdd>(ab_odd, cd_odd)),
                ];
                for (lane, row) in rows {
                    let dest = &mut out[lane * BLOCK..][..BLOCK];
                    _mm512_storeu_si512(dest.as_mut_ptr().cast(), row);
                }
            }
        }
    }

    /// [`blocks`] over eight lanes, compiled for AVX2.
    ///
    /// # Safety
    ///
    /// The CPU must have AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn blocks_avx2(input: &[u32; BLOCK], out: &mut Blocks) {
        blocks::<Avx2>(input, out);
    }

    /// [`blocks`] over sixteen lanes, compiled for AVX-512F.
    ///
    /// # Safety
    ///
    /// The CPU must have AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn blocks_avx512(input: &[u32; BLOCK], out: &mut Blocks) {
        blocks::<Avx512>(input, out);
    }
}
