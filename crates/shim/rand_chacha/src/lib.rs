//! Offline stand-in for `rand_chacha`: a real ChaCha8 keystream behind
//! the workspace [`rand`] shim traits.
//!
//! Only [`ChaCha8Rng`] is provided — the one generator this workspace
//! uses. Seeding goes through SplitMix64 key expansion, so any `u64`
//! seed yields a well-mixed 256-bit ChaCha key and the stream is fully
//! deterministic per seed.

use rand::{RngCore, SeedableRng};

const ROUNDS: usize = 8;

/// Words in one ChaCha block.
const BLOCK: usize = 16;

/// Blocks generated per refill: one per lane of a [`Lanes`] value, so
/// every line of the round function is a single vector instruction
/// over four blocks.
const LANES: usize = 4;

/// One state word of [`LANES`] consecutive blocks, with the three
/// operations the ChaCha round is made of. Written out over `[u32; 4]`
/// the compiler keeps all of it scalar (the dependency chain of a
/// block is deeper than its vectorizer looks), so on x86-64 — where
/// SSE2 is part of the base instruction set — the lanes are an
/// `__m128i`; elsewhere they are the array.
#[cfg(target_arch = "x86_64")]
mod lanes {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_or_si128, _mm_set_epi32, _mm_slli_epi32, _mm_srli_epi32,
        _mm_xor_si128,
    };

    #[derive(Clone, Copy)]
    pub struct Lanes(__m128i);

    // The intrinsics below are register-to-register: their one
    // requirement is that the CPU has SSE2, which every x86-64 CPU
    // does (it is part of the base instruction set this module is
    // compiled for).
    impl Lanes {
        #[inline(always)]
        pub fn new(words: [u32; 4]) -> Lanes {
            let [a, b, c, d] = words.map(|word| word as i32);
            // SAFETY: needs SSE2 only, see above.
            Lanes(unsafe { _mm_set_epi32(d, c, b, a) })
        }

        #[inline(always)]
        pub fn words(self) -> [u32; 4] {
            // SAFETY: both types are 16 bytes of plain integers with no
            // invalid bit patterns; lane 0 is the lowest 32 bits.
            unsafe { std::mem::transmute(self.0) }
        }

        #[inline(always)]
        pub fn add(self, other: Lanes) -> Lanes {
            // SAFETY: needs SSE2 only, see above.
            Lanes(unsafe { _mm_add_epi32(self.0, other.0) })
        }

        /// `(self ^ other).rotate_left(LEFT)`; `RIGHT` is `32 - LEFT`.
        #[inline(always)]
        pub fn xor_rotate<const LEFT: i32, const RIGHT: i32>(self, other: Lanes) -> Lanes {
            // SAFETY: needs SSE2 only, see above.
            unsafe {
                let x = _mm_xor_si128(self.0, other.0);
                Lanes(_mm_or_si128(
                    _mm_slli_epi32::<LEFT>(x),
                    _mm_srli_epi32::<RIGHT>(x),
                ))
            }
        }
    }
}

#[cfg(any(test, not(target_arch = "x86_64")))]
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
mod portable_lanes {
    #[derive(Clone, Copy)]
    pub struct Lanes([u32; 4]);

    impl Lanes {
        #[inline(always)]
        pub fn new(words: [u32; 4]) -> Lanes {
            Lanes(words)
        }

        #[inline(always)]
        pub fn words(self) -> [u32; 4] {
            self.0
        }

        #[inline(always)]
        pub fn add(self, other: Lanes) -> Lanes {
            Lanes(std::array::from_fn(|lane| {
                self.0[lane].wrapping_add(other.0[lane])
            }))
        }

        /// `(self ^ other).rotate_left(LEFT)`; `RIGHT` is `32 - LEFT`.
        #[inline(always)]
        pub fn xor_rotate<const LEFT: i32, const RIGHT: i32>(self, other: Lanes) -> Lanes {
            Lanes(std::array::from_fn(|lane| {
                (self.0[lane] ^ other.0[lane]).rotate_left(LEFT as u32)
            }))
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
use portable_lanes as lanes;

use lanes::Lanes;

/// A deterministic ChaCha8-based random number generator.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    /// Input block: constants, key, counter, nonce. The counter is
    /// that of the next block to generate.
    state: [u32; BLOCK],
    /// [`LANES`] consecutive keystream blocks: the ones before the
    /// counter.
    buffer: [u32; LANES * BLOCK],
    /// Next unread word of `buffer` (its length = exhausted).
    cursor: usize,
}

#[inline(always)]
fn quarter_round(s: &mut [Lanes; BLOCK], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].add(s[b]);
    s[d] = s[d].xor_rotate::<16, 16>(s[a]);
    s[c] = s[c].add(s[d]);
    s[b] = s[b].xor_rotate::<12, 20>(s[c]);
    s[a] = s[a].add(s[b]);
    s[d] = s[d].xor_rotate::<8, 24>(s[a]);
    s[c] = s[c].add(s[d]);
    s[b] = s[b].xor_rotate::<7, 25>(s[c]);
}

/// The 64-bit block counter in words 12..14 of an input block.
fn counter(input: &[u32; BLOCK]) -> u64 {
    u64::from(input[13]) << 32 | u64::from(input[12])
}

fn set_counter(input: &mut [u32; BLOCK], counter: u64) {
    input[12] = counter as u32;
    input[13] = (counter >> 32) as u32;
}

/// The keystream blocks of `input` and of the [`LANES`]` - 1` counters
/// after it, block after block.
fn chacha_blocks(input: &[u32; BLOCK]) -> [u32; LANES * BLOCK] {
    #[cfg(test)]
    tests::PRODUCED.with(|produced| produced.set(produced.get() + LANES as u64));
    let mut words: [[u32; LANES]; BLOCK] = input.map(|word| [word; LANES]);
    let blocks: [u64; LANES] = std::array::from_fn(|lane| counter(input).wrapping_add(lane as u64));
    words[12] = blocks.map(|block| block as u32);
    words[13] = blocks.map(|block| (block >> 32) as u32);
    let initial = words.map(Lanes::new);
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
    let mut out = [0u32; LANES * BLOCK];
    for word in 0..BLOCK {
        let sum = s[word].add(initial[word]).words();
        for lane in 0..LANES {
            out[lane * BLOCK + word] = sum[lane];
        }
    }
    out
}

/// SplitMix64 step — the standard way to expand a small seed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Number of `u32` words in a serialized generator state: the input
/// block, the current keystream block, and the cursor.
pub const STATE_WORDS: usize = 33;

impl ChaCha8Rng {
    /// Exports the complete generator state as [`STATE_WORDS`] words
    /// (input block, keystream block, cursor). A generator rebuilt via
    /// [`ChaCha8Rng::from_state_words`] continues the stream exactly
    /// where this one stands — the hook session snapshots use to make
    /// restored runs byte-identical to uninterrupted ones.
    ///
    /// The words are those of a generator that produces one block at a
    /// time: the block the cursor stands in, the counter of the block
    /// after it, and the cursor within it (16 once its last word is
    /// read — the next block is only produced on demand). That this
    /// generator produces several blocks per refill does not show.
    ///
    /// Only a seek can leave the cursor on the first word of the
    /// buffered blocks anywhere but at the start of the stream; a
    /// generator that drew its way there holds the block *before*,
    /// read to its end, and that block is produced here on demand.
    #[must_use]
    pub fn state_words(&self) -> Vec<u32> {
        let first = self.first_block();
        let mut input = self.state;
        let before;
        let (block, next, cursor) = if self.cursor == 0 && first != 0 {
            set_counter(&mut input, first.wrapping_sub(1));
            before = chacha_blocks(&input);
            (&before[..BLOCK], first, BLOCK)
        } else {
            let held = self.cursor.saturating_sub(1) / BLOCK;
            (
                &self.buffer[held * BLOCK..(held + 1) * BLOCK],
                first.wrapping_add(held as u64 + 1),
                self.cursor - held * BLOCK,
            )
        };
        set_counter(&mut input, next);
        let mut words = Vec::with_capacity(STATE_WORDS);
        words.extend_from_slice(&input);
        words.extend_from_slice(block);
        words.push(cursor as u32);
        words
    }

    /// Rebuilds a generator from [`ChaCha8Rng::state_words`] output.
    /// Returns `None` when the word count is wrong or the cursor is
    /// out of range — a corrupted snapshot, never a panic.
    #[must_use]
    pub fn from_state_words(words: &[u32]) -> Option<ChaCha8Rng> {
        if words.len() != STATE_WORDS {
            return None;
        }
        let cursor = words[32] as usize;
        if cursor > BLOCK {
            return None;
        }
        let mut state = [0u32; BLOCK];
        state.copy_from_slice(&words[0..BLOCK]);
        // The given block first, then the ones the counter says follow.
        let following = chacha_blocks(&state);
        let mut buffer = [0u32; LANES * BLOCK];
        buffer[..BLOCK].copy_from_slice(&words[BLOCK..2 * BLOCK]);
        buffer[BLOCK..].copy_from_slice(&following[..(LANES - 1) * BLOCK]);
        let next = counter(&state).wrapping_add((LANES - 1) as u64);
        set_counter(&mut state, next);
        Some(ChaCha8Rng {
            state,
            buffer,
            cursor,
        })
    }

    /// The position in the stream, in 32-bit words from its start
    /// (modulo 2⁶⁸, where the 64-bit block counter wraps): what
    /// [`ChaCha8Rng::set_word_pos`] takes to come back here. Named and
    /// typed as in `rand_chacha`.
    #[must_use]
    pub fn get_word_pos(&self) -> u128 {
        let block = self
            .first_block()
            .wrapping_add((self.cursor / BLOCK) as u64);
        u128::from(block) * BLOCK as u128 + (self.cursor % BLOCK) as u128
    }

    /// Moves to `word_offset` words from the start of the stream,
    /// forwards or backwards. No keystream is produced for the blocks
    /// passed over: a position inside the buffered blocks only moves
    /// the cursor, any other produces the blocks from the one the
    /// position stands in. Afterwards the generator cannot be told —
    /// by any later word or by [`ChaCha8Rng::state_words`] — from one
    /// that drew every word up to that position and discarded it.
    pub fn set_word_pos(&mut self, word_offset: u128) {
        let block = (word_offset / BLOCK as u128) as u64;
        let word = (word_offset % BLOCK as u128) as usize;
        let ahead = block.wrapping_sub(self.first_block());
        if ahead < LANES as u64 || (ahead == LANES as u64 && word == 0) {
            self.cursor = ahead as usize * BLOCK + word;
        } else {
            set_counter(&mut self.state, block);
            self.refill();
            self.cursor = word;
        }
    }

    /// Counter of the first buffered block.
    fn first_block(&self) -> u64 {
        counter(&self.state).wrapping_sub(LANES as u64)
    }

    fn refill(&mut self) {
        self.buffer = chacha_blocks(&self.state);
        self.cursor = 0;
        let next = counter(&self.state).wrapping_add(LANES as u64);
        set_counter(&mut self.state, next);
    }
}

impl SeedableRng for ChaCha8Rng {
    fn seed_from_u64(state: u64) -> ChaCha8Rng {
        let mut sm = state;
        let mut s = [0u32; 16];
        // "expand 32-byte k"
        s[0] = 0x6170_7865;
        s[1] = 0x3320_646e;
        s[2] = 0x7962_2d32;
        s[3] = 0x6b20_6574;
        for i in 0..4 {
            let k = splitmix64(&mut sm);
            s[4 + 2 * i] = k as u32;
            s[5 + 2 * i] = (k >> 32) as u32;
        }
        // Counter and nonce start at zero.
        let mut rng = ChaCha8Rng {
            state: s,
            buffer: [0; LANES * BLOCK],
            cursor: LANES * BLOCK,
        };
        rng.refill();
        rng
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        if self.cursor >= self.buffer.len() {
            self.refill();
        }
        let word = self.buffer[self.cursor];
        self.cursor += 1;
        word
    }

    fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        (hi << 32) | lo
    }

    /// The bytes and the stream position of the default (`next_u64`
    /// per eight bytes, a whole one for a shorter tail), copied out of
    /// the keystream buffer a run of words at a time.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let (body, tail) = dest.split_at_mut(dest.len() & !7);
        let mut body = body.chunks_exact_mut(4);
        while body.len() > 0 {
            if self.cursor >= self.buffer.len() {
                self.refill();
            }
            let words = &self.buffer[self.cursor..];
            let copied = words.len().min(body.len());
            // (`zip` asks the words first: running out of them must
            // not swallow a destination chunk.)
            for (word, bytes) in words.iter().zip(body.by_ref()) {
                bytes.copy_from_slice(&word.to_le_bytes());
            }
            self.cursor += copied;
        }
        if !tail.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            tail.copy_from_slice(&bytes[..tail.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// Keystream blocks this thread has produced.
        pub(super) static PRODUCED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// The one-block-at-a-time generator this crate used to be, kept
    /// as the oracle: the keystream, the exported state words and the
    /// restore behaviour of [`ChaCha8Rng`] must be indistinguishable
    /// from it.
    #[derive(Clone)]
    struct OneBlockRng {
        state: [u32; 16],
        block: [u32; 16],
        cursor: usize,
    }

    fn scalar_quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        s[a] = s[a].wrapping_add(s[b]);
        s[d] = (s[d] ^ s[a]).rotate_left(16);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] = (s[b] ^ s[c]).rotate_left(12);
        s[a] = s[a].wrapping_add(s[b]);
        s[d] = (s[d] ^ s[a]).rotate_left(8);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] = (s[b] ^ s[c]).rotate_left(7);
    }

    fn chacha_block(input: &[u32; 16]) -> [u32; 16] {
        let mut s = *input;
        for _ in 0..ROUNDS / 2 {
            scalar_quarter_round(&mut s, 0, 4, 8, 12);
            scalar_quarter_round(&mut s, 1, 5, 9, 13);
            scalar_quarter_round(&mut s, 2, 6, 10, 14);
            scalar_quarter_round(&mut s, 3, 7, 11, 15);
            scalar_quarter_round(&mut s, 0, 5, 10, 15);
            scalar_quarter_round(&mut s, 1, 6, 11, 12);
            scalar_quarter_round(&mut s, 2, 7, 8, 13);
            scalar_quarter_round(&mut s, 3, 4, 9, 14);
        }
        for (word, inp) in s.iter_mut().zip(input) {
            *word = word.wrapping_add(*inp);
        }
        s
    }

    impl OneBlockRng {
        /// A freshly seeded generator: same key expansion, first block
        /// produced eagerly.
        fn seed_from_u64(seed: u64) -> OneBlockRng {
            let words = ChaCha8Rng::seed_from_u64(seed).state_words();
            let mut state = [0u32; 16];
            state.copy_from_slice(&words[..16]);
            state[12] = 0;
            state[13] = 0;
            let mut rng = OneBlockRng {
                state,
                block: [0; 16],
                cursor: 16,
            };
            rng.advance_block();
            rng
        }

        fn from_state_words(words: &[u32]) -> OneBlockRng {
            let mut rng = OneBlockRng {
                state: [0; 16],
                block: [0; 16],
                cursor: words[32] as usize,
            };
            rng.state.copy_from_slice(&words[0..16]);
            rng.block.copy_from_slice(&words[16..32]);
            rng
        }

        fn state_words(&self) -> Vec<u32> {
            let mut words = Vec::with_capacity(STATE_WORDS);
            words.extend_from_slice(&self.state);
            words.extend_from_slice(&self.block);
            words.push(self.cursor as u32);
            words
        }

        fn advance_block(&mut self) {
            self.block = chacha_block(&self.state);
            self.cursor = 0;
            // 64-bit block counter in words 12..14.
            let (lo, carry) = self.state[12].overflowing_add(1);
            self.state[12] = lo;
            if carry {
                self.state[13] = self.state[13].wrapping_add(1);
            }
        }

        fn next_u32(&mut self) -> u32 {
            if self.cursor >= 16 {
                self.advance_block();
            }
            let word = self.block[self.cursor];
            self.cursor += 1;
            word
        }
    }

    #[test]
    fn keystream_and_state_words_are_those_of_the_one_block_generator() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut oracle = OneBlockRng::seed_from_u64(11);
        // Before the first draw, then after every draw across several
        // refills: same word out, same 33 words exported.
        assert_eq!(rng.state_words(), oracle.state_words());
        for draw in 0..5 * LANES * BLOCK {
            assert_eq!(rng.next_u32(), oracle.next_u32(), "word {draw}");
            assert_eq!(rng.state_words(), oracle.state_words(), "after word {draw}");
        }
    }

    #[test]
    fn restoring_at_any_position_continues_and_re_exports_identically() {
        let mut oracle = OneBlockRng::seed_from_u64(12);
        for position in 0..3 * LANES * BLOCK {
            // `position` words in (0 = seeded, nothing drawn; a multiple
            // of 16 = block read to its end, next one not produced).
            let words = oracle.state_words();
            let mut restored = ChaCha8Rng::from_state_words(&words).expect("valid state");
            assert_eq!(restored.state_words(), words, "re-export at {position}");
            let mut expected = oracle.clone();
            for draw in 0..2 * LANES * BLOCK + 3 {
                assert_eq!(
                    restored.next_u32(),
                    expected.next_u32(),
                    "{position}+{draw}"
                );
                assert_eq!(restored.state_words(), expected.state_words());
            }
            oracle.next_u32();
        }
    }

    #[test]
    fn a_hand_made_block_is_read_out_before_the_stream_resumes() {
        // The exported block is data, not recomputed: a snapshot whose
        // block differs from what the counter implies still reads that
        // block first, as the one-block generator did.
        let mut words = ChaCha8Rng::seed_from_u64(13).state_words();
        for (i, word) in words[16..32].iter_mut().enumerate() {
            *word = 1000 + i as u32;
        }
        words[32] = 5;
        let mut restored = ChaCha8Rng::from_state_words(&words).expect("valid state");
        let mut oracle = OneBlockRng::from_state_words(&words);
        for _ in 0..100 {
            assert_eq!(restored.next_u32(), oracle.next_u32());
        }
    }

    #[test]
    fn the_block_counter_carries_into_its_high_word() {
        let mut words = ChaCha8Rng::seed_from_u64(14).state_words();
        words[12] = u32::MAX - 1;
        words[32] = 16;
        let mut restored = ChaCha8Rng::from_state_words(&words).expect("valid state");
        let mut oracle = OneBlockRng::from_state_words(&words);
        for _ in 0..6 * BLOCK {
            assert_eq!(restored.next_u32(), oracle.next_u32());
            assert_eq!(restored.state_words(), oracle.state_words());
        }
    }

    /// Seeded starts on both sides of a block and of a refill, and
    /// one restored mid-stream, whose buffered blocks start at block 2
    /// rather than at a multiple of [`LANES`].
    fn seek_starts() -> Vec<(String, ChaCha8Rng, OneBlockRng)> {
        let mut starts = Vec::new();
        for drawn in [0, 1, 7, 63, 64, 65] {
            let mut rng = ChaCha8Rng::seed_from_u64(17);
            let mut oracle = OneBlockRng::seed_from_u64(17);
            for _ in 0..drawn {
                assert_eq!(rng.next_u32(), oracle.next_u32());
            }
            starts.push((format!("after {drawn} words"), rng, oracle));
        }
        let mut oracle = OneBlockRng::seed_from_u64(17);
        for _ in 0..2 * BLOCK + 5 {
            oracle.next_u32();
        }
        let restored = ChaCha8Rng::from_state_words(&oracle.state_words()).expect("valid state");
        starts.push(("restored in block 2".to_owned(), restored, oracle));
        starts
    }

    fn assert_continues_like(what: &str, rng: &mut ChaCha8Rng, oracle: &mut OneBlockRng) {
        assert_eq!(rng.state_words(), oracle.state_words(), "{what}: state");
        for draw in 0..130 {
            assert_eq!(rng.next_u32(), oracle.next_u32(), "{what}: word {draw}");
        }
        assert_eq!(
            rng.state_words(),
            oracle.state_words(),
            "{what}: state after"
        );
    }

    #[test]
    fn a_seek_leaves_the_generator_where_drawing_and_discarding_would() {
        for (start, rng, oracle) in seek_starts() {
            let origin = rng.get_word_pos();
            let mut discarded = 0u64;
            let mut ahead = oracle.clone();
            for hop in [0u64, 1, 15, 16, 17, 63, 64, 65, 1000, 1 << 20] {
                while discarded < hop {
                    ahead.next_u32();
                    discarded += 1;
                }
                let mut sought = rng.clone();
                sought.set_word_pos(origin + u128::from(hop));
                assert_eq!(sought.get_word_pos(), origin + u128::from(hop));
                let what = format!("{start}, {hop} forward");
                assert_continues_like(&what, &mut sought, &mut ahead.clone());

                // ...and back from there to half the hop.
                let mut behind = oracle.clone();
                for _ in 0..hop / 2 {
                    behind.next_u32();
                }
                sought.set_word_pos(origin + u128::from(hop / 2));
                let what = format!("{start}, back to {} of {hop}", hop / 2);
                assert_continues_like(&what, &mut sought, &mut behind);
            }
        }
    }

    #[test]
    fn the_word_position_counts_what_each_draw_consumes() {
        let mut rng = ChaCha8Rng::seed_from_u64(18);
        assert_eq!(rng.get_word_pos(), 0);
        let mut expected = 0u128;
        for round in 0..3 * LANES * BLOCK {
            rng.next_u32();
            expected += 1;
            assert_eq!(rng.get_word_pos(), expected, "next_u32, round {round}");
            rng.next_u64();
            expected += 2;
            assert_eq!(rng.get_word_pos(), expected, "next_u64, round {round}");
        }
        for len in [0usize, 1, 7, 8, 9, 250, 256, 1021, 1024] {
            rng.fill_bytes(&mut vec![0u8; len]);
            expected += 2 * len.div_ceil(8) as u128;
            assert_eq!(rng.get_word_pos(), expected, "fill_bytes of {len}");
        }
    }

    #[test]
    fn a_seek_produces_only_the_blocks_it_lands_in() {
        let produced = || PRODUCED.with(std::cell::Cell::get);
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        let mut oracle = OneBlockRng::seed_from_u64(19);
        rng.next_u32();
        let before = produced();
        // Inside the buffered blocks, and to their very end: nothing.
        rng.set_word_pos(3 * BLOCK as u128 + 2);
        rng.set_word_pos((LANES * BLOCK) as u128);
        assert_eq!(produced(), before);
        // 2²⁰ words on: one refill, starting with the block the
        // position stands in — reading all of it needs no second one.
        rng.set_word_pos(1 << 20);
        assert_eq!(produced(), before + LANES as u64);
        for _ in 0..1 << 20 {
            oracle.next_u32();
        }
        for word in 0..LANES * BLOCK {
            assert_eq!(rng.next_u32(), oracle.next_u32(), "word {word}");
        }
        assert_eq!(produced(), before + LANES as u64);
    }

    #[test]
    fn portable_lanes_compute_what_the_target_lanes_do() {
        // The array fallback is what non-x86-64 targets run; here it
        // only runs in this test, against the lanes in use.
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        for _ in 0..200 {
            let a: [u32; 4] = std::array::from_fn(|_| rng.next_u32());
            let b: [u32; 4] = std::array::from_fn(|_| rng.next_u32());
            let (la, lb) = (Lanes::new(a), Lanes::new(b));
            let (pa, pb) = (portable_lanes::Lanes::new(a), portable_lanes::Lanes::new(b));
            assert_eq!(la.add(lb).words(), pa.add(pb).words());
            assert_eq!(
                la.xor_rotate::<16, 16>(lb).words(),
                pa.xor_rotate::<16, 16>(pb).words()
            );
            assert_eq!(
                la.xor_rotate::<12, 20>(lb).words(),
                pa.xor_rotate::<12, 20>(pb).words()
            );
            assert_eq!(
                la.xor_rotate::<8, 24>(lb).words(),
                pa.xor_rotate::<8, 24>(pb).words()
            );
            assert_eq!(
                la.xor_rotate::<7, 25>(lb).words(),
                pa.xor_rotate::<7, 25>(pb).words()
            );
        }
    }

    #[test]
    fn fill_bytes_is_next_u64_per_eight_bytes() {
        for len in [0, 1, 4, 7, 8, 9, 12, 64, 250, 256, 257, 1000, 1024] {
            for skip in [0, 1, 15, 16, 63, 64] {
                let mut bulk = ChaCha8Rng::seed_from_u64(15);
                let mut single = ChaCha8Rng::seed_from_u64(15);
                for _ in 0..skip {
                    bulk.next_u32();
                    single.next_u32();
                }
                let mut got = vec![0u8; len];
                bulk.fill_bytes(&mut got);
                let mut want = Vec::new();
                while want.len() < len {
                    want.extend_from_slice(&single.next_u64().to_le_bytes());
                }
                want.truncate(len);
                assert_eq!(got, want, "{len} bytes after {skip} words");
                assert_eq!(bulk.state_words(), single.state_words());
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(
            same < 4,
            "streams should be uncorrelated, {same} collisions"
        );
    }

    #[test]
    fn state_round_trip_resumes_the_stream_exactly() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        // Land mid-block so the cursor matters.
        for _ in 0..21 {
            rng.next_u32();
        }
        let words = rng.state_words();
        assert_eq!(words.len(), STATE_WORDS);
        let mut resumed = ChaCha8Rng::from_state_words(&words).expect("valid state");
        for _ in 0..100 {
            assert_eq!(rng.next_u64(), resumed.next_u64());
        }
    }

    #[test]
    fn corrupt_state_words_are_rejected() {
        let rng = ChaCha8Rng::seed_from_u64(1);
        let mut words = rng.state_words();
        assert!(ChaCha8Rng::from_state_words(&words[..32]).is_none());
        words[32] = 17; // cursor out of range
        assert!(ChaCha8Rng::from_state_words(&words).is_none());
    }

    #[test]
    fn stream_spans_blocks() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let first: Vec<u32> = (0..40).map(|_| rng.next_u32()).collect();
        let mut again = ChaCha8Rng::seed_from_u64(9);
        let second: Vec<u32> = (0..40).map(|_| again.next_u32()).collect();
        assert_eq!(first, second);
        // Crude uniformity sanity check on the mean bit count.
        let ones: u32 = first.iter().map(|w| w.count_ones()).sum();
        let mean = f64::from(ones) / 40.0;
        assert!((mean - 16.0).abs() < 3.0, "mean bits {mean}");
    }
}
