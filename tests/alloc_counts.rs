//! Exact allocation counts of the sampler's hot calls, pinned.
//!
//! A counting global allocator over `System` counts, per thread, every
//! allocation and reallocation and the bytes each asked for. The pins
//! are exact on any host: they do not depend on how fast it is or on
//! what else runs, only on the code. A warmed direct-API call is
//! counted, so one-time costs (CPU feature detection, thread-locals)
//! stay out of the figures.
//!
//! A change that moves a pin says so in CHANGES.md, with the old and the
//! new count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use chatpattern::diffusion::{DiffusionModel, Mask, MrfDenoiser, NoiseSchedule};
use chatpattern::squish::{Region, Topology};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

struct Counting;

thread_local! {
    /// `(allocations, bytes)` asked for by this thread so far.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    // `try_with`: a thread's last frees run after its locals are gone.
    let _ = COUNTS.try_with(|counts| {
        let (allocations, total) = counts.get();
        counts.set((allocations + 1, total + bytes as u64));
    });
}

// SAFETY: every call is forwarded to `System` unchanged; counting
// touches only a const-initialised thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The `(allocations, bytes)` this thread asks for while `f` runs.
fn counted<T>(f: impl FnOnce() -> T) -> ((u64, u64), T) {
    let before = COUNTS.with(Cell::get);
    let out = f();
    let after = COUNTS.with(Cell::get);
    ((after.0 - before.0, after.1 - before.1), out)
}

/// The window the product runs: 128 × 128 cells.
const WINDOW: usize = 128;

/// A `steps`-step model at the product's window, fitted on a few
/// striped and blocky patterns.
fn model(steps: usize) -> DiffusionModel<MrfDenoiser> {
    let data: Vec<Topology> = (0..6)
        .map(|i| {
            Topology::from_fn(WINDOW, WINDOW, move |r, c| {
                (c / 4 + i) % 5 < 2 && (r / 16 + i) % 4 != 0
            })
        })
        .collect();
    DiffusionModel::new(
        NoiseSchedule::scaled_default(steps),
        MrfDenoiser::fit(&[(0, &data)], 1.0),
        WINDOW,
    )
}

/// `(allocations, bytes)` of the second of two `sample` calls.
fn warmed_generate(steps: usize) -> (u64, u64) {
    let model = model(steps);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let _ = model.sample(WINDOW, WINDOW, Some(0), &mut rng);
    let (counts, sample) = counted(|| model.sample(WINDOW, WINDOW, Some(0), &mut rng));
    assert_eq!(sample.shape(), (WINDOW, WINDOW));
    counts
}

#[test]
fn a_generate_allocates_what_is_pinned() {
    // (allocations, bytes) at K = 12 and at K = 24: the same count, so
    // a step allocates nothing (the bytes differ by the reduced grid
    // each call draws: the first call leaves the generator at another
    // word at each K). A call builds no schedule: the denoiser's step
    // tables are made with the model.
    let pins = [(12, (16, 36_948)), (24, (16, 37_188))];
    let got = pins.map(|(steps, _)| (steps, warmed_generate(steps)));
    assert_eq!(got, pins, "(steps, (allocations, bytes))");
}

#[test]
fn a_half_window_modify_allocates_what_is_pinned() {
    let model = model(24);
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let known = model.sample(WINDOW, WINDOW, Some(0), &mut rng);
    let half = WINDOW / 2;
    let mask = Mask::keep_outside(WINDOW, WINDOW, Region::new(0, half, WINDOW, WINDOW));
    let _ = model.modify(&known, &mask, Some(0), 1, &mut rng);
    let (counts, modified) = counted(|| model.modify(&known, &mask, Some(0), 1, &mut rng));
    assert_eq!(modified.shape(), known.shape());
    assert_eq!(counts, (29, 56_504), "(allocations, bytes)");
}
