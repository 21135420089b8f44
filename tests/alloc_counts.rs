//! Exact allocation counts of the sampler's hot calls and of the wire
//! path a served line takes, and the model calls of a free-size
//! extension, pinned.
//!
//! A counting global allocator over `System` counts, per thread, every
//! allocation and reallocation and the bytes each asked for. The pins
//! are exact on any host: they do not depend on how fast it is or on
//! what else runs, only on the code. A warmed call is counted, so
//! one-time costs (CPU feature detection, thread-locals, a map's first
//! row) stay out of the figures.
//!
//! A change that moves a pin says so in CHANGES.md, with the old and the
//! new count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use chatpattern::core::wire::decode_request_line;
use chatpattern::dataset::Style;
use chatpattern::diffusion::{DiffusionModel, Mask, MrfDenoiser, NoiseSchedule, PatternSampler};
use chatpattern::extend::{extend, ExtensionMethod};
use chatpattern::net::{ConnectionHandler, EventLoopConfig, EventLoopServer, LineSink};
use chatpattern::squish::{Region, Topology};
use chatpattern::{
    ChatPattern, EngineConfig, GenerateParams, LegalizeParams, PatternEngine, PatternRequest,
    PatternService, RequestEnvelope, ResponseEnvelope,
};
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

/// A cache-hit `Generate` line (16 x 16), and a `Stats` line, served:
/// the decoded envelope, the request key (the request moved behind an
/// `Arc`; it was (19, 3 271) while a key was the request's text), the
/// payload's copy, the callback's box and the reply's text.
const HIT_PIN: (u64, u64) = (14, 3_031);
const STATS_PIN: (u64, u64) = (17, 3_184);
/// A 128 x 128 `Legalize` line that misses the cache, decoded and
/// submitted: the decoded envelope, the request key (the request moved
/// behind an `Arc`; it was (26, 164 599) while a key was the request's
/// text, written out and copied), the task and the handle; the
/// execution runs on a worker.
const MISS_PIN: (u64, u64) = (20, 33_206);
/// A fixed-size `Generate` (one 16 x 16 topology) executed by the
/// service on the calling thread.
const GENERATE_PIN: (u64, u64) = (17, 19_308);
/// A 33 673-byte reply handed to an idle connection whose peer reads:
/// written to the socket by the sending thread, so nothing (it was
/// (2, 33 706) while the loop wrote every reply: a framed copy and the
/// loop's dirty list).
const SEND_PIN: (u64, u64) = (0, 0);

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

/// `(allocations, bytes)` of one line served by `engine` as the wire
/// handler serves it — decode, submit, the result's callback and the
/// reply's text — and the reply. Counted on this thread, which is where
/// a cache hit and a `Stats` are answered.
fn served(engine: &PatternEngine<ChatPattern>, line: &str) -> ((u64, u64), String) {
    let reply = Arc::new(Mutex::new(String::new()));
    let written = Arc::clone(&reply);
    let (counts, ()) = counted(|| {
        let envelope = decode_request_line(line).expect("a valid line");
        let id = envelope.id;
        let handle = engine
            .submit_as(envelope.tenant.as_deref(), envelope.request)
            .expect("admitted");
        handle.on_done(move |result| {
            let envelope = match result {
                Ok(response) => ResponseEnvelope::ok(id, response),
                Err(error) => ResponseEnvelope::error(id, &error),
            };
            *written.lock().expect("reply lock") = envelope.to_line();
        });
    });
    let reply = std::mem::take(&mut *reply.lock().expect("reply lock"));
    (counts, reply)
}

fn small_engine() -> PatternEngine<ChatPattern> {
    let system = ChatPattern::builder()
        .window(16)
        .training_patterns(8)
        .diffusion_steps(6)
        .seed(3)
        .build()
        .expect("valid configuration");
    PatternEngine::with_config(system, EngineConfig::default()).expect("engine starts")
}

#[test]
fn a_cache_hit_and_a_stats_line_allocate_what_is_pinned() {
    let engine = small_engine();
    let generate = r#"{"id":"g","request":{"Generate":{"cols":16,"count":1,"rows":16,"seed":9,"style":"Layer10003"}}}"#;
    let stats = r#"{"id":"s","request":"Stats"}"#;
    // The first Generate runs on a worker; wait for it to be cached.
    let request = decode_request_line(generate).expect("a valid line").request;
    engine
        .submit(request)
        .expect("admitted")
        .wait()
        .expect("runs");
    // Warm both paths once, then count the second of each.
    for line in [generate, stats] {
        let (_, reply) = served(&engine, line);
        assert!(reply.contains(r#""Ok""#), "{reply:.200}");
    }
    let (hit, reply) = served(&engine, generate);
    assert!(reply.contains(r#""Ok""#), "{reply:.200}");
    let (stats, reply) = served(&engine, stats);
    assert!(reply.contains(r#""Stats""#), "{reply:.200}");
    assert_eq!(
        (hit, stats),
        (HIT_PIN, STATS_PIN),
        "((allocations, bytes) of a cache hit, of a Stats)"
    );
}

/// `(allocations, bytes)` of `line` decoded and submitted to `engine`,
/// counted on this thread, and its handle.
fn submitted(
    engine: &PatternEngine<ChatPattern>,
    line: &str,
) -> ((u64, u64), chatpattern::JobHandle) {
    counted(|| {
        let envelope = decode_request_line(line).expect("a valid line");
        engine
            .submit_as(envelope.tenant.as_deref(), envelope.request)
            .expect("admitted")
    })
}

/// A `Legalize` line of a `WINDOW` x `WINDOW` topology, as the product
/// writes it (cells as `bits`).
fn legalize_line(seed: u64) -> String {
    let topology = Topology::from_fn(WINDOW, WINDOW, |r, c| (r / 8 + c / 4) % 3 == 0);
    let envelope = RequestEnvelope {
        id: serde_json::to_value(&"l"),
        tenant: None,
        request: PatternRequest::Legalize(LegalizeParams {
            topology,
            width_nm: 16_384,
            height_nm: 16_384,
            seed,
        }),
    };
    serde_json::to_string(&envelope).expect("serializes")
}

#[test]
fn a_keyed_miss_allocates_what_is_pinned_on_the_submitting_thread() {
    let engine = small_engine();
    // Each seed is another key, so every line misses; the first warms
    // the queue, the gate's tenant row and the broker's map.
    let (first, second) = (legalize_line(1), legalize_line(2));
    assert_eq!(first.len(), second.len());
    let (_, warm) = submitted(&engine, &first);
    let _ = warm.wait();
    let (miss, handle) = submitted(&engine, &second);
    let _ = handle.wait();
    assert_eq!(
        (second.len(), miss),
        (32_905, MISS_PIN),
        "(line bytes, (allocations, bytes) of a keyed miss)"
    );
}

#[test]
fn a_fixed_size_generate_allocates_what_is_pinned() {
    let system = ChatPattern::builder()
        .window(16)
        .training_patterns(8)
        .diffusion_steps(6)
        .seed(3)
        .build()
        .expect("valid configuration");
    let generate = || {
        system.execute(PatternRequest::Generate(GenerateParams {
            style: Style::Layer10003,
            rows: 16,
            cols: 16,
            count: 1,
            seed: 9,
        }))
    };
    generate().expect("generates");
    let (counts, response) = counted(generate);
    response.expect("generates");
    assert_eq!(counts, GENERATE_PIN, "(allocations, bytes)");
}

/// A sampler that passes every call on to a `steps`-step model and
/// counts the calls (windows) by kind.
struct CountingSampler<'a, S> {
    inner: &'a S,
    steps: u64,
    generate: AtomicU64,
    modify: AtomicU64,
}

impl<S: PatternSampler> CountingSampler<'_, S> {
    /// `(generate calls, modify calls, reverse steps)` so far: every
    /// call runs all of the model's steps once (`modify` resamples one
    /// round).
    fn counts(&self) -> (u64, u64, u64) {
        let (generate, modify) = (
            self.generate.load(Ordering::Relaxed),
            self.modify.load(Ordering::Relaxed),
        );
        (generate, modify, (generate + modify) * self.steps)
    }
}

impl<S: PatternSampler> PatternSampler for CountingSampler<'_, S> {
    fn window(&self) -> usize {
        self.inner.window()
    }

    fn generate(
        &self,
        rows: usize,
        cols: usize,
        condition: Option<u32>,
        rng: &mut ChaCha8Rng,
    ) -> Topology {
        self.generate.fetch_add(1, Ordering::Relaxed);
        self.inner.generate(rows, cols, condition, rng)
    }

    fn modify(
        &self,
        known: &Topology,
        mask: &Mask,
        condition: Option<u32>,
        rng: &mut ChaCha8Rng,
    ) -> Topology {
        self.modify.fetch_add(1, Ordering::Relaxed);
        self.inner.modify(known, mask, condition, rng)
    }
}

#[test]
fn a_four_times_extend_makes_the_model_calls_pinned() {
    // The product's window and step count; a 4x extension's window
    // count does not depend on the window (`cp_extend::cost`).
    const STEPS: usize = 24;
    let model = model(STEPS);
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let seed = model.sample(WINDOW, WINDOW, Some(0), &mut rng);
    let side = 4 * WINDOW;
    let got = [ExtensionMethod::OutPainting, ExtensionMethod::InPainting].map(|method| {
        let sampler = CountingSampler {
            inner: &model,
            steps: STEPS as u64,
            generate: AtomicU64::new(0),
            modify: AtomicU64::new(0),
        };
        let grown = extend(&sampler, &seed, side, side, method, Some(0), &mut rng);
        assert_eq!(grown.shape(), (side, side));
        (method, sampler.counts())
    });
    assert_eq!(
        got,
        [
            (ExtensionMethod::OutPainting, (0, 48, 1_152)),
            (ExtensionMethod::InPainting, (15, 33, 1_152)),
        ],
        "(method, (generate calls, modify calls, reverse steps))"
    );
}

/// Hands each line's sink to the test, which answers it.
struct HandOut(Sender<Arc<LineSink>>);

impl ConnectionHandler for HandOut {
    fn on_line(&self, _line: &str, sink: &Arc<LineSink>) {
        self.0.send(Arc::clone(sink)).expect("the test listens");
    }
}

#[test]
fn a_reply_sent_to_a_reading_connection_allocates_what_is_pinned() {
    const PATIENCE: Duration = Duration::from_secs(60);
    let (handed, sinks) = channel();
    let handle = EventLoopServer::bind("127.0.0.1:0", EventLoopConfig::default())
        .expect("binds")
        .spawn(Arc::new(HandOut(handed)))
        .expect("loop starts");
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connects");
    let (heard, replies) = channel();
    let reader = BufReader::new(stream.try_clone().expect("clones"));
    let reading = std::thread::spawn(move || {
        for line in reader.lines() {
            let _ = heard.send(line.expect("reads"));
        }
    });
    // A reply the size of a 128 x 128 Generate's.
    let reply = format!("{{\"id\":1,\"pad\":\"{}\"}}", "x".repeat(33_673 - 17));
    assert_eq!(reply.len(), 33_673);
    stream.write_all(b"warm\ncounted\n").expect("writes");
    let warm = sinks.recv_timeout(PATIENCE).expect("a line is handed out");
    let sink = sinks.recv_timeout(PATIENCE).expect("a line is handed out");
    assert!(warm.send(&reply));
    assert_eq!(
        replies.recv_timeout(PATIENCE).expect("the reply arrives"),
        reply
    );
    let (counts, sent) = counted(|| sink.send(&reply));
    assert!(sent);
    assert_eq!(
        replies.recv_timeout(PATIENCE).expect("the reply arrives"),
        reply
    );
    assert_eq!(
        counts, SEND_PIN,
        "(allocations, bytes) on the sending thread"
    );
    drop((warm, sink));
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-closes");
    reading.join().expect("the reader ends at EOF");
    handle.shutdown();
}
