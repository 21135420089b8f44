//! ChatPattern: the assembled system.
//!
//! This crate wires the paper's two halves together:
//!
//! * the **generative back-end** — a conditional discrete diffusion model
//!   ([`cp_diffusion`]) trained on synthetic layout datasets
//!   ([`cp_dataset`]), with free-size extension ([`cp_extend`]) and
//!   explainable legalization ([`cp_layout::legalize`]);
//! * the **LLM agent front-end** ([`cp_agent`]) — requirement
//!   auto-formatting, task planning, tool execution and mistake
//!   recovery.
//!
//! # The service API
//!
//! [`ChatPattern`] is the engine; the [`api`] module is the one way in:
//! a typed [`PatternRequest`] (Chat / Generate / Extend / Modify /
//! Legalize / Evaluate) served by the [`PatternService`] trait into a
//! [`PatternResponse`] with timing metadata. Every fallible path —
//! including [`ChatPatternBuilder::build`] — reports the workspace-wide
//! [`Error`].
//!
//! The direct methods ([`ChatPattern::generate`],
//! [`ChatPattern::extend`], [`ChatPattern::modify`],
//! [`ChatPattern::legalize`], [`ChatPattern::evaluate`],
//! [`ChatPattern::chat`]) remain available for in-process callers; they
//! are exactly what [`PatternService::execute`] dispatches to.
//!
//! # The engine and the wire
//!
//! For batch and server workloads, wrap any service in a
//! [`PatternEngine`]: a job-submission executor
//! ([`PatternEngine::submit`] → [`JobHandle`]) over worker threads
//! draining one bounded queue, with a shared result broker that
//! replays completed results from a request-level LRU cache and
//! **coalesces** identical in-flight requests onto one execution, all
//! reported in [`EngineStats`] counters (see `docs/ENGINE.md`). The
//! [`wire`] module defines the JSON-lines envelopes the
//! `chatpattern-serve` binary speaks over TCP.
//!
//! # Example
//!
//! ```
//! use chatpattern_core::ChatPattern;
//!
//! let system = ChatPattern::builder()
//!     .window(16)
//!     .training_patterns(8)
//!     .diffusion_steps(6)
//!     .seed(1)
//!     .build()?;
//! let report = system.chat(
//!     "Generate 2 patterns, topology size 16*16, physical size 512nm x 512nm, \
//!      style Layer-10001.",
//! )?;
//! assert_eq!(report.library.len(), 2);
//! # Ok::<(), chatpattern_core::Error>(())
//! ```

pub mod api;
mod backend;
mod broker;
mod builder;
mod cache;
pub mod engine;
pub mod error;
pub mod routing;
pub mod session;
mod snapshot;
pub mod wire;

pub use api::{
    ChatOutcome, ChatParams, EvaluateParams, ExtendParams, GenerateParams, LegalizeParams,
    ModifyParams, PatternRequest, PatternResponse, PatternService, ResponsePayload,
    SessionCloseParams, SessionInfo, SessionOpenParams, SessionRestoreParams,
    SessionSnapshotParams, SessionTurnParams, Timing, TurnOutcome,
};
pub use builder::ChatPatternBuilder;
/// The stages a reply's `timing.stages` are indexed by.
pub use cp_layout::stage::{Stage, STAGES};
/// The QoS vocabulary (lanes, quotas, fair queue, tenant stats),
/// re-exported so engine embedders need no direct `cp_qos` dependency.
pub use cp_qos as qos;
pub use engine::{ConnCounters, EngineConfig, EngineStats, JobHandle, PatternEngine};
pub use error::Error;
pub use session::{
    JsonDirPersist, MemoryPersist, SessionConfig, SessionPersist, SessionStats, SessionStore,
};
pub use snapshot::{
    ChatSession, SessionSnapshot, SESSION_SNAPSHOT_FORMAT, SESSION_SNAPSHOT_FORMAT_MIN,
};
pub use wire::{RequestEnvelope, ResponseEnvelope, WireError, WireOutcome};

use cp_agent::{
    AgentSession, ExpertPolicy, KnowledgeBase, SessionReport, ToolContext, ToolRegistry,
};
use cp_dataset::{Dataset, Style};
use cp_diffusion::{DiffusionModel, Mask, MrfDenoiser};
use cp_extend::ExtensionMethod;
use cp_layout::drc::DesignRules;
use cp_layout::legalize::Legalizer;
pub use cp_layout::squish::MAX_REQUEST_CELLS;
use cp_layout::squish::{fits_one_request, SquishPattern, Topology};
use cp_metrics::LibraryStats;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Refuses `count` topologies of `rows × cols` that are empty or
/// together exceed [`MAX_REQUEST_CELLS`].
fn check_cells(rows: usize, cols: usize, count: usize) -> Result<(), Error> {
    if rows == 0 || cols == 0 {
        return Err(Error::invalid_request(format!(
            "topology size {rows}x{cols} must be non-empty"
        )));
    }
    if !fits_one_request(rows, cols, count) {
        return Err(Error::invalid_request(format!(
            "{count} x topology size {rows}x{cols} exceeds the {MAX_REQUEST_CELLS} cells \
             one request may ask for"
        )));
    }
    Ok(())
}

/// The assembled ChatPattern system.
///
/// Obtain one through [`ChatPattern::builder`]; drive it through the
/// [`PatternService`] trait or the direct methods below. All entry
/// points return `Result<_, `[`Error`]`>`.
pub struct ChatPattern {
    model: Arc<DiffusionModel<MrfDenoiser>>,
    legalizer: Legalizer,
    rules: DesignRules,
    datasets: Vec<Dataset>,
    patch_nm: i64,
    seed: u64,
    sessions: SessionStore<ChatSession>,
}

impl std::fmt::Debug for ChatPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChatPattern")
            .field("window", &self.model.native_size())
            .field("patch_nm", &self.patch_nm)
            .field("datasets", &self.datasets.len())
            .finish_non_exhaustive()
    }
}

impl ChatPattern {
    /// Starts a builder.
    #[must_use]
    pub fn builder() -> ChatPatternBuilder {
        ChatPatternBuilder::default()
    }

    /// Native model window size.
    #[must_use]
    pub(crate) fn window(&self) -> usize {
        self.model.native_size()
    }

    /// Design rules in force.
    #[must_use]
    pub fn rules(&self) -> &DesignRules {
        &self.rules
    }

    /// Training datasets (the "real patterns" references).
    #[must_use]
    pub fn datasets(&self) -> &[Dataset] {
        &self.datasets
    }

    /// The trained diffusion model (back-end access for experiments).
    #[must_use]
    pub fn model(&self) -> &DiffusionModel<MrfDenoiser> {
        &self.model
    }

    /// Runs a full agent session on a natural-language request.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Requirement`] when the request cannot be parsed
    /// into requirement lists.
    pub fn chat(&self, request: &str) -> Result<SessionReport, Error> {
        self.chat_with_seed(request, self.seed)
    }

    /// [`ChatPattern::chat`] with an explicit session seed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Requirement`] when the request cannot be parsed
    /// into requirement lists.
    pub fn chat_with_seed(&self, request: &str, seed: u64) -> Result<SessionReport, Error> {
        Ok(self.new_agent_session(seed).run(request)?)
    }

    fn new_agent_session(&self, seed: u64) -> AgentSession<ExpertPolicy> {
        let ctx = ToolContext::new(
            Box::new(Arc::clone(&self.model)),
            self.legalizer.clone(),
            KnowledgeBase::new(),
            seed,
        );
        AgentSession::new(ExpertPolicy::default(), ToolRegistry::standard(), ctx)
    }

    /// Opens a stateful multi-turn chat session in the system's
    /// session store under the client-chosen `id`. The store is
    /// bounded (TTL + LRU eviction, see [`SessionStore`]); opening at
    /// capacity evicts the least-recently-used session.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRequest`] when `id` is empty or already
    /// names a live session.
    pub fn session_open(&self, id: &str, seed: Option<u64>) -> Result<SessionInfo, Error> {
        let seed = seed.unwrap_or(self.seed);
        self.sessions.open(id, || ChatSession {
            id: id.to_owned(),
            seed,
            inner: self.new_agent_session(seed),
        })?;
        Ok(SessionInfo {
            session: id.to_owned(),
            seed,
        })
    }

    /// Runs one user turn on the open session `id`. Turns on one
    /// session serialize; turns on distinct sessions run in parallel.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SessionNotFound`] when `id` is not live
    /// (never opened, closed, expired, or evicted) and
    /// [`Error::Requirement`] when the utterance is unusable.
    pub fn session_turn(&self, id: &str, utterance: &str) -> Result<TurnOutcome, Error> {
        self.sessions.turn(id, |session| session.turn(utterance))
    }

    /// Closes session `id`, returning the dialog's final outcome
    /// (full transcript, cumulative library, last summary).
    ///
    /// # Errors
    ///
    /// Returns [`Error::SessionNotFound`] when `id` is not live.
    pub fn session_close(&self, id: &str) -> Result<ChatOutcome, Error> {
        Ok(self.sessions.close(id)?.into_outcome())
    }

    /// Exports a live (or spilled) session as a serializable
    /// [`SessionSnapshot`] without disturbing it: the session stays
    /// open, and its follow-up turns are unaffected by the export.
    /// Import the snapshot into another system — or another
    /// `chatpattern-serve` process, via `PatternRequest::SessionRestore`
    /// — with [`ChatPattern::session_restore`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::SessionNotFound`] when `id` is not live.
    pub fn session_snapshot(&self, id: &str) -> Result<SessionSnapshot, Error> {
        self.sessions.inspect(id, |session| Ok(session.snapshot()))
    }

    /// Imports a [`SessionSnapshot`], making the session live under
    /// its embedded id with this system's back-end injected. The
    /// restored session's follow-up turns are byte-identical to the
    /// donor session's, provided both systems were built with an
    /// equivalent model configuration (same window, training set,
    /// diffusion steps and rules).
    ///
    /// # Errors
    ///
    /// Returns [`Error::SessionPersist`] for a corrupt or
    /// wrong-format snapshot and [`Error::InvalidRequest`] when the
    /// snapshot's id already names a live session here.
    pub fn session_restore(&self, snapshot: SessionSnapshot) -> Result<SessionInfo, Error> {
        let session = ChatSession::restore(
            snapshot,
            Box::new(Arc::clone(&self.model)),
            self.legalizer.clone(),
        )?;
        let info = SessionInfo {
            session: session.id().to_owned(),
            seed: session.seed(),
        };
        self.sessions.open(&info.session, move || session)?;
        Ok(info)
    }

    /// Session activity counters (open / evicted / spilled / restored
    /// / spilled-ahead / turns).
    #[must_use]
    pub fn session_stats(&self) -> SessionStats {
        self.sessions.stats()
    }

    /// Direct API: conditional generation of `count` topologies.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRequest`] when `rows` or `cols` is zero
    /// or the request asks for more than [`MAX_REQUEST_CELLS`] cells.
    pub fn generate(
        &self,
        style: Style,
        rows: usize,
        cols: usize,
        count: usize,
        seed: u64,
    ) -> Result<Vec<Topology>, Error> {
        check_cells(rows, cols, count)?;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Ok((0..count)
            .map(|_| self.model.sample(rows, cols, Some(style.id()), &mut rng))
            .collect())
    }

    /// Direct API: free-size extension of an existing topology.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRequest`] when the target is smaller than
    /// the seed topology, larger than [`MAX_REQUEST_CELLS`], (unless it
    /// equals the seed shape) smaller than the model window, or — for
    /// in-painting — when the seed is not exactly window-sized.
    pub fn extend(
        &self,
        seed_topology: &Topology,
        rows: usize,
        cols: usize,
        method: ExtensionMethod,
        style: Style,
        seed: u64,
    ) -> Result<Topology, Error> {
        let (seed_rows, seed_cols) = seed_topology.shape();
        if (rows, cols) != (seed_rows, seed_cols) {
            check_cells(rows, cols, 1)?;
            if rows < seed_rows || cols < seed_cols {
                return Err(Error::invalid_request(format!(
                    "extension target {rows}x{cols} is smaller than the seed \
                     {seed_rows}x{seed_cols}"
                )));
            }
            let window = self.window();
            if rows < window || cols < window {
                return Err(Error::invalid_request(format!(
                    "extension target {rows}x{cols} is below the model window {window}"
                )));
            }
            // In-painting tiles the canvas in window-sized steps and
            // places the seed as the first tile, so it requires an
            // exactly window-sized seed.
            if method == ExtensionMethod::InPainting && (seed_rows, seed_cols) != (window, window) {
                return Err(Error::invalid_request(format!(
                    "in-painting needs a window-sized ({window}x{window}) seed, \
                     got {seed_rows}x{seed_cols}"
                )));
            }
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Ok(cp_extend::extend(
            &*self.model,
            seed_topology,
            rows,
            cols,
            method,
            Some(style.id()),
            &mut rng,
        ))
    }

    /// Direct API: RePaint modification of a masked region.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRequest`] when the mask shape does not
    /// match the topology shape.
    pub fn modify(
        &self,
        known: &Topology,
        mask: &Mask,
        style: Style,
        seed: u64,
    ) -> Result<Topology, Error> {
        if mask.shape() != known.shape() {
            let (mr, mc) = mask.shape();
            let (kr, kc) = known.shape();
            return Err(Error::invalid_request(format!(
                "mask shape {mr}x{mc} does not match topology shape {kr}x{kc}"
            )));
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Ok(self
            .model
            .modify(known, mask, Some(style.id()), 1, &mut rng))
    }

    /// Direct API: legalization into a physical frame.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRequest`] for a non-positive frame and
    /// [`Error::Legalize`] with the explainable failure otherwise.
    pub fn legalize(
        &self,
        topology: &Topology,
        width_nm: i64,
        height_nm: i64,
        seed: u64,
    ) -> Result<SquishPattern, Error> {
        if width_nm <= 0 || height_nm <= 0 {
            return Err(Error::invalid_request(format!(
                "physical frame {width_nm}x{height_nm} nm must be positive"
            )));
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Ok(self
            .legalizer
            .legalize(topology, width_nm, height_nm, &mut rng)?)
    }

    /// Direct API: Table-1-style evaluation of a topology library.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRequest`] for a non-positive frame.
    pub fn evaluate<'a>(
        &self,
        topologies: impl Iterator<Item = &'a Topology>,
        frame_nm: i64,
        seed: u64,
    ) -> Result<LibraryStats, Error> {
        if frame_nm <= 0 {
            return Err(Error::invalid_request(format!(
                "evaluation frame {frame_nm} nm must be positive"
            )));
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Ok(LibraryStats::evaluate(
            topologies,
            frame_nm,
            &self.rules,
            &mut rng,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_layout::squish::Region;
    use std::time::Duration;

    fn small_system() -> ChatPattern {
        ChatPattern::builder()
            .window(16)
            .training_patterns(8)
            .diffusion_steps(6)
            .seed(3)
            .build()
            .expect("valid configuration")
    }

    #[test]
    fn builder_produces_working_system() {
        let system = small_system();
        assert_eq!(system.window(), 16);
        assert_eq!(system.patch_nm, 256);
        assert_eq!(system.datasets().len(), 2);
    }

    #[test]
    fn builder_rejects_bad_configurations() {
        let tiny = ChatPattern::builder().window(2).build();
        assert!(matches!(tiny, Err(Error::Config { .. })), "{tiny:?}");
        let no_steps = ChatPattern::builder().diffusion_steps(0).build();
        assert!(matches!(no_steps, Err(Error::Config { .. })));
        let no_training = ChatPattern::builder().training_patterns(0).build();
        assert!(matches!(no_training, Err(Error::Config { .. })));
        // A zero turn trigger is refused by name, not clamped to 1, and
        // before the session directory is touched.
        let every_zero_turns = ChatPattern::builder()
            .session_dir(std::env::temp_dir().join("cp-core-never-created"))
            .spill_ahead_turns(0)
            .build()
            .expect_err("a zero turn trigger is refused");
        assert!(
            matches!(every_zero_turns, Error::Config { .. })
                && every_zero_turns.to_string().contains("spill_ahead_turns"),
            "{every_zero_turns}"
        );
    }

    #[test]
    fn direct_generation_is_conditional_and_reproducible() {
        let system = small_system();
        let a = system
            .generate(Style::Layer10001, 16, 16, 2, 7)
            .expect("generates");
        let b = system
            .generate(Style::Layer10001, 16, 16, 2, 7)
            .expect("generates");
        assert_eq!(a, b);
        let dense: f64 = a.iter().map(Topology::density).sum::<f64>() / 2.0;
        let sparse: f64 = system
            .generate(Style::Layer10003, 16, 16, 2, 7)
            .expect("generates")
            .iter()
            .map(Topology::density)
            .sum::<f64>()
            / 2.0;
        assert!(dense > sparse, "dense {dense:.3} vs sparse {sparse:.3}");
    }

    #[test]
    fn chat_delivers_requested_library() {
        let system = small_system();
        let report = system
            .chat(
                "Generate 3 patterns, topology size 16*16, physical size 512nm x 512nm, \
                 style Layer-10003.",
            )
            .expect("parses and runs");
        assert_eq!(report.library.len(), 3, "summary: {}", report.summary);
        for p in &report.library {
            assert_eq!(p.physical_width(), 512);
        }
    }

    #[test]
    fn chat_rejects_unparseable_requests() {
        let system = small_system();
        let err = system.chat("   ").expect_err("empty request must fail");
        assert!(matches!(err, Error::Requirement(_)), "{err:?}");
    }

    #[test]
    fn extend_and_evaluate_round_trip() {
        let system = small_system();
        let seed = system
            .generate(Style::Layer10003, 16, 16, 1, 5)
            .expect("generates")
            .remove(0);
        let big = system
            .extend(
                &seed,
                32,
                32,
                ExtensionMethod::OutPainting,
                Style::Layer10003,
                5,
            )
            .expect("extends");
        assert_eq!(big.shape(), (32, 32));
        let library = [big];
        let stats = system.evaluate(library.iter(), 512, 5).expect("evaluates");
        assert_eq!(stats.total, 1);
    }

    #[test]
    fn extend_rejects_shrinking_targets() {
        let system = small_system();
        let seed = system
            .generate(Style::Layer10001, 16, 16, 1, 5)
            .expect("generates")
            .remove(0);
        let err = system
            .extend(
                &seed,
                8,
                8,
                ExtensionMethod::OutPainting,
                Style::Layer10001,
                5,
            )
            .expect_err("shrinking must fail");
        assert!(matches!(err, Error::InvalidRequest { .. }));
    }

    #[test]
    fn the_cell_cap_counts_every_topology_and_does_not_wrap() {
        for (rows, cols, count) in [(1024, 1024, 1), (2048, 2048, 1), (16, 16, 16384), (5, 5, 0)] {
            assert!(
                check_cells(rows, cols, count).is_ok(),
                "{rows}x{cols} x{count}"
            );
        }
        let half = usize::MAX / 2 + 1;
        for (rows, cols, count) in [
            (0, 16, 1),
            (2049, 2048, 1),
            (2048, 2048, 2),
            (3_000_000, 3_000_000, 1),
            (half, half, 1),
            (half, 1, 2),
            (16, 16, usize::MAX),
        ] {
            let err = check_cells(rows, cols, count).expect_err("refused");
            assert!(matches!(err, Error::InvalidRequest { .. }), "{err:?}");
        }
    }

    #[test]
    fn extend_rejects_non_window_seed_for_in_painting() {
        let system = small_system();
        let small_seed = Topology::filled(8, 8, true);
        let err = system
            .extend(
                &small_seed,
                32,
                32,
                ExtensionMethod::InPainting,
                Style::Layer10001,
                5,
            )
            .expect_err("8x8 seed under a 16-cell window must be rejected");
        assert!(matches!(err, Error::InvalidRequest { .. }), "{err:?}");
        // Out-painting accepts sub-window seeds.
        let ok = system
            .extend(
                &small_seed,
                32,
                32,
                ExtensionMethod::OutPainting,
                Style::Layer10001,
                5,
            )
            .expect("out-painting grows sub-window seeds");
        assert_eq!(ok.shape(), (32, 32));
    }

    #[test]
    fn legalize_direct_api_is_explainable() {
        let system = small_system();
        let topology = system
            .generate(Style::Layer10003, 16, 16, 1, 9)
            .expect("generates")
            .remove(0);
        // Either outcome is valid; the call must be explainable on failure.
        if let Err(Error::Legalize(failure)) = system.legalize(&topology, 256, 256, 1) {
            assert!(!failure.log.is_empty());
        }
    }

    #[test]
    fn legalize_rejects_empty_frames() {
        let system = small_system();
        let topology = Topology::filled(4, 4, true);
        let err = system
            .legalize(&topology, 0, 100, 1)
            .expect_err("zero frame must fail");
        assert!(matches!(err, Error::InvalidRequest { .. }));
    }

    #[test]
    fn modify_respects_mask_through_facade() {
        let system = small_system();
        let known = system
            .generate(Style::Layer10001, 16, 16, 1, 11)
            .expect("generates")
            .remove(0);
        let mask = Mask::keep_outside(16, 16, Region::new(4, 4, 12, 12));
        let out = system
            .modify(&known, &mask, Style::Layer10001, 11)
            .expect("modifies");
        for r in 0..16 {
            for c in 0..16 {
                if mask.keeps(r, c) {
                    assert_eq!(out.get(r, c), known.get(r, c));
                }
            }
        }
    }

    #[test]
    fn modify_rejects_mismatched_mask() {
        let system = small_system();
        let known = Topology::filled(16, 16, false);
        let mask = Mask::keep_all(8, 8);
        let err = system
            .modify(&known, &mask, Style::Layer10001, 1)
            .expect_err("shape mismatch must fail");
        assert!(matches!(err, Error::InvalidRequest { .. }));
    }

    #[test]
    fn session_lifecycle_round_trips() {
        let system = small_system();
        let info = system.session_open("s1", Some(9)).expect("opens");
        assert_eq!(info.seed, 9);
        let t1 = system
            .session_turn(
                "s1",
                "Generate 2 patterns, topology size 16*16, physical size 512nm x 512nm, \
                 style Layer-10001.",
            )
            .expect("turn 1 runs");
        assert_eq!(t1.turn, 1);
        assert_eq!(t1.library.len(), 2, "summary: {}", t1.summary);
        // A follow-up with only a count inherits size/style/frame and
        // grows the same library.
        let t2 = system
            .session_turn("s1", "1 more pattern.")
            .expect("turn 2 runs");
        assert_eq!(t2.turn, 2);
        assert_eq!(t2.library.len(), 3, "summary: {}", t2.summary);
        assert_eq!(t2.library[..2], t1.library[..], "earlier patterns kept");
        let outcome = system.session_close("s1").expect("closes");
        assert_eq!(outcome.library.len(), 3);
        assert_eq!(outcome.tool_calls, t1.tool_calls + t2.tool_calls);
        let err = system
            .session_turn("s1", "anything")
            .expect_err("closed sessions are gone");
        assert!(matches!(err, Error::SessionNotFound { .. }), "{err:?}");
        let stats = system.session_stats();
        assert_eq!((stats.open, stats.evicted, stats.turns), (0, 0, 2));
    }

    #[test]
    fn first_session_turn_matches_one_shot_chat() {
        let request = "Generate 2 patterns, topology size 16*16, physical size 512nm x 512nm, \
                       style Layer-10003.";
        let system = small_system();
        let chat = system.chat_with_seed(request, 11).expect("chats");
        system.session_open("s", Some(11)).expect("opens");
        let turn = system.session_turn("s", request).expect("turn runs");
        assert_eq!(turn.library, chat.library, "same seed, same first turn");
        assert_eq!(turn.summary, chat.summary);
        let _ = system.session_close("s").expect("closes");
    }

    #[test]
    fn chat_refuses_a_topology_larger_than_one_request_before_any_tool_runs() {
        let err = small_system()
            .chat("Generate 2 patterns, topology size 4096*4096, style Layer-10001.")
            .expect_err("16M cells is more than one request may ask for");
        assert!(matches!(err, Error::Requirement(_)), "{err:?}");
        assert!(
            err.to_string()
                .contains("topology size 4096x4096 exceeds the 4194304 cells"),
            "{err}"
        );
    }

    #[test]
    fn a_refused_follow_up_leaves_the_session_as_it_was() {
        let first = "Generate 2 patterns, topology size 16*16, physical size 512nm x 512nm, \
                     style Layer-10003.";
        let next = "1 more pattern, now denser.";
        let text = |snapshot: SessionSnapshot| serde_json::to_string(&snapshot).expect("text");
        let system = small_system();
        for id in ["refused", "clean"] {
            system.session_open(id, Some(5)).expect("opens");
            system.session_turn(id, first).expect("first turn runs");
        }
        let before = text(system.session_snapshot("refused").expect("snapshot"));
        for refused in ["0 more patterns", "   ", "Triple it, at 2048*4096."] {
            let err = system
                .session_turn("refused", refused)
                .expect_err("refused on a follow-up as on a first turn");
            assert!(matches!(err, Error::Requirement(_)), "{refused}: {err:?}");
        }
        let after = system.session_snapshot("refused").expect("snapshot");
        assert_eq!(after.agent.turns, 1, "a refused turn is not a turn");
        assert_eq!(text(after), before, "a refused turn changes nothing");
        let resumed = system.session_turn("refused", next).expect("turn runs");
        let clean = system.session_turn("clean", next).expect("turn runs");
        assert_eq!(resumed.turn, 2);
        assert_eq!(
            (resumed.turn, resumed.summary, resumed.tool_calls),
            (clean.turn, clean.summary, clean.tool_calls)
        );
        assert_eq!(
            (resumed.library, resumed.transcript),
            (clean.library, clean.transcript),
            "the next turn is the one a session that never saw the refusal runs"
        );
    }

    #[test]
    fn session_capacity_evicts_lru_with_typed_error() {
        let system = ChatPattern::builder()
            .window(16)
            .training_patterns(8)
            .diffusion_steps(6)
            .max_sessions(1)
            .build()
            .expect("valid configuration");
        system.session_open("old", Some(1)).expect("opens");
        system
            .session_open("new", Some(2))
            .expect("opens, evicting old");
        let err = system
            .session_turn("old", "Generate 1 pattern.")
            .expect_err("evicted session is gone");
        assert!(matches!(err, Error::SessionNotFound { .. }), "{err:?}");
        let stats = system.session_stats();
        assert_eq!((stats.open, stats.evicted), (1, 1));
    }

    #[test]
    fn session_dir_keeps_over_capacity_sessions_alive() {
        let dir = std::env::temp_dir().join(format!(
            "cp-core-session-dir-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .as_nanos()
        ));
        let system = ChatPattern::builder()
            .window(16)
            .training_patterns(8)
            .diffusion_steps(6)
            .max_sessions(1)
            .session_dir(&dir)
            .build()
            .expect("valid configuration");
        system.session_open("old", Some(1)).expect("opens");
        system
            .session_open("new", Some(2))
            .expect("opens, spilling old");
        // The evicted id still serves turns: it rehydrates from the
        // spill (and spills "new" to make room).
        let turn = system
            .session_turn(
                "old",
                "Generate 1 pattern, topology size 16*16, physical size 512nm x 512nm, \
                 style Layer-10001.",
            )
            .expect("spilled session rehydrates");
        assert_eq!(turn.library.len(), 1, "summary: {}", turn.summary);
        let turn = system
            .session_turn(
                "new",
                "Generate 1 pattern, topology size 16*16, physical size 512nm x 512nm, \
                 style Layer-10003.",
            )
            .expect("the other session rehydrates too");
        assert_eq!(turn.turn, 1);
        let stats = system.session_stats();
        assert_eq!(stats.evicted, 0, "nothing destroyed");
        assert_eq!(stats.spilled, 3);
        assert_eq!(stats.restored, 2);
        // Close both; closed ids stay closed.
        let _ = system.session_close("old").expect("closes");
        let _ = system.session_close("new").expect("closes");
        assert!(matches!(
            system.session_turn("old", "more"),
            Err(Error::SessionNotFound { .. })
        ));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// A session id too long to name a spill file wedged a
    /// `--session-dir` store: the spill failed with `ENAMETOOLONG`, so
    /// the session neither expired nor made room, and once it was the
    /// least recently used every open at capacity failed with
    /// `SessionPersist`. Such an id is refused at open and at restore.
    #[test]
    fn an_id_too_long_to_spill_is_refused_and_the_store_keeps_turning_over() {
        let dir = std::env::temp_dir().join(format!(
            "cp-core-long-id-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .as_nanos()
        ));
        let system = ChatPattern::builder()
            .window(16)
            .training_patterns(8)
            .diffusion_steps(6)
            .max_sessions(1)
            .session_ttl(Duration::from_secs(1))
            .session_dir(&dir)
            .build()
            .expect("valid configuration");
        let long = "x".repeat(300);
        let err = system
            .session_open(&long, Some(1))
            .expect_err("a 300-byte id is refused");
        assert!(matches!(err, Error::InvalidRequest { .. }), "{err:?}");
        system.session_open("a", Some(1)).expect("opens");
        let mut snapshot = system.session_snapshot("a").expect("snapshots");
        snapshot.session = long;
        let err = system
            .session_restore(snapshot)
            .expect_err("a 300-byte id is refused on restore too");
        assert!(matches!(err, Error::InvalidRequest { .. }), "{err:?}");
        system
            .session_open("b", Some(2))
            .expect("opens, spilling a");
        std::thread::sleep(Duration::from_millis(1100));
        system.session_open("c", Some(3)).expect("b expired");
        // "a" spilled to make room for "b", "b" on its expiry.
        let stats = system.session_stats();
        assert_eq!((stats.open, stats.spilled), (1, 2), "{stats:?}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn session_snapshot_exports_without_disturbing_the_session() {
        let system = small_system();
        system.session_open("s", Some(4)).expect("opens");
        let t1 = system
            .session_turn(
                "s",
                "Generate 1 pattern, topology size 16*16, physical size 512nm x 512nm, \
                 style Layer-10001.",
            )
            .expect("turn runs");
        let snapshot = system.session_snapshot("s").expect("exports");
        assert_eq!(snapshot.format, SESSION_SNAPSHOT_FORMAT);
        assert_eq!(snapshot.session, "s");
        assert_eq!(snapshot.seed, 4);
        assert_eq!(snapshot.agent.turns, 1);
        // The export did not count as a turn or close the session.
        assert_eq!(system.session_stats().turns, 1);
        let t2 = system.session_turn("s", "1 more pattern.").expect("runs");
        assert_eq!(t2.turn, 2);
        assert_eq!(t2.library[..1], t1.library[..]);
        // Restoring over the live id is rejected.
        let err = system
            .session_restore(system.session_snapshot("s").expect("exports"))
            .expect_err("id is live");
        assert!(matches!(err, Error::InvalidRequest { .. }), "{err:?}");
        // A wrong-format snapshot is a typed persist error.
        let mut bad = system.session_snapshot("s").expect("exports");
        bad.format = 999;
        let err = system.session_restore(bad).expect_err("unknown format");
        assert!(matches!(err, Error::SessionPersist { .. }), "{err:?}");
    }

    #[test]
    fn session_restore_resumes_a_closed_donor_session() {
        let system = small_system();
        system.session_open("donor", Some(7)).expect("opens");
        let t1 = system
            .session_turn(
                "donor",
                "Generate 2 patterns, topology size 16*16, physical size 512nm x 512nm, \
                 style Layer-10003.",
            )
            .expect("turn runs");
        let snapshot = system.session_snapshot("donor").expect("exports");
        let _ = system.session_close("donor").expect("closes");
        // The snapshot survives JSON (the handoff wire format).
        let text = serde_json::to_string(&snapshot).expect("serializes");
        let snapshot: SessionSnapshot = serde_json::from_str(&text).expect("parses");
        let info = system.session_restore(snapshot).expect("restores");
        assert_eq!(info.session, "donor");
        assert_eq!(info.seed, 7);
        let t2 = system
            .session_turn("donor", "1 more pattern.")
            .expect("restored session continues");
        assert_eq!(t2.turn, 2, "turn numbering continues from the snapshot");
        assert_eq!(t2.library.len(), 3);
        assert_eq!(t2.library[..2], t1.library[..]);
    }

    #[test]
    fn format_one_snapshots_restore_unchanged() {
        let system = small_system();
        system.session_open("v1", Some(9)).expect("opens");
        let t1 = system
            .session_turn(
                "v1",
                "Generate 1 pattern, topology size 16*16, physical size 512nm x 512nm, \
                 style Layer-10001.",
            )
            .expect("turn runs");
        let snapshot = system.session_snapshot("v1").expect("exports");
        let _ = system.session_close("v1").expect("closes");
        // Rewrite the JSON exactly as a format-1 producer wrote it:
        // format tag 1 and every topology spelled as `bits`.
        fn spell_as_bits(value: &mut serde_json::Value) {
            use serde_json::Value;
            match value {
                Value::Object(map) if map.contains_key("packed") => {
                    let topology: Topology = serde_json::from_value(value).expect("a topology");
                    *value = serde_json::to_value(&topology);
                }
                Value::Object(map) => map.values_mut().for_each(spell_as_bits),
                Value::Array(items) => items.iter_mut().for_each(spell_as_bits),
                _ => {}
            }
        }
        let mut value = serde_json::to_value(&snapshot);
        spell_as_bits(&mut value);
        let serde_json::Value::Object(object) = &mut value else {
            panic!("snapshot is an object");
        };
        object.insert("format".to_owned(), serde_json::to_value(&1u32));
        let text = serde_json::to_string(&value).expect("serializes");
        assert!(text.contains(r#""bits":["#) && !text.contains("packed"));
        let legacy: SessionSnapshot = serde_json::from_str(&text).expect("format 1 parses");
        assert_eq!(legacy.format, 1);
        assert_eq!(legacy.agent, snapshot.agent, "payload untouched");
        let info = system.session_restore(legacy).expect("format 1 restores");
        assert_eq!(info.seed, 9);
        let t2 = system
            .session_turn("v1", "1 more pattern.")
            .expect("restored session continues");
        assert_eq!(t2.turn, 2);
        assert_eq!(t2.library[..1], t1.library[..]);
    }

    #[test]
    fn builder_rejects_zero_session_capacity() {
        let err = ChatPattern::builder().max_sessions(0).validate();
        assert!(matches!(err, Err(Error::Config { .. })), "{err:?}");
    }

    #[test]
    fn builder_rejects_a_zero_session_ttl() {
        let err = ChatPattern::builder()
            .window(16)
            .training_patterns(8)
            .session_ttl(Duration::ZERO)
            .build()
            .expect_err("a session that expires as it opens takes no turn");
        assert!(
            matches!(&err, Error::Config { message } if message.contains("ttl")),
            "{err:?}"
        );
    }
}
