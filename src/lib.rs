//! # ChatPattern
//!
//! A Rust reproduction of **"ChatPattern: Layout Pattern Customization
//! via Natural Language"** (DAC 2024): an LLM-agent front-end driving a
//! conditional discrete-diffusion layout pattern generator with
//! free-size extension and explainable legalization.
//!
//! There is one generator, and it is not the paper's: the paper's
//! denoiser is a trained U-Net; this repository's is the fitted
//! mean-field MRF, [`diffusion::MrfDenoiser`]. The CPU U-Net and tensor
//! crate once carried beside it, reached by no binary, bench or test,
//! end at commit `a19dcb9` (`git show a19dcb9:crates/nn/src/lib.rs`).
//!
//! This crate re-exports the whole workspace. The public API is the
//! [`PatternService`] trait served by [`ChatPattern`]: every capability
//! — the agent chat path and the direct generate / extend / modify /
//! legalize / evaluate back-ends — is one typed, serializable
//! [`PatternRequest`], and every failure is the workspace-wide
//! [`Error`]. For parallel batches and serving, wrap the system in a
//! [`PatternEngine`] — a job-submission executor over worker threads
//! draining one bounded queue, a request-level result cache, and
//! in-flight request coalescing (see `docs/ENGINE.md`) — or run the
//! `chatpattern-serve` binary, which
//! speaks the JSON-lines wire protocol from `docs/WIRE_PROTOCOL.md`
//! over stdin/stdout or — with `--listen` — over NDJSON-on-TCP (the
//! [`net`] transport crate). `chatpattern-router` shards a whole
//! fleet of serve workers behind one address using the stable
//! [`core::routing`] hash and can rebalance live sessions between
//! them (see `docs/ROUTER.md`). Interactive refinement runs through
//! stateful
//! multi-turn sessions (`SessionOpen` / `SessionTurn` /
//! `SessionClose`, bounded by a TTL + LRU [`SessionStore`]; see
//! `docs/SESSIONS.md`): follow-up turns operate on the previous turn's
//! results. See the `examples/` directory for runnable scenarios.
//!
//! ```
//! use chatpattern::{ChatPattern, ChatParams, PatternRequest, PatternService, ResponsePayload};
//!
//! let system = ChatPattern::builder()
//!     .window(16)
//!     .training_patterns(8)
//!     .diffusion_steps(6)
//!     .build()?;
//! let response = system.execute(PatternRequest::Chat(ChatParams {
//!     request: "Generate 2 patterns, topology size 16*16, physical size 512nm x 512nm, \
//!               style Layer-10001."
//!         .into(),
//!     seed: Some(1),
//! }))?;
//! match response.payload {
//!     ResponsePayload::Chat(outcome) => assert_eq!(outcome.library.len(), 2),
//!     other => panic!("unexpected payload {other:?}"),
//! }
//! # Ok::<(), chatpattern::Error>(())
//! ```

pub use chatpattern_core as core;
/// Multi-tenant QoS: lanes, quotas, the weighted-fair queue and
/// per-tenant stats rows (see `docs/ENGINE.md`).
pub use chatpattern_core::qos;
pub use cp_agent as agent;
pub use cp_baselines as baselines;
pub use cp_dataset as dataset;
pub use cp_diffusion as diffusion;
pub use cp_drc as drc;
pub use cp_extend as extend;
pub use cp_geom as geom;
pub use cp_legalize as legalize;
pub use cp_metrics as metrics;
pub use cp_net as net;
pub use cp_squish as squish;

pub use chatpattern_core::{
    ChatOutcome, ChatParams, ChatPattern, ChatPatternBuilder, ChatSession, EngineConfig,
    EngineStats, Error, EvaluateParams, ExtendParams, GenerateParams, JobHandle, JobStatus,
    JsonDirPersist, LegalizeParams, MemoryPersist, ModifyParams, PatternEngine, PatternRequest,
    PatternResponse, PatternService, RequestEnvelope, ResponseEnvelope, ResponsePayload,
    SessionCloseParams, SessionConfig, SessionInfo, SessionOpenParams, SessionPersist,
    SessionRestoreParams, SessionSnapshot, SessionSnapshotParams, SessionStats, SessionStore,
    SessionTurnParams, Timing, TurnOutcome, WireError, WireOutcome, MAX_REQUEST_CELLS,
    SESSION_SNAPSHOT_FORMAT,
};
