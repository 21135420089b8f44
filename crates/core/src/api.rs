//! The unified request/response service API.
//!
//! Everything the system can do is expressible as one [`PatternRequest`]
//! value — a typed, serializable intermediate representation between the
//! language front-end and the layout engine (the same role the typed IR
//! plays in LayoutPrompter and Parse-Then-Place). A [`PatternService`]
//! turns requests into [`PatternResponse`]s carrying a per-variant
//! payload plus timing metadata; [`ChatPattern`] is the canonical
//! implementation.
//!
//! Requests and responses round-trip through JSON (`serde_json`), so a
//! network front-end can speak this API without linking the engine.
//!
//! # Example
//!
//! ```
//! use chatpattern_core::{ChatPattern, GenerateParams, PatternRequest, PatternService, ResponsePayload};
//! use cp_dataset::Style;
//!
//! let system = ChatPattern::builder()
//!     .window(16)
//!     .training_patterns(8)
//!     .diffusion_steps(6)
//!     .build()?;
//! let response = system.execute(PatternRequest::Generate(GenerateParams {
//!     style: Style::Layer10003,
//!     rows: 16,
//!     cols: 16,
//!     count: 2,
//!     seed: 7,
//! }))?;
//! match response.payload {
//!     ResponsePayload::Generate(topologies) => assert_eq!(topologies.len(), 2),
//!     other => panic!("unexpected payload {other:?}"),
//! }
//! # Ok::<(), chatpattern_core::Error>(())
//! ```

use crate::session::SessionStats;
use crate::{ChatPattern, EngineStats, Error};
use cp_dataset::Style;
use cp_diffusion::Mask;
use cp_extend::ExtensionMethod;
use cp_metrics::LibraryStats;
use cp_squish::{Region, SquishPattern, Topology};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Parameters of a natural-language agent session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChatParams {
    /// The free-form request text.
    pub request: String,
    /// Session seed (`None` = the system's master seed).
    pub seed: Option<u64>,
}

/// Parameters of direct conditional generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GenerateParams {
    /// Style condition.
    pub style: Style,
    /// Topology rows.
    pub rows: usize,
    /// Topology columns.
    pub cols: usize,
    /// Number of topologies to generate.
    pub count: usize,
    /// RNG stream seed for this request.
    pub seed: u64,
}

/// Parameters of free-size extension.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExtendParams {
    /// The topology to grow.
    pub seed_topology: Topology,
    /// Target rows.
    pub rows: usize,
    /// Target columns.
    pub cols: usize,
    /// Extension algorithm.
    pub method: ExtensionMethod,
    /// Style condition.
    pub style: Style,
    /// RNG stream seed for this request.
    pub seed: u64,
}

/// Parameters of RePaint-style modification. The rectangular `region`
/// is regenerated; everything outside stays bit-exact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModifyParams {
    /// The topology to repair.
    pub known: Topology,
    /// Grid region to regenerate.
    pub region: Region,
    /// Style condition.
    pub style: Style,
    /// RNG stream seed for this request.
    pub seed: u64,
}

/// Parameters of legalization into a physical frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LegalizeParams {
    /// The topology to legalize.
    pub topology: Topology,
    /// Frame width in nm.
    pub width_nm: i64,
    /// Frame height in nm.
    pub height_nm: i64,
    /// RNG stream seed (slack distribution).
    pub seed: u64,
}

/// Parameters of library evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluateParams {
    /// The topology library to score.
    pub topologies: Vec<Topology>,
    /// Physical frame (nm) used for the legalization attempts.
    pub frame_nm: i64,
    /// RNG stream seed.
    pub seed: u64,
}

/// Parameters of opening a stateful multi-turn chat session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionOpenParams {
    /// Client-chosen session id (non-empty; the correlation key for
    /// every later turn).
    pub session: String,
    /// Session seed (`None` = the system's master seed). Unlike
    /// one-shot `Chat`, the seed is resolved once at open and echoed
    /// back, so the whole dialog is replayable.
    pub seed: Option<u64>,
}

/// Parameters of one user turn on an open session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionTurnParams {
    /// The session to resume.
    pub session: String,
    /// The user's utterance for this turn. Follow-ups ("now make them
    /// denser", "extend the last ones to 3x") inherit unmentioned
    /// requirement fields from the previous turn.
    pub utterance: String,
}

/// Parameters of closing a session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionCloseParams {
    /// The session to close.
    pub session: String,
}

/// Parameters of exporting a session snapshot. The session stays
/// live — a snapshot is a non-destructive export.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSnapshotParams {
    /// The session to snapshot.
    pub session: String,
}

/// Parameters of importing a session snapshot (the other half of
/// cross-process handoff: export via `SessionSnapshot` from one serve
/// process, import via `SessionRestore` into another).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionRestoreParams {
    /// The snapshot to restore; its embedded id becomes the live
    /// session id (rejected when that id is already live here).
    /// Boxed: a snapshot dwarfs every other request variant.
    pub snapshot: Box<crate::SessionSnapshot>,
}

/// One request to the ChatPattern system — the single typed entry point
/// covering the agent path and every direct back-end capability.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PatternRequest {
    /// Run a full agent session on a natural-language request.
    Chat(ChatParams),
    /// Open a stateful multi-turn chat session.
    SessionOpen(SessionOpenParams),
    /// Run one turn on an open session.
    SessionTurn(SessionTurnParams),
    /// Close a session, collecting its final outcome.
    SessionClose(SessionCloseParams),
    /// Export a live session as a serializable snapshot (the session
    /// stays open).
    SessionSnapshot(SessionSnapshotParams),
    /// Import a session snapshot, making it live under its embedded
    /// id (cross-process handoff).
    SessionRestore(SessionRestoreParams),
    /// Conditional fixed-window generation.
    Generate(GenerateParams),
    /// Free-size extension of an existing topology.
    Extend(ExtendParams),
    /// RePaint modification of a rectangular region.
    Modify(ModifyParams),
    /// Legalization into a physical frame.
    Legalize(LegalizeParams),
    /// Table-1-style evaluation of a topology library.
    Evaluate(EvaluateParams),
    /// Read the serving-side activity counters
    /// ([`EngineStats`]) — answered inline by a
    /// [`PatternEngine`](crate::PatternEngine) without queueing, so
    /// counters are queryable over the wire mid-stream instead of
    /// only at EOF. Against a bare [`ChatPattern`] it reports the
    /// session gauges with every engine counter zero.
    Stats,
}

impl PatternRequest {
    /// The session id this request addresses, when it is a session
    /// request. Drives the engine's session-affine shard routing and
    /// its cache/coalescer exemption.
    #[must_use]
    pub fn session_id(&self) -> Option<&str> {
        match self {
            PatternRequest::SessionOpen(p) => Some(&p.session),
            PatternRequest::SessionTurn(p) => Some(&p.session),
            PatternRequest::SessionClose(p) => Some(&p.session),
            PatternRequest::SessionSnapshot(p) => Some(&p.session),
            PatternRequest::SessionRestore(p) => Some(&p.snapshot.session),
            _ => None,
        }
    }

    /// The QoS priority lane of this request: chat turns and session
    /// operations are interactive (a user is waiting
    /// mid-conversation), one-shot generation work is standard, and
    /// evaluation sweeps are batch. `Stats` is classified interactive
    /// but never queued — the engine answers it inline.
    #[must_use]
    pub fn lane(&self) -> cp_qos::Lane {
        match self {
            PatternRequest::Chat(_)
            | PatternRequest::SessionOpen(_)
            | PatternRequest::SessionTurn(_)
            | PatternRequest::SessionClose(_)
            | PatternRequest::SessionSnapshot(_)
            | PatternRequest::SessionRestore(_)
            | PatternRequest::Stats => cp_qos::Lane::Interactive,
            PatternRequest::Generate(_)
            | PatternRequest::Extend(_)
            | PatternRequest::Modify(_)
            | PatternRequest::Legalize(_) => cp_qos::Lane::Standard,
            PatternRequest::Evaluate(_) => cp_qos::Lane::Batch,
        }
    }

    /// What admitting this request costs against a tenant's quota:
    /// chat turns consume a turn token; session open/restore reserves
    /// an open-session slot.
    #[must_use]
    pub fn admit_class(&self) -> cp_qos::AdmitClass {
        cp_qos::AdmitClass {
            consumes_turn: matches!(
                self,
                PatternRequest::Chat(_) | PatternRequest::SessionTurn(_)
            ),
            opens_session: matches!(
                self,
                PatternRequest::SessionOpen(_) | PatternRequest::SessionRestore(_)
            ),
        }
    }
}

/// Outcome of a [`PatternRequest::Chat`] session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChatOutcome {
    /// The agent's final summary.
    pub summary: String,
    /// Number of tool calls executed.
    pub tool_calls: usize,
    /// The delivered pattern library.
    pub library: Vec<SquishPattern>,
    /// Full ReAct transcript.
    pub transcript: Vec<cp_agent::Message>,
}

impl ChatOutcome {
    /// Renders the transcript in the paper's
    /// Thought/Action/Action-Input/Observation format.
    #[must_use]
    pub fn render_transcript(&self) -> String {
        cp_agent::render_transcript(&self.transcript)
    }
}

/// Acknowledgement of a [`PatternRequest::SessionOpen`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionInfo {
    /// The session id, echoed back.
    pub session: String,
    /// The resolved session seed (the explicit one, or the system's
    /// master seed when the request carried `None`).
    pub seed: u64,
}

/// Outcome of one [`PatternRequest::SessionTurn`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TurnOutcome {
    /// The session id, echoed back.
    pub session: String,
    /// 1-based index of this turn within the session — strictly
    /// increasing, so clients can verify turn ordering.
    pub turn: usize,
    /// The agent's summary of this turn.
    pub summary: String,
    /// Tool calls executed during this turn.
    pub tool_calls: usize,
    /// The pattern library after this turn (cumulative across turns).
    pub library: Vec<SquishPattern>,
    /// This turn's transcript slice (the utterance, the agent's steps
    /// and the tool observations — not the whole session).
    pub transcript: Vec<cp_agent::Message>,
}

impl TurnOutcome {
    /// Renders this turn's transcript slice in the paper's format.
    #[must_use]
    pub fn render_transcript(&self) -> String {
        cp_agent::render_transcript(&self.transcript)
    }
}

/// Wall-clock cost of serving one request.
///
/// Direct [`PatternService::execute`] calls spend no time queued, so
/// `queue_micros` is zero and `micros == exec_micros`. Requests routed
/// through a [`PatternEngine`](crate::PatternEngine) record how long
/// the job sat in the submission queue before a worker picked it up;
/// cache hits additionally set `cached` and report only the (tiny)
/// lookup cost as `exec_micros`; requests that attached to an
/// identical in-flight execution set `coalesced`. Every handle's
/// `micros` is its own submission-to-completion latency — a coalesced
/// waiter that attached mid-execution reports zero queue wait and
/// only the slice of the shared execution it actually overlapped
/// with, never more than it really waited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Timing {
    /// Total microseconds from submission to completion
    /// (`queue_micros + exec_micros`).
    pub micros: u64,
    /// Microseconds the job waited in the engine queue (zero for
    /// direct execution).
    pub queue_micros: u64,
    /// Microseconds spent executing (or, for cache hits, looking up)
    /// the request.
    pub exec_micros: u64,
    /// Whether the payload was served from the engine's result cache.
    pub cached: bool,
    /// Whether the payload came from an identical in-flight execution
    /// this request attached to instead of executing itself.
    pub coalesced: bool,
}

impl Timing {
    /// Timing of a direct, unqueued execution.
    #[must_use]
    pub fn direct(exec_micros: u64) -> Timing {
        Timing {
            micros: exec_micros,
            queue_micros: 0,
            exec_micros,
            cached: false,
            coalesced: false,
        }
    }

    /// Timing of an engine-executed job: queue wait plus execution.
    #[must_use]
    pub fn queued(queue_micros: u64, exec_micros: u64) -> Timing {
        Timing {
            micros: queue_micros.saturating_add(exec_micros),
            queue_micros,
            exec_micros,
            cached: false,
            coalesced: false,
        }
    }

    /// Timing of a cache hit (no queue wait, lookup cost only).
    #[must_use]
    pub fn cache_hit(exec_micros: u64) -> Timing {
        Timing {
            micros: exec_micros,
            queue_micros: 0,
            exec_micros,
            cached: true,
            coalesced: false,
        }
    }

    /// Timing of a coalesced waiter: it waited `queue_micros` from its
    /// own submission, then overlapped the shared execution for
    /// `exec_micros` (the engine caps this at the handle's real
    /// elapsed time).
    #[must_use]
    pub fn coalesced(queue_micros: u64, exec_micros: u64) -> Timing {
        Timing {
            micros: queue_micros.saturating_add(exec_micros),
            queue_micros,
            exec_micros,
            cached: false,
            coalesced: true,
        }
    }
}

/// Per-variant response payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ResponsePayload {
    /// Agent session outcome.
    Chat(ChatOutcome),
    /// Session opened.
    SessionOpen(SessionInfo),
    /// One session turn's outcome.
    SessionTurn(TurnOutcome),
    /// The closed session's final outcome (full transcript, final
    /// library).
    SessionClose(ChatOutcome),
    /// The exported session snapshot (boxed: it dwarfs every other
    /// payload variant).
    SessionSnapshot(Box<crate::SessionSnapshot>),
    /// The restored session's identity (id + seed), like a
    /// `SessionOpen` acknowledgement.
    SessionRestore(SessionInfo),
    /// Generated topologies.
    Generate(Vec<Topology>),
    /// The extended topology.
    Extend(Topology),
    /// The modified topology.
    Modify(Topology),
    /// The legalized physical pattern.
    Legalize(SquishPattern),
    /// Library statistics.
    Evaluate(LibraryStats),
    /// The serving-side activity counters at the moment the
    /// [`PatternRequest::Stats`] request was answered.
    Stats(EngineStats),
}

/// A served request: payload plus timing metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PatternResponse {
    /// What the request produced.
    pub payload: ResponsePayload,
    /// How long serving it took.
    pub timing: Timing,
}

/// The service abstraction over the assembled system: one typed,
/// fallible, batchable entry point. Network layers, queues and test
/// doubles implement or wrap this trait instead of reaching into the
/// facade.
pub trait PatternService {
    /// Serves one request.
    ///
    /// # Errors
    ///
    /// Returns the workspace-wide [`Error`] for invalid parameters or
    /// any back-end failure.
    fn execute(&self, request: PatternRequest) -> Result<PatternResponse, Error>;

    /// Serves a batch of requests, preserving order. Each request
    /// carries its own seed, so implementations are free to reorder or
    /// parallelize execution without changing results.
    fn execute_many(&self, requests: Vec<PatternRequest>) -> Vec<Result<PatternResponse, Error>> {
        requests.into_iter().map(|r| self.execute(r)).collect()
    }

    /// Session activity of this service, when it hosts stateful
    /// sessions ([`ChatPattern`] does; pure computational services
    /// keep the all-zero default). Wrappers — engines, recorders,
    /// `Arc` — forward to the wrapped service so the counters surface
    /// wherever stats are read.
    fn session_stats(&self) -> SessionStats {
        SessionStats::default()
    }
}

/// Sharing a service behind an [`Arc`](std::sync::Arc) is itself a
/// service — the idiom for handing one built system to both a
/// [`PatternEngine`](crate::PatternEngine) and direct callers.
impl<S: PatternService + ?Sized> PatternService for std::sync::Arc<S> {
    fn execute(&self, request: PatternRequest) -> Result<PatternResponse, Error> {
        (**self).execute(request)
    }

    fn execute_many(&self, requests: Vec<PatternRequest>) -> Vec<Result<PatternResponse, Error>> {
        (**self).execute_many(requests)
    }

    fn session_stats(&self) -> SessionStats {
        (**self).session_stats()
    }
}

impl PatternService for ChatPattern {
    fn execute(&self, request: PatternRequest) -> Result<PatternResponse, Error> {
        let started = Instant::now();
        let payload = match request {
            PatternRequest::Chat(params) => {
                let report = match params.seed {
                    Some(seed) => self.chat_with_seed(&params.request, seed)?,
                    None => self.chat(&params.request)?,
                };
                ResponsePayload::Chat(ChatOutcome {
                    summary: report.summary,
                    tool_calls: report.tool_calls,
                    library: report.library,
                    transcript: report.transcript,
                })
            }
            PatternRequest::SessionOpen(params) => {
                ResponsePayload::SessionOpen(self.session_open(&params.session, params.seed)?)
            }
            PatternRequest::SessionTurn(params) => {
                ResponsePayload::SessionTurn(self.session_turn(&params.session, &params.utterance)?)
            }
            PatternRequest::SessionClose(params) => {
                ResponsePayload::SessionClose(self.session_close(&params.session)?)
            }
            PatternRequest::SessionSnapshot(params) => {
                ResponsePayload::SessionSnapshot(Box::new(self.session_snapshot(&params.session)?))
            }
            PatternRequest::SessionRestore(params) => {
                ResponsePayload::SessionRestore(self.session_restore(*params.snapshot)?)
            }
            PatternRequest::Generate(params) => ResponsePayload::Generate(self.generate(
                params.style,
                params.rows,
                params.cols,
                params.count,
                params.seed,
            )?),
            PatternRequest::Extend(params) => ResponsePayload::Extend(self.extend(
                &params.seed_topology,
                params.rows,
                params.cols,
                params.method,
                params.style,
                params.seed,
            )?),
            PatternRequest::Modify(params) => {
                let (rows, cols) = params.known.shape();
                if params.region.is_empty()
                    || params.region.row1() > rows
                    || params.region.col1() > cols
                {
                    return Err(Error::invalid_request(format!(
                        "modification region {} is empty or exceeds the {rows}x{cols} topology",
                        params.region
                    )));
                }
                let mask = Mask::keep_outside(rows, cols, params.region);
                ResponsePayload::Modify(self.modify(
                    &params.known,
                    &mask,
                    params.style,
                    params.seed,
                )?)
            }
            // Non-positive frames are rejected inside `legalize` /
            // `evaluate` (one copy of each check, shared with direct
            // callers); only the Vec-shaped emptiness test lives here.
            PatternRequest::Legalize(params) => ResponsePayload::Legalize(self.legalize(
                &params.topology,
                params.width_nm,
                params.height_nm,
                params.seed,
            )?),
            PatternRequest::Evaluate(params) => {
                if params.topologies.is_empty() {
                    return Err(Error::invalid_request(
                        "evaluation needs at least one topology",
                    ));
                }
                ResponsePayload::Evaluate(self.evaluate(
                    params.topologies.iter(),
                    params.frame_nm,
                    params.seed,
                )?)
            }
            PatternRequest::Stats => {
                ResponsePayload::Stats(EngineStats::from_sessions(self.session_stats()))
            }
        };
        Ok(PatternResponse {
            payload,
            timing: Timing::direct(
                u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
            ),
        })
    }

    fn session_stats(&self) -> SessionStats {
        ChatPattern::session_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json;

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
    fn request_json_round_trips() {
        let request = PatternRequest::Generate(GenerateParams {
            style: Style::Layer10001,
            rows: 16,
            cols: 16,
            count: 2,
            seed: 7,
        });
        let text = serde_json::to_string(&request).expect("serializes");
        assert!(text.contains("Generate"));
        let back: PatternRequest = serde_json::from_str(&text).expect("parses");
        assert_eq!(back, request);
    }

    #[test]
    fn every_request_variant_round_trips() {
        let topology = Topology::from_fn(4, 4, |r, c| (r + c) % 2 == 0);
        let requests = vec![
            PatternRequest::Chat(ChatParams {
                request: "Generate 2 patterns".into(),
                seed: Some(1),
            }),
            PatternRequest::Generate(GenerateParams {
                style: Style::Layer10003,
                rows: 8,
                cols: 8,
                count: 1,
                seed: 2,
            }),
            PatternRequest::Extend(ExtendParams {
                seed_topology: topology.clone(),
                rows: 8,
                cols: 8,
                method: ExtensionMethod::InPainting,
                style: Style::Layer10001,
                seed: 3,
            }),
            PatternRequest::Modify(ModifyParams {
                known: topology.clone(),
                region: Region::new(1, 1, 3, 3),
                style: Style::Layer10001,
                seed: 4,
            }),
            PatternRequest::Legalize(LegalizeParams {
                topology: topology.clone(),
                width_nm: 200,
                height_nm: 200,
                seed: 5,
            }),
            PatternRequest::Evaluate(EvaluateParams {
                topologies: vec![topology],
                frame_nm: 200,
                seed: 6,
            }),
            PatternRequest::SessionOpen(SessionOpenParams {
                session: "s-1".into(),
                seed: Some(7),
            }),
            PatternRequest::SessionOpen(SessionOpenParams {
                session: "s-2".into(),
                seed: None,
            }),
            PatternRequest::SessionTurn(SessionTurnParams {
                session: "s-1".into(),
                utterance: "now make them denser".into(),
            }),
            PatternRequest::SessionClose(SessionCloseParams {
                session: "s-1".into(),
            }),
            PatternRequest::Stats,
        ];
        for request in requests {
            let text = serde_json::to_string(&request).expect("serializes");
            let back: PatternRequest = serde_json::from_str(&text).expect("parses");
            assert_eq!(back, request);
        }
    }

    #[test]
    fn session_requests_flow_through_the_service_trait() {
        let system = small_system();
        let opened = system
            .execute(PatternRequest::SessionOpen(SessionOpenParams {
                session: "svc".into(),
                seed: Some(4),
            }))
            .expect("opens");
        assert!(matches!(
            opened.payload,
            ResponsePayload::SessionOpen(SessionInfo { ref session, seed: 4 })
                if session == "svc"
        ));
        let turned = system
            .execute(PatternRequest::SessionTurn(SessionTurnParams {
                session: "svc".into(),
                utterance: "Generate 1 pattern, topology size 16*16, physical size \
                            512nm x 512nm, style Layer-10001."
                    .into(),
            }))
            .expect("turn runs");
        let ResponsePayload::SessionTurn(turn) = &turned.payload else {
            panic!("wrong payload {:?}", turned.payload);
        };
        assert_eq!(turn.turn, 1);
        assert_eq!(turn.library.len(), 1, "summary: {}", turn.summary);
        let closed = system
            .execute(PatternRequest::SessionClose(SessionCloseParams {
                session: "svc".into(),
            }))
            .expect("closes");
        let ResponsePayload::SessionClose(outcome) = &closed.payload else {
            panic!("wrong payload {:?}", closed.payload);
        };
        assert_eq!(outcome.library, turn.library);
        // Turn on the closed id surfaces the typed error through the
        // trait.
        let err = system
            .execute(PatternRequest::SessionTurn(SessionTurnParams {
                session: "svc".into(),
                utterance: "more".into(),
            }))
            .expect_err("closed session");
        assert!(matches!(err, Error::SessionNotFound { .. }), "{err:?}");
        // The payloads of a session round-trip survive JSON.
        let text = serde_json::to_string(&turned).expect("serializes");
        let back: PatternResponse = serde_json::from_str(&text).expect("parses");
        assert_eq!(back, turned);
    }

    #[test]
    fn snapshot_and_restore_flow_through_the_service_trait() {
        let system = small_system();
        system.session_open("h", Some(6)).expect("opens");
        let _ = system
            .session_turn(
                "h",
                "Generate 1 pattern, topology size 16*16, physical size 512nm x 512nm, \
                 style Layer-10003.",
            )
            .expect("turn runs");
        let exported = system
            .execute(PatternRequest::SessionSnapshot(SessionSnapshotParams {
                session: "h".into(),
            }))
            .expect("exports");
        let ResponsePayload::SessionSnapshot(snapshot) = exported.payload else {
            panic!("wrong payload {:?}", exported.payload);
        };
        // The whole request (snapshot embedded) survives the wire JSON.
        let request = PatternRequest::SessionRestore(SessionRestoreParams {
            snapshot: snapshot.clone(),
        });
        let text = serde_json::to_string(&request).expect("serializes");
        let back: PatternRequest = serde_json::from_str(&text).expect("parses");
        assert_eq!(back, request);
        assert_eq!(request.session_id(), Some("h"));
        assert_eq!(
            PatternRequest::SessionSnapshot(SessionSnapshotParams {
                session: "h".into()
            })
            .session_id(),
            Some("h")
        );
        // Close the donor, then import the snapshot through the trait.
        let _ = system
            .execute(PatternRequest::SessionClose(SessionCloseParams {
                session: "h".into(),
            }))
            .expect("closes");
        let restored = system.execute(back).expect("restores");
        let ResponsePayload::SessionRestore(info) = restored.payload else {
            panic!("wrong payload {:?}", restored.payload);
        };
        assert_eq!(info.session, "h");
        assert_eq!(info.seed, 6);
        let turned = system
            .execute(PatternRequest::SessionTurn(SessionTurnParams {
                session: "h".into(),
                utterance: "1 more pattern.".into(),
            }))
            .expect("restored session serves turns");
        let ResponsePayload::SessionTurn(turn) = turned.payload else {
            panic!("wrong payload {:?}", turned.payload);
        };
        assert_eq!(turn.turn, 2);
    }

    #[test]
    fn execute_generates_with_timing() {
        let system = small_system();
        let response = system
            .execute(PatternRequest::Generate(GenerateParams {
                style: Style::Layer10003,
                rows: 16,
                cols: 16,
                count: 2,
                seed: 9,
            }))
            .expect("generation succeeds");
        match &response.payload {
            ResponsePayload::Generate(topologies) => assert_eq!(topologies.len(), 2),
            other => panic!("wrong payload {other:?}"),
        }
        // Diffusion sampling is far slower than a microsecond.
        assert!(response.timing.micros > 0);
    }

    #[test]
    fn response_json_round_trips() {
        let system = small_system();
        let response = system
            .execute(PatternRequest::Generate(GenerateParams {
                style: Style::Layer10001,
                rows: 16,
                cols: 16,
                count: 1,
                seed: 4,
            }))
            .expect("generation succeeds");
        let text = serde_json::to_string(&response).expect("serializes");
        let back: PatternResponse = serde_json::from_str(&text).expect("parses");
        assert_eq!(back, response);
    }

    #[test]
    fn execute_many_preserves_order_and_isolates_failures() {
        let system = small_system();
        let results = system.execute_many(vec![
            PatternRequest::Generate(GenerateParams {
                style: Style::Layer10001,
                rows: 16,
                cols: 16,
                count: 1,
                seed: 1,
            }),
            // Invalid: zero rows.
            PatternRequest::Generate(GenerateParams {
                style: Style::Layer10001,
                rows: 0,
                cols: 16,
                count: 1,
                seed: 2,
            }),
            PatternRequest::Generate(GenerateParams {
                style: Style::Layer10003,
                rows: 16,
                cols: 16,
                count: 1,
                seed: 3,
            }),
        ]);
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(Error::InvalidRequest { .. })));
        assert!(results[2].is_ok());
    }

    #[test]
    fn timing_constructors_account_totals() {
        let direct = Timing::direct(120);
        assert_eq!((direct.micros, direct.queue_micros), (120, 0));
        assert!(!direct.cached);
        let queued = Timing::queued(30, 70);
        assert_eq!(queued.micros, 100);
        assert_eq!(queued.exec_micros, 70);
        let hit = Timing::cache_hit(2);
        assert!(hit.cached);
        assert!(!hit.coalesced);
        assert_eq!(hit.micros, 2);
        let shared = Timing::coalesced(5, 40);
        assert!(shared.coalesced);
        assert!(!shared.cached);
        assert_eq!(shared.micros, 45);
        // Saturating, not wrapping, on absurd inputs.
        assert_eq!(Timing::queued(u64::MAX, 1).micros, u64::MAX);
        assert_eq!(Timing::coalesced(u64::MAX, 1).micros, u64::MAX);
    }

    #[test]
    fn evaluate_request_rejects_empty_library_and_bad_frame() {
        let system = small_system();
        let err = system
            .execute(PatternRequest::Evaluate(EvaluateParams {
                topologies: Vec::new(),
                frame_nm: 200,
                seed: 1,
            }))
            .expect_err("empty library must fail");
        assert!(matches!(err, Error::InvalidRequest { .. }), "{err:?}");
        let err = system
            .execute(PatternRequest::Evaluate(EvaluateParams {
                topologies: vec![Topology::filled(4, 4, true)],
                frame_nm: 0,
                seed: 1,
            }))
            .expect_err("zero frame must fail");
        assert!(matches!(err, Error::InvalidRequest { .. }), "{err:?}");
    }

    #[test]
    fn legalize_request_rejects_non_positive_frames() {
        let system = small_system();
        for (w, h) in [(0, 100), (100, 0), (-5, 100), (100, -5)] {
            let err = system
                .execute(PatternRequest::Legalize(LegalizeParams {
                    topology: Topology::filled(4, 4, true),
                    width_nm: w,
                    height_nm: h,
                    seed: 1,
                }))
                .expect_err("non-positive frame must fail");
            assert!(matches!(err, Error::InvalidRequest { .. }), "{err:?}");
        }
    }

    #[test]
    fn modify_request_validates_region() {
        let system = small_system();
        let known = Topology::filled(16, 16, false);
        let err = system
            .execute(PatternRequest::Modify(ModifyParams {
                known,
                region: Region::new(0, 0, 32, 32),
                style: Style::Layer10001,
                seed: 1,
            }))
            .expect_err("out-of-bounds region must fail");
        assert!(matches!(err, Error::InvalidRequest { .. }));
    }
}
