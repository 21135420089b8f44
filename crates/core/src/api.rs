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
use cp_layout::squish::{Region, SquishPattern, Topology};
use cp_layout::stage::{self, Stage, STAGES};
use cp_metrics::LibraryStats;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Parameters of a natural-language agent session.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ChatParams {
    /// The free-form request text.
    pub request: String,
    /// Session seed (`None` = the system's master seed).
    pub seed: Option<u64>,
}

/// Parameters of direct conditional generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
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
    /// counters are queryable over the wire mid-stream. Against a bare [`ChatPattern`] it reports the
    /// session gauges with every engine counter zero.
    Stats,
}

impl PatternRequest {
    /// How the QoS gate admits this request. Its lane: chat turns and
    /// session operations are interactive (a user is waiting
    /// mid-conversation), one-shot generation work is standard, and
    /// evaluation sweeps are batch (`Stats` is classified interactive
    /// but never queued — the engine answers it inline). Its cost: chat
    /// turns consume a turn token.
    #[must_use]
    pub(crate) fn admit_class(&self) -> cp_qos::AdmitClass {
        let lane = match self {
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
        };
        cp_qos::AdmitClass {
            lane,
            consumes_turn: matches!(
                self,
                PatternRequest::Chat(_) | PatternRequest::SessionTurn(_)
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

/// Wall-clock cost of serving one request.
///
/// Direct [`PatternService::execute`] calls spend no time queued, so
/// `queue_micros` is zero and `micros == exec_micros`. Requests routed
/// through a [`PatternEngine`](crate::PatternEngine) record how long
/// the job took from the `submit` call until a worker picked it up —
/// admission, then the wait in the queue; cache hits additionally set
/// `cached` and report only their admission (the key and the lookup)
/// as `exec_micros`; requests that attached to an
/// identical in-flight execution set `coalesced`. Every handle's
/// `micros` runs from its own submission to the end of the execution
/// (the engine reads the clock once, as the service returns; the
/// cache copy and fan-out after it are in no stage) — a coalesced
/// waiter that attached mid-execution reports zero queue wait and
/// only the slice of the shared execution it actually overlapped
/// with, never more than it really waited, and one that attached
/// between the execution's end and its fan-out reports 0 µs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Timing {
    /// Total microseconds from submission to the end of the execution
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
    /// Microseconds per [`Stage`], indexed as [`Stage::ALL`] has them:
    /// where `micros` went. A `Generate`, `Extend`, `Modify` or
    /// `Legalize` reply's stages sum to its `micros` exactly; every
    /// other kind records admission and queue wait only (its execution
    /// is not on the list of stages). All zero from a peer that does
    /// not send them.
    #[serde(default)]
    pub stages: [u64; STAGES],
}

impl Timing {
    /// Timing of a direct, unqueued execution.
    #[must_use]
    pub fn direct(exec_micros: u64) -> Timing {
        Timing::queued(0, exec_micros)
    }

    /// Timing of an engine-executed job: queue wait plus execution.
    /// Every other timing is this one with flags or stages set.
    #[must_use]
    pub(crate) fn queued(queue_micros: u64, exec_micros: u64) -> Timing {
        Timing {
            micros: queue_micros.saturating_add(exec_micros),
            queue_micros,
            exec_micros,
            ..Timing::default()
        }
    }

    /// Timing of a cache hit (no queue wait, admission only).
    #[must_use]
    pub(crate) fn cache_hit(exec_micros: u64) -> Timing {
        let mut stages = [0; STAGES];
        stages[Stage::Admit as usize] = exec_micros;
        Timing {
            cached: true,
            stages,
            ..Timing::queued(0, exec_micros)
        }
    }

    /// This timing with its execution's stages `exec` — the executed
    /// request's own record, scaled down to `exec_micros` for a
    /// coalesced waiter that saw only part of it — and its queue wait
    /// split into `admit_micros` of admission and the wait in the
    /// queue.
    #[must_use]
    pub(crate) fn staged(mut self, admit_micros: u64, exec: &[u64; STAGES]) -> Timing {
        let recorded: u64 = exec.iter().sum();
        self.stages = if recorded > self.exec_micros {
            // Rounded on the running sum, so the shares sum to
            // `exec_micros` exactly.
            let (mut total, mut whole) = (0u128, 0u64);
            exec.map(|micros| {
                total += u128::from(micros);
                let upto = total * u128::from(self.exec_micros) / u128::from(recorded);
                let share = u64::try_from(upto).unwrap_or(u64::MAX) - whole;
                whole += share;
                share
            })
        } else {
            *exec
        };
        let admit = admit_micros.min(self.queue_micros);
        self.stages[Stage::Admit as usize] = admit;
        self.stages[Stage::Queue as usize] = self.queue_micros - admit;
        self
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
/// fallible entry point. Network layers, queues and test
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

    fn session_stats(&self) -> SessionStats {
        (**self).session_stats()
    }
}

impl PatternService for ChatPattern {
    fn execute(&self, request: PatternRequest) -> Result<PatternResponse, Error> {
        let started = Instant::now();
        // Only these kinds are made of stages end to end: their time is
        // their record's whole, so their stages sum to it exactly.
        let staged = matches!(
            request,
            PatternRequest::Generate(_)
                | PatternRequest::Extend(_)
                | PatternRequest::Modify(_)
                | PatternRequest::Legalize(_)
        );
        if staged {
            stage::start();
        }
        let payload = self.respond(request);
        let stages = stage::finish();
        let micros = if staged {
            stages.iter().sum()
        } else {
            u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
        };
        Ok(PatternResponse {
            payload: payload?,
            timing: Timing {
                stages,
                ..Timing::direct(micros)
            },
        })
    }

    fn session_stats(&self) -> SessionStats {
        ChatPattern::session_stats(self)
    }
}

impl ChatPattern {
    /// The payload `execute` answers `request` with.
    fn respond(&self, request: PatternRequest) -> Result<ResponsePayload, Error> {
        Ok(match request {
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
        })
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
        // Saturating, not wrapping, on absurd inputs.
        assert_eq!(Timing::queued(u64::MAX, 1).micros, u64::MAX);
    }

    #[test]
    fn a_scaled_share_of_an_execution_sums_to_it() {
        let mut exec = [0; STAGES];
        exec[Stage::Grid as usize] = 5;
        exec[Stage::Noise as usize] = 5;
        exec[Stage::Draws as usize] = 5;
        // 10 of a 15 µs record: each stage's exact share is 3⅓.
        let timing = Timing::queued(4, 10).staged(1, &exec);
        assert_eq!(timing.stages.iter().sum::<u64>(), timing.micros);
        assert_eq!(timing.stages[Stage::Admit as usize], 1);
        assert_eq!(timing.stages[Stage::Queue as usize], 3);
        assert_eq!(
            [Stage::Grid, Stage::Noise, Stage::Draws].map(|stage| timing.stages[stage as usize]),
            [3, 3, 4]
        );
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

    /// The stages of `timing` in `stages`, summed.
    fn sum_of(timing: &Timing, stages: &[Stage]) -> u64 {
        stages
            .iter()
            .map(|&stage| timing.stages[stage as usize])
            .sum()
    }

    #[test]
    fn a_staged_replys_stages_sum_to_its_micros() {
        const DENOISE: [Stage; 6] = [
            Stage::Grid,
            Stage::Noise,
            Stage::PredictX0,
            Stage::Thresholds,
            Stage::Draws,
            Stage::WriteBack,
        ];
        const LEGALIZE: [Stage; 6] = [
            Stage::Bounds,
            Stage::Sweep,
            Stage::Labels,
            Stage::AreaRepair,
            Stage::Slack,
            Stage::SquishEncode,
        ];
        // A phase shorter than a microsecond may round to none in one
        // reply, so a stage is held to having had time in some reply
        // of its kind; a kind is sent again, at a new seed, until all
        // of its stages have, at most this often.
        const ROUNDS: u64 = 200;
        let engine = crate::PatternEngine::new(small_system());
        let seed = Topology::from_fn(16, 16, |r, c| (r / 4 + c / 4) % 2 == 0);
        let requests = [
            (
                PatternRequest::Generate(GenerateParams {
                    style: Style::Layer10003,
                    rows: 16,
                    cols: 16,
                    count: 3,
                    seed: 2,
                }),
                &DENOISE[..],
            ),
            (
                PatternRequest::Extend(ExtendParams {
                    seed_topology: seed.clone(),
                    rows: 32,
                    cols: 32,
                    method: ExtensionMethod::OutPainting,
                    style: Style::Layer10001,
                    seed: 3,
                }),
                &[Stage::ExtendWindows, Stage::Draws, Stage::PredictX0][..],
            ),
            (
                PatternRequest::Modify(ModifyParams {
                    known: seed.clone(),
                    region: Region::new(0, 8, 16, 16),
                    style: Style::Layer10001,
                    seed: 4,
                }),
                &DENOISE[..],
            ),
            (
                PatternRequest::Legalize(LegalizeParams {
                    topology: seed,
                    width_nm: 2048,
                    height_nm: 2048,
                    seed: 5,
                }),
                &LEGALIZE[..],
            ),
        ];
        for (mut request, entered) in requests {
            let what = format!("{request:?}").chars().take(40).collect::<String>();
            let mut seen = [0; STAGES];
            for _ in 0..ROUNDS {
                if entered.iter().all(|&stage| seen[stage as usize] > 0) {
                    break;
                }
                let timing = engine
                    .submit_blocking(request.clone())
                    .wait()
                    .expect("served")
                    .timing;
                assert_eq!(
                    timing.stages.iter().sum::<u64>(),
                    timing.micros,
                    "{what}: {timing:?}"
                );
                assert_eq!(
                    sum_of(&timing, &[Stage::Admit, Stage::Queue]),
                    timing.queue_micros,
                    "{what}"
                );
                // A generation never reaches the legalizer, nor a
                // legalization the sampler.
                let elsewhere = if entered == LEGALIZE {
                    &DENOISE
                } else {
                    &LEGALIZE
                };
                assert_eq!(sum_of(&timing, elsewhere), 0, "{what}");
                for (seen, micros) in seen.iter_mut().zip(timing.stages) {
                    *seen += micros;
                }
                // The next round asks at the next seed: no cache hit.
                match &mut request {
                    PatternRequest::Generate(params) => params.seed += 1,
                    PatternRequest::Extend(params) => params.seed += 1,
                    PatternRequest::Modify(params) => params.seed += 1,
                    PatternRequest::Legalize(params) => params.seed += 1,
                    _ => unreachable!("a staged kind"),
                }
            }
            for &stage in entered {
                assert!(
                    seen[stage as usize] > 0,
                    "{what}: no time in {stage:?} in {ROUNDS} replies"
                );
            }
        }
        // A kind that is not made of stages records admission and its
        // queue wait, nothing of its execution.
        let timing = engine
            .submit_blocking(PatternRequest::Chat(ChatParams {
                request: "Generate 2 patterns, topology size 16*16, style Layer-10003.".into(),
                seed: Some(1),
            }))
            .wait()
            .expect("served")
            .timing;
        assert_eq!(
            timing.stages.iter().sum::<u64>(),
            timing.queue_micros,
            "{timing:?}"
        );
    }
}
