//! One chat dialog ([`ChatSession`]) and its between-turns state ([`SessionSnapshot`]).

use crate::{ChatOutcome, Error, TurnOutcome};
use cp_agent::{AgentSession, AgentSnapshot, ExpertPolicy, ToolRegistry};
use cp_layout::legalize::Legalizer;
use serde::{Deserialize, Serialize};

/// One live multi-turn chat dialog: a resumable
/// [`AgentSession`] plus its identity. Normally managed by the
/// system's [session store](crate::SessionStore) via
/// [`session_open`](crate::ChatPattern::session_open) /
/// [`session_turn`](crate::ChatPattern::session_turn) /
/// [`session_close`](crate::ChatPattern::session_close);
/// exposed so in-process callers (tests, examples, embedders) can
/// drive a session directly.
pub struct ChatSession {
    pub(crate) id: String,
    pub(crate) seed: u64,
    pub(crate) inner: AgentSession<ExpertPolicy>,
}

impl std::fmt::Debug for ChatSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChatSession")
            .field("id", &self.id)
            .field("seed", &self.seed)
            .field("turns", &self.inner.turns())
            .finish_non_exhaustive()
    }
}

impl ChatSession {
    /// The session id.
    #[must_use]
    pub(crate) fn id(&self) -> &str {
        &self.id
    }

    /// The resolved session seed.
    #[must_use]
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// Runs one user turn. Follow-up turns inherit unmentioned fields
    /// from the previous turn's requirement, so short refinements ("now
    /// make them denser") are valid.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Requirement`] when the utterance is unusable;
    /// the session is then unchanged.
    pub(crate) fn turn(&mut self, utterance: &str) -> Result<TurnOutcome, Error> {
        let report = self.inner.turn(utterance)?;
        Ok(TurnOutcome {
            session: self.id.clone(),
            turn: report.turn,
            summary: report.summary,
            tool_calls: report.tool_calls,
            library: self.inner.library().to_vec(),
            transcript: report.transcript,
        })
    }

    /// Consumes the session into its final outcome (full transcript,
    /// cumulative library, last summary).
    #[must_use]
    pub(crate) fn into_outcome(self) -> ChatOutcome {
        let report = self.inner.close();
        ChatOutcome {
            summary: report.summary,
            tool_calls: report.tool_calls,
            library: report.library,
            transcript: report.transcript,
        }
    }

    /// Exports the session's complete between-turns state as a
    /// serializable [`SessionSnapshot`]. Non-destructive: the session
    /// keeps running, and follow-up turns on a
    /// [`ChatSession::restore`]d copy are byte-identical to turns on
    /// the original.
    #[must_use]
    pub(crate) fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            format: SESSION_SNAPSHOT_FORMAT,
            session: self.id.clone(),
            seed: self.seed,
            agent: self.inner.snapshot(),
        }
    }

    /// Rebuilds a session from a [`SessionSnapshot`] plus freshly
    /// injected dependencies (the trained sampler and the legalizer —
    /// snapshots carry state, not models). In-process callers restore
    /// through [`session_restore`](crate::ChatPattern::session_restore),
    /// which injects the system's own back-end.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SessionPersist`] for an unknown snapshot
    /// format or corrupt state, and [`Error::InvalidRequest`] for an
    /// empty session id.
    pub(crate) fn restore(
        snapshot: SessionSnapshot,
        sampler: Box<dyn cp_diffusion::PatternSampler>,
        legalizer: Legalizer,
    ) -> Result<ChatSession, Error> {
        if snapshot.format < SESSION_SNAPSHOT_FORMAT_MIN
            || snapshot.format > SESSION_SNAPSHOT_FORMAT
        {
            return Err(Error::session_persist(format!(
                "unknown session snapshot format {} (this build reads formats \
                 {SESSION_SNAPSHOT_FORMAT_MIN}..={SESSION_SNAPSHOT_FORMAT})",
                snapshot.format
            )));
        }
        if snapshot.session.is_empty() {
            return Err(Error::invalid_request(
                "session snapshot carries an empty session id",
            ));
        }
        let inner =
            AgentSession::restore(snapshot.agent, ToolRegistry::standard(), sampler, legalizer)?;
        Ok(ChatSession {
            id: snapshot.session,
            seed: snapshot.seed,
            inner,
        })
    }
}

/// Version tag of the serialized session snapshot layout. Bump it when
/// [`SessionSnapshot`] (or anything nested in it) changes shape;
/// `ChatSession::restore` rejects snapshots from unknown formats
/// with a typed error instead of misreading them. Format 2 added an
/// optional `compaction` record of trimmed transcript messages, which
/// this build reads and ignores (nothing trims a transcript any more);
/// format 3 writes every topology in the store and the library packed,
/// one bit a cell ([`cp_layout::squish::Packed`]), where formats 1 and 2
/// spelled each cell as a number. Format-1 and format-2 snapshots still restore unchanged
/// ([`SESSION_SNAPSHOT_FORMAT_MIN`]): the topology reader takes both
/// forms. Nothing writes format 2 any more, and a build that stops at
/// format 2 refuses a format-3 snapshot by its number rather than
/// tripping over `packed`.
pub const SESSION_SNAPSHOT_FORMAT: u32 = 3;

/// Oldest snapshot format `ChatSession::restore` still reads.
pub const SESSION_SNAPSHOT_FORMAT_MIN: u32 = 1;

/// The complete serializable state of one [`ChatSession`] between
/// turns: identity (id + resolved seed) plus the agent's transcript,
/// policy carry-over, working store, library, knowledge and RNG
/// position. JSON round-trippable — this is both the spill file of
/// a [session directory](crate::JsonDirPersist) and the wire payload of
/// `PatternRequest::{SessionSnapshot, SessionRestore}` (cross-process
/// handoff; see `docs/SESSIONS.md`), byte for byte the same text.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// Snapshot layout version ([`SESSION_SNAPSHOT_FORMAT`]).
    pub format: u32,
    /// The session id.
    pub session: String,
    /// The session seed resolved at open.
    pub seed: u64,
    /// The agent's between-turns state.
    pub agent: AgentSnapshot,
}
