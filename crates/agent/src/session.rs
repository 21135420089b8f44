//! The agent execution loop: Thought → Action → Observation, across
//! one *or many* user turns.
//!
//! An [`AgentSession`] is a resumable dialog: constructing it opens the
//! session (system prompt, tool context), [`AgentSession::turn`] runs
//! one ReAct loop over a user utterance and returns a [`TurnReport`],
//! and [`AgentSession::close`] consumes the session into the final
//! [`SessionReport`]. The working pattern library, the requirement
//! state carried by the policy, and the full transcript persist across
//! turns — a follow-up like "now make them denser" operates on the
//! previous turn's results instead of starting from scratch.
//! [`AgentSession::run`] remains as the one-shot convenience
//! (open → one turn → close) the `Chat` request path uses.

use crate::llm::{AgentAction, LanguageModel, Message, Role};
use crate::policy::{ExpertPolicy, PolicySnapshot};
use crate::prompt::system_prompt;
use crate::requirement::RequirementError;
use crate::tools::{ContextSnapshot, ToolContext, ToolRegistry};
use cp_diffusion::PatternSampler;
use cp_layout::legalize::Legalizer;
use cp_layout::squish::SquishPattern;
use serde::{Deserialize, Serialize};
use serde_json::json;

/// Why a session snapshot could not be restored (corrupt or
/// incompatible serialized state). Reported as a typed error, never a
/// panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    message: String,
}

impl SnapshotError {
    /// Creates an error with a message.
    #[must_use]
    pub(crate) fn new(message: impl Into<String>) -> SnapshotError {
        SnapshotError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot restore failed: {}", self.message)
    }
}

impl std::error::Error for SnapshotError {}

/// Outcome of a completed agent session (all turns).
#[derive(Debug)]
pub struct SessionReport {
    /// The agent's final summary (of the last turn).
    pub summary: String,
    /// Full ReAct transcript (system prompt, every turn's request,
    /// steps and observations).
    pub transcript: Vec<Message>,
    /// The delivered pattern library.
    pub library: Vec<SquishPattern>,
    /// Number of tool calls executed across all turns.
    pub tool_calls: usize,
    /// Number of user turns processed.
    pub turns: usize,
}

/// Outcome of one user turn inside a live session.
#[derive(Debug)]
pub struct TurnReport {
    /// 1-based index of this turn within the session.
    pub turn: usize,
    /// The agent's summary of this turn.
    pub summary: String,
    /// Transcript slice produced by this turn (the user utterance,
    /// the agent's steps and the tool observations).
    pub transcript: Vec<Message>,
    /// Tool calls executed during this turn.
    pub tool_calls: usize,
    /// Library size after this turn (cumulative across turns).
    pub library_len: usize,
}

/// Renders a transcript in the paper's
/// Thought/Action/Action-Input/Observation format.
#[must_use]
pub fn render_transcript(messages: &[Message]) -> String {
    let mut out = String::new();
    for m in messages {
        let tag = match m.role {
            Role::System => "[System]",
            Role::User => "[User]",
            Role::Assistant => "",
            Role::Observation => "Observation:",
        };
        if tag.is_empty() {
            out.push_str(&m.content);
        } else {
            out.push_str(tag);
            out.push(' ');
            out.push_str(&m.content);
        }
        out.push_str("\n\n");
    }
    out
}

impl SessionReport {
    /// Renders the transcript in the paper's
    /// Thought/Action/Action-Input/Observation format.
    #[must_use]
    pub fn render_transcript(&self) -> String {
        render_transcript(&self.transcript)
    }
}

impl TurnReport {
    /// Renders this turn's transcript slice in the paper's format.
    #[must_use]
    pub fn render_transcript(&self) -> String {
        render_transcript(&self.transcript)
    }
}

/// Drives a [`LanguageModel`] against a [`ToolRegistry`], one user
/// turn at a time, until closed.
pub struct AgentSession<L> {
    llm: L,
    tools: ToolRegistry,
    ctx: ToolContext,
    max_steps: usize,
    transcript: Vec<Message>,
    tool_calls: usize,
    turns: usize,
    last_summary: String,
}

impl<L: std::fmt::Debug> std::fmt::Debug for AgentSession<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AgentSession")
            .field("llm", &self.llm)
            .field("max_steps", &self.max_steps)
            .field("turns", &self.turns)
            .finish_non_exhaustive()
    }
}

impl<L: LanguageModel> AgentSession<L> {
    /// Opens a session (default budget: 4096 steps per turn). The
    /// system prompt is rendered once, here, and every later turn
    /// appends to the same transcript.
    #[must_use]
    pub fn new(llm: L, tools: ToolRegistry, ctx: ToolContext) -> AgentSession<L> {
        let transcript = vec![Message::new(
            Role::System,
            system_prompt(&tools, ctx.knowledge()),
        )];
        AgentSession {
            llm,
            tools,
            ctx,
            max_steps: 4096,
            transcript,
            tool_calls: 0,
            turns: 0,
            last_summary: String::new(),
        }
    }

    /// Number of user turns processed so far.
    #[must_use]
    pub fn turns(&self) -> usize {
        self.turns
    }

    /// The pattern library accumulated so far (across turns).
    #[must_use]
    pub fn library(&self) -> &[SquishPattern] {
        self.ctx.library()
    }

    /// Runs one ReAct loop over `utterance`. The working library,
    /// the tool store, and the knowledge base all carry over from
    /// previous turns, so follow-ups refine earlier results.
    ///
    /// # Errors
    ///
    /// Returns the model's [`RequirementError`] when it refuses the
    /// utterance; the session is then exactly as it was before the call.
    pub fn turn(&mut self, utterance: &str) -> Result<TurnReport, RequirementError> {
        self.llm.begin_turn(utterance)?;
        let turn_start = self.transcript.len();
        self.transcript.push(Message::new(Role::User, utterance));
        let mut tool_calls = 0usize;
        let mut summary = String::from("step budget exhausted before the agent finished");
        for _ in 0..self.max_steps {
            let step = self.llm.next_step(&self.transcript);
            match step.action {
                AgentAction::Finish { summary: s } => {
                    self.transcript.push(Message::new(
                        Role::Assistant,
                        format!("Thought: {}\nFinal Answer: {s}", step.thought),
                    ));
                    summary = s;
                    break;
                }
                AgentAction::ToolCall { name, args } => {
                    self.transcript.push(Message::new(
                        Role::Assistant,
                        format!(
                            "Thought: {}\nAction: {}\nAction Input: {}",
                            step.thought, name, args
                        ),
                    ));
                    tool_calls += 1;
                    // One dispatch path for every invocation; failures
                    // come back to the model as error observations, the
                    // same way a real LLM sees them.
                    let observation = self
                        .tools
                        .dispatch(&mut self.ctx, &name, &args)
                        .unwrap_or_else(|e| json!({"error": e.message()}));
                    self.transcript
                        .push(Message::new(Role::Observation, observation.to_string()));
                }
            }
        }
        self.turns += 1;
        self.tool_calls += tool_calls;
        self.last_summary.clone_from(&summary);
        Ok(TurnReport {
            turn: self.turns,
            summary,
            transcript: self.transcript[turn_start..].to_vec(),
            tool_calls,
            library_len: self.ctx.library().len(),
        })
    }

    /// Closes the session, consuming it into the final report.
    #[must_use]
    pub fn close(self) -> SessionReport {
        let summary = if self.turns == 0 {
            String::from("session closed before any turn")
        } else {
            self.last_summary
        };
        SessionReport {
            summary,
            transcript: self.transcript,
            library: self.ctx.into_library(),
            tool_calls: self.tool_calls,
            turns: self.turns,
        }
    }

    /// One-shot convenience: open → one turn → close (the classic
    /// single-request path behind `PatternRequest::Chat`).
    ///
    /// # Errors
    ///
    /// As [`AgentSession::turn`].
    pub fn run(mut self, request: &str) -> Result<SessionReport, RequirementError> {
        self.turn(request)?;
        Ok(self.close())
    }
}

/// The serializable between-turns state of an
/// [`AgentSession<ExpertPolicy>`]: the full transcript and counters,
/// the policy's cross-turn state, and the tool context's mutable state
/// (store, library, knowledge, RNG position). Dependencies — the
/// sampler, the legalizer, the tool registry — are re-injected on
/// [`AgentSession::restore`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgentSnapshot {
    /// The full transcript (system prompt plus every turn).
    pub transcript: Vec<Message>,
    /// Tool calls executed across all turns so far.
    pub tool_calls: usize,
    /// User turns processed so far.
    pub turns: usize,
    /// The last turn's summary.
    pub last_summary: String,
    /// Per-turn step budget.
    pub max_steps: usize,
    /// The expert policy's cross-turn state.
    pub policy: PolicySnapshot,
    /// The tool context's mutable state.
    pub context: ContextSnapshot,
}

impl AgentSession<ExpertPolicy> {
    /// Captures the session's complete between-turns state. Taking a
    /// snapshot does not disturb the session: follow-up turns on the
    /// original and on a [`AgentSession::restore`]d copy produce
    /// byte-identical transcripts and libraries.
    ///
    /// Snapshots are defined *between* turns (the mid-turn plan state
    /// of the policy is rebuilt by
    /// [`LanguageModel::begin_turn`] at the next turn either way).
    #[must_use]
    pub fn snapshot(&self) -> AgentSnapshot {
        AgentSnapshot {
            transcript: self.transcript.clone(),
            tool_calls: self.tool_calls,
            turns: self.turns,
            last_summary: self.last_summary.clone(),
            max_steps: self.max_steps,
            policy: self.llm.snapshot(),
            context: self.ctx.snapshot(),
        }
    }

    /// Rebuilds a session from an [`AgentSnapshot`] plus freshly
    /// injected dependencies. The system prompt is *not* re-rendered —
    /// the snapshot's transcript already carries it, so the restored
    /// transcript is byte-identical to the original.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] when the snapshot's RNG state is
    /// corrupt.
    pub fn restore(
        snapshot: AgentSnapshot,
        tools: ToolRegistry,
        sampler: Box<dyn PatternSampler>,
        legalizer: Legalizer,
    ) -> Result<AgentSession<ExpertPolicy>, SnapshotError> {
        let ctx = ToolContext::restore(snapshot.context, sampler, legalizer)?;
        Ok(AgentSession {
            llm: ExpertPolicy::from_snapshot(snapshot.policy),
            tools,
            ctx,
            max_steps: snapshot.max_steps.max(1),
            transcript: snapshot.transcript,
            tool_calls: snapshot.tool_calls,
            turns: snapshot.turns,
            last_summary: snapshot.last_summary,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::llm::tests::MockLlm;
    use crate::llm::AgentStep;
    use crate::{ExpertPolicy, KnowledgeBase};
    use cp_diffusion::{DiffusionModel, MrfDenoiser, NoiseSchedule};
    use cp_layout::drc::DesignRules;
    use cp_layout::legalize::Legalizer;
    use cp_layout::squish::Topology;

    fn test_deps() -> (Box<dyn cp_diffusion::PatternSampler>, Legalizer) {
        let data: Vec<Topology> = (0..6)
            .map(|i| Topology::from_fn(16, 16, move |_, c| (c + i) % 8 < 4))
            .collect();
        let denoiser = MrfDenoiser::fit(&[(0, &data), (1, &data)], 1.0);
        let model = DiffusionModel::new(NoiseSchedule::scaled_default(8), denoiser, 16);
        (
            Box::new(model),
            Legalizer::new(DesignRules::new(20, 20, 400)),
        )
    }

    fn test_ctx(seed: u64) -> ToolContext {
        let (sampler, legalizer) = test_deps();
        ToolContext::new(sampler, legalizer, KnowledgeBase::new(), seed)
    }

    #[test]
    fn mock_session_round_trips_tool_calls() {
        let mock = MockLlm::new(vec![AgentStep {
            thought: "generate one".into(),
            action: crate::AgentAction::ToolCall {
                name: "topology_gen".into(),
                args: serde_json::json!({"count": 1, "style": "Layer-10001"}),
            },
        }]);
        let report = AgentSession::new(mock, ToolRegistry::standard(), test_ctx(1))
            .run("test")
            .expect("the request parses");
        assert_eq!(report.tool_calls, 1);
        assert_eq!(report.turns, 1);
        // Transcript: system, user, assistant, observation, final.
        assert!(report.transcript.len() >= 5);
        let rendered = report.render_transcript();
        assert!(rendered.contains("Action: topology_gen"));
        assert!(rendered.contains("Observation:"));
    }

    #[test]
    fn unknown_tool_produces_error_observation() {
        let mock = MockLlm::new(vec![AgentStep {
            thought: "bad call".into(),
            action: crate::AgentAction::ToolCall {
                name: "no_such_tool".into(),
                args: serde_json::json!({}),
            },
        }]);
        let report = AgentSession::new(mock, ToolRegistry::standard(), test_ctx(2))
            .run("test")
            .expect("the request parses");
        let obs = report
            .transcript
            .iter()
            .find(|m| m.role == Role::Observation)
            .expect("observation exists");
        assert!(obs.content.contains("unknown tool"));
    }

    #[test]
    fn expert_policy_delivers_small_library_end_to_end() {
        let policy = ExpertPolicy::new(4, 2);
        let report = AgentSession::new(policy, ToolRegistry::standard(), test_ctx(3))
            .run("Generate 6 patterns, topology size 16*16, physical size 2000nm x 2000nm, style Layer-10001.")
            .expect("the request parses");
        assert_eq!(report.library.len(), 6, "summary: {}", report.summary);
        assert!(report.tool_calls >= 4);
        let rendered = report.render_transcript();
        assert!(rendered.contains("# Requirement - subtask 1"));
        assert!(rendered.contains("Action: topology_gen"));
        assert!(rendered.contains("Action: legalize"));
        assert!(rendered.contains("Final Answer"));
    }

    #[test]
    fn expert_policy_extends_when_target_exceeds_window() {
        let policy = ExpertPolicy::new(2, 2);
        let report = AgentSession::new(policy, ToolRegistry::standard(), test_ctx(4))
            .run("Generate 2 patterns, topology size 32*32, physical size 4000nm x 4000nm, style Layer-10001.")
            .expect("the request parses");
        let rendered = report.render_transcript();
        assert!(
            rendered.contains("Action: topology_extension"),
            "agent should extend beyond its 16-cell window"
        );
        assert!(rendered.contains("Action: get_documentation"));
        assert_eq!(report.library.len(), 2, "summary: {}", report.summary);
        for p in &report.library {
            assert_eq!(p.topology().shape(), (32, 32));
            assert_eq!(p.physical_width(), 4000);
        }
    }

    #[test]
    fn expert_policy_handles_two_subtasks() {
        let policy = ExpertPolicy::new(4, 2);
        let report = AgentSession::new(policy, ToolRegistry::standard(), test_ctx(5))
            .run(
                "Generate 4 patterns in total, topology size chosen from 16*16 and 32*32, \
             physical size 4000nm x 4000nm, style Layer-10001.",
            )
            .expect("the request parses");
        assert_eq!(report.library.len(), 4, "summary: {}", report.summary);
        let rendered = report.render_transcript();
        assert!(rendered.contains("# Requirement - subtask 2"));
    }

    #[test]
    fn turns_accumulate_library_and_transcript() {
        let mut session = AgentSession::new(
            ExpertPolicy::new(4, 2),
            ToolRegistry::standard(),
            test_ctx(6),
        );
        let first = session
            .turn(
                "Generate 2 patterns, topology size 16*16, physical size 2000nm x 2000nm, \
             style Layer-10001.",
            )
            .expect("the request parses");
        assert_eq!(first.turn, 1);
        assert_eq!(first.library_len, 2, "summary: {}", first.summary);
        let second = session
            .turn("Generate 1 more pattern.")
            .expect("the request parses");
        assert_eq!(second.turn, 2);
        assert_eq!(
            second.library_len, 3,
            "the follow-up turn adds to the same library (summary: {})",
            second.summary
        );
        // The per-turn transcript slice starts at this turn's utterance.
        assert_eq!(second.transcript[0].role, Role::User);
        let report = session.close();
        assert_eq!(report.turns, 2);
        assert_eq!(report.library.len(), 3);
        assert_eq!(
            report.summary, second.summary,
            "close reports the last turn"
        );
        // The full transcript contains both user turns in order.
        let users: Vec<&Message> = report
            .transcript
            .iter()
            .filter(|m| m.role == Role::User)
            .collect();
        assert_eq!(users.len(), 2);
        assert!(users[1].content.contains("1 more"));
    }

    #[test]
    fn run_equals_one_turn_then_close() {
        let request = "Generate 2 patterns, topology size 16*16, physical size 2000nm x 2000nm, \
             style Layer-10001.";
        let one_shot = AgentSession::new(
            ExpertPolicy::new(4, 2),
            ToolRegistry::standard(),
            test_ctx(7),
        )
        .run(request)
        .expect("the request parses");
        let mut session = AgentSession::new(
            ExpertPolicy::new(4, 2),
            ToolRegistry::standard(),
            test_ctx(7),
        );
        session.turn(request).expect("the request parses");
        let stepwise = session.close();
        assert_eq!(one_shot.summary, stepwise.summary);
        assert_eq!(one_shot.transcript, stepwise.transcript);
        assert_eq!(one_shot.library, stepwise.library);
    }

    #[test]
    fn restored_session_turns_match_the_uninterrupted_run() {
        let request = "Generate 2 patterns, topology size 16*16, physical size 2000nm x 2000nm, \
                       style Layer-10001.";
        let follow_up = "1 more pattern.";
        // Uninterrupted: two turns straight through.
        let mut uninterrupted = AgentSession::new(
            ExpertPolicy::new(4, 2),
            ToolRegistry::standard(),
            test_ctx(9),
        );
        uninterrupted.turn(request).expect("the request parses");
        uninterrupted.turn(follow_up).expect("the request parses");
        // Interrupted: one turn, snapshot, restore with fresh deps
        // (simulated crash), then the follow-up on the restored copy.
        let mut original = AgentSession::new(
            ExpertPolicy::new(4, 2),
            ToolRegistry::standard(),
            test_ctx(9),
        );
        original.turn(request).expect("the request parses");
        let snapshot = original.snapshot();
        // The snapshot itself survives JSON (the persistence format).
        let text = serde_json::to_string(&snapshot).expect("serializes");
        let snapshot: AgentSnapshot = serde_json::from_str(&text).expect("parses");
        drop(original);
        let (sampler, legalizer) = test_deps();
        let mut restored =
            AgentSession::restore(snapshot, ToolRegistry::standard(), sampler, legalizer)
                .expect("restores");
        restored.turn(follow_up).expect("the request parses");
        let a = uninterrupted.close();
        let b = restored.close();
        assert_eq!(a.transcript, b.transcript, "transcripts diverged");
        assert_eq!(a.library, b.library, "libraries diverged");
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.tool_calls, b.tool_calls);
        assert_eq!(a.turns, b.turns);
    }

    #[test]
    fn corrupt_snapshot_is_a_typed_error() {
        let session = AgentSession::new(
            ExpertPolicy::new(4, 2),
            ToolRegistry::standard(),
            test_ctx(10),
        );
        let mut snapshot = session.snapshot();
        snapshot.context.rng.truncate(3);
        let (sampler, legalizer) = test_deps();
        let err = AgentSession::restore(snapshot, ToolRegistry::standard(), sampler, legalizer)
            .expect_err("corrupt RNG state must be rejected");
        assert!(err.to_string().contains("corrupt RNG state"), "{err}");
    }

    #[test]
    fn closing_an_unused_session_is_clean() {
        let report =
            AgentSession::new(MockLlm::default(), ToolRegistry::standard(), test_ctx(8)).close();
        assert_eq!(report.turns, 0);
        assert!(report.library.is_empty());
        assert!(report.summary.contains("before any turn"));
    }
}
