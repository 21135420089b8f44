//! The language-model abstraction behind the agent loop.

use crate::requirement::RequirementError;
use serde::{Deserialize, Serialize};
use serde_json::Value;

/// Message author in an agent transcript.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Role {
    /// The fixed agent setting / tool documentation (#1–#3 of Figure 4).
    System,
    /// The user requirement (#4).
    User,
    /// Agent thoughts and actions.
    Assistant,
    /// Tool observations fed back to the agent.
    Observation,
}

/// One transcript entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Message {
    /// Author of the entry.
    pub role: Role,
    /// Entry text (tool observations are JSON).
    pub content: String,
}

impl Message {
    /// Convenience constructor.
    #[must_use]
    pub(crate) fn new(role: Role, content: impl Into<String>) -> Message {
        Message {
            role,
            content: content.into(),
        }
    }
}

/// What the model decided to do next.
#[derive(Debug, Clone, PartialEq)]
pub enum AgentAction {
    /// Invoke a tool with JSON arguments.
    ToolCall {
        /// Registered tool name.
        name: String,
        /// JSON arguments (the `Action Input` of the transcript).
        args: Value,
    },
    /// Stop and report (#7 of Figure 4: summarize results and return).
    Finish {
        /// Final summary shown to the user.
        summary: String,
    },
}

/// One ReAct step: a thought plus an action.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentStep {
    /// The model's reasoning line (`Thought:` in the transcript).
    pub thought: String,
    /// The chosen action.
    pub action: AgentAction,
}

/// A language model driving the agent loop.
///
/// Implementations receive the full transcript (system prompt, user
/// requirement, prior thoughts/actions/observations) and emit the next
/// step. [`crate::ExpertPolicy`] is the deterministic expert; a scripted
/// mock replays canned steps in the protocol tests; external LLM bindings can
/// implement this trait without touching the rest of the system.
pub trait LanguageModel {
    /// Produces the next step given the transcript so far.
    fn next_step(&mut self, transcript: &[Message]) -> AgentStep;

    /// Notifies the model that a new user turn is about to start.
    ///
    /// Called by [`AgentSession::turn`](crate::AgentSession::turn)
    /// before the new utterance is appended to the transcript, so
    /// stateful models (planners, state machines) can reset their
    /// per-turn plan while keeping whatever cross-turn context they
    /// maintain. The default is a no-op: a purely transcript-driven
    /// model (or a scripted mock) needs nothing here.
    ///
    /// # Errors
    ///
    /// A model that refuses `utterance` returns why, and the session
    /// records nothing of the turn.
    fn begin_turn(&mut self, _utterance: &str) -> Result<(), RequirementError> {
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use serde_json::json;

    /// A scripted model that replays a fixed list of steps.
    #[derive(Debug, Clone, Default)]
    pub(crate) struct MockLlm {
        steps: Vec<AgentStep>,
        cursor: usize,
    }

    impl MockLlm {
        /// Creates a mock that replays `steps` in order, then finishes.
        #[must_use]
        pub(crate) fn new(steps: Vec<AgentStep>) -> MockLlm {
            MockLlm { steps, cursor: 0 }
        }
    }

    impl LanguageModel for MockLlm {
        fn next_step(&mut self, _transcript: &[Message]) -> AgentStep {
            let step = self.steps.get(self.cursor).cloned().unwrap_or(AgentStep {
                thought: "No scripted steps remain.".to_owned(),
                action: AgentAction::Finish {
                    summary: "mock exhausted".to_owned(),
                },
            });
            self.cursor += 1;
            step
        }
    }

    #[test]
    fn mock_replays_then_finishes() {
        let mut mock = MockLlm::new(vec![AgentStep {
            thought: "call a tool".into(),
            action: AgentAction::ToolCall {
                name: "topology_gen".into(),
                args: json!({"count": 1}),
            },
        }]);
        let s1 = mock.next_step(&[]);
        assert!(matches!(s1.action, AgentAction::ToolCall { .. }));
        let s2 = mock.next_step(&[]);
        assert!(matches!(s2.action, AgentAction::Finish { .. }));
    }

    #[test]
    fn message_roles_serialize() {
        let m = Message::new(Role::User, "hello");
        let s = serde_json::to_string(&m).expect("serializable");
        assert!(s.contains("User"));
    }
}
