//! The expert LLM agent front-end of ChatPattern (paper §3.1, Figure 4).
//!
//! The agent turns free-form natural-language requests into pattern
//! libraries by:
//!
//! 1. **Requirement auto-formatting** ([`requirement`]) — translating the
//!    request into structured requirement lists (one per sub-task) with a
//!    Basic part (topology size, physical size, style, count) and an
//!    Advanced part (extension method, drop-allowed, time limitation);
//! 2. **Task planning and execution** ([`session`], [`policy`]) — a
//!    ReAct-style Thought/Action/Action-Input/Observation loop over the
//!    pattern-generation tools, resumable across user turns
//!    ([`AgentSession::turn`]): the working library, the requirement
//!    context and the transcript persist, so follow-up utterances
//!    refine the previous turn's results;
//! 3. **Tool function learning** ([`tools`]) — a registry of JSON-argument
//!    tools (`topology_gen`, `topology_extension`, `legalize`,
//!    `topology_modification`, …) whose descriptions are assembled into
//!    the system prompt ([`prompt`]);
//! 4. **Learning from documents and experience** ([`knowledge`]) — the
//!    statistics store (Figure 10 data) that informs extension-method
//!    selection, plus recorded experiences;
//! 5. **Unseen mistake-processing** — on legalization failure the policy
//!    reads the explainable failure region from the log and either drops
//!    the topology or repairs it with `topology_modification` (§4.2).
//!
//! The [`LanguageModel`] trait decouples the loop
//! from the model: [`ExpertPolicy`] is the
//! deterministic expert stand-in used in this reproduction (no model
//! weights or network in the build; [`policy`] says what it decides
//! and from what); any external LLM can be plugged in behind the same
//! trait.

pub mod knowledge;
pub mod llm;
pub mod policy;
pub mod prompt;
pub mod requirement;
pub mod session;
pub mod tools;

pub use knowledge::KnowledgeBase;
pub use llm::{AgentAction, AgentStep, LanguageModel, Message, MockLlm, Role};
pub use policy::{ExpertPolicy, PolicySnapshot};
pub use requirement::{
    auto_format, auto_format_with_context, try_auto_format, Requirement, RequirementError,
};
pub use session::{
    render_transcript, AgentSession, AgentSnapshot, SessionReport, SnapshotError, TurnReport,
};
pub use tools::{ContextSnapshot, ToolContext, ToolError, ToolRegistry};
