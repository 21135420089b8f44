//! The deterministic expert policy (the reproduction's LLM stand-in).
//!
//! `ExpertPolicy` implements [`LanguageModel`] as a typed state machine
//! that plans and executes exactly the working pipeline of Figure 4:
//! requirement auto-formatting, batched `topology_gen`, experience-driven
//! extension-method selection (`get_documentation`), `legalize`, and the
//! §4.2 failure handling — repair the reported unreasonable region with
//! `topology_modification` when dropping is forbidden or the pattern is
//! expensive, drop otherwise.
//!
//! Everything it learns about the world arrives through tool
//! observations (JSON text in the transcript), never by reaching into
//! the tool context — the same information boundary a real LLM has.

use crate::llm::{AgentAction, AgentStep, LanguageModel, Message, Role};
use crate::requirement::{parse, Requirement, RequirementError};
use cp_extend::ExtensionMethod;
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};

/// A legalization failure the policy still has to deal with.
#[derive(Debug, Clone)]
struct FailedCase {
    id: u64,
    upper: u64,
    left: u64,
    bottom: u64,
    right: u64,
    failures: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Init,
    AwaitGen,
    AwaitDocs,
    AwaitExtend,
    AwaitLegalize,
    AwaitSave,
    AwaitModify,
    AwaitDrop,
    AwaitExperience,
    Done,
}

/// The deterministic expert agent.
#[derive(Debug)]
pub struct ExpertPolicy {
    batch_size: usize,
    max_repairs: u64,
    requirements: Vec<Requirement>,
    current: usize,
    collected: usize,
    state: State,
    window: usize,
    generated_size: (usize, usize),
    chosen_method: Option<ExtensionMethod>,
    pending: Vec<u64>,
    repair_queue: Vec<FailedCase>,
    relegalize: Vec<u64>,
    pending_failures: Vec<Value>,
    consecutive_empty_batches: usize,
    notes: Vec<String>,
    /// The previous turn's last requirement — the context short
    /// follow-up utterances ("now make them denser") inherit
    /// unmentioned fields from. Survives [`LanguageModel::begin_turn`].
    carry: Option<Requirement>,
}

impl Default for ExpertPolicy {
    fn default() -> ExpertPolicy {
        ExpertPolicy::new(8, 2)
    }
}

impl ExpertPolicy {
    /// Creates a policy processing `batch_size` topologies per round and
    /// repairing each failed topology at most `max_repairs` times.
    #[must_use]
    pub(crate) fn new(batch_size: usize, max_repairs: u64) -> ExpertPolicy {
        ExpertPolicy {
            batch_size: batch_size.max(1),
            max_repairs,
            requirements: Vec::new(),
            current: 0,
            collected: 0,
            state: State::Init,
            window: 0,
            generated_size: (0, 0),
            chosen_method: None,
            pending: Vec::new(),
            repair_queue: Vec::new(),
            relegalize: Vec::new(),
            pending_failures: Vec::new(),
            consecutive_empty_batches: 0,
            notes: Vec::new(),
            carry: None,
        }
    }

    /// Captures the state that survives turns: the configuration, the
    /// learned model `window`, and the carried requirement. Everything
    /// else is per-turn plan state that [`LanguageModel::begin_turn`]
    /// rebuilds anyway, so a snapshot taken *between* turns restores to
    /// a policy whose next turn is byte-identical to the uninterrupted
    /// run.
    #[must_use]
    pub(crate) fn snapshot(&self) -> PolicySnapshot {
        PolicySnapshot {
            batch_size: self.batch_size,
            max_repairs: self.max_repairs,
            window: self.window,
            carry: self.carry.clone(),
        }
    }

    /// Rebuilds a policy from a [`PolicySnapshot`] (the between-turns
    /// counterpart of [`ExpertPolicy::snapshot`]).
    #[must_use]
    pub(crate) fn from_snapshot(snapshot: PolicySnapshot) -> ExpertPolicy {
        ExpertPolicy {
            window: snapshot.window,
            carry: snapshot.carry,
            ..ExpertPolicy::new(snapshot.batch_size, snapshot.max_repairs)
        }
    }

    fn requirement(&self) -> &Requirement {
        &self.requirements[self.current]
    }

    fn physical_args(&self) -> Value {
        let (w, h) = self.requirement().physical_size_nm;
        json!([w, h])
    }

    fn remaining(&self) -> usize {
        self.requirement().count.saturating_sub(self.collected)
    }

    fn gen_step(&mut self) -> AgentStep {
        let req = self.requirement().clone();
        let count = self.remaining().min(self.batch_size);
        self.state = State::AwaitGen;
        AgentStep {
            thought: format!(
                "Sub-task {} needs {} more {} patterns at topology size {}x{}; \
                 generate a batch of {count} basic topologies first.",
                self.current + 1,
                self.remaining(),
                req.style,
                req.topology_size.0,
                req.topology_size.1,
            ),
            action: AgentAction::ToolCall {
                name: "topology_gen".to_owned(),
                args: json!({
                    "count": count,
                    "style": req.style.name(),
                    "size": [req.topology_size.0, req.topology_size.1],
                }),
            },
        }
    }

    fn extension_step(&mut self, method: ExtensionMethod) -> AgentStep {
        let req = self.requirement().clone();
        self.state = State::AwaitExtend;
        AgentStep {
            thought: format!(
                "The model window is {}x{} but the target is {}x{}; extend the \
                 batch via {method}.",
                self.generated_size.0,
                self.generated_size.1,
                req.topology_size.0,
                req.topology_size.1
            ),
            action: AgentAction::ToolCall {
                name: "topology_extension".to_owned(),
                args: json!({
                    "ids": self.pending,
                    "target": [req.topology_size.0, req.topology_size.1],
                    "method": method.name(),
                }),
            },
        }
    }

    fn legalize_step(&mut self, ids: Vec<u64>, thought: String) -> AgentStep {
        self.state = State::AwaitLegalize;
        AgentStep {
            thought,
            action: AgentAction::ToolCall {
                name: "legalize".to_owned(),
                args: json!({"ids": ids, "physical": self.physical_args()}),
            },
        }
    }

    fn modification_step(&mut self, case: &FailedCase) -> AgentStep {
        let style = self.requirement().style;
        self.state = State::AwaitModify;
        let thought = if case.failures >= 2 {
            format!(
                "Legalization has failed {} times in the same region for pattern {}; \
                 I will in-paint that specific area with the same style and then \
                 attempt legalization again.",
                case.failures, case.id
            )
        } else {
            format!(
                "Pattern {} failed legalization; the log locates the unreasonable \
                 region, so repair it with topology_modification instead of wasting \
                 the whole topology.",
                case.id
            )
        };
        AgentStep {
            thought,
            action: AgentAction::ToolCall {
                name: "topology_modification".to_owned(),
                args: json!({
                    "id": case.id,
                    "upper": case.upper,
                    "left": case.left,
                    "bottom": case.bottom,
                    "right": case.right,
                    "style": style.name(),
                    "seed": 42 + case.failures,
                }),
            },
        }
    }

    /// Shared continuation once a batch is fully resolved.
    fn continue_after_batch(&mut self) -> AgentStep {
        if self.remaining() > 0 && self.consecutive_empty_batches < 3 {
            return self.gen_step();
        }
        if self.remaining() > 0 {
            self.notes.push(format!(
                "sub-task {} abandoned with {} of {} patterns after repeated empty batches",
                self.current + 1,
                self.collected,
                self.requirement().count
            ));
        }
        // Sub-task finished (or abandoned): record experience, then move on.
        let req = self.requirement().clone();
        let text = format!(
            "Sub-task {} ({} {}x{}): delivered {} of {} requested patterns using \
             extension method {:?}.",
            self.current + 1,
            req.style,
            req.topology_size.0,
            req.topology_size.1,
            self.collected,
            req.count,
            self.chosen_method.map(ExtensionMethod::name),
        );
        self.state = State::AwaitExperience;
        AgentStep {
            thought: "Document the sub-task outcome for future sessions.".to_owned(),
            action: AgentAction::ToolCall {
                name: "report_experience".to_owned(),
                args: json!({"text": text}),
            },
        }
    }

    fn finish_step(&mut self) -> AgentStep {
        self.state = State::Done;
        let summary = if self.notes.is_empty() {
            format!(
                "Completed {} sub-task(s); all requested patterns delivered and saved \
                 to the library.",
                self.requirements.len()
            )
        } else {
            format!(
                "Completed {} sub-task(s). Delivered patterns per sub-task: {}.",
                self.requirements.len(),
                self.notes.join("; "),
            )
        };
        AgentStep {
            thought: "All sub-tasks are processed; summarize results and return.".to_owned(),
            action: AgentAction::Finish { summary },
        }
    }

    fn handle_failures(&mut self, failed: &[Value]) -> Option<AgentStep> {
        let req = self.requirement().clone();
        let target_cells = req.topology_size.0 * req.topology_size.1;
        let expensive = self.window > 0 && target_cells >= 2 * self.window * self.window;
        let mut drops: Vec<u64> = Vec::new();
        for f in failed {
            let case = FailedCase {
                id: f["id"].as_u64().unwrap_or(0),
                upper: f["region"]["upper"].as_u64().unwrap_or(0),
                left: f["region"]["left"].as_u64().unwrap_or(0),
                bottom: f["region"]["bottom"].as_u64().unwrap_or(1),
                right: f["region"]["right"].as_u64().unwrap_or(1),
                failures: f["failures"].as_u64().unwrap_or(1),
            };
            let repair = (!req.drop_allowed || expensive) && case.failures <= self.max_repairs;
            if repair {
                self.repair_queue.push(case);
            } else {
                drops.push(case.id);
            }
        }
        if !drops.is_empty() {
            self.state = State::AwaitDrop;
            return Some(AgentStep {
                thought: format!(
                    "{} topologies are cheap to regenerate (drop allowed); drop the \
                     failed cases and refill the batch.",
                    drops.len()
                ),
                action: AgentAction::ToolCall {
                    name: "drop_patterns".to_owned(),
                    args: json!({"ids": drops}),
                },
            });
        }
        self.next_repair_or_continue()
    }

    fn next_repair_or_continue(&mut self) -> Option<AgentStep> {
        if let Some(case) = self.repair_queue.pop() {
            self.relegalize.push(case.id);
            return Some(self.modification_step(&case));
        }
        if !self.relegalize.is_empty() {
            let ids = std::mem::take(&mut self.relegalize);
            return Some(self.legalize_step(
                ids,
                "The repaired topologies must pass legalization again.".to_owned(),
            ));
        }
        None
    }
}

/// The cross-turn state of an [`ExpertPolicy`], serializable for
/// session snapshots (see `ExpertPolicy::snapshot`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicySnapshot {
    /// Topologies processed per generation round.
    pub batch_size: usize,
    /// Repair attempts per failed topology.
    pub max_repairs: u64,
    /// The model window learned from tool observations (0 = not yet
    /// observed).
    pub window: usize,
    /// The previous turn's last requirement — the context short
    /// follow-up utterances inherit unmentioned fields from.
    pub carry: Option<Requirement>,
}

/// Latest observation in the transcript, parsed as JSON.
fn last_observation(transcript: &[Message]) -> Value {
    transcript
        .iter()
        .rev()
        .find(|m| m.role == Role::Observation)
        .and_then(|m| serde_json::from_str(&m.content).ok())
        .unwrap_or(Value::Null)
}

impl LanguageModel for ExpertPolicy {
    /// Parses `utterance` against `carry` — the previous turn's last
    /// requirement, which the fresh plan inherits unmentioned fields
    /// from — and re-arms the state machine for it by rebuilding the
    /// policy from its constructor, explicitly carrying over only what
    /// survives turns: the configuration, the learned model `window`,
    /// and the new `carry`. Built this way, any field added later
    /// resets per turn by default instead of silently leaking stale
    /// state. A refused utterance leaves the policy as it was. The
    /// knowledge base lives in the tool context, so recorded experience
    /// persists independently of this reset.
    fn begin_turn(&mut self, utterance: &str) -> Result<(), RequirementError> {
        let requirements = parse(utterance, self.carry.as_ref())?;
        *self = ExpertPolicy {
            window: self.window,
            carry: requirements.last().cloned(),
            requirements,
            ..ExpertPolicy::new(self.batch_size, self.max_repairs)
        };
        Ok(())
    }

    fn next_step(&mut self, transcript: &[Message]) -> AgentStep {
        let obs = last_observation(transcript);
        if obs.get("error").is_some() && self.state != State::Init {
            self.notes.push(format!(
                "tool error during sub-task {}: {}",
                self.current + 1,
                obs["error"].as_str().unwrap_or("unknown")
            ));
            return self.finish_step();
        }
        match self.state {
            State::Init => {
                let rendered: Vec<String> = self
                    .requirements
                    .iter()
                    .enumerate()
                    .map(|(i, r)| r.render(i + 1))
                    .collect();
                let mut step = self.gen_step();
                step.thought = format!(
                    "Auto-format the request into {} requirement list(s):\n{}\n\n{}",
                    self.requirements.len(),
                    rendered.join("\n"),
                    step.thought
                );
                step
            }
            State::AwaitGen => {
                self.pending = obs["ids"]
                    .as_array()
                    .map(|a| a.iter().filter_map(Value::as_u64).collect())
                    .unwrap_or_default();
                if let Some(w) = obs["window"].as_u64() {
                    self.window = w as usize;
                }
                self.generated_size = (
                    obs["size"][0].as_u64().unwrap_or(0) as usize,
                    obs["size"][1].as_u64().unwrap_or(0) as usize,
                );
                let req = self.requirement().clone();
                if req.topology_size.0 > self.generated_size.0
                    || req.topology_size.1 > self.generated_size.1
                {
                    // Needs extension: method from the requirement or from
                    // the experience documents.
                    if let Some(method) = req.extension_method.or(self.chosen_method) {
                        self.chosen_method = Some(method);
                        self.extension_step(method)
                    } else {
                        self.state = State::AwaitDocs;
                        AgentStep {
                            thought: "The requirement leaves the extension method open; \
                                      consult the documents for the statistically better \
                                      choice for this style."
                                .to_owned(),
                            action: AgentAction::ToolCall {
                                name: "get_documentation".to_owned(),
                                args: json!({"style": req.style.name()}),
                            },
                        }
                    }
                } else {
                    let ids = self.pending.clone();
                    self.legalize_step(
                        ids,
                        "The topologies are already at target size; legalize them.".to_owned(),
                    )
                }
            }
            State::AwaitDocs => {
                let method = obs["recommended_method"]
                    .as_str()
                    .and_then(ExtensionMethod::from_name)
                    .unwrap_or_default();
                self.chosen_method = Some(method);
                self.extension_step(method)
            }
            State::AwaitExtend => {
                let ids = self.pending.clone();
                self.legalize_step(
                    ids,
                    "Extension finished; attempt to legalize the batch.".to_owned(),
                )
            }
            State::AwaitLegalize => {
                let legal: Vec<u64> = obs["legal"]
                    .as_array()
                    .map(|a| a.iter().filter_map(Value::as_u64).collect())
                    .unwrap_or_default();
                let failed = obs["failed"].as_array().cloned().unwrap_or_default();
                if legal.is_empty() {
                    self.consecutive_empty_batches += 1;
                    return self
                        .handle_failures(&failed)
                        .unwrap_or_else(|| self.continue_after_batch());
                }
                self.consecutive_empty_batches = 0;
                // Save the clean patterns first; deal with failures next step.
                self.pending_failures = failed;
                self.state = State::AwaitSave;
                AgentStep {
                    thought: format!(
                        "{} patterns legalized cleanly; save them to the library \
                         before handling the {} failure(s).",
                        legal.len(),
                        self.pending_failures.len()
                    ),
                    action: AgentAction::ToolCall {
                        name: "save_library".to_owned(),
                        args: json!({"ids": legal}),
                    },
                }
            }
            State::AwaitSave => {
                if let Some(saved) = obs["saved"].as_u64() {
                    self.collected += saved as usize;
                }
                let failed = std::mem::take(&mut self.pending_failures);
                if !failed.is_empty() {
                    if let Some(step) = self.handle_failures(&failed) {
                        return step;
                    }
                }
                self.next_repair_or_continue()
                    .unwrap_or_else(|| self.continue_after_batch())
            }
            State::AwaitModify | State::AwaitDrop => self
                .next_repair_or_continue()
                .unwrap_or_else(|| self.continue_after_batch()),
            State::AwaitExperience => {
                self.notes.push(format!(
                    "sub-task {}: {}/{} patterns",
                    self.current + 1,
                    self.collected,
                    self.requirement().count
                ));
                if self.current + 1 < self.requirements.len() {
                    self.current += 1;
                    self.collected = 0;
                    self.chosen_method = None;
                    self.consecutive_empty_batches = 0;
                    self.gen_step()
                } else {
                    self.finish_step()
                }
            }
            State::Done => AgentStep {
                thought: "Nothing left to do.".to_owned(),
                action: AgentAction::Finish {
                    summary: "session already finished".to_owned(),
                },
            },
        }
    }
}
