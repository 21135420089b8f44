//! System-prompt assembly (Figure 4, boxes #1–#3).

use crate::{KnowledgeBase, ToolRegistry};

/// The fixed agent-setting text (#1 Agent Setting).
pub const AGENT_SETTING: &str = "You are a layout designer and are required to \
produce a well-designed layout pattern according to the user's requirements. \
There are some rules you must follow: (1) never print raw topology matrices — \
operate on pattern ids only; (2) decompose complex requests into one \
requirement list per sub-task; (3) prefer repairing failed topologies over \
regenerating from scratch when patterns are expensive; (4) record useful \
experience for future sessions.";

/// The standard working pipeline text (#3 Document Learning).
pub const STANDARD_PIPELINE: &str = "Standard working pipeline:\n\
1. generate basic topology with fixed size: topology = topology_gen(seed, style)\n\
2. extend topology to desired size: topology = topology_extension(topology, [rows, cols])\n\
3. first attempt to legalize the topology: layout, failed, log = legalize(topology, [w, h])\n\
4. modify un-solvable region for failed case: topology = topology_modification(failed_topology, style)\n\
5. save legal patterns and summarize results.";

/// Builds the full system prompt: agent setting, tool documentation and
/// documents/experience.
#[must_use]
pub(crate) fn system_prompt(tools: &ToolRegistry, knowledge: &KnowledgeBase) -> String {
    format!(
        "#1 Agent Setting\n{AGENT_SETTING}\n\n\
         #2 Tool Learning\nDuring the design process, you have access to the \
         following functions:\n{}\n\n\
         #3 Document Learning\nThere is a standard working pipeline you can \
         refer to:\n{STANDARD_PIPELINE}\n\nThere is some experience you can refer to:\n{}",
        tools.render_descriptions(),
        knowledge.render_documents(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prompt_contains_all_three_sections() {
        let prompt = system_prompt(&ToolRegistry::standard(), &KnowledgeBase::new());
        assert!(prompt.contains("#1 Agent Setting"));
        assert!(prompt.contains("#2 Tool Learning"));
        assert!(prompt.contains("#3 Document Learning"));
        assert!(prompt.contains("topology_gen"));
        assert!(prompt.contains("Standard working pipeline"));
    }

    #[test]
    fn prompt_reflects_recorded_experience() {
        let mut kb = KnowledgeBase::new();
        kb.add_experience("out-painting is safer for Layer-10001 at 512x512");
        let prompt = system_prompt(&ToolRegistry::standard(), &kb);
        assert!(prompt.contains("out-painting is safer"));
    }
}
