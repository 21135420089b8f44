//! Documents and experience (paper §3.1, "Learning from Documents and
//! Experience").
//!
//! The knowledge base stores per-(style, method) extension statistics —
//! the data behind the paper's Figure 10 — plus free-text experiences.
//! The agent consults it through the `get_documentation` tool when a
//! requirement leaves the extension method open; "out-painting typically
//! yields better legality, while in-painting excels in diversity" is not
//! hard-coded anywhere: it would emerge from recorded statistics.
//!
//! In the served agent nothing records any yet: every session starts
//! from [`KnowledgeBase::new`] and no tool calls
//! [`KnowledgeBase::record_extension`] or
//! [`KnowledgeBase::record_diversity`], so `get_documentation` always
//! recommends the Out-Painting fallback of `KnowledgeBase::recommend`.

use cp_extend::ExtensionMethod;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Running statistics for one (style, method) pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MethodStats {
    /// Extension attempts recorded.
    pub attempts: usize,
    /// How many legalized cleanly.
    pub legal: usize,
    /// Sum of observed library diversities (for averaging).
    pub diversity_sum: f64,
    /// Number of diversity observations.
    pub diversity_count: usize,
}

impl MethodStats {
    /// Observed legality ratio (0 when nothing recorded).
    #[must_use]
    pub(crate) fn legality(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.legal as f64 / self.attempts as f64
        }
    }

    /// Mean observed diversity (0 when nothing recorded).
    #[must_use]
    pub(crate) fn mean_diversity(&self) -> f64 {
        if self.diversity_count == 0 {
            0.0
        } else {
            self.diversity_sum / self.diversity_count as f64
        }
    }
}

/// The agent's documents-and-experience store.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct KnowledgeBase {
    stats: HashMap<(u32, String), MethodStats>,
    experiences: Vec<String>,
}

impl KnowledgeBase {
    /// Empty knowledge base.
    #[must_use]
    pub fn new() -> KnowledgeBase {
        KnowledgeBase::default()
    }

    /// Records the outcome of extension attempts.
    pub fn record_extension(
        &mut self,
        style: u32,
        method: ExtensionMethod,
        attempts: usize,
        legal: usize,
    ) {
        let entry = self
            .stats
            .entry((style, method.name().to_owned()))
            .or_default();
        entry.attempts += attempts;
        entry.legal += legal;
    }

    /// Records an observed library diversity for a (style, method).
    pub fn record_diversity(&mut self, style: u32, method: ExtensionMethod, diversity: f64) {
        let entry = self
            .stats
            .entry((style, method.name().to_owned()))
            .or_default();
        entry.diversity_sum += diversity;
        entry.diversity_count += 1;
    }

    /// Statistics for a (style, method), if any were recorded.
    #[must_use]
    pub(crate) fn stats(&self, style: u32, method: ExtensionMethod) -> Option<&MethodStats> {
        self.stats.get(&(style, method.name().to_owned()))
    }

    /// Recommends an extension method for a style: the method with the
    /// best observed legality; ties and absent data fall back to
    /// out-painting (the documented default).
    #[must_use]
    pub(crate) fn recommend(&self, style: u32) -> ExtensionMethod {
        let out = self
            .stats(style, ExtensionMethod::OutPainting)
            .map(MethodStats::legality);
        let inp = self
            .stats(style, ExtensionMethod::InPainting)
            .map(MethodStats::legality);
        match (out, inp) {
            (Some(o), Some(i)) if i > o => ExtensionMethod::InPainting,
            _ => ExtensionMethod::OutPainting,
        }
    }

    /// Appends a free-text experience note.
    pub(crate) fn add_experience(&mut self, text: impl Into<String>) {
        self.experiences.push(text.into());
    }

    /// Recorded experience notes, oldest first.
    #[must_use]
    pub fn experiences(&self) -> &[String] {
        &self.experiences
    }

    /// Renders the documentation section of the system prompt.
    #[must_use]
    pub(crate) fn render_documents(&self) -> String {
        let mut out = String::from("Extension-method statistics (legality / mean diversity):\n");
        let mut keys: Vec<_> = self.stats.keys().collect();
        keys.sort();
        if keys.is_empty() {
            out.push_str("  (no recorded statistics yet; default to Out-Painting)\n");
        }
        for key in keys {
            let s = &self.stats[key];
            out.push_str(&format!(
                "  style {} / {}: legality {:.1}%, diversity {:.3} ({} attempts)\n",
                key.0,
                key.1,
                s.legality() * 100.0,
                s.mean_diversity(),
                s.attempts
            ));
        }
        if !self.experiences.is_empty() {
            out.push_str("Recorded experiences:\n");
            for e in &self.experiences {
                out.push_str("  - ");
                out.push_str(e);
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommendation_defaults_to_out_painting() {
        let kb = KnowledgeBase::new();
        assert_eq!(kb.recommend(0), ExtensionMethod::OutPainting);
    }

    #[test]
    fn recommendation_follows_recorded_legality() {
        let mut kb = KnowledgeBase::new();
        kb.record_extension(0, ExtensionMethod::OutPainting, 100, 40);
        kb.record_extension(0, ExtensionMethod::InPainting, 100, 80);
        assert_eq!(kb.recommend(0), ExtensionMethod::InPainting);
        // Other styles are unaffected.
        assert_eq!(kb.recommend(1), ExtensionMethod::OutPainting);
    }

    #[test]
    fn stats_accumulate() {
        let mut kb = KnowledgeBase::new();
        kb.record_extension(0, ExtensionMethod::OutPainting, 10, 9);
        kb.record_extension(0, ExtensionMethod::OutPainting, 10, 7);
        let s = kb.stats(0, ExtensionMethod::OutPainting).expect("recorded");
        assert_eq!(s.attempts, 20);
        assert_eq!(s.legal, 16);
        assert!((s.legality() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn documents_render_mentions_stats_and_experience() {
        let mut kb = KnowledgeBase::new();
        kb.record_extension(1, ExtensionMethod::OutPainting, 5, 5);
        kb.record_diversity(1, ExtensionMethod::OutPainting, 10.5);
        kb.add_experience("legalization of 500x500 Layer-10001 often needs modification");
        let doc = kb.render_documents();
        assert!(doc.contains("style 1 / Out"));
        assert!(doc.contains("100.0%"));
        assert!(doc.contains("often needs modification"));
    }
}
