//! The pattern-generation tool registry (paper §3.1, "Tool Function
//! Learning and Application").
//!
//! The LLM agent never sees raw topology matrices — they can exceed any
//! token budget. Tools operate on a pattern *store* keyed by integer ids
//! and exchange only JSON metadata: ids, sizes, styles, failure regions.

use crate::session::SnapshotError;
use crate::KnowledgeBase;
use cp_dataset::Style;
use cp_diffusion::{Mask, PatternSampler};
use cp_extend::{extend, ExtensionMethod};
use cp_layout::legalize::Legalizer;
use cp_layout::squish::{
    fits_one_request, Packed, Region, SquishPattern, Topology, MAX_REQUEST_CELLS,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize, Serializer};
use serde_json::{json, Value};
use std::collections::HashMap;

/// A tool-call failure (reported back to the agent as an observation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ToolError {
    message: String,
}

impl ToolError {
    /// Creates an error with a message.
    #[must_use]
    pub(crate) fn new(message: impl Into<String>) -> ToolError {
        ToolError {
            message: message.into(),
        }
    }

    /// The error message.
    #[must_use]
    pub(crate) fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for ToolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ToolError {}

/// A stored working topology with its style and (optional) legalized
/// geometry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoredPattern {
    /// The working topology.
    pub topology: Topology,
    /// Style condition it was generated under.
    pub style: Option<u32>,
    /// Legalized squish pattern, once `legalize` succeeded.
    pub legal: Option<SquishPattern>,
    /// Number of failed legalization attempts so far.
    pub failures: usize,
    /// Grid region of the most recent failure, if any.
    pub last_failure_region: Option<Region>,
}

/// Mutable state shared by all tools: the generative back-end, the
/// legalizer, the pattern store, the knowledge base and the RNG.
pub struct ToolContext {
    sampler: Box<dyn PatternSampler>,
    legalizer: Legalizer,
    store: HashMap<u64, StoredPattern>,
    library: Vec<SquishPattern>,
    knowledge: KnowledgeBase,
    rng: ChaCha8Rng,
    next_id: u64,
}

impl std::fmt::Debug for ToolContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ToolContext")
            .field("stored", &self.store.len())
            .field("library", &self.library.len())
            .finish_non_exhaustive()
    }
}

impl ToolContext {
    /// Assembles a context from a back-end sampler and a legalizer.
    #[must_use]
    pub fn new(
        sampler: Box<dyn PatternSampler>,
        legalizer: Legalizer,
        knowledge: KnowledgeBase,
        seed: u64,
    ) -> ToolContext {
        ToolContext {
            sampler,
            legalizer,
            store: HashMap::new(),
            library: Vec::new(),
            knowledge,
            rng: ChaCha8Rng::seed_from_u64(seed),
            next_id: 1,
        }
    }

    /// The model's native window size.
    #[must_use]
    pub(crate) fn window(&self) -> usize {
        self.sampler.window()
    }

    /// Patterns accumulated in the final library.
    #[must_use]
    pub(crate) fn library(&self) -> &[SquishPattern] {
        &self.library
    }

    /// Consumes the context, returning the library.
    #[must_use]
    pub(crate) fn into_library(self) -> Vec<SquishPattern> {
        self.library
    }

    /// The knowledge base.
    #[must_use]
    pub(crate) fn knowledge(&self) -> &KnowledgeBase {
        &self.knowledge
    }

    fn insert(&mut self, pattern: StoredPattern) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.store.insert(id, pattern);
        id
    }

    /// Captures every piece of mutable tool state — the working store,
    /// the library, the knowledge base, the RNG position and the id
    /// counter — as a serializable [`ContextSnapshot`]. The sampler and
    /// legalizer are *dependencies*, not state: they are re-injected by
    /// [`ToolContext::restore`], so a snapshot stays small and a
    /// restored context behaves byte-identically on the same back-end.
    #[must_use]
    pub(crate) fn snapshot(&self) -> ContextSnapshot {
        let mut store: Vec<(u64, StoredPattern)> = self
            .store
            .iter()
            .map(|(id, pattern)| (*id, pattern.clone()))
            .collect();
        // Sorted entries make the serialized form deterministic (the
        // map's iteration order is not).
        store.sort_by_key(|(id, _)| *id);
        ContextSnapshot {
            store,
            library: self.library.clone(),
            knowledge: self.knowledge.clone(),
            rng: self.rng.state_words(),
            next_id: self.next_id,
        }
    }

    /// Rebuilds a context from a [`ContextSnapshot`] plus freshly
    /// injected dependencies (the generative sampler and the
    /// legalizer).
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] when the RNG state words are
    /// corrupt (wrong count or out-of-range cursor).
    pub(crate) fn restore(
        snapshot: ContextSnapshot,
        sampler: Box<dyn PatternSampler>,
        legalizer: Legalizer,
    ) -> Result<ToolContext, SnapshotError> {
        let rng = ChaCha8Rng::from_state_words(&snapshot.rng).ok_or_else(|| {
            SnapshotError::new(format!(
                "corrupt RNG state: {} words (want {})",
                snapshot.rng.len(),
                rand_chacha::STATE_WORDS
            ))
        })?;
        Ok(ToolContext {
            sampler,
            legalizer,
            store: snapshot.store.into_iter().collect(),
            library: snapshot.library,
            knowledge: snapshot.knowledge,
            rng,
            next_id: snapshot.next_id,
        })
    }
}

/// The serializable mutable state of a [`ToolContext`] (see
/// `ToolContext::snapshot`). Store entries are sorted by id so the
/// serialized form is deterministic.
///
/// This is where a session's topologies rest, and the one place that
/// writes them packed ([`cp_layout::squish::Packed`], one bit a cell): a
/// dialog's library only grows, and every spill, export and move
/// carries all of it. Reading needs no counterpart — the topology
/// reader takes both forms, so snapshots written before the packed
/// form existed still load.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct ContextSnapshot {
    /// The working pattern store as sorted `(id, pattern)` entries.
    pub store: Vec<(u64, StoredPattern)>,
    /// The delivered library so far.
    pub library: Vec<SquishPattern>,
    /// The documents-and-experience store.
    pub knowledge: KnowledgeBase,
    /// The RNG state words ([`ChaCha8Rng::state_words`]).
    pub rng: Vec<u32>,
    /// The next working-pattern id to hand out.
    pub next_id: u64,
}

impl Serialize for ContextSnapshot {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        // Taken apart by name, here and below, so that a field added
        // to the struct cannot be left out of its text.
        let ContextSnapshot {
            store,
            library,
            knowledge,
            rng,
            next_id,
        } = self;
        s.map_begin();
        s.map_key("knowledge");
        knowledge.serialize(s);
        s.map_key("library");
        let library: Vec<_> = library.iter().map(Packed).collect();
        library.serialize(s);
        s.map_key("next_id");
        next_id.serialize(s);
        s.map_key("rng");
        rng.serialize(s);
        s.map_key("store");
        let store: Vec<_> = store
            .iter()
            .map(|(id, pattern)| (id, PackedStored(pattern)))
            .collect();
        store.serialize(s);
        s.map_end();
    }
}

/// A [`StoredPattern`] with its topologies written packed.
struct PackedStored<'a>(&'a StoredPattern);

impl Serialize for PackedStored<'_> {
    fn serialize<S: Serializer>(&self, s: &mut S) {
        let StoredPattern {
            topology,
            style,
            legal,
            failures,
            last_failure_region,
        } = self.0;
        s.map_begin();
        s.map_key("failures");
        failures.serialize(s);
        s.map_key("last_failure_region");
        last_failure_region.serialize(s);
        s.map_key("legal");
        legal.as_ref().map(Packed).serialize(s);
        s.map_key("style");
        style.serialize(s);
        s.map_key("topology");
        Packed(topology).serialize(s);
        s.map_end();
    }
}

/// A callable tool. `Send + Sync` is a supertrait because registries
/// live inside long-lived chat sessions that migrate between engine
/// worker threads; tools are stateless (all state is in the
/// [`ToolContext`]), so the bound is free.
pub trait Tool: Send + Sync {
    /// Registered name (what the agent writes after `Action:`).
    fn name(&self) -> &'static str;

    /// One-paragraph usage description for the system prompt.
    fn description(&self) -> &'static str;

    /// Executes the tool.
    ///
    /// # Errors
    ///
    /// Returns a [`ToolError`] on malformed arguments or unknown ids.
    fn call(&self, ctx: &mut ToolContext, args: &Value) -> Result<Value, ToolError>;
}

/// The default tool set of ChatPattern.
pub struct ToolRegistry {
    tools: Vec<Box<dyn Tool>>,
}

impl std::fmt::Debug for ToolRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ToolRegistry")
            .field("tools", &self.names())
            .finish()
    }
}

impl Default for ToolRegistry {
    fn default() -> ToolRegistry {
        ToolRegistry::standard()
    }
}

impl ToolRegistry {
    /// The standard tool set (generation, extension, legalization,
    /// modification, dropping, library save, documentation, experience).
    #[must_use]
    pub fn standard() -> ToolRegistry {
        ToolRegistry {
            tools: vec![
                Box::new(TopologyGen),
                Box::new(TopologyExtension),
                Box::new(LegalizeTool),
                Box::new(TopologyModification),
                Box::new(DropPatterns),
                Box::new(SaveLibrary),
                Box::new(GetDocumentation),
                Box::new(ReportExperience),
            ],
        }
    }

    /// Registered tool names.
    #[must_use]
    pub(crate) fn names(&self) -> Vec<&'static str> {
        self.tools.iter().map(|t| t.name()).collect()
    }

    /// Looks a tool up by name.
    #[must_use]
    pub(crate) fn get(&self, name: &str) -> Option<&dyn Tool> {
        self.tools.iter().find(|t| t.name() == name).map(|b| &**b)
    }

    /// Dispatches one tool call: the single fallible entry point the
    /// agent loop and the service API route every invocation through.
    ///
    /// # Errors
    ///
    /// Returns a [`ToolError`] for unknown tool names and for failures
    /// inside the tool itself.
    pub(crate) fn dispatch(
        &self,
        ctx: &mut ToolContext,
        name: &str,
        args: &Value,
    ) -> Result<Value, ToolError> {
        self.get(name)
            .ok_or_else(|| ToolError::new(format!("unknown tool '{name}'")))?
            .call(ctx, args)
    }

    /// Renders the `(functions and descriptions)` block of the system
    /// prompt (#2 Tool Learning in Figure 4).
    #[must_use]
    pub(crate) fn render_descriptions(&self) -> String {
        self.tools
            .iter()
            .map(|t| format!("- {}: {}", t.name(), t.description()))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

// ---------------------------------------------------------------------
// Argument helpers
// ---------------------------------------------------------------------

fn arg_usize(args: &Value, key: &str) -> Result<usize, ToolError> {
    args.get(key)
        .and_then(Value::as_u64)
        .map(|v| v as usize)
        .ok_or_else(|| ToolError::new(format!("missing or invalid '{key}'")))
}

fn arg_pair(args: &Value, key: &str) -> Result<(usize, usize), ToolError> {
    let arr = args
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| ToolError::new(format!("missing or invalid '{key}'")))?;
    if arr.len() != 2 {
        return Err(ToolError::new(format!("'{key}' must have two entries")));
    }
    let a = arr[0]
        .as_u64()
        .ok_or_else(|| ToolError::new(format!("'{key}[0]' must be a number")))?;
    let b = arr[1]
        .as_u64()
        .ok_or_else(|| ToolError::new(format!("'{key}[1]' must be a number")))?;
    Ok((a as usize, b as usize))
}

fn arg_ids(args: &Value, key: &str) -> Result<Vec<u64>, ToolError> {
    args.get(key)
        .and_then(Value::as_array)
        .map(|arr| arr.iter().filter_map(Value::as_u64).collect())
        .ok_or_else(|| ToolError::new(format!("missing or invalid '{key}'")))
}

fn arg_style(args: &Value, key: &str) -> Option<u32> {
    args.get(key)
        .and_then(Value::as_str)
        .and_then(Style::from_name)
        .map(Style::id)
}

fn region_to_json(region: Region) -> Value {
    json!({
        "upper": region.row0(),
        "left": region.col0(),
        "bottom": region.row1(),
        "right": region.col1(),
    })
}

// ---------------------------------------------------------------------
// Tools
// ---------------------------------------------------------------------

/// Random Topology Generation (paper tool 1).
struct TopologyGen;

impl Tool for TopologyGen {
    fn name(&self) -> &'static str {
        "topology_gen"
    }

    fn description(&self) -> &'static str {
        "Generate random topology matrices subject to a style condition. \
         Args: {\"count\": int, \"style\": \"Layer-10001\", \"size\": [rows, cols] (optional)}. \
         The model output size is capped at its native window; use topology_extension \
         for larger targets. Returns {\"ids\": [...], \"size\": [r, c], \"window\": L}."
    }

    fn call(&self, ctx: &mut ToolContext, args: &Value) -> Result<Value, ToolError> {
        let count = arg_usize(args, "count")?;
        let style = arg_style(args, "style");
        let window = ctx.window();
        let (rows, cols) = match arg_pair(args, "size") {
            Ok((r, c)) => (r.min(window), c.min(window)),
            Err(_) => (window, window),
        };
        let mut ids = Vec::with_capacity(count);
        for _ in 0..count {
            let topology = ctx.sampler.generate(rows, cols, style, &mut ctx.rng);
            ids.push(ctx.insert(StoredPattern {
                topology,
                style,
                legal: None,
                failures: 0,
                last_failure_region: None,
            }));
        }
        Ok(json!({"ids": ids, "size": [rows, cols], "window": window}))
    }
}

/// Topology Extension (paper supplementary tool 1).
struct TopologyExtension;

impl Tool for TopologyExtension {
    fn name(&self) -> &'static str {
        "topology_extension"
    }

    fn description(&self) -> &'static str {
        "Extend stored topologies to a larger size via In-Painting or Out-Painting. \
         Args: {\"ids\": [...], \"target\": [rows, cols], \"method\": \"Out\"|\"In\"}. \
         Returns {\"ids\": [...], \"size\": [r, c], \"method\": \"Out\"}."
    }

    fn call(&self, ctx: &mut ToolContext, args: &Value) -> Result<Value, ToolError> {
        let ids = arg_ids(args, "ids")?;
        let (rows, cols) = arg_pair(args, "target")?;
        if !fits_one_request(rows, cols, 1) {
            return Err(ToolError::new(format!(
                "target {rows}x{cols} exceeds the {MAX_REQUEST_CELLS} cells one request may ask for"
            )));
        }
        let method = args
            .get("method")
            .and_then(Value::as_str)
            .and_then(ExtensionMethod::from_name)
            .unwrap_or_default();
        for &id in &ids {
            let entry = ctx
                .store
                .get(&id)
                .ok_or_else(|| ToolError::new(format!("unknown pattern id {id}")))?;
            let style = entry.style;
            let seed = entry.topology.clone();
            if seed.rows() > rows || seed.cols() > cols {
                return Err(ToolError::new(format!(
                    "pattern {id} is already larger than the target"
                )));
            }
            let extended = extend(
                &*ctx.sampler,
                &seed,
                rows,
                cols,
                method,
                style,
                &mut ctx.rng,
            );
            let entry = ctx
                .store
                .get_mut(&id)
                .ok_or_else(|| ToolError::new(format!("pattern id {id} vanished mid-call")))?;
            entry.topology = extended;
            entry.legal = None;
        }
        Ok(json!({"ids": ids, "size": [rows, cols], "method": method.name()}))
    }
}

/// Topology Legalization (paper tool 2).
struct LegalizeTool;

impl Tool for LegalizeTool {
    fn name(&self) -> &'static str {
        "legalize"
    }

    fn description(&self) -> &'static str {
        "Legalize stored topologies into DRC-clean physical patterns. \
         Args: {\"ids\": [...], \"physical\": [width_nm, height_nm]}. Returns \
         {\"legal\": [...], \"failed\": [{\"id\", \"region\": {upper,left,bottom,right}, \"log\"}]} — \
         the failure region locates the unreasonable area for topology_modification."
    }

    fn call(&self, ctx: &mut ToolContext, args: &Value) -> Result<Value, ToolError> {
        let ids = arg_ids(args, "ids")?;
        let (width, height) = arg_pair(args, "physical")?;
        let mut legal = Vec::new();
        let mut failed = Vec::new();
        for &id in &ids {
            let entry = ctx
                .store
                .get(&id)
                .ok_or_else(|| ToolError::new(format!("unknown pattern id {id}")))?;
            let topology = entry.topology.clone();
            let outcome =
                ctx.legalizer
                    .legalize(&topology, width as i64, height as i64, &mut ctx.rng);
            let entry = ctx
                .store
                .get_mut(&id)
                .ok_or_else(|| ToolError::new(format!("pattern id {id} vanished mid-call")))?;
            match outcome {
                Ok(pattern) => {
                    entry.legal = Some(pattern);
                    legal.push(id);
                }
                Err(failure) => {
                    entry.failures += 1;
                    entry.last_failure_region = Some(failure.region);
                    failed.push(json!({
                        "id": id,
                        "region": region_to_json(failure.region),
                        "failures": entry.failures,
                        "log": failure.to_string(),
                    }));
                }
            }
        }
        Ok(json!({"legal": legal, "failed": failed}))
    }
}

/// Topology Modification (paper supplementary tool 2; §4.2 argument
/// format: upper/left/bottom/right + style + seed).
struct TopologyModification;

impl Tool for TopologyModification {
    fn name(&self) -> &'static str {
        "topology_modification"
    }

    fn description(&self) -> &'static str {
        "Regenerate a rectangular region of a stored topology in-place, \
         conditioned on its surroundings — a time-efficient alternative to \
         discarding failed topologies. Args: {\"id\": int, \"upper\": int, \"left\": int, \
         \"bottom\": int, \"right\": int, \"style\": \"Layer-10001\", \"seed\": int (optional)}. \
         Returns {\"id\": int, \"modified_cells\": int}."
    }

    fn call(&self, ctx: &mut ToolContext, args: &Value) -> Result<Value, ToolError> {
        let id = args
            .get("id")
            .and_then(Value::as_u64)
            .ok_or_else(|| ToolError::new("missing or invalid 'id'"))?;
        let upper = arg_usize(args, "upper")?;
        let left = arg_usize(args, "left")?;
        let bottom = arg_usize(args, "bottom")?;
        let right = arg_usize(args, "right")?;
        let style = arg_style(args, "style");
        if let Some(seed) = args.get("seed").and_then(Value::as_u64) {
            ctx.rng = ChaCha8Rng::seed_from_u64(seed);
        }
        let entry = ctx
            .store
            .get(&id)
            .ok_or_else(|| ToolError::new(format!("unknown pattern id {id}")))?;
        let topology = entry.topology.clone();
        let style = style.or(entry.style);
        let (rows, cols) = topology.shape();
        if bottom > rows || right > cols || upper >= bottom || left >= right {
            return Err(ToolError::new("region out of bounds"));
        }
        let region = Region::new(upper, left, bottom, right);
        // Working space: a window of native size containing the region
        // (clamped to the matrix), so memory stays bounded.
        let l = ctx.window().max(region.height()).max(region.width());
        let win_r0 = upper
            .saturating_sub((l - region.height()) / 2)
            .min(rows.saturating_sub(l));
        let win_c0 = left
            .saturating_sub((l - region.width()) / 2)
            .min(cols.saturating_sub(l));
        let win = Region::new(
            win_r0,
            win_c0,
            (win_r0 + l).min(rows),
            (win_c0 + l).min(cols),
        );
        let known = topology.window(win);
        let local = Region::new(
            upper - win.row0(),
            left - win.col0(),
            bottom - win.row0(),
            right - win.col0(),
        );
        let mask = Mask::keep_outside(known.rows(), known.cols(), local);
        let repainted = ctx.sampler.modify(&known, &mask, style, &mut ctx.rng);
        let entry = ctx
            .store
            .get_mut(&id)
            .ok_or_else(|| ToolError::new(format!("pattern id {id} vanished mid-call")))?;
        entry.topology.paste(&repainted, win.row0(), win.col0());
        entry.legal = None;
        Ok(json!({"id": id, "modified_cells": region.cell_count()}))
    }
}

/// Topology selection: drop failed cases.
struct DropPatterns;

impl Tool for DropPatterns {
    fn name(&self) -> &'static str {
        "drop_patterns"
    }

    fn description(&self) -> &'static str {
        "Remove stored topologies (topology selection / dropping failed cases). \
         Args: {\"ids\": [...]}. Returns {\"dropped\": int}."
    }

    fn call(&self, ctx: &mut ToolContext, args: &Value) -> Result<Value, ToolError> {
        let ids = arg_ids(args, "ids")?;
        let mut dropped = 0;
        for id in ids {
            if ctx.store.remove(&id).is_some() {
                dropped += 1;
            }
        }
        Ok(json!({"dropped": dropped}))
    }
}

/// Move legalized patterns into the final library.
struct SaveLibrary;

impl Tool for SaveLibrary {
    fn name(&self) -> &'static str {
        "save_library"
    }

    fn description(&self) -> &'static str {
        "Move legalized patterns into the output library and release their \
         working storage. Args: {\"ids\": [...]}. Returns {\"saved\": int, \"library_total\": int}. \
         Ids without a successful legalize call are skipped."
    }

    fn call(&self, ctx: &mut ToolContext, args: &Value) -> Result<Value, ToolError> {
        let ids = arg_ids(args, "ids")?;
        let mut saved = 0;
        for id in ids {
            if let std::collections::hash_map::Entry::Occupied(entry) = ctx.store.entry(id) {
                if entry.get().legal.is_some() {
                    if let Some(pattern) = entry.remove().legal {
                        ctx.library.push(pattern);
                        saved += 1;
                    }
                }
            }
        }
        Ok(json!({"saved": saved, "library_total": ctx.library.len()}))
    }
}

/// Consult the documents / experience store.
struct GetDocumentation;

impl Tool for GetDocumentation {
    fn name(&self) -> &'static str {
        "get_documentation"
    }

    fn description(&self) -> &'static str {
        "Consult the working documents: extension-method statistics and \
         recorded experiences. Args: {\"style\": \"Layer-10001\"}. Returns \
         {\"recommended_method\": \"Out\"|\"In\", \"documents\": text}."
    }

    fn call(&self, ctx: &mut ToolContext, args: &Value) -> Result<Value, ToolError> {
        let style =
            arg_style(args, "style").ok_or_else(|| ToolError::new("missing or invalid 'style'"))?;
        let method = ctx.knowledge.recommend(style);
        Ok(json!({
            "recommended_method": method.name(),
            "documents": ctx.knowledge.render_documents(),
        }))
    }
}

/// Record an experience note for future sessions.
struct ReportExperience;

impl Tool for ReportExperience {
    fn name(&self) -> &'static str {
        "report_experience"
    }

    fn description(&self) -> &'static str {
        "Append a lesson learned to the experience documents (work-history \
         documentation). Args: {\"text\": string}. Returns {\"ok\": true}."
    }

    fn call(&self, ctx: &mut ToolContext, args: &Value) -> Result<Value, ToolError> {
        let text = args
            .get("text")
            .and_then(Value::as_str)
            .ok_or_else(|| ToolError::new("missing 'text'"))?;
        ctx.knowledge.add_experience(text);
        Ok(json!({"ok": true}))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_diffusion::{DiffusionModel, MrfDenoiser, NoiseSchedule};
    use cp_layout::drc::DesignRules;

    fn test_ctx() -> ToolContext {
        let data: Vec<Topology> = (0..6)
            .map(|i| Topology::from_fn(16, 16, move |_, c| (c + i) % 8 < 4))
            .collect();
        let denoiser = MrfDenoiser::fit(&[(0, &data), (1, &data)], 1.0);
        let model = DiffusionModel::new(NoiseSchedule::scaled_default(8), denoiser, 16);
        ToolContext::new(
            Box::new(model),
            Legalizer::new(DesignRules::new(20, 20, 400)),
            KnowledgeBase::new(),
            42,
        )
    }

    fn call(ctx: &mut ToolContext, name: &str, args: Value) -> Value {
        ToolRegistry::standard()
            .get(name)
            .expect("tool exists")
            .call(ctx, &args)
            .expect("tool call succeeds")
    }

    #[test]
    fn registry_has_all_paper_tools() {
        let names = ToolRegistry::standard().names();
        for required in [
            "topology_gen",
            "topology_extension",
            "legalize",
            "topology_modification",
            "drop_patterns",
            "save_library",
            "get_documentation",
            "report_experience",
        ] {
            assert!(names.contains(&required), "missing tool {required}");
        }
    }

    #[test]
    fn generation_stores_patterns_and_reports_window() {
        let mut ctx = test_ctx();
        let out = call(
            &mut ctx,
            "topology_gen",
            json!({"count": 3, "style": "Layer-10001"}),
        );
        assert_eq!(out["ids"].as_array().map(Vec::len), Some(3));
        assert_eq!(out["window"], 16);
        assert_eq!(ctx.store.len(), 3);
    }

    #[test]
    fn oversized_generation_is_capped_at_window() {
        let mut ctx = test_ctx();
        let out = call(
            &mut ctx,
            "topology_gen",
            json!({"count": 1, "style": "Layer-10001", "size": [64, 64]}),
        );
        assert_eq!(out["size"], json!([16, 16]));
    }

    #[test]
    fn extension_grows_stored_topology() {
        let mut ctx = test_ctx();
        let out = call(
            &mut ctx,
            "topology_gen",
            json!({"count": 1, "style": "Layer-10001"}),
        );
        let id = out["ids"][0].as_u64().expect("id");
        let out = call(
            &mut ctx,
            "topology_extension",
            json!({"ids": [id], "target": [32, 32], "method": "Out"}),
        );
        assert_eq!(out["method"], "Out");
        assert_eq!(ctx.store[&id].topology.shape(), (32, 32));
        // A target no reply could carry is an observation for the
        // agent, not a canvas allocation (this one would be 9 TB).
        for side in [3_000_000u64, 1 << 32] {
            let err = ToolRegistry::standard()
                .get("topology_extension")
                .expect("tool exists")
                .call(&mut ctx, &json!({"ids": [id], "target": [side, side]}))
                .expect_err("refused");
            assert!(err.to_string().contains("exceeds"), "{err}");
        }
        assert_eq!(ctx.store[&id].topology.shape(), (32, 32));
    }

    #[test]
    fn legalize_reports_legal_and_failed_with_regions() {
        let mut ctx = test_ctx();
        let out = call(
            &mut ctx,
            "topology_gen",
            json!({"count": 2, "style": "Layer-10001"}),
        );
        let ids: Vec<u64> = out["ids"]
            .as_array()
            .expect("ids")
            .iter()
            .filter_map(Value::as_u64)
            .collect();
        // Generous frame: stripes legalize easily.
        let out = call(
            &mut ctx,
            "legalize",
            json!({"ids": ids, "physical": [2000, 2000]}),
        );
        let legal = out["legal"].as_array().expect("legal").len();
        let failed = out["failed"].as_array().expect("failed").len();
        assert_eq!(legal + failed, 2);
        for f in out["failed"].as_array().expect("failed") {
            assert!(f["region"]["bottom"].as_u64().is_some());
            assert!(f["log"].as_str().is_some());
        }
    }

    #[test]
    fn modification_changes_only_window_region_owner() {
        let mut ctx = test_ctx();
        let out = call(
            &mut ctx,
            "topology_gen",
            json!({"count": 1, "style": "Layer-10001"}),
        );
        let id = out["ids"][0].as_u64().expect("id");
        let before = ctx.store[&id].topology.clone();
        let out = call(
            &mut ctx,
            "topology_modification",
            json!({"id": id, "upper": 2, "left": 2, "bottom": 10, "right": 10,
                   "style": "Layer-10001", "seed": 42}),
        );
        assert_eq!(out["modified_cells"], 64);
        let after = &ctx.store[&id].topology;
        assert_eq!(after.shape(), before.shape());
    }

    #[test]
    fn save_library_moves_only_legalized() {
        let mut ctx = test_ctx();
        let out = call(
            &mut ctx,
            "topology_gen",
            json!({"count": 2, "style": "Layer-10001"}),
        );
        let ids: Vec<u64> = out["ids"]
            .as_array()
            .expect("ids")
            .iter()
            .filter_map(Value::as_u64)
            .collect();
        // Save before legalization: nothing moves.
        let out = call(&mut ctx, "save_library", json!({"ids": ids}));
        assert_eq!(out["saved"], 0);
        let _ = call(
            &mut ctx,
            "legalize",
            json!({"ids": ids, "physical": [2000, 2000]}),
        );
        let out = call(&mut ctx, "save_library", json!({"ids": ids}));
        assert_eq!(
            out["library_total"].as_u64().expect("total"),
            out["saved"].as_u64().expect("saved")
        );
    }

    #[test]
    fn drop_removes_from_store() {
        let mut ctx = test_ctx();
        let out = call(
            &mut ctx,
            "topology_gen",
            json!({"count": 2, "style": "Layer-10001"}),
        );
        let ids: Vec<u64> = out["ids"]
            .as_array()
            .expect("ids")
            .iter()
            .filter_map(Value::as_u64)
            .collect();
        let out = call(&mut ctx, "drop_patterns", json!({"ids": ids}));
        assert_eq!(out["dropped"], 2);
        assert_eq!(ctx.store.len(), 0);
    }

    #[test]
    fn documentation_tool_returns_recommendation() {
        let mut ctx = test_ctx();
        ctx.knowledge
            .record_extension(0, ExtensionMethod::InPainting, 10, 9);
        ctx.knowledge
            .record_extension(0, ExtensionMethod::OutPainting, 10, 3);
        let out = call(
            &mut ctx,
            "get_documentation",
            json!({"style": "Layer-10001"}),
        );
        assert_eq!(out["recommended_method"], "In");
        assert!(out["documents"]
            .as_str()
            .expect("docs")
            .contains("legality"));
    }

    #[test]
    fn experience_tool_appends_notes() {
        let mut ctx = test_ctx();
        let out = call(
            &mut ctx,
            "report_experience",
            json!({"text": "large dense patterns need modification"}),
        );
        assert_eq!(out["ok"], true);
        assert_eq!(ctx.knowledge().experiences().len(), 1);
    }

    #[test]
    fn unknown_id_errors() {
        let mut ctx = test_ctx();
        let err = ToolRegistry::standard()
            .get("legalize")
            .expect("tool")
            .call(&mut ctx, &json!({"ids": [99], "physical": [100, 100]}))
            .expect_err("should fail");
        assert!(err.message().contains("unknown pattern id"));
    }

    #[test]
    fn dispatch_routes_and_reports_unknown_tools() {
        let mut ctx = test_ctx();
        let registry = ToolRegistry::standard();
        let out = registry
            .dispatch(
                &mut ctx,
                "topology_gen",
                &json!({"count": 1, "style": "Layer-10001"}),
            )
            .expect("known tool dispatches");
        assert_eq!(out["ids"].as_array().map(Vec::len), Some(1));
        let err = registry
            .dispatch(&mut ctx, "no_such_tool", &json!({}))
            .expect_err("unknown tool errors");
        assert!(err.message().contains("unknown tool 'no_such_tool'"));
    }

    #[test]
    fn descriptions_render_for_prompt() {
        let text = ToolRegistry::standard().render_descriptions();
        assert!(text.contains("topology_gen"));
        assert!(text.contains("topology_modification"));
    }
}
