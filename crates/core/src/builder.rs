//! [`ChatPatternBuilder`]: a system's configuration, its defaults and the build.

use crate::{
    ChatPattern, ChatSession, Error, JsonDirPersist, SessionConfig, SessionSnapshot, SessionStore,
};
use cp_dataset::{Dataset, DatasetBuilder, Style};
use cp_diffusion::{DiffusionModel, MrfDenoiser, NoiseSchedule};
use cp_layout::drc::DesignRules;
use cp_layout::legalize::Legalizer;
use cp_layout::squish::Topology;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Builder for a [`ChatPattern`] system.
///
/// Defaults are a CPU-scale configuration, one a laptop fits and
/// samples in seconds: 64-cell window (paper: 128), 16 nm mean grid
/// pitch, 12 diffusion steps (paper: 1000 — β endpoints preserved), 64
/// training patterns per style.
///
/// Setters record values verbatim; [`ChatPatternBuilder::build`]
/// validates the whole configuration and reports [`Error::Config`]
/// instead of clamping or panicking.
#[derive(Debug, Clone)]
pub struct ChatPatternBuilder {
    window: usize,
    diffusion_steps: usize,
    training_patterns: usize,
    seed: u64,
    sessions: SessionConfig,
    session_dir: Option<PathBuf>,
    spill_ahead_turns: Option<u64>,
    persist_shards: usize,
}

impl Default for ChatPatternBuilder {
    fn default() -> ChatPatternBuilder {
        ChatPatternBuilder {
            window: 64,
            diffusion_steps: 12,
            training_patterns: 64,
            seed: 0,
            sessions: SessionConfig::default(),
            session_dir: None,
            spill_ahead_turns: None,
            persist_shards: 1,
        }
    }
}

/// Smallest window the denoiser can be trained at.
const MIN_WINDOW: usize = 4;

impl ChatPatternBuilder {
    /// Native model window size `L` (training resolution).
    #[must_use]
    pub fn window(mut self, window: usize) -> ChatPatternBuilder {
        self.window = window;
        self
    }

    /// Diffusion chain length `K`.
    #[must_use]
    pub fn diffusion_steps(mut self, steps: usize) -> ChatPatternBuilder {
        self.diffusion_steps = steps;
        self
    }

    /// Training patterns per style.
    #[must_use]
    pub fn training_patterns(mut self, count: usize) -> ChatPatternBuilder {
        self.training_patterns = count;
        self
    }

    /// Master RNG seed (training data and sessions are reproducible).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> ChatPatternBuilder {
        self.seed = seed;
        self
    }

    /// Maximum simultaneously open chat sessions (default 64). Opening
    /// one more evicts the least-recently-used session.
    #[must_use]
    pub fn max_sessions(mut self, max_sessions: usize) -> ChatPatternBuilder {
        self.sessions.capacity = max_sessions;
        self
    }

    /// Idle lifetime of a chat session (default 15 minutes). Sessions
    /// untouched for longer expire lazily on the next session
    /// operation. The same TTL bounds *spilled* sessions in the
    /// durability layer. Zero is refused by `build`.
    #[must_use]
    pub fn session_ttl(mut self, ttl: Duration) -> ChatPatternBuilder {
        self.sessions.ttl = ttl;
        self
    }

    /// Spills evicted and expired sessions to one JSON file per session
    /// under `dir` (`chatpattern-serve --session-dir`) instead of
    /// destroying them: an over-capacity store keeps serving turns on
    /// *every* opened session (an access rehydrates transparently)
    /// until the TTL really runs out, and spilled sessions survive a
    /// process restart — a new system built over the same directory
    /// (and an equivalent model configuration) rehydrates them on first
    /// touch.
    #[must_use]
    pub fn session_dir(mut self, dir: impl Into<PathBuf>) -> ChatPatternBuilder {
        self.session_dir = Some(dir.into());
        self
    }

    /// Spill-ahead turn trigger (`chatpattern-serve
    /// --spill-ahead-turns`): with [`ChatPatternBuilder::session_dir`],
    /// every N-th turn on a session also writes its snapshot to disk
    /// while the session stays warm, so a crash loses at most the
    /// in-flight turn. The write runs on the turn's own thread holding
    /// only that session's lock — turns on other sessions never block.
    /// Zero is refused by `build`.
    #[must_use]
    pub fn spill_ahead_turns(mut self, every_turns: u64) -> ChatPatternBuilder {
        self.spill_ahead_turns = Some(every_turns);
        self
    }

    /// Fans the session directory out over `shards` subdirectories
    /// (`chatpattern-serve --persist-shards`, default 1 = flat
    /// layout), so no one directory listing holds a 10k-session
    /// store's files. Files spilled by an earlier unsharded run are
    /// still found in the directory root. A directory keeps the shard
    /// count it was created with: [`ChatPatternBuilder::build`] refuses
    /// one whose `shard-k` subdirectories were made with another count.
    #[must_use]
    pub fn persist_shards(mut self, shards: usize) -> ChatPatternBuilder {
        self.persist_shards = shards;
        self
    }

    /// Checks the configuration without building.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] describing the first invalid setting.
    pub(crate) fn validate(&self) -> Result<(), Error> {
        if self.window < MIN_WINDOW {
            return Err(Error::config(format!(
                "window must be at least {MIN_WINDOW} cells (got {})",
                self.window
            )));
        }
        if self.diffusion_steps == 0 {
            return Err(Error::config("diffusion_steps must be at least 1 (got 0)"));
        }
        if self.training_patterns == 0 {
            return Err(Error::config(
                "training_patterns must be at least 1 (got 0)",
            ));
        }
        self.sessions.validate()?;
        if self.persist_shards == 0 {
            return Err(Error::config(
                "persist_shards must be at least 1 (got 0); 1 keeps the flat layout",
            ));
        }
        if self.spill_ahead_turns == Some(0) {
            return Err(Error::config(
                "spill_ahead_turns must be at least 1 (got 0)",
            ));
        }
        let has_dir = self.session_dir.is_some();
        if self.spill_ahead_turns.is_some() && !has_dir {
            return Err(Error::config(
                "spill-ahead needs a session directory to write to; configure session_dir \
                 (serve: --session-dir) alongside spill_ahead_turns",
            ));
        }
        if self.persist_shards > 1 && !has_dir {
            return Err(Error::config(
                "persist_shards only applies to a session directory; configure session_dir \
                 (serve: --session-dir) alongside it",
            ));
        }
        Ok(())
    }

    /// Builds the system: generates the synthetic training datasets,
    /// fits the conditional denoiser, and assembles the agent plumbing.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when the configuration is invalid (bad
    /// window or step counts); this replaces the panics of
    /// earlier revisions.
    pub fn build(self) -> Result<ChatPattern, Error> {
        self.validate()?;
        // 16 nm mean grid pitch, like the paper's 2048 nm / 128 cells.
        let patch_nm = (self.window as i64) * 16;
        let datasets: Vec<Dataset> = Style::ALL
            .iter()
            .enumerate()
            .map(|(i, &style)| {
                DatasetBuilder::new(style)
                    .patch_nm(patch_nm)
                    .topology_size(self.window)
                    .count(self.training_patterns)
                    .seed(self.seed.wrapping_add(i as u64))
                    .build()
            })
            .collect();
        let topo_store: Vec<(u32, Vec<Topology>)> = datasets
            .iter()
            .map(|d| {
                (
                    d.style().id(),
                    d.patterns().iter().map(|p| p.topology().clone()).collect(),
                )
            })
            .collect();
        let fit_refs: Vec<(u32, &[Topology])> = topo_store
            .iter()
            .map(|(id, v)| (*id, v.as_slice()))
            .collect();
        let denoiser = MrfDenoiser::fit(&fit_refs, 1.0);
        let model = DiffusionModel::new(
            NoiseSchedule::scaled_default(self.diffusion_steps),
            denoiser,
            self.window,
        );
        let model = Arc::new(model);
        let rules = DesignRules::reference();
        let legalizer = Legalizer::new(rules);
        let sessions = match self.session_dir {
            None => SessionStore::new(self.sessions),
            Some(dir) => {
                // A spill file is the session's `SessionSnapshot`, the
                // same bytes a wire export returns. The decode closure
                // re-injects the trained sampler and the legalizer — the
                // snapshot carries only session state, so a restart with
                // an equivalent model configuration rehydrates it.
                let decode_model = Arc::clone(&model);
                let decode_legalizer = legalizer.clone();
                SessionStore::with_persist(
                    self.sessions,
                    Arc::new(JsonDirPersist::sharded(
                        dir,
                        self.sessions.ttl,
                        self.persist_shards,
                        |session: &ChatSession| {
                            serde_json::to_string(&session.snapshot())
                                .map_err(|e| Error::session_persist(e.to_string()))
                        },
                        move |text| {
                            let snapshot: SessionSnapshot =
                                serde_json::from_str(text).map_err(|e| {
                                    Error::session_persist(format!(
                                        "corrupt spilled session file: {e}"
                                    ))
                                })?;
                            ChatSession::restore(
                                snapshot,
                                Box::new(Arc::clone(&decode_model)),
                                decode_legalizer.clone(),
                            )
                        },
                    )?),
                )
                .with_spill_ahead_turns(self.spill_ahead_turns)
            }
        };
        Ok(ChatPattern {
            model,
            legalizer,
            rules,
            datasets,
            patch_nm,
            seed: self.seed,
            sessions,
        })
    }
}
