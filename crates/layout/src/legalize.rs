//! Non-linear topology legalization (DiffPattern's `f_R(F, T)`).
//!
//! Legalization turns a bare topology matrix into a physical layout
//! pattern: it assigns Δx/Δy geometry vectors such that the resulting
//! squish pattern satisfies the design rules (space, width, area) and the
//! requested physical frame size, or *explains why it cannot*.
//!
//! The solver works per axis. Every maximal run of drawn cells in a scan
//! line induces a width constraint, every interior run of empty cells a
//! space constraint — a system of difference constraints over the prefix
//! sums of the Δ vector. The unique minimal solution is computed in one
//! left-to-right sweep; remaining slack is distributed randomly (this is
//! where pattern geometry diversity comes from), and polygon areas are
//! repaired by shifting slack into deficient components.
//!
//! Every stage reads runs, not cells. A scan line is a contiguous byte
//! slice (columns come from one transposed copy) whose edges are found
//! eight cells a word; a line equal to the one before it adds nothing
//! and is skipped; two counting sorts order the raw runs. Polygons are
//! the row-run components of `geom::label_components`, so an
//! area-repair pass costs one multiply a run (the model's 128 × 128
//! samples take about two passes a call). `docs/ENGINE.md`, "Legalize
//! budget", splits a call's time by stage.
//!
//! When the minimal solution already exceeds the frame, legalization is
//! infeasible and the binding constraint chain identifies the
//! "unreasonable region" — the grid [`Region`](crate::squish::Region) the
//! paper's LLM agent targets with `Topology_Modification`.
//!
//! # Example
//!
//! ```
//! use cp_layout::drc::{check_pattern, DesignRules};
//! use cp_layout::legalize::Legalizer;
//! use cp_layout::squish::Topology;
//! use rand::SeedableRng;
//!
//! let rules = DesignRules::new(20, 20, 400);
//! let legalizer = Legalizer::new(rules);
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let topology = Topology::from_ascii("11.\n.1.\n.11");
//! let pattern = legalizer.legalize(&topology, 200, 200, &mut rng)?;
//! assert!(check_pattern(&pattern, &rules).is_clean());
//! # Ok::<(), cp_layout::legalize::LegalizeFailure>(())
//! ```

pub use crate::failure::{FailureKind, LegalizeFailure};
pub use crate::solver::{AxisSolution, Legalizer};
