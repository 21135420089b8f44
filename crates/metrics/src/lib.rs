//! Evaluation metrics for pattern libraries.
//!
//! Implements the paper's two quality measures:
//!
//! * **Legality** (Eq. 7): the fraction of generated topologies that
//!   legalize into DRC-clean patterns — computed *without* topology
//!   selection, exactly as the paper's fair-comparison protocol demands;
//! * **Diversity** (Eq. 8): the Shannon entropy `H` (in bits) of the
//!   joint distribution of pattern complexities `(cx, cy)` over the
//!   *legal* members of a library.
//!
//! Plus [`LibraryStats`] summaries used by the agent's experience
//! documents (the Figure-10 statistics that drive extension-method
//! selection).
//!
//! # Example
//!
//! ```
//! use cp_metrics::diversity;
//! use cp_layout::squish::Topology;
//! // Four distinct complexities, uniformly distributed → H = 2 bits.
//! let library = vec![
//!     Topology::from_ascii("1...\n....\n....\n...."),
//!     Topology::from_ascii("1.1.\n....\n....\n...."),
//!     Topology::from_ascii("1...\n....\n1...\n...."),
//!     Topology::from_ascii("1.1.\n....\n1.1.\n...."),
//! ];
//! let h = diversity(library.iter());
//! assert!((h - 2.0).abs() < 1e-9);
//! ```

pub mod diversity;
pub mod legality;
pub mod stats;

pub use diversity::{diversity, entropy_bits, entropy_interval, wasserstein_1};
pub use legality::{legality, LegalityReport};
pub use stats::LibraryStats;
