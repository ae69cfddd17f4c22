//! Consistency checkers, organised around the two questions they answer.
//!
//! **Does a witness exist?** — NP-hard, for the small histories of Table 1,
//! Appendix A and the property tests. One searcher answers it:
//! [`search::find_sequence_with`], an exact backtracking search over the
//! whole history. [`models::check`] calls it once with the model's
//! constraint set, and [`proximal`] calls it for the neighbouring models of
//! Appendix A that are total orders or per-process serializations (CRDB,
//! OSC(U), VV-regularity, real-time causal; strong snapshot isolation and
//! the Shao et al. multi-writer regularity family have their own small
//! searches). [`search::find_sequence_reference`] is its oracle: the
//! clone-per-step search the tests compare it against, called by nothing
//! else. [`decompose`] only counts a history's communication components, for
//! the `components` a certifier reports.
//!
//! **Is this witness valid?** — the linear case, for every protocol run. The
//! protocols (Spanner-RSS, Gryff-RSC, and their baselines) emit the
//! serialization order their commit timestamps / carstamps induce
//! ([`assemble`] turns the edges into a total order); validating it needs no
//! search. Two validators, one per situation, with no switch between them:
//!
//! * [`certificate`]: [`check_witness`], the whole-history sort-and-sweep. It
//!   stays because it is the reference every other validator is compared
//!   against, the fastest on a history already in memory, and what the
//!   conformance tests and the hunter call.
//! * [`window`]: [`StreamingChecker`] + [`WindowBuffer`], the only
//!   incremental validator — the same clauses folded into running state over
//!   records arriving in completion order. It stays because it is what the
//!   sweep, `regular-bench replay`/`live` and `benchmark/` certify through
//!   (`regular_sweep::certify_streaming`), and the one that meters the
//!   reorder window an online certifier would need.

pub mod assemble;
pub mod certificate;
pub mod decompose;
pub mod models;
pub mod proximal;
pub mod search;
pub mod window;

pub use assemble::{assemble_witness, AssembleError};
pub use certificate::{check_witness, WitnessModel, WitnessViolation};
pub use decompose::count_components;
pub use models::{check, CheckOutcome, Model};
pub use search::{
    find_sequence, find_sequence_reference, find_sequence_with, ConstraintGraph, Constraints,
};
pub use window::{StreamingChecker, WindowBuffer};
