//! The **remapping graph** `G_R` — the paper's central data structure —
//! its construction (App. A/B) and the dataflow optimizations on it
//! (App. C/D).
//!
//! `G_R` is a contracted sub-graph of the control-flow graph: its
//! vertices are the remapping statements (plus the synthetic
//! call/entry/exit vertices), its edges are control-flow paths along
//! which an array is remapped at both ends and untouched in between.
//! Each vertex carries, per remapped array:
//!
//! * the **leaving** version `L_A(v)` — the statically mapped copy that
//!   must be referenced after the vertex,
//! * the **reaching** versions `R_A(v)` — the copies that may arrive,
//! * the **use** qualifier `U_A(v) ∈ {N, D, R, W}` — how the leaving
//!   copy may be used before the next remapping,
//! * after optimization, the **may-live** set `M_A(v)` — which copies
//!   are worth keeping alive past the vertex (App. D).
//!
//! The two optimizations, both run by [`optimize::optimize`] as
//! dataflow problems on the CFG solver the construction uses:
//!
//! * App. C deletes every leaving copy tagged `N` and recomputes
//!   reaching sets by transitive closure; the result is proved optimal
//!   in the paper (Theorem 1) and checked here by
//!   [`optimize::verify_reaching_paths`].
//! * App. D bounds the copies the runtime keeps for
//!   communication-free reuse.
//!
//! Restriction 1 of the paper (no reference with an ambiguous mapping)
//! is enforced during construction: Fig. 5 programs are rejected with
//! [`hpfc_lang::diag::codes::AMBIGUOUS_REF`], Fig. 21 programs (several
//! leaving mappings) with [`hpfc_lang::diag::codes::MULTI_LEAVING`],
//! while Fig. 6 programs (ambiguous *state*, no reference) compile.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod dot;
pub mod label;
pub mod optimize;

pub use build::{build, build_from_cfg, Rg, VertexId};
pub use label::{Label, Leaving, UseInfo};
pub use optimize::{optimize, OptConfig, OptStats};
