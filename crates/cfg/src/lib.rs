//! Control-flow graph and dataflow machinery for the remapping-graph
//! construction and optimization (paper App. B–D).
//!
//! The CFG is built from an analyzed routine
//! ([`hpfc_lang::sema::RoutineUnit`]) with three properties the paper
//! relies on:
//!
//! 1. **Synthetic call/entry/exit vertices** `v_c`, `v_0`, `v_e`
//!    (App. B "Updating G_C arguments").
//! 2. **Call-site expansion** (Fig. 24): a `CALL` with mapped array
//!    arguments becomes `ArgIn* → Call → ArgOut*`, the explicit
//!    remappings that realize HPF's implicit argument remapping in the
//!    caller.
//! 3. **Zero-trip loops**: `DO` lowers to `LoopInit → LoopTest ⇄ body`,
//!    so a path skipping the body exists — the source of the paper's
//!    "loop may have no iteration" edges in Fig. 11.
//!
//! [`dataflow`] provides the may-forward/may-backward worklist solver
//! that all six analyses share: the four construction passes of App. B
//! and the two optimizations of App. C/D, which run on this CFG too.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataflow;
pub mod effects;
pub mod graph;
pub mod transform;

pub use dataflow::{solve, Dataflow, Direction};
pub use effects::{node_effects, Access};
pub use graph::{build_cfg, Cfg, NodeId, NodeKind};
