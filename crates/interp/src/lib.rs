//! Interpreter: executes a lowered [`hpfc_codegen::StaticProgram`] on the simulated
//! distributed machine, driving the Sec. 5 runtime (status descriptors,
//! live flags, guarded copies) exactly as the generated code would.
//!
//! Scope note (see `ARCHITECTURE.md`): the paper's measurements are about
//! **remapping communication**; computational statements execute with
//! correct *values* but without modelling compute-side communication.
//! Every remapping, argument copy, status save/restore, liveness clean
//! and eviction goes through `hpfc-runtime` and is accounted exactly.
//! Every expression runs as the postfix program lowering compiled for
//! it, through one engine (the private `kernel` module); the run time
//! looks no name up.
//!
//! Calls execute the callee's own static program when the source module
//! defines it (full interprocedural execution on the shared machine);
//! otherwise a deterministic synthetic effect per `INTENT` is applied
//! (IN: none; INOUT: `x := x + 1` elementwise; OUT: `x := linear
//! index`), so figure programs with interface-only callees still run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
mod kernel;

pub use exec::{execute, ExecConfig, ExecResult, Executor};
