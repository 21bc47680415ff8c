//! Simulated distributed-memory runtime — the paper's target machine.
//!
//! The paper compiles HPF remappings into message-passing SPMD code for
//! distributed-memory machines; its claims are about **which remapping
//! communications happen** (message and byte counts, who talks to
//! whom), not wire-level timing. This crate provides a deterministic
//! substitute for that environment (Rust MPI bindings being thin — see
//! `ARCHITECTURE.md`, "Crate map"):
//!
//! * [`machine::Machine`] — `P` logical processors, a latency/bandwidth
//!   cost model, exact message/byte/time accounting, and per-processor
//!   memory tracking (allocation peaks matter for the live-copy
//!   ablation);
//! * [`redist::plan_redistribution`] — the block-cyclic redistribution
//!   engine (the ref. \[19\] substrate): closed-form communication sets
//!   between any two composed mappings, with a brute-force enumeration
//!   oracle for property testing;
//! * [`schedule::CommSchedule`] — the plan lowered to message-level
//!   SPMD structure: per (sender, receiver) pair one packed message of
//!   the planned size, ordered into contention-free caterpillar rounds
//!   (a pair's round is a closed formula of its ranks) that
//!   [`machine::Machine::account_schedule`] costs round by round; the
//!   pack/unpack descriptors stay in the plan
//!   ([`redist::RedistPlan::pair_dims`]);
//! * [`exec::CopyProgram`] — the schedule's data movement compiled at
//!   plan time to stride families (a run no progression covers is a
//!   family of one), replayed allocation-free and serially through one
//!   run kernel whose loop is picked per family from the run width — by
//!   every remap, every bare copy, and every move of values in or out
//!   of the machine ([`store::VersionData::to_dense`],
//!   [`store::VersionData::load_dense`]);
//! * [`group::PlannedGroup`] — several arrays remapped by one directive
//!   (Fig. 3 template impact) merged into one aggregated schedule:
//!   same-pair messages share rounds and wire buffers
//!   ([`schedule::CommSchedule::from_plans`]), and
//!   [`group::try_remap_group`] replays the whole group round by round;
//! * [`store::VersionData`] — actual per-processor storage of array
//!   versions, so kernels can be executed end-to-end and checked for
//!   distribution-independent results; a dense row-major array is the
//!   version of a one-processor mapping, so results leave and call
//!   arguments enter by a remap;
//! * [`status::ArrayRt`] — the per-array runtime descriptor of Sec. 5.1:
//!   current-version *status*, per-version *live* flags, lazy
//!   instantiation, guarded copies, liveness cleaning, and
//!   memory-pressure eviction with later regeneration;
//! * [`registry::PlanRegistry`] — remap-as-a-service: one sharded,
//!   LRU-bounded, process-wide registry of compiled remap artifacts,
//!   keyed — for every shape — by hash-consed mapping-pair identity
//!   ([`hpfc_mapping::intern`]) and shared by every array, program,
//!   and interpreter session; [`registry::PlanRegistry::resolve`] is
//!   the one route from a pair to its artifact, and per-array plan
//!   caches are thin views that seed from and publish to it;
//! * [`symbolic::SymbolicPlan`] — a `(format, format)` pair with the
//!   processor count left free, instantiated at any `P` to exactly the
//!   artifact a direct compile produces (standalone: the registry does
//!   not key by format pair);
//! * [`fault::FaultPlan`] — deterministic fault injection
//!   ([`Machine::with_faults`]), per-round validation
//!   ([`Machine::with_validation`]), and the
//!   self-healing recovery ladder behind
//!   [`status::ArrayRt::try_remap_guarded`] and
//!   [`group::try_remap_group`]: retry → recompile → table-engine
//!   fallback → typed [`fault::ExecError`]. One executor runs every
//!   remap statement — a solo remap is a group of one — over one
//!   replay core, so both share one round loop, one ladder and one
//!   rollback. Guarded remaps are transactional: a terminal error rolls
//!   every member back to its exact pre-remap state — bytes, status,
//!   and live flags. Served artifacts are never rewritten (a poisoned
//!   program is a transient copy, its recompile serves one replay),
//!   and poisoned shard locks recover instead of cascading.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// The test-side references (`tests/common`) name the crate from outside.
#[cfg(test)]
extern crate self as hpfc_runtime;

pub mod exec;
pub mod fault;
pub mod group;
pub mod machine;
pub mod redist;
pub mod registry;
mod replay;
mod runs;
pub mod schedule;
pub mod status;
pub mod store;
pub mod symbolic;

pub use exec::{CompileDecline, CopyProgram, CopyUnit, ExecMode, GroupCopyProgram, Kernel,
              StrideFamily};
pub use fault::{ExecError, FaultKind, FaultPlan, ValidationLevel};
pub use group::{try_remap_group, GroupMember, PlannedGroup};
pub use machine::{CostModel, Machine, NetStats};
pub use redist::{plan_by_enumeration, plan_redistribution, RedistPlan, Transfer};
pub use registry::PlanRegistry;
pub use schedule::{CommSchedule, PackedMessage};
pub use status::{ArrayRt, PlannedRemap};
pub use store::VersionData;
pub use symbolic::SymbolicPlan;
