//! The repo's benchmark of record: HPF source → verified final values,
//! end to end through the public facade, with per-layer attribution
//! from a separate traced run. See `README.md` for the one command,
//! every metric's definition and why each workload exists.
//!
//! * [`workloads`] generates sources and independent dense references;
//! * [`op`] runs one op through `hpfc::compile` / `hpfc::execute` and
//!   checks it;
//! * [`harness`] is the untraced parent/child sampler and `--check`;
//! * [`trace`] is the traced run: stepwise op, spans, layer re-drive,
//!   memcpy roofline;
//! * [`manifest`] holds the metric tables `BENCHMARK.json` is generated
//!   from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod json;
pub mod manifest;
pub mod op;
pub mod stamp;
pub mod stats;
pub mod trace;
pub mod workloads;
