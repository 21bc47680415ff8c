//! Two-level HPF mapping model: `array --ALIGN--> template --DISTRIBUTE--> processors`.
//!
//! This crate is the mathematical substrate of the PPoPP'97 paper
//! *Compiling Dynamic Mappings with Array Copies* (F. Coelho). Everything
//! the compiler decides — whether two mappings are "the same" (Fig. 2:
//! a redistribution that restores the initial mapping), which arrays a
//! template redistribution *impacts* (Fig. 3: all aligned arrays), which
//! processor owns a given element and at which local address — reduces to
//! the algebra implemented here.
//!
//! # Model
//!
//! * A [`ProcGrid`] is a named rectangular grid of abstract processors.
//! * A [`Template`] is a named rectangular index space used as an
//!   alignment target.
//! * An [`Alignment`] maps array axes affinely onto template axes
//!   (`ALIGN A(i,j) WITH T(j+1, 2*i)`), possibly replicating or pinning
//!   template axes.
//! * A [`Distribution`] maps template axes onto processor-grid axes with
//!   `BLOCK(b)` / `CYCLIC(b)` / `*` (collapsed) formats.
//! * A [`Mapping`] is the pair; [`Mapping::normalize`] composes the two
//!   levels into a canonical per-processor-axis [`NormalizedMapping`]
//!   with decidable *semantic* equality (same owner and same local
//!   address for every element).
//!
//! # Paper correspondence
//!
//! * `impact(A_i, v)` (App. B) is [`env::MappingEnv::realign`] /
//!   [`env::MappingEnv::redistribute`]: a realignment changes one array,
//!   a redistribution changes every array aligned to the template.
//! * Array *versions* `A_0, A_1, …` (Sec. 2, Fig. 7) are interned
//!   normalized mappings: [`env::VersionTable`] hands out a dense
//!   [`VersionId`] per distinct mapping of each array.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod align;
pub mod dist;
pub mod env;
pub mod error;
pub mod geometry;
pub mod grid;
pub mod intern;
pub mod intervals;
pub mod layout;
pub mod mapping;
pub mod symbolic;

pub mod testing;

pub use align::{AlignTarget, Alignment};
pub use dist::{DimFormat, Distribution};
pub use env::{ArrayInfo, MappingEnv, VersionTable};
pub use error::MappingError;
pub use geometry::{Extents, Point};
pub use grid::{ProcGrid, Template};
pub use intern::{MappingPair, WeakInterner};
pub use intervals::{intersect_families, intersect_runs, PeriodicSet, RunFamily};
pub use layout::{DimLayout, Locus};
pub use mapping::{DimMap, DimSource, Mapping, NormalizedMapping};
pub use symbolic::{format_pair, normalize_symbolic, FormatPair, SymbolicFormat};

/// Identifies an abstract (dynamic) array of the source program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub u32);

/// Identifies a template declared by `!HPF$ TEMPLATE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TemplateId(pub u32);

/// Identifies a processor grid declared by `!HPF$ PROCESSORS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GridId(pub u32);

/// A statically mapped *version* of an array: the paper's `A_k`.
///
/// `VersionId { array: A, index: 2 }` is the paper's `A_2`. Version
/// indices are dense per array, in order of first appearance during
/// mapping propagation, so the entry mapping is always version 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VersionId {
    /// The abstract array this is a copy of.
    pub array: ArrayId,
    /// Dense per-array version index (the paper's subscript).
    pub index: u32,
}

impl std::fmt::Display for VersionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "A{}_{}", self.array.0, self.index)
    }
}
