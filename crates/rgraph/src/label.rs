//! Vertex labels of the remapping graph (paper App. A, Fig. 9).

use std::collections::BTreeSet;

use hpfc_mapping::VersionId;

/// The conservative use qualifier `U_A(v)`: how the copy leaving vertex
/// `v` may be used before the next remapping of the array.
///
/// The paper's order — "qualifiers supersede one another, once assigned
/// a qualifier can only be updated to a stronger one" — is the derived
/// `Ord`: `N < D < R < W`, with join = max.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum UseInfo {
    /// Never referenced: the remapping is useless (App. C removes it).
    #[default]
    N,
    /// Fully redefined before any use: the copy is needed but its
    /// *values* are not — no communication (Fig. 19 skips the copy).
    D,
    /// Only read: the reaching copies stay valid and may be reused
    /// later without communication (App. D).
    R,
    /// Maybe modified: all other copies become stale.
    W,
}

impl UseInfo {
    /// Sequence this node's own access (`of`) before the summarized
    /// later uses (`after`), walking backward:
    ///
    /// * no access          → `after`;
    /// * read **and** write → `W` (the copy is used and invalidates
    ///   the others);
    /// * read only          → `R` if nothing stronger follows, else `W`
    ///   (read-then-modified);
    /// * full write, no read → `D` (whatever follows sees new values);
    /// * partial write       → `W`.
    pub fn seq(of: Option<Self>, after: Self) -> Self {
        match of {
            None | Some(UseInfo::N) => after,
            Some(UseInfo::D) => UseInfo::D,
            Some(UseInfo::R) => match after {
                // Only reads (or nothing) follow: the copy is read-only.
                UseInfo::N | UseInfo::R => UseInfo::R,
                // Redefined or written later in the same region: the
                // copy is both used and invalidates the others.
                UseInfo::D | UseInfo::W => UseInfo::W,
            },
            Some(UseInfo::W) => UseInfo::W,
        }
    }
}

impl std::fmt::Display for UseInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = match self {
            UseInfo::N => 'N',
            UseInfo::D => 'D',
            UseInfo::R => 'R',
            UseInfo::W => 'W',
        };
        write!(f, "{c}")
    }
}

/// The leaving side of a label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Leaving {
    /// A single statically known leaving copy — the common case the
    /// paper's presentation assumes.
    One(VersionId),
    /// A status-restore (the paper's Fig. 18): the vertex restores
    /// whichever mapping reached the paired `ArgIn`, dynamically. Only
    /// `ArgOut` vertices may carry this.
    Restore(BTreeSet<VersionId>),
}

impl Leaving {
    /// The versions this leaving side can produce.
    pub fn versions(&self) -> Vec<VersionId> {
        match self {
            Leaving::One(v) => vec![*v],
            Leaving::Restore(s) => s.iter().copied().collect(),
        }
    }

    /// The single version, if statically known.
    pub fn single(&self) -> Option<VersionId> {
        match self {
            Leaving::One(v) => Some(*v),
            Leaving::Restore(s) if s.len() == 1 => s.iter().next().copied(),
            Leaving::Restore(_) => None,
        }
    }
}

/// Per-(vertex, array) label: the paper's Fig. 9 `A: {1,2} → 3, R`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Label {
    /// `L_A(v)` — `None` once removed by App. C (or for arrays whose
    /// mapping merely flows through a status-restore).
    pub leaving: Option<Leaving>,
    /// What `leaving` was before optimization (for reporting).
    pub original_leaving: Option<Leaving>,
    /// `R_A(v)` — versions that may reach the vertex.
    pub reaching: BTreeSet<VersionId>,
    /// Versions that may reach the vertex on executions where the
    /// directive does *not* impact the array (a redistribution of a
    /// template the array is only conditionally aligned with — the
    /// Fig. 5/6 partial-impact situation). These pass through
    /// unchanged: no copy, and they must survive the vertex's cleaning.
    pub passthrough: BTreeSet<VersionId>,
    /// `U_A(v)`.
    pub use_info: UseInfo,
    /// `M_A(v)` — copies that may be live after `v` *and* useful later
    /// (App. D); filled by [`crate::optimize::optimize`].
    pub may_live: BTreeSet<VersionId>,
    /// The array's *values* are dead when they reach this vertex
    /// (downstream of a `KILL`): the copy needs no communication.
    pub values_dead: bool,
}

impl Label {
    /// A fresh label.
    pub fn new(leaving: Option<Leaving>, reaching: BTreeSet<VersionId>) -> Self {
        Label {
            original_leaving: leaving.clone(),
            leaving,
            reaching,
            passthrough: BTreeSet::new(),
            use_info: UseInfo::N,
            may_live: BTreeSet::new(),
            values_dead: false,
        }
    }

    /// Whether the remapping at this vertex is statically a no-op: one
    /// reaching copy, equal to the (single) leaving copy.
    pub fn is_trivial(&self) -> bool {
        match &self.leaving {
            Some(l) => {
                self.reaching.len() == 1
                    && l.single().is_some_and(|v| self.reaching.contains(&v))
            }
            None => false,
        }
    }

    /// Whether App. C removed this remapping.
    pub fn is_removed(&self) -> bool {
        self.leaving.is_none() && self.original_leaving.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpfc_mapping::ArrayId;

    fn v(i: u32) -> VersionId {
        VersionId { array: ArrayId(0), index: i }
    }

    #[test]
    fn qualifier_order_matches_paper() {
        assert!(UseInfo::N < UseInfo::D);
        assert!(UseInfo::D < UseInfo::R);
        assert!(UseInfo::R < UseInfo::W);
    }

    #[test]
    fn seq_rules() {
        use UseInfo::*;
        // No access: transparent.
        assert_eq!(UseInfo::seq(None, R), R);
        // Full write masks anything later.
        assert_eq!(UseInfo::seq(Some(D), W), D);
        assert_eq!(UseInfo::seq(Some(D), N), D);
        // Read stays R over weak suffixes, escalates to W over strong.
        assert_eq!(UseInfo::seq(Some(R), N), R);
        assert_eq!(UseInfo::seq(Some(R), R), R);
        assert_eq!(UseInfo::seq(Some(R), D), W);
        assert_eq!(UseInfo::seq(Some(R), W), W);
        // Partial write is W.
        assert_eq!(UseInfo::seq(Some(W), N), W);
    }

    #[test]
    fn trivial_detection() {
        let mut l = Label::new(Some(Leaving::One(v(0))), [v(0)].into_iter().collect());
        assert!(l.is_trivial());
        l.reaching.insert(v(1));
        assert!(!l.is_trivial());
        let r = Label::new(Some(Leaving::One(v(2))), [v(0)].into_iter().collect());
        assert!(!r.is_trivial());
    }

    #[test]
    fn removal_flags() {
        let mut l = Label::new(Some(Leaving::One(v(1))), BTreeSet::new());
        assert!(!l.is_removed());
        l.leaving = None;
        assert!(l.is_removed());
    }

    #[test]
    fn restore_versions() {
        let s: BTreeSet<_> = [v(1), v(2)].into_iter().collect();
        let l = Leaving::Restore(s);
        assert_eq!(l.versions().len(), 2);
        assert_eq!(l.single(), None);
    }
}
