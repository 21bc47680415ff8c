//! Message-level SPMD schedules: the paper's Figs. 19/20 at *message*
//! granularity.
//!
//! A [`crate::RedistPlan`] says **how much** every processor pair
//! exchanges; a [`CommSchedule`] additionally says **what each message
//! looks like** — per (sender, receiver) pair, the per-dimension
//! periodic interval descriptors whose intersection runs drive a
//! guard-free pack loop on the sender and an unpack loop on the
//! receiver — and **when** it goes on the wire: messages are ordered
//! into *caterpillar* rounds (the round-robin tournament pairing), so
//! every round is contention-free (each processor talks to at most one
//! partner) instead of one undifferentiated BSP phase.
//!
//! A schedule can aggregate **several plans at once**
//! ([`CommSchedule::from_plans`]): when one `distribute`/`align`
//! directive remaps every array aligned to the redistributed template
//! (the paper's Fig. 3 situation), the member plans' messages for the
//! same (sender, receiver) pair share a caterpillar round and a wire
//! buffer — [`CommSchedule::round_triples`] coalesces them into one
//! message per pair per round, so the pair pays the per-message latency
//! once instead of once per array.
//!
//! The same structure serves two layers:
//!
//! * the code generator (`hpfc-codegen`'s `render`) prints a schedule
//!   as readable pseudo-SPMD — packed send/recv loops instead of
//!   whole-array copy statements;
//! * the runtime ([`crate::ArrayRt::try_remap_guarded`], costing
//!   [`CommSchedule::round_triples_of`] through
//!   [`crate::Machine::account_phase`]) executes and costs exactly
//!   the same rounds, so simulated timings and rendered code can never
//!   disagree on who sends what to whom.

use hpfc_mapping::{NormalizedMapping, PeriodicSet};

use crate::machine::Machine;
use crate::redist::RedistPlan;

/// One array dimension of a packed message: the periodic index sets
/// owned by the sender (under the source mapping) and by the receiver
/// (under the destination mapping). The message's element set along
/// this dimension is `src_set ∩ dst_set`; its maximal runs
/// ([`hpfc_mapping::intersect_runs`]) are the units the pack/unpack
/// loops copy, and local buffer positions come from
/// [`PeriodicSet::count_below`] in closed form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MsgDim {
    /// Indices the sender owns along this dimension (full range when
    /// the dimension does not drive the source side).
    pub src_set: PeriodicSet,
    /// Indices the receiver owns along this dimension.
    pub dst_set: PeriodicSet,
}

impl MsgDim {
    /// `|src_set ∩ dst_set|` — this dimension's factor of the message
    /// element count, closed form.
    pub fn count(&self) -> u64 {
        self.src_set.intersect_count(&self.dst_set)
    }
}

/// One packed point-to-point message: the sender walks the cartesian
/// product of its per-dimension intersection runs, packs the elements
/// into one contiguous buffer, and sends it; the receiver unpacks with
/// the mirror loop. `elements` is the closed-form product of the
/// per-dimension intersection counts, so the buffer size is known
/// before any loop runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedMessage {
    /// Sender rank (row-major in the source grid).
    pub from: u64,
    /// Receiver rank (row-major in the destination grid).
    pub to: u64,
    /// Total elements in the buffer (product over `dims` of
    /// [`MsgDim::count`]).
    pub elements: u64,
    /// Per-array-dimension interval descriptors driving the pack and
    /// unpack loops. Empty for schedules built from plans without
    /// descriptors (the enumeration oracle).
    pub dims: Vec<MsgDim>,
    /// Which member plan of a [`CommSchedule::from_plans`] aggregate
    /// this message belongs to (always 0 for single-plan schedules).
    /// Same-pair messages of different members share a round and a wire
    /// buffer; the member index keeps the per-array pack/unpack loops
    /// attributable.
    pub member: usize,
}

impl PackedMessage {
    /// Buffer size in bytes for elements of `elem_size` bytes.
    pub fn bytes(&self, elem_size: u64) -> u64 {
        self.elements * elem_size
    }
}

/// A complete message-level schedule for one redistribution — or for
/// the aggregate of several redistributions issued by one directive
/// ([`CommSchedule::from_plans`]): every remote pair's packed message,
/// ordered into contention-free caterpillar rounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommSchedule {
    /// Element size in bytes (member plans of an aggregate all share
    /// it — enforced by [`CommSchedule::from_plans`]).
    pub elem_size: u64,
    /// Elements that never cross the network (receiver already holds
    /// them under the source mapping); summed over members.
    pub local_elements: u64,
    /// All remote messages, member-major, each member's sorted by
    /// `(from, to)`.
    pub messages: Vec<PackedMessage>,
    /// Caterpillar rounds: indices into `messages`, grouped so that
    /// within a round every processor exchanges with at most one
    /// partner (messages in both directions of a pair — and of every
    /// member — share a round). Within a round, indices are sorted by
    /// `(from, to, member)`, so same-pair messages of different members
    /// are adjacent — the invariant the coalescing
    /// [`CommSchedule::round_triples`] iterator relies on. Empty rounds
    /// are dropped.
    pub rounds: Vec<Vec<usize>>,
    /// Number of member plans aggregated into this schedule (1 for
    /// [`CommSchedule::from_plan`]).
    pub n_members: usize,
}

impl CommSchedule {
    /// Build the message-level schedule of a redistribution plan.
    ///
    /// For plans carrying per-dimension descriptors (every plan built by
    /// [`crate::plan_redistribution`]), each remote transfer is resolved
    /// back to its unique per-dimension descriptor combination — the
    /// (sender coordinate, receiver coordinate) pair picks exactly one
    /// [`crate::redist::DimContribution`] per dimension — so the message
    /// loops are exact. Plans without descriptors (the enumeration
    /// oracle) still get sized messages and caterpillar rounds, just no
    /// loop structure.
    pub fn from_plan(plan: &RedistPlan) -> CommSchedule {
        CommSchedule::from_plans(&[plan])
    }

    /// Build one aggregated schedule over several plans — the remap
    /// group of one directive (Fig. 3: every array aligned to the
    /// redistributed template remaps at the same program vertex).
    ///
    /// Messages of all member plans are pooled and every unordered
    /// processor pair is assigned exactly one caterpillar round, so
    /// same-pair messages of *different arrays* travel in the same
    /// round and — through the coalescing
    /// [`CommSchedule::round_triples`] — as **one** wire message per
    /// direction: the pair pays one latency per round, not one per
    /// array. The round count is that of the pooled pair set, which is
    /// never more than the sum of the members' solo round counts (and
    /// strictly less whenever two members talk over the same pairs).
    ///
    /// All member plans must share `elem_size` (lowering only groups
    /// remaps of equal element size).
    pub fn from_plans(plans: &[&RedistPlan]) -> CommSchedule {
        assert!(!plans.is_empty(), "a schedule aggregates at least one plan");
        let elem_size = plans[0].elem_size;
        assert!(
            plans.iter().all(|p| p.elem_size == elem_size),
            "aggregated plans must share the element size"
        );
        let mut messages = Vec::with_capacity(plans.iter().map(|p| p.transfers.len()).sum());
        let mut local_elements = 0u64;
        for (member, plan) in plans.iter().enumerate() {
            plan_messages(plan, member, &mut messages);
            local_elements += plan.local_elements;
        }
        let rounds = caterpillar_rounds(&messages);
        CommSchedule { elem_size, local_elements, messages, rounds, n_members: plans.len() }
    }

    /// Number of wire rounds.
    pub fn n_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Total bytes crossing the network (matches
    /// [`RedistPlan::total_bytes`], summed over members).
    pub fn total_bytes(&self) -> u64 {
        self.messages.iter().map(|m| m.bytes(self.elem_size)).sum()
    }

    /// Number of messages actually put on the wire: same-pair member
    /// messages coalesced within each round. Equals `messages.len()`
    /// for single-member schedules.
    pub fn n_wire_messages(&self) -> u64 {
        (0..self.rounds.len()).map(|r| self.round_triples(r).count() as u64).sum()
    }

    /// The `(from, to, bytes)` triples of one round, for
    /// [`Machine::account_phase`] — same-pair messages (different
    /// members sharing the round) are **coalesced into one triple**:
    /// the wire carries one packed buffer per (sender, receiver) pair
    /// per round, whatever mix of arrays is inside.
    pub fn round_triples(&self, round: usize) -> RoundTriples<'_> {
        self.round_triples_of(round, (|_| true) as fn(usize) -> bool)
    }

    /// [`CommSchedule::round_triples`] restricted to the member plans
    /// `included` selects (by member index). This is how a partially
    /// applicable remap group is costed: members that turn out not to
    /// move data at run time (status noop, live-copy reuse) simply drop
    /// out of every round's coalesced buffers.
    pub fn round_triples_of<F: Fn(usize) -> bool>(
        &self,
        round: usize,
        included: F,
    ) -> RoundTriples<'_, F> {
        RoundTriples { sched: self, idxs: &self.rounds[round], at: 0, included }
    }

    /// Each message's (sender, receiver) pair with its caterpillar
    /// round index — how [`crate::CopyProgram::try_compile`] assigns
    /// compiled copy units to the round their message travels in.
    /// Aggregated schedules yield a pair once per member; collecting
    /// into a map collapses the duplicates (same pair ⇒ same round).
    pub fn round_of_pairs(&self) -> impl Iterator<Item = ((u64, u64), usize)> + '_ {
        self.rounds.iter().enumerate().flat_map(move |(r, round)| {
            round.iter().map(move |&i| {
                let m = &self.messages[i];
                ((m.from, m.to), r)
            })
        })
    }
}

/// Iterator over one round's coalesced `(from, to, bytes)` wire
/// triples (see [`CommSchedule::round_triples`]). Allocation-free: it
/// walks the round's `(from, to, member)`-sorted message indices and
/// merges adjacent same-pair entries on the fly.
pub struct RoundTriples<'a, F = fn(usize) -> bool> {
    sched: &'a CommSchedule,
    idxs: &'a [usize],
    at: usize,
    included: F,
}

impl<F: Fn(usize) -> bool> Iterator for RoundTriples<'_, F> {
    type Item = (u64, u64, u64);

    fn next(&mut self) -> Option<(u64, u64, u64)> {
        loop {
            let &i = self.idxs.get(self.at)?;
            self.at += 1;
            let m = &self.sched.messages[i];
            if !(self.included)(m.member) {
                continue;
            }
            let (from, to) = (m.from, m.to);
            let mut bytes = m.bytes(self.sched.elem_size);
            while let Some(&j) = self.idxs.get(self.at) {
                let n = &self.sched.messages[j];
                if n.from != from || n.to != to {
                    break;
                }
                self.at += 1;
                if (self.included)(n.member) {
                    bytes += n.bytes(self.sched.elem_size);
                }
            }
            if bytes == 0 {
                // Every same-pair message was masked out: no wire
                // message for this pair this round.
                continue;
            }
            return Some((from, to, bytes));
        }
    }
}

/// Resolve one plan's transfers into [`PackedMessage`]s tagged with
/// `member`, appending to `out` in `(from, to)` order (the transfer
/// order).
fn plan_messages(plan: &RedistPlan, member: usize, out: &mut Vec<PackedMessage>) {
    let maps = plan.mappings.as_deref();
    // Per-dimension entry index keyed by the (source, destination)
    // coordinate pair, built once — resolving a transfer is then a
    // lookup, not a scan of the P_src·P_dst contribution table.
    let by_coords: Vec<DimIndex> = match maps {
        Some(_) if !plan.dims.is_empty() => plan
            .dims
            .iter()
            .map(|entries| {
                entries.iter().enumerate().map(|(i, e)| ((e.src, e.dst), i)).collect()
            })
            .collect(),
        _ => Vec::new(),
    };
    out.extend(plan.transfers.iter().map(|t| {
        let dims = match maps {
            Some((src, dst)) if !plan.dims.is_empty() => {
                message_dims(plan, &by_coords, src, dst, t.from, t.to)
            }
            _ => Vec::new(),
        };
        debug_assert!(
            dims.is_empty() || dims.iter().map(MsgDim::count).product::<u64>() == t.elements,
            "descriptor product disagrees with planned transfer size"
        );
        PackedMessage { from: t.from, to: t.to, elements: t.elements, dims, member }
    }));
}

/// One dimension's contribution-entry index: entry position keyed by
/// the (driven source axis/coord, driven destination axis/coord) pair.
type DimIndex =
    std::collections::BTreeMap<(Option<(usize, u64)>, Option<(usize, u64)>), usize>;

/// Resolve the per-dimension descriptors of the `(from, to)` pair: for
/// every array dimension, the contribution entry whose source/dest grid
/// coordinates match the delinearized ranks. Exactly one entry matches
/// per dimension (entries are keyed by coordinate pairs), so a remote
/// transfer corresponds to a unique descriptor combination.
fn message_dims(
    plan: &RedistPlan,
    by_coords: &[DimIndex],
    src: &NormalizedMapping,
    dst: &NormalizedMapping,
    from: u64,
    to: u64,
) -> Vec<MsgDim> {
    let s_coords = src.grid_shape.delinearize(from);
    let d_coords = dst.grid_shape.delinearize(to);
    let rank = src.array_extents.rank();
    let mut dims = Vec::with_capacity(rank);
    for (d, coords) in by_coords.iter().enumerate().take(rank) {
        let want_src = src.axis_driven_by(d).map(|(ax, ..)| (ax, s_coords[ax]));
        let want_dst = dst.axis_driven_by(d).map(|(ax, ..)| (ax, d_coords[ax]));
        let entry = &plan.dims[d][*coords
            .get(&(want_src, want_dst))
            .expect("remote transfer implies a non-empty contribution per dimension")];
        dims.push(MsgDim { src_set: entry.src_set.clone(), dst_set: entry.dst_set.clone() });
    }
    dims
}

/// Order messages into caterpillar rounds — the circle-method
/// round-robin tournament over all participating ranks: one player is
/// fixed, the rest rotate, and in each round every player meets exactly
/// one partner. Both directions of a pair land in the same round (the
/// links are full-duplex), so within a round no processor sends to or
/// receives from more than one partner: the rounds are contention-free
/// by construction, and [`Machine::account_schedule`] can cost each as
/// an independent phase.
fn caterpillar_rounds(messages: &[PackedMessage]) -> Vec<Vec<usize>> {
    if messages.is_empty() {
        return Vec::new();
    }
    let n = messages.iter().map(|m| m.from.max(m.to) + 1).max().unwrap_or(0);
    // Even player count; odd counts get a bye slot. Messages are remote
    // (`from != to`), so at least two ranks participate.
    let m = if n % 2 == 0 { n } else { n + 1 };
    debug_assert!(m >= 2, "remote messages imply at least two ranks");
    // Circle method: position 0 is fixed, positions 1..m rotate.
    let mut pos: Vec<u64> = (0..m).collect();
    let n_rounds = (m - 1) as usize;
    let mut round_of = std::collections::BTreeMap::new();
    for r in 0..n_rounds {
        for k in 0..(m / 2) as usize {
            let (a, b) = (pos[k], pos[m as usize - 1 - k]);
            round_of.insert((a.min(b), a.max(b)), r);
        }
        // Rotate everything but pos[0] one step.
        let last = pos[m as usize - 1];
        for i in (2..m as usize).rev() {
            pos[i] = pos[i - 1];
        }
        pos[1] = last;
    }
    let mut rounds: Vec<Vec<usize>> = vec![Vec::new(); n_rounds];
    for (i, msg) in messages.iter().enumerate() {
        let key = (msg.from.min(msg.to), msg.from.max(msg.to));
        rounds[round_of[&key]].push(i);
    }
    // Same-pair messages adjacent within a round (the coalescing
    // invariant of `CommSchedule::round_triples`); a no-op for
    // single-member schedules, whose messages are already pair-sorted.
    for round in &mut rounds {
        round.sort_by_key(|&i| (messages[i].from, messages[i].to, messages[i].member));
    }
    rounds.retain(|r| !r.is_empty());
    rounds
}

impl Machine {
    /// Execute a message-level schedule's accounting: each caterpillar
    /// round is one [`Machine::account_phase`] (every processor in a
    /// round has at most one partner, so the round really is the
    /// per-pair message time, not a BSP max over unrelated pairs);
    /// the total is the sum over rounds. Local elements are credited to
    /// the local-copy counter. Returns the total schedule time.
    pub fn account_schedule(&mut self, schedule: &CommSchedule) -> f64 {
        let mut total = 0.0;
        for r in 0..schedule.rounds.len() {
            total += self.account_phase(schedule.round_triples(r));
        }
        self.stats.local_elements += schedule.local_elements;
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::redist::plan_redistribution;
    use hpfc_mapping::{
        Alignment, DimFormat, Distribution, Extents, GridId, Mapping, ProcGrid, Template,
        TemplateId,
    };

    fn mk(n: u64, p: u64, fmt: DimFormat) -> NormalizedMapping {
        let t = Template { id: TemplateId(0), name: "T".into(), shape: Extents::new(&[n]) };
        let g = ProcGrid { id: GridId(0), name: "P".into(), shape: Extents::new(&[p]) };
        Mapping {
            align: Alignment::identity(TemplateId(0), 1),
            dist: Distribution::new(GridId(0), vec![fmt]),
        }
        .normalize(&Extents::new(&[n]), &t, &g)
        .unwrap()
    }

    #[test]
    fn schedule_messages_match_plan_exactly() {
        let src = mk(16, 4, DimFormat::Block(None));
        let dst = mk(16, 4, DimFormat::Cyclic(None));
        let plan = plan_redistribution(&src, &dst, 8);
        let s = CommSchedule::from_plan(&plan);
        assert_eq!(s.messages.len() as u64, plan.total_messages());
        assert_eq!(s.total_bytes(), plan.total_bytes());
        assert_eq!(s.local_elements, plan.local_elements);
        // Every message's descriptor product equals its element count.
        for m in &s.messages {
            assert_eq!(m.dims.iter().map(MsgDim::count).product::<u64>(), m.elements);
        }
    }

    #[test]
    fn rounds_are_contention_free_and_cover_all_messages() {
        let src = mk(60, 4, DimFormat::Cyclic(Some(3)));
        let dst = mk(60, 5, DimFormat::Cyclic(Some(2)));
        let plan = plan_redistribution(&src, &dst, 8);
        let s = CommSchedule::from_plan(&plan);
        let mut seen = vec![false; s.messages.len()];
        for round in &s.rounds {
            let mut partner: std::collections::BTreeMap<u64, u64> = Default::default();
            for &i in round {
                assert!(!seen[i], "message scheduled twice");
                seen[i] = true;
                let m = &s.messages[i];
                // Each rank has at most one partner per round.
                for (me, other) in [(m.from, m.to), (m.to, m.from)] {
                    match partner.get(&me) {
                        None => {
                            partner.insert(me, other);
                        }
                        Some(&p) => assert_eq!(p, other, "rank {me} has two partners"),
                    }
                }
            }
        }
        assert!(seen.iter().all(|&x| x), "every message is scheduled");
    }

    #[test]
    fn caterpillar_beats_bsp_max_when_pairs_are_disjoint() {
        // block -> cyclic over 4: all-to-all, 12 messages. The
        // caterpillar runs them in 3 contention-free rounds; a single
        // BSP phase would bill every processor 6 message latencies at
        // once — same totals, finer time structure.
        let src = mk(16, 4, DimFormat::Block(None));
        let dst = mk(16, 4, DimFormat::Cyclic(None));
        let plan = plan_redistribution(&src, &dst, 8);
        let s = CommSchedule::from_plan(&plan);
        assert_eq!(s.n_rounds(), 3);
        let mut m1 = Machine::new(4);
        let t_sched = m1.account_schedule(&s);
        let mut m2 = Machine::new(4);
        let t_bsp = m2.account_phase(plan.phase_triples());
        // Totals agree; only the time structure differs.
        assert_eq!(m1.stats.messages, m2.stats.messages);
        assert_eq!(m1.stats.bytes, m2.stats.bytes);
        assert!(t_sched > 0.0 && t_bsp > 0.0);
    }

    #[test]
    fn oracle_plans_schedule_without_loop_structure() {
        let src = mk(12, 3, DimFormat::Block(None));
        let dst = mk(12, 3, DimFormat::Cyclic(None));
        let plan = crate::redist::plan_by_enumeration(&src, &dst, 8);
        let s = CommSchedule::from_plan(&plan);
        assert_eq!(s.messages.len() as u64, plan.total_messages());
        assert!(s.messages.iter().all(|m| m.dims.is_empty()));
        assert!(!s.rounds.is_empty());
    }
}
