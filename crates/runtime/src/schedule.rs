//! Message-level SPMD schedules: the paper's Figs. 19/20 at *message*
//! granularity.
//!
//! A [`crate::RedistPlan`] says **how much** every processor pair
//! exchanges and holds the per-dimension periodic interval descriptors
//! whose intersection runs drive a pair's guard-free pack and unpack
//! loops ([`crate::RedistPlan::pair_dims`] finds a pair's). A
//! [`CommSchedule`] says **who sends how much to whom, and when**:
//! messages are ordered into *caterpillar* rounds (the round-robin
//! tournament pairing), so every round is contention-free (each
//! processor talks to at most one partner) instead of one
//! undifferentiated BSP phase. A pair's round is a closed formula of
//! its two ranks ([`CommSchedule::round_of`]).
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
//!   as readable pseudo-SPMD — packed send/recv loops, read from each
//!   message's plan, instead of whole-array copy statements;
//! * the runtime ([`crate::ArrayRt::try_remap_guarded`], costing
//!   [`CommSchedule::round_triples_of`] through
//!   [`crate::Machine::account_phase`]) executes and costs exactly
//!   the same rounds, so simulated timings and rendered code can never
//!   disagree on who sends what to whom.

use crate::machine::Machine;
use crate::redist::RedistPlan;

/// One packed point-to-point message: the sender packs the pair's
/// elements into one contiguous buffer and sends it; the receiver
/// unpacks with the mirror loop. The loops follow the pair's
/// per-dimension descriptors in the member plan
/// ([`crate::RedistPlan::pair_dims`]); `elements` is their closed-form
/// count, so the buffer size is known before any loop runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedMessage {
    /// Sender rank (row-major in the source grid).
    pub from: u64,
    /// Receiver rank (row-major in the destination grid).
    pub to: u64,
    /// Total elements in the buffer.
    pub elements: u64,
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
    /// Per circle-method round, its index in `rounds`; `None` for a
    /// round no message travels in. There is one round fewer than
    /// slots: the participating rank count, plus a bye slot when it is
    /// odd.
    kept: Vec<Option<usize>>,
}

impl CommSchedule {
    /// Build the message-level schedule of a redistribution plan: one
    /// message per remote transfer, in caterpillar rounds. Plans without
    /// descriptors (the enumeration oracle) are scheduled alike.
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
            messages.extend(plan.transfers.iter().map(|t| PackedMessage {
                from: t.from,
                to: t.to,
                elements: t.elements,
                member,
            }));
            local_elements += plan.local_elements;
        }
        let (rounds, kept) = caterpillar_rounds(&messages);
        CommSchedule { elem_size, local_elements, messages, rounds, n_members: plans.len(), kept }
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

    /// The index in `rounds` of the round the `(from, to)` pair's
    /// messages travel in — how [`crate::CopyProgram::try_compile`]
    /// assigns compiled copy units to their wire round. O(1): the
    /// circle-method formula, then the kept-round index. `None` when
    /// `from == to`, when a rank lies beyond the schedule's slots, or
    /// when the pair's round carries no message (a pair without a
    /// message in a round that carries others gets that round).
    pub fn round_of(&self, from: u64, to: u64) -> Option<usize> {
        let slots = self.kept.len() as u64 + 1;
        if from == to || from.max(to) >= slots {
            return None;
        }
        self.kept[circle_round(slots, from, to)]
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

/// Order messages into caterpillar rounds — the circle-method
/// round-robin tournament over all participating ranks: one player is
/// fixed, the rest rotate, and in each round every player meets exactly
/// one partner. Both directions of a pair land in the same round (the
/// links are full-duplex), so within a round no processor sends to or
/// receives from more than one partner: the rounds are contention-free
/// by construction, and [`Machine::account_schedule`] can cost each as
/// an independent phase.
///
/// Returns the non-empty rounds and each circle-method round's index
/// among them.
fn caterpillar_rounds(messages: &[PackedMessage]) -> (Vec<Vec<usize>>, Vec<Option<usize>>) {
    let n = messages.iter().map(|m| m.from.max(m.to) + 1).max().unwrap_or(0);
    // Even player count; odd counts get a bye slot. Messages are remote
    // (`from != to`), so any message makes at least two slots.
    let slots = n + n % 2;
    let mut rounds: Vec<Vec<usize>> = vec![Vec::new(); slots.saturating_sub(1) as usize];
    for (i, msg) in messages.iter().enumerate() {
        rounds[circle_round(slots, msg.from, msg.to)].push(i);
    }
    // Same-pair messages adjacent within a round (the coalescing
    // invariant of `CommSchedule::round_triples`); a no-op for
    // single-member schedules, whose messages are already pair-sorted.
    for round in &mut rounds {
        round.sort_by_key(|&i| (messages[i].from, messages[i].to, messages[i].member));
    }
    let mut n_kept = 0;
    let kept = rounds
        .iter()
        .map(|r| {
            (!r.is_empty()).then(|| {
                n_kept += 1;
                n_kept - 1
            })
        })
        .collect();
    rounds.retain(|r| !r.is_empty());
    (rounds, kept)
}

/// The circle-method round in which ranks `a != b` meet among `slots`
/// (even) players. Slot 0 is fixed and slots `1..slots` rotate one step
/// per round, so in round `r` the player at rotating position `i` is
/// `(i - 1 - r) mod (slots - 1) + 1`, and the positions facing each
/// other sum to `slots - 1`. Hence rank 0 meets `b` in round
/// `slots - 1 - b`, and two rotating ranks meet when
/// `a + b + 2r ≡ 0 (mod slots - 1)`, i.e. in round
/// `-(a + b) · slots/2 mod (slots - 1)` (`slots/2` inverts 2 modulo the
/// odd `slots - 1`).
fn circle_round(slots: u64, a: u64, b: u64) -> usize {
    debug_assert!(a != b && a.max(b) < slots && slots.is_multiple_of(2));
    let (a, b) = (a.min(b), a.max(b));
    let n = slots - 1;
    let r = if a == 0 { n - b } else { (n - (a + b) % n) % n * (slots / 2) % n };
    r as usize
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
    use crate::redist::{plan_redistribution, Transfer};
    use hpfc_mapping::{
        Alignment, DimFormat, Distribution, Extents, GridId, Mapping, NormalizedMapping,
        ProcGrid, Template, TemplateId,
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
            let dims = plan.pair_dims(m.from, m.to).expect("planned pairs have descriptors");
            let count: u64 = dims.map(|e| e.src_set.intersect_count(&e.dst_set)).product();
            assert_eq!(count, m.elements);
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
        assert!(s.messages.iter().all(|m| plan.pair_dims(m.from, m.to).is_none()));
        assert!(!s.rounds.is_empty());
    }

    /// The circle-method table over `m` (even) slots, built by rotating
    /// the players round by round — the construction the closed-form
    /// [`circle_round`] replaces, kept as its oracle: the round of every
    /// unordered pair.
    fn rotation_table(m: u64) -> std::collections::BTreeMap<(u64, u64), usize> {
        let mut pos: Vec<u64> = (0..m).collect();
        let mut round_of = std::collections::BTreeMap::new();
        for r in 0..(m - 1) as usize {
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
        round_of
    }

    /// The rounds of `messages` by the rotation `table` over `m` slots,
    /// each `(from, to, member)`-sorted, empty ones dropped.
    fn table_rounds(
        table: &std::collections::BTreeMap<(u64, u64), usize>,
        m: u64,
        messages: &[PackedMessage],
    ) -> Vec<Vec<usize>> {
        let mut rounds: Vec<Vec<usize>> = vec![Vec::new(); m as usize - 1];
        for (i, msg) in messages.iter().enumerate() {
            rounds[table[&(msg.from.min(msg.to), msg.from.max(msg.to))]].push(i);
        }
        for round in &mut rounds {
            round.sort_by_key(|&i| (messages[i].from, messages[i].to, messages[i].member));
        }
        rounds.retain(|r| !r.is_empty());
        rounds
    }

    /// A descriptor-free plan with the given remote pairs (sorted, as
    /// planned transfers are).
    fn pairs_plan(mut pairs: Vec<(u64, u64)>) -> RedistPlan {
        pairs.sort_unstable();
        RedistPlan {
            transfers: pairs
                .into_iter()
                .map(|(from, to)| Transfer { from, to, elements: 1 + (from ^ to) % 3 })
                .collect(),
            local_elements: 0,
            elem_size: 8,
            dims: Vec::new(),
            mappings: None,
        }
    }

    #[test]
    fn formula_rounds_match_the_rotation_table() {
        let mut dropped = 0;
        // An odd rank count plays with a bye slot: one table serves it
        // and the next even count.
        let mut table = rotation_table(2);
        for n in 2u64..=257 {
            let m = n + n % 2;
            if n % 2 == 1 {
                table = rotation_table(m);
            }
            let all: Vec<(u64, u64)> =
                (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b))).collect();
            // Both directions of a hashed sample of the pairs (and of
            // `(0, n - 1)`, so that all `n` ranks take part): some rounds
            // carry nothing.
            let sample: Vec<(u64, u64)> = all
                .iter()
                .filter(|&&(a, b)| {
                    b == n - 1 && a == 0
                        || (a.wrapping_mul(0x9E37_79B9) ^ b.wrapping_mul(31)) % 7 == 0
                })
                .flat_map(|&(a, b)| [(a, b), (b, a)])
                .collect();
            // The last rank with its neighbour, and 0 with 1: at most
            // two rounds of `n - 1` or `n` kept.
            let mut sparse = vec![(n - 2, n - 1), (n - 1, n - 2)];
            if n > 3 {
                sparse.push((0, 1));
            }
            for pairs in [all, sample, sparse] {
                let plan = pairs_plan(pairs);
                let s = CommSchedule::from_plan(&plan);
                assert_eq!(s.rounds, table_rounds(&table, m, &s.messages), "{n} ranks");
                for (r, round) in s.rounds.iter().enumerate() {
                    for &i in round {
                        let m = &s.messages[i];
                        assert_eq!(s.round_of(m.to, m.from), Some(r), "{n} ranks");
                    }
                }
                dropped += s.kept.len() - s.n_rounds();
            }
        }
        assert!(dropped > 0, "some sweeps drop empty rounds");
    }

    #[test]
    fn merged_rounds_match_the_rotation_table() {
        // Two members over overlapping pair sets: same-pair messages of
        // both share one round, ordered by member.
        let a = pairs_plan(vec![(0, 1), (1, 0), (2, 5), (3, 4)]);
        let b = pairs_plan(vec![(0, 1), (2, 5), (4, 6), (6, 4)]);
        let s = CommSchedule::from_plans(&[&a, &b]);
        assert_eq!(s.rounds, table_rounds(&rotation_table(8), 8, &s.messages));
        assert_eq!(s.round_of(5, 2), s.round_of(2, 5));
        assert_eq!(s.round_of(3, 3), None);
        assert_eq!(s.round_of(0, 8), None, "rank 8 is beyond the bye slot");
    }
}
