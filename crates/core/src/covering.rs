//! Subscription covering (aggregation) for the store.
//!
//! When subscription σ *covers* σ′ — on every dimension σ is a wildcard or
//! a range enclosing σ′'s (see
//! [`Subscription::covers`](crate::Subscription::covers)) — any event
//! matching σ′ also matches σ, so a rendezvous node only needs σ in its
//! matching engine to *detect* events relevant to either. The table below
//! groups logical subscriptions under one physical representative per
//! group, so a node holding 10^6 logical subscriptions on a skewed
//! workload keeps far fewer physical index entries.
//!
//! **Delivered sets are unchanged.** The representative is only a
//! candidate filter: when its cover matches an event, members whose shape
//! equals the cover are emitted directly, all others are re-verified
//! against their own constraints. A representative may be *broader* than
//! every live member (its creator unsubscribed first) — that costs a
//! verification, never a wrong delivery. All per-id bookkeeping
//! (`len`/`peak`/expiry/refresh) stays in the store's row table, untouched
//! by grouping.
//!
//! Covering runs in front of the [`SortedIndex`] only: the default row
//! scan stores one row per subscription, because at paper-scale store
//! sizes covering merges almost nothing and its bookkeeping costs more
//! than the rows it saves.
//!
//! Detection is exact for "covered by an existing representative": a
//! representative covering σ must match σ's *lower-corner event* (σ's
//! lower bound on its constrained dimensions, 0 elsewhere — a cover is a
//! wildcard wherever σ is), so one engine query plus a `covers` check per
//! candidate finds it. The reverse direction — σ covering existing groups
//! — is a bounded best-effort probe over a `(first dimension, lower
//! bound)` ordering; missing an absorption only costs memory, never
//! correctness.

use std::collections::{BTreeSet, HashMap};

use crate::event::Event;
use crate::sorted::SortedIndex;
use crate::subscription::{SubId, Subscription};
use cbps_overlay::InlineVec;

/// Cap on reverse-absorption candidates examined per insert.
const PROBE_CAP: usize = 64;

/// One member of a covering group. The flag records whether the member's
/// shape equals the group's cover, letting matching skip re-verification.
type Member = (SubId, bool);

/// A physical index entry and the logical subscriptions it represents.
#[derive(Clone, Debug)]
struct Group {
    cover: Subscription,
    members: InlineVec<Member, 4>,
}

/// The covering layer: maps logical subscription ids onto shared physical
/// engine entries. Physical ids are minted from a private counter and
/// never leave the store.
#[derive(Clone, Debug)]
pub(crate) struct CoveringTable {
    groups: HashMap<SubId, Group>,
    /// Logical id → (physical id, position in the member list). Positions
    /// are fixed up on `swap_remove`, so un-covering is O(1).
    member_of: HashMap<SubId, (SubId, u32)>,
    /// Exact-duplicate fast path: shape → (physical id, member refcount).
    by_shape: HashMap<Subscription, (SubId, u32)>,
    /// Reverse-absorption probe order: (first constrained dimension of the
    /// cover, its lower bound there, physical id).
    probe: BTreeSet<(u32, u64, SubId)>,
    next_phys: u64,
    scratch: Vec<SubId>,
}

impl CoveringTable {
    pub(crate) fn new() -> Self {
        CoveringTable {
            groups: HashMap::new(),
            member_of: HashMap::new(),
            by_shape: HashMap::new(),
            probe: BTreeSet::new(),
            next_phys: 0,
            scratch: Vec::new(),
        }
    }

    /// Number of physical engine entries (== live groups).
    pub(crate) fn physical_len(&self) -> usize {
        self.groups.len()
    }

    /// Registers a *fresh* logical subscription, inserting a physical
    /// entry into `engine` only when no existing group can represent it.
    pub(crate) fn insert(&mut self, engine: &mut SortedIndex, id: SubId, sub: &Subscription) {
        if let Some(&(phys, _)) = self.by_shape.get(sub) {
            self.join(phys, id, sub);
            return;
        }
        // Covered by an existing representative? Every true cover matches
        // the lower-corner event, so an engine query over it enumerates all
        // candidates; `find_match_where` stops at the first one that
        // actually covers. Which covering group is picked when several
        // qualify is deterministic — group membership never
        // affects covers, the probe order, or delivered sets, so any
        // covering group is equally correct.
        let corner = Event::new_unchecked(
            sub.constraints()
                .iter()
                .map(|c| c.map_or(0, |c| c.lo()))
                .collect(),
        );
        let groups = &self.groups;
        let cover = engine.find_match_where(&corner, &mut |phys| groups[&phys].cover.covers(sub));
        if let Some(phys) = cover {
            self.join(phys, id, sub);
            return;
        }
        // Does σ cover an existing group? Best-effort: probe groups whose
        // cover's first constrained dimension matches σ's and whose lower
        // bound there falls inside σ's range, capped at PROBE_CAP.
        let first = sub
            .first_constrained()
            .expect("subscriptions constrain at least one dimension");
        let c = sub
            .constraint(first)
            .expect("first_constrained is constrained");
        let absorbed = self
            .probe
            .range((first as u32, c.lo(), SubId(0))..=(first as u32, c.hi(), SubId(u64::MAX)))
            .take(PROBE_CAP)
            .map(|&(_, _, phys)| phys)
            .find(|phys| sub.covers(&self.groups[phys].cover));
        if let Some(phys) = absorbed {
            self.widen(engine, phys, sub);
            self.join(phys, id, sub);
            return;
        }
        // New group with σ as its own representative.
        let phys = SubId(self.next_phys);
        self.next_phys += 1;
        engine.insert(phys, sub.clone());
        self.probe.insert((first as u32, c.lo(), phys));
        let mut members = InlineVec::new();
        members.push((id, true));
        self.groups.insert(
            phys,
            Group {
                cover: sub.clone(),
                members,
            },
        );
        self.member_of.insert(id, (phys, 0));
        self.by_shape.insert(sub.clone(), (phys, 1));
    }

    /// Registers a batch of fresh logical subscriptions at once.
    ///
    /// Equivalent to calling [`CoveringTable::insert`] for each item in
    /// order — the groups, covers, probe entries and by-shape map come out
    /// identical — but the expensive half of the decision procedure (the
    /// lower-corner engine query) runs once per *distinct shape* instead of
    /// once per item. Duplicate shapes are grouped up front by sorting on a
    /// shape digest; every non-first occurrence attaches to its shape's
    /// group with O(1) work, exactly as the sequential `by_shape` fast
    /// path would. The maps sized by the logical population are reserved
    /// up front, so the build never pays an incremental rehash of a
    /// million-entry table.
    ///
    /// The equivalence holds because duplicates never change the engine,
    /// probe set, or group covers: replaying only each shape's first
    /// occurrence, in original order, puts the table through the same
    /// sequence of decision states as a one-at-a-time build.
    pub(crate) fn insert_bulk(
        &mut self,
        engine: &mut SortedIndex,
        items: &[(SubId, &Subscription)],
    ) {
        self.member_of.reserve(items.len());
        self.by_shape.reserve(items.len());
        // Sort item indices by shape digest, ties broken by position, so
        // equal shapes form runs led by their first occurrence. Runs split
        // on full shape inequality, so a digest collision yields two runs
        // whose later head simply takes the `by_shape` fast path —
        // correctness never rests on the digest.
        let mut order: Vec<(u64, u32)> = items
            .iter()
            .enumerate()
            .map(|(i, (_, sub))| {
                (
                    shape_digest(sub),
                    u32::try_from(i).expect("bulk batches exceed u32 items"),
                )
            })
            .collect();
        order.sort_unstable();
        let mut runs: Vec<(u32, u32)> = Vec::new(); // (start, end) into `order`
        let mut start = 0;
        while start < order.len() {
            let (digest, head) = order[start];
            let head_sub = items[head as usize].1;
            let mut end = start + 1;
            while end < order.len()
                && order[end].0 == digest
                && items[order[end].1 as usize].1 == head_sub
            {
                end += 1;
            }
            runs.push((start as u32, end as u32));
            start = end;
        }
        // Replay one head per distinct shape in first-occurrence order,
        // then attach that shape's duplicates to wherever the head landed.
        runs.sort_unstable_by_key(|&(start, _)| order[start as usize].1);
        for &(start, end) in &runs {
            let (head_id, head_sub) = items[order[start as usize].1 as usize];
            self.insert(engine, head_id, head_sub);
            if end - start > 1 {
                let phys = self.member_of[&head_id].0;
                for &(_, i) in &order[start as usize + 1..end as usize] {
                    let (id, sub) = items[i as usize];
                    self.join(phys, id, sub);
                }
            }
        }
    }

    /// Removes a logical subscription; drops the group's physical entry
    /// when its last member leaves.
    pub(crate) fn remove(&mut self, engine: &mut SortedIndex, id: SubId, sub: &Subscription) {
        let (phys, pos) = self
            .member_of
            .remove(&id)
            .expect("every stored id is a member");
        let g = self
            .groups
            .get_mut(&phys)
            .expect("members imply a live group");
        let pos = pos as usize;
        g.members.swap_remove(pos);
        if pos < g.members.len() {
            let moved = g.members.as_slice()[pos].0;
            self.member_of
                .get_mut(&moved)
                .expect("member bookkeeping")
                .1 = pos as u32;
        }
        if let Some(entry) = self.by_shape.get_mut(sub) {
            entry.1 -= 1;
            if entry.1 == 0 {
                self.by_shape.remove(sub);
            }
        }
        if g.members.is_empty() {
            let g = self.groups.remove(&phys).expect("fetched above");
            let first = g
                .cover
                .first_constrained()
                .expect("covers are valid shapes");
            let lo = g.cover.constraint(first).expect("constrained").lo();
            self.probe.remove(&(first as u32, lo, phys));
            engine.remove(phys);
        }
    }

    /// Grows the physical-hit scratch to its steady-state bound (every
    /// group matching at once) so [`CoveringTable::matches_into`] never
    /// reallocates afterwards.
    pub(crate) fn warm(&mut self) {
        let need = self.groups.len();
        if self.scratch.capacity() < need {
            self.scratch.reserve(need - self.scratch.len());
        }
    }

    /// Expands the engine's physical hits into the exact logical match
    /// set, re-verifying members narrower than their representative with
    /// `verify` (which tests a logical id's own subscription).
    pub(crate) fn matches_into(
        &mut self,
        engine: &SortedIndex,
        event: &Event,
        verify: impl Fn(SubId) -> bool,
        out: &mut Vec<SubId>,
    ) {
        let mut hits = std::mem::take(&mut self.scratch);
        engine.matches_into(event, &mut hits);
        out.clear();
        for phys in &hits {
            for &(id, exact) in self.groups[phys].members.as_slice() {
                if exact || verify(id) {
                    out.push(id);
                }
            }
        }
        out.sort_unstable();
        hits.clear();
        self.scratch = hits;
    }

    /// Adds `id` to an existing group.
    fn join(&mut self, phys: SubId, id: SubId, sub: &Subscription) {
        let g = self.groups.get_mut(&phys).expect("joining a live group");
        let exact = *sub == g.cover;
        let pos = g.members.len() as u32;
        g.members.push((id, exact));
        self.member_of.insert(id, (phys, pos));
        match self.by_shape.get_mut(sub) {
            Some(entry) => {
                debug_assert_eq!(entry.0, phys, "one group per shape");
                entry.1 += 1;
            }
            None => {
                self.by_shape.insert(sub.clone(), (phys, 1));
            }
        }
    }

    /// Replaces a group's representative with the broader `cover`.
    fn widen(&mut self, engine: &mut SortedIndex, phys: SubId, cover: &Subscription) {
        let g = self.groups.get_mut(&phys).expect("widening a live group");
        let old_first = g
            .cover
            .first_constrained()
            .expect("covers are valid shapes");
        let old_lo = g.cover.constraint(old_first).expect("constrained").lo();
        self.probe.remove(&(old_first as u32, old_lo, phys));
        // Members exactly matching the old cover are strictly narrower
        // than the new one: they need re-verification from now on.
        for m in g.members.as_mut_slice() {
            m.1 = false;
        }
        engine.remove(phys);
        engine.insert(phys, cover.clone());
        let first = cover.first_constrained().expect("covers are valid shapes");
        self.probe.insert((
            first as u32,
            cover.constraint(first).expect("constrained").lo(),
            phys,
        ));
        g.cover = cover.clone();
    }
}

/// FNV-1a digest of a subscription's shape for duplicate grouping: equal
/// shapes always digest equally, so sorting by digest makes duplicates
/// adjacent. (Distinct shapes colliding is tolerated by the caller.)
fn shape_digest(sub: &Subscription) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for c in sub.constraints() {
        let (tag, lo, hi) = c.map_or((0, 0, 0), |c| (1, c.lo(), c.hi()));
        for word in [tag, lo, hi] {
            h ^= word;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}
