//! Per-rendezvous-node subscription storage with expiration.
//!
//! Subscriptions carry an expiration time simulating unsubscription
//! requests (§5.1); the store purges them lazily and tracks the peak number
//! of simultaneously live subscriptions — the "maximum number of
//! subscriptions per node" metric of Figures 6 and 8.
//!
//! The store is one contiguous row table: parallel `ids`, `expires` and
//! `recs` columns, a row-major `bounds` column of `(lo, hi)` pairs (a
//! wildcard is `(0, u64::MAX)`), and an id → row map. Insert appends a
//! row; removal and expiry `swap_remove` it and re-point the moved row's
//! map entry. Paper-scale stores hold tens to hundreds of rows, so a
//! sequential scan of `bounds` is the match engine
//! ([`MatchEngineKind::Scan`]). [`MatchEngineKind::Sorted`] keeps the same
//! rows for records but matches through a [`SortedIndex`] (optionally
//! behind subscription covering), for 10^4–10^6-row stores.
//!
//! Expiry runs only once a cached watermark (the earliest live expiry) has
//! passed. The scan then sweeps the `expires` column, O(rows) per expiry
//! instant, which is no worse than its O(rows) match. The sorted engine's
//! match is sublinear, so it keeps its finite expiries in order as well
//! and pops only the lapsed rows.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use cbps_overlay::{KeyRangeSet, Peer};
use cbps_sim::{MatchEngineKind, SimTime, TraceId};

use crate::covering::CoveringTable;
use crate::event::Event;
use crate::sorted::SortedIndex;
use crate::space::EventSpace;
use crate::subscription::{SubId, Subscription};

/// A subscription as stored at a rendezvous node: the query plus the
/// routing metadata the rendezvous needs to serve it.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredSub {
    /// The subscription itself.
    pub sub: Subscription,
    /// Who to notify on a match.
    pub subscriber: Peer,
    /// When the subscription lapses ([`SimTime::MAX`] = never).
    pub expires: SimTime,
    /// The full rendezvous key set `SK(σ)` — needed by the collecting
    /// optimization (to locate the range's middle node) and by state
    /// transfer (to decide which node covers which part).
    pub sk: KeyRangeSet,
    /// Causal trace of the `sub(σ)` operation that created this record
    /// (always minted — ids are cheap; recording is what observability
    /// gates).
    pub trace: TraceId,
    /// Bitmask of adaptive-rendezvous split slots whose mirror images this
    /// record's `sk` includes (see [`RendezvousPolicy`]): bit `s` set
    /// means the record participates in the live split entry occupying
    /// slot `s`, so the merge sweeps can find (and re-home or release)
    /// exactly the migrated copies. Always `0` under the static policy.
    ///
    /// [`RendezvousPolicy`]: crate::RendezvousPolicy
    pub subgroups: u64,
}

/// The subscription store of one rendezvous node.
///
/// # Examples
///
/// ```
/// use cbps::{AttributeDef, EventSpace, StoredSub, SubId, Subscription, SubscriptionStore};
/// use cbps_overlay::{KeyRangeSet, KeySpace, Peer};
/// use cbps_sim::{SimTime, TraceId};
///
/// let space = EventSpace::new(vec![AttributeDef::new("x", 100)]);
/// let mut store = SubscriptionStore::new(&space);
/// let sub = Subscription::builder(&space).range("x", 0, 10)?.build()?;
/// let keys = KeySpace::new(8);
/// store.insert(
///     SubId(1),
///     StoredSub {
///         sub,
///         subscriber: Peer { idx: 0, key: keys.key(5) },
///         expires: SimTime::from_secs(60),
///         sk: KeyRangeSet::of_key(keys, keys.key(3)),
///         trace: TraceId::NONE,
///         subgroups: 0,
///     },
///     SimTime::ZERO,
/// );
/// assert_eq!(store.len(), 1);
/// store.purge_expired(SimTime::from_secs(61));
/// assert_eq!(store.len(), 0);
/// assert_eq!(store.peak(), 1);
/// # Ok::<(), cbps::PubSubError>(())
/// ```

#[derive(Clone, Debug)]
pub struct SubscriptionStore {
    /// Row `i` holds subscription `ids[i]`, lapsing at `expires[i]`.
    ids: Vec<SubId>,
    expires: Vec<SimTime>,
    /// Records are `Arc`-wrapped so matching hands out handles instead of
    /// cloning the (constraint-vector-owning) record per hit.
    recs: Vec<Arc<StoredSub>>,
    /// `width` `(lo, hi)` pairs per row, row-major. Empty (`width == 0`)
    /// when the sorted engine matches instead of the scan.
    bounds: Vec<(u64, u64)>,
    width: usize,
    row_of: HashMap<SubId, u32>,
    /// No row expires before this instant. Removals may leave it early;
    /// the next purge then finds nothing and recomputes it.
    watermark: SimTime,
    peak: usize,
    /// The match accelerator of [`MatchEngineKind::Sorted`]; `None` scans
    /// `bounds`.
    sorted: Option<Box<SortedPath>>,
}

/// The sorted engine's matching state: a [`SortedIndex`], optionally
/// behind a covering layer that stores one physical entry per group, plus
/// the rows' finite expiries in order.
#[derive(Clone, Debug)]
struct SortedPath {
    index: SortedIndex,
    covering: Option<CoveringTable>,
    by_expiry: BTreeSet<(SimTime, SubId)>,
    /// Reused id buffer for [`SubscriptionStore::match_event_into`].
    scratch: Vec<SubId>,
}

impl SortedPath {
    fn insert(&mut self, id: SubId, sub: &Subscription, expires: SimTime) {
        self.set_expiry(id, SimTime::MAX, expires);
        match &mut self.covering {
            Some(table) => table.insert(&mut self.index, id, sub),
            None => {
                self.index.insert(id, sub.clone());
            }
        }
    }

    fn remove(&mut self, id: SubId, sub: &Subscription, expires: SimTime) {
        self.set_expiry(id, expires, SimTime::MAX);
        match &mut self.covering {
            Some(table) => table.remove(&mut self.index, id, sub),
            None => {
                self.index.remove(id);
            }
        }
    }

    /// Moves `id` from expiry `old` to `new`; never-expiring rows
    /// ([`SimTime::MAX`]) are not tracked.
    fn set_expiry(&mut self, id: SubId, old: SimTime, new: SimTime) {
        if old != SimTime::MAX {
            self.by_expiry.remove(&(old, id));
        }
        if new != SimTime::MAX {
            self.by_expiry.insert((new, id));
        }
    }
}

impl SubscriptionStore {
    /// Creates an empty store for subscriptions over `space` with the
    /// default engine (the row scan). Covering is requested but only the
    /// sorted engine applies it.
    pub fn new(space: &EventSpace) -> Self {
        SubscriptionStore::with_options(space, MatchEngineKind::default(), true)
    }

    /// Creates an empty store with an explicit engine kind and covering
    /// toggle (honoured by [`MatchEngineKind::Sorted`] only). Both knobs
    /// change memory and speed only — never the match sets.
    pub fn with_options(space: &EventSpace, engine: MatchEngineKind, covering: bool) -> Self {
        let sorted = (engine == MatchEngineKind::Sorted).then(|| {
            Box::new(SortedPath {
                index: SortedIndex::new(space),
                covering: covering.then(CoveringTable::new),
                by_expiry: BTreeSet::new(),
                scratch: Vec::new(),
            })
        });
        SubscriptionStore {
            ids: Vec::new(),
            expires: Vec::new(),
            recs: Vec::new(),
            bounds: Vec::new(),
            width: if sorted.is_some() { 0 } else { space.dims() },
            row_of: HashMap::new(),
            watermark: SimTime::MAX,
            peak: 0,
            sorted,
        }
    }

    /// The engine kind this store runs.
    pub fn match_engine(&self) -> MatchEngineKind {
        match self.sorted {
            Some(_) => MatchEngineKind::Sorted,
            None => MatchEngineKind::Scan,
        }
    }

    /// Number of live subscriptions (assuming expired ones were purged).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Number of entries the match engine holds. Equals
    /// [`SubscriptionStore::len`] except under the sorted engine with
    /// covering, where it is the number of groups — at most `len()`, far
    /// fewer on workloads with duplicate or nested subscriptions.
    pub fn physical_len(&self) -> usize {
        match self.sorted.as_deref() {
            Some(SortedPath {
                covering: Some(table),
                ..
            }) => table.physical_len(),
            _ => self.len(),
        }
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The highest number of simultaneously stored subscriptions observed.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// `true` iff `id` is currently stored.
    pub fn contains(&self, id: SubId) -> bool {
        self.row_of.contains_key(&id)
    }

    /// The stored record under `id`.
    pub fn get(&self, id: SubId) -> Option<&StoredSub> {
        self.row_of.get(&id).map(|&row| &*self.recs[row as usize])
    }

    /// Iterates over stored records in row order.
    pub fn iter(&self) -> impl Iterator<Item = (SubId, &StoredSub)> {
        self.ids.iter().copied().zip(self.recs.iter().map(|r| &**r))
    }

    /// Inserts (or refreshes) a subscription. Purges expired entries first
    /// so that the peak metric reflects live subscriptions only. Returns
    /// `false` if `id` was already stored (the refresh still updates the
    /// expiry).
    pub fn insert(&mut self, id: SubId, stored: StoredSub, now: SimTime) -> bool {
        self.purge_expired(now);
        self.watermark = self.watermark.min(stored.expires);
        if let Some(&row) = self.row_of.get(&id) {
            // Refresh: the match entry is untouched. Clones the record
            // only if a match handle is still holding it.
            let row = row as usize;
            if let Some(path) = &mut self.sorted {
                path.set_expiry(id, self.expires[row], stored.expires);
            }
            self.expires[row] = stored.expires;
            Arc::make_mut(&mut self.recs[row]).expires = stored.expires;
            return false;
        }
        if let Some(path) = &mut self.sorted {
            path.insert(id, &stored.sub, stored.expires);
        }
        self.push_row(id, stored);
        self.peak = self.peak.max(self.len());
        true
    }

    /// Inserts a batch of subscriptions at once, returning the number that
    /// were fresh (not refreshes).
    ///
    /// Behaviourally identical to calling [`SubscriptionStore::insert`]
    /// per item, but under the sorted engine with covering, fresh
    /// subscriptions go through the covering table's sort-based bulk
    /// build, which pays the group-search cost once per distinct shape
    /// instead of once per subscription. Ids already stored — or repeated
    /// within the batch — fall back to the sequential refresh path.
    pub fn insert_bulk(&mut self, items: Vec<(SubId, StoredSub)>, now: SimTime) -> usize {
        self.purge_expired(now);
        let mut seen: HashSet<SubId> = HashSet::with_capacity(items.len());
        let (fresh, refreshes): (Vec<_>, Vec<_>) = items
            .into_iter()
            .partition(|(id, _)| !self.row_of.contains_key(id) && seen.insert(*id));
        if let Some(path) = self.sorted.as_deref_mut() {
            match &mut path.covering {
                Some(table) => {
                    let refs: Vec<(SubId, &Subscription)> =
                        fresh.iter().map(|(id, s)| (*id, &s.sub)).collect();
                    table.insert_bulk(&mut path.index, &refs);
                }
                None => {
                    for (id, stored) in &fresh {
                        path.index.insert(*id, stored.sub.clone());
                    }
                }
            }
            for (id, stored) in &fresh {
                path.set_expiry(*id, SimTime::MAX, stored.expires);
            }
        }
        let inserted = fresh.len();
        self.reserve(self.len() + inserted);
        for (id, stored) in fresh {
            self.watermark = self.watermark.min(stored.expires);
            self.push_row(id, stored);
        }
        self.peak = self.peak.max(self.len());
        for (id, stored) in refreshes {
            self.insert(id, stored, now);
        }
        inserted
    }

    /// Removes a subscription (unsubscription), returning its record.
    pub fn remove(&mut self, id: SubId) -> Option<StoredSub> {
        let row = *self.row_of.get(&id)?;
        let rc = self.remove_row(row as usize);
        Some(Arc::try_unwrap(rc).unwrap_or_else(|rc| (*rc).clone()))
    }

    /// Drops every subscription whose expiry has passed. Returns the number
    /// purged. Does nothing until the watermark has passed.
    pub fn purge_expired(&mut self, now: SimTime) -> usize {
        if now < self.watermark {
            return 0;
        }
        let before = self.len();
        if self.sorted.is_some() {
            // The sorted engine pops its lapsed rows in expiry order.
            while let Some((_, id)) = self.first_expiry().filter(|&(expires, _)| expires <= now) {
                self.remove_row(self.row_of[&id] as usize);
            }
            self.watermark = self
                .first_expiry()
                .map_or(SimTime::MAX, |(expires, _)| expires);
            return before - self.len();
        }
        let mut next = SimTime::MAX;
        let mut row = 0;
        while row < self.len() {
            let expires = self.expires[row];
            // Never-expiring rows survive even a purge at `SimTime::MAX`.
            if expires <= now && expires != SimTime::MAX {
                self.remove_row(row);
            } else {
                next = next.min(expires);
                row += 1;
            }
        }
        self.watermark = next;
        before - self.len()
    }

    /// Pre-sizes the row table for a bulk installation of roughly `subs`
    /// subscriptions, so installation pays one up-front reservation
    /// instead of incremental growth reallocations. Rows are appended in
    /// arrival order whatever the capacity, so stored state and match
    /// results are byte-identical with or without the call.
    pub fn reserve(&mut self, subs: usize) {
        let extra = subs.saturating_sub(self.len());
        self.ids.reserve(extra);
        self.expires.reserve(extra);
        self.recs.reserve(extra);
        self.bounds.reserve(extra * self.width);
    }

    /// Grows every matching-path scratch buffer to its steady-state bound
    /// so subsequent [`SubscriptionStore::match_event_into`] calls never
    /// reallocate. The scan keeps no scratch; the sorted engine's is
    /// capped by its entry count.
    pub fn warm(&mut self) {
        if let Some(path) = self.sorted.as_deref_mut() {
            if let Some(table) = &mut path.covering {
                table.warm();
            }
            let need = path.index.len();
            if path.scratch.capacity() < need {
                path.scratch.reserve(need - path.scratch.len());
            }
        }
    }

    /// Writes all live subscriptions matched by `event` into `out`
    /// (cleared first), in ascending id order. Purges expired entries
    /// first. Allocation-free at steady state: scratch and `out` are
    /// reused, and each hit costs one `Arc` bump instead of a record
    /// clone.
    pub fn match_event_into(
        &mut self,
        event: &Event,
        now: SimTime,
        out: &mut Vec<(SubId, Arc<StoredSub>)>,
    ) {
        out.clear();
        self.purge_expired(now);
        let Some(path) = self.sorted.as_deref_mut() else {
            let (ids, recs, bounds) = (&self.ids, &self.recs, &self.bounds);
            let values = event.values();
            let mut hit = |row: usize| out.push((ids[row], Arc::clone(&recs[row])));
            // A constant width lets the compiler unroll the row test for
            // the paper's 4-dimension space.
            match (self.width, values.len()) {
                (4, 4) => scan_rows(bounds, 4, values, &mut hit),
                (width, _) => scan_rows(bounds, width, values, &mut hit),
            }
            out.sort_unstable_by_key(|&(id, _)| id);
            return;
        };
        let (recs, row_of) = (&self.recs, &self.row_of);
        let rec = |id: SubId| &recs[row_of[&id] as usize];
        let mut ids = std::mem::take(&mut path.scratch);
        match &mut path.covering {
            Some(table) => table.matches_into(
                &path.index,
                event,
                |id| rec(id).sub.matches(event),
                &mut ids,
            ),
            None => path.index.matches_into(event, &mut ids),
        }
        out.extend(ids.iter().map(|&id| (id, Arc::clone(rec(id)))));
        path.scratch = ids;
    }

    /// The sorted engine's earliest finite expiry.
    fn first_expiry(&self) -> Option<(SimTime, SubId)> {
        self.sorted.as_ref()?.by_expiry.first().copied()
    }

    /// Appends a fresh row.
    fn push_row(&mut self, id: SubId, stored: StoredSub) {
        let row = u32::try_from(self.len()).expect("store rows fit in u32");
        self.row_of.insert(id, row);
        if self.width > 0 {
            debug_assert_eq!(stored.sub.dims(), self.width);
            self.bounds.extend(
                stored
                    .sub
                    .constraints()
                    .iter()
                    .map(|c| c.map_or((0, u64::MAX), |c| (c.lo(), c.hi()))),
            );
        }
        self.ids.push(id);
        self.expires.push(stored.expires);
        self.recs.push(Arc::new(stored));
    }

    /// Removes `row` by moving the last row into its place, and returns
    /// its record.
    fn remove_row(&mut self, row: usize) -> Arc<StoredSub> {
        let id = self.ids.swap_remove(row);
        let expires = self.expires.swap_remove(row);
        let rec = self.recs.swap_remove(row);
        self.row_of.remove(&id);
        let last = self.len();
        if row < last {
            *self
                .row_of
                .get_mut(&self.ids[row])
                .expect("every row is mapped") = row as u32;
        }
        if self.width > 0 {
            let w = self.width;
            self.bounds.copy_within(last * w.., row * w);
            self.bounds.truncate(last * w);
        }
        if let Some(path) = &mut self.sorted {
            path.remove(id, &rec.sub, expires);
        }
        rec
    }
}

/// Calls `hit` with every row of `bounds` (`width` pairs per row) that
/// admits `values`. The row test has no early exit: which dimension
/// rejects a row is unpredictable, so testing every slot without branches
/// beats short-circuiting, and `v - lo <= hi - lo` (wrapping) checks
/// `lo <= v <= hi` in one comparison.
#[inline(always)]
fn scan_rows(bounds: &[(u64, u64)], width: usize, values: &[u64], hit: &mut impl FnMut(usize)) {
    for (row, slots) in bounds.chunks_exact(width).enumerate() {
        let miss = slots
            .iter()
            .zip(values)
            .fold(false, |miss, (&(lo, hi), &v)| {
                miss | (v.wrapping_sub(lo) > hi.wrapping_sub(lo))
            });
        if !miss {
            hit(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::AttributeDef;
    use cbps_overlay::KeySpace;

    fn space() -> EventSpace {
        EventSpace::new(vec![AttributeDef::new("x", 1000)])
    }

    fn stored(lo: u64, hi: u64, expires: SimTime) -> StoredSub {
        let s = space();
        let keys = KeySpace::new(8);
        StoredSub {
            sub: Subscription::builder(&s)
                .range("x", lo, hi)
                .unwrap()
                .build()
                .unwrap(),
            subscriber: Peer {
                idx: 0,
                key: keys.key(1),
            },
            expires,
            sk: KeyRangeSet::of_key(keys, keys.key(2)),
            trace: TraceId::NONE,
            subgroups: 0,
        }
    }

    fn match_ids(st: &mut SubscriptionStore, e: &Event, now: SimTime) -> Vec<SubId> {
        let mut out = Vec::new();
        st.match_event_into(e, now, &mut out);
        out.iter().map(|(id, _)| *id).collect()
    }

    #[test]
    fn insert_and_match() {
        let mut st = SubscriptionStore::new(&space());
        st.insert(SubId(1), stored(0, 100, SimTime::MAX), SimTime::ZERO);
        st.insert(SubId(2), stored(50, 60, SimTime::MAX), SimTime::ZERO);
        let ids = match_ids(&mut st, &Event::new_unchecked(vec![55]), SimTime::ZERO);
        assert_eq!(ids, vec![SubId(1), SubId(2)]);
        let ids = match_ids(&mut st, &Event::new_unchecked(vec![99]), SimTime::ZERO);
        assert_eq!(ids, vec![SubId(1)]);
    }

    /// `[50, 60] ⊆ [0, 100]`: with covering the sorted engine shares one
    /// physical entry between the two subscriptions, without it (or under
    /// the scan, which never covers) it does not — and the logical match
    /// sets are identical either way.
    #[test]
    fn covering_shares_physical_entries_without_changing_matches() {
        for (engine, covering, phys) in [
            (MatchEngineKind::Scan, true, 2),
            (MatchEngineKind::Scan, false, 2),
            (MatchEngineKind::Sorted, true, 1),
            (MatchEngineKind::Sorted, false, 2),
        ] {
            let mut st = SubscriptionStore::with_options(&space(), engine, covering);
            assert_eq!(st.match_engine(), engine);
            st.insert(SubId(1), stored(0, 100, SimTime::MAX), SimTime::ZERO);
            st.insert(SubId(2), stored(50, 60, SimTime::MAX), SimTime::ZERO);
            assert_eq!(st.len(), 2);
            assert_eq!(
                st.physical_len(),
                phys,
                "engine {engine:?} covering {covering}"
            );
            assert_eq!(
                match_ids(&mut st, &Event::new_unchecked(vec![55]), SimTime::ZERO),
                vec![SubId(1), SubId(2)]
            );
            // 99 matches only the representative's own shape: the covered
            // member must be re-verified and filtered out.
            assert_eq!(
                match_ids(&mut st, &Event::new_unchecked(vec![99]), SimTime::ZERO),
                vec![SubId(1)]
            );
            // Un-cover: removing the representative's subscription keeps
            // the covered one matching.
            assert!(st.remove(SubId(1)).is_some());
            assert_eq!(
                match_ids(&mut st, &Event::new_unchecked(vec![55]), SimTime::ZERO),
                vec![SubId(2)]
            );
            assert!(match_ids(&mut st, &Event::new_unchecked(vec![99]), SimTime::ZERO).is_empty());
        }
    }

    /// A broader subscription arriving second absorbs the existing group
    /// (reverse covering) instead of creating a new physical entry.
    #[test]
    fn reverse_absorption_widens_existing_group() {
        let mut st = SubscriptionStore::with_options(&space(), MatchEngineKind::Sorted, true);
        st.insert(SubId(1), stored(50, 60, SimTime::MAX), SimTime::ZERO);
        st.insert(SubId(2), stored(40, 80, SimTime::MAX), SimTime::ZERO);
        assert_eq!(st.physical_len(), 1);
        assert_eq!(
            match_ids(&mut st, &Event::new_unchecked(vec![70]), SimTime::ZERO),
            vec![SubId(2)]
        );
        assert_eq!(
            match_ids(&mut st, &Event::new_unchecked(vec![55]), SimTime::ZERO),
            vec![SubId(1), SubId(2)]
        );
    }

    /// Covered subscriptions expire independently of their representative.
    #[test]
    fn covered_subscription_expiry_is_independent() {
        let mut st = SubscriptionStore::with_options(&space(), MatchEngineKind::Sorted, true);
        st.insert(
            SubId(1),
            stored(0, 100, SimTime::from_secs(10)),
            SimTime::ZERO,
        );
        st.insert(
            SubId(2),
            stored(50, 60, SimTime::from_secs(100)),
            SimTime::ZERO,
        );
        assert_eq!(st.physical_len(), 1);
        assert_eq!(st.purge_expired(SimTime::from_secs(11)), 1);
        assert_eq!(st.len(), 1);
        assert_eq!(
            match_ids(
                &mut st,
                &Event::new_unchecked(vec![55]),
                SimTime::from_secs(11)
            ),
            vec![SubId(2)]
        );
        assert_eq!(st.purge_expired(SimTime::from_secs(101)), 1);
        assert_eq!(st.len(), 0);
        assert_eq!(st.physical_len(), 0);
        assert_eq!(st.peak(), 2);
    }

    /// Lease-refresh loops rewrite one row in place: the store keeps one
    /// row, the record reports the latest expiry, and only that expiry
    /// purges it.
    #[test]
    fn refresh_loops_keep_one_row() {
        for engine in [MatchEngineKind::Scan, MatchEngineKind::Sorted] {
            let mut st = SubscriptionStore::with_options(&space(), engine, true);
            for round in 0..1000u64 {
                st.insert(
                    SubId(1),
                    stored(0, 10, SimTime::from_secs(1000 + round)),
                    SimTime::ZERO,
                );
            }
            assert_eq!((st.len(), st.physical_len()), (1, 1));
            assert_eq!(st.get(SubId(1)).unwrap().expires, SimTime::from_secs(1999));
            assert_eq!(st.purge_expired(SimTime::from_secs(1500)), 0);
            assert_eq!(st.len(), 1);
            assert_eq!(st.purge_expired(SimTime::from_secs(2000)), 1);
            assert_eq!(st.len(), 0);
        }
    }

    /// Removing a middle row moves the last row into its slot: the moved
    /// subscription must stay reachable by id, by match, and by expiry.
    #[test]
    fn swap_remove_relocates_the_last_row() {
        let mut st = SubscriptionStore::new(&space());
        st.insert(SubId(1), stored(0, 10, SimTime::MAX), SimTime::ZERO);
        st.insert(SubId(2), stored(20, 30, SimTime::MAX), SimTime::ZERO);
        st.insert(
            SubId(3),
            stored(40, 50, SimTime::from_secs(9)),
            SimTime::ZERO,
        );
        assert!(st.remove(SubId(1)).is_some());
        assert_eq!(st.get(SubId(3)).unwrap().expires, SimTime::from_secs(9));
        let ids: Vec<SubId> = st.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![SubId(3), SubId(2)]);
        assert_eq!(
            match_ids(&mut st, &Event::new_unchecked(vec![45]), SimTime::ZERO),
            vec![SubId(3)]
        );
        assert_eq!(st.purge_expired(SimTime::from_secs(9)), 1);
        assert_eq!(
            match_ids(&mut st, &Event::new_unchecked(vec![25]), SimTime::MAX),
            vec![SubId(2)]
        );
    }

    #[test]
    fn duplicate_insert_reports_false_and_refreshes_expiry() {
        let mut st = SubscriptionStore::new(&space());
        assert!(st.insert(
            SubId(1),
            stored(0, 10, SimTime::from_secs(5)),
            SimTime::ZERO
        ));
        assert!(!st.insert(
            SubId(1),
            stored(0, 10, SimTime::from_secs(50)),
            SimTime::ZERO
        ));
        assert_eq!(st.len(), 1);
        // The refreshed expiry keeps it alive past the original deadline.
        st.purge_expired(SimTime::from_secs(10));
        assert_eq!(st.len(), 1);
        st.purge_expired(SimTime::from_secs(51));
        assert_eq!(st.len(), 0);
    }

    #[test]
    fn expiry_ordering_and_peak() {
        let mut st = SubscriptionStore::new(&space());
        for i in 0..10u64 {
            st.insert(
                SubId(i),
                stored(0, 10, SimTime::from_secs(10 + i)),
                SimTime::ZERO,
            );
        }
        assert_eq!(st.peak(), 10);
        assert_eq!(st.purge_expired(SimTime::from_secs(14)), 5); // 10..14
        assert_eq!(st.len(), 5);
        // Peak is a high-water mark: unaffected by purges.
        assert_eq!(st.peak(), 10);
        // Matching also purges.
        let hits = match_ids(
            &mut st,
            &Event::new_unchecked(vec![5]),
            SimTime::from_secs(100),
        );
        assert!(hits.is_empty());
        assert_eq!(st.len(), 0);
    }

    #[test]
    fn never_expiring_subscriptions_stay() {
        let mut st = SubscriptionStore::new(&space());
        st.insert(SubId(1), stored(0, 10, SimTime::MAX), SimTime::ZERO);
        st.purge_expired(SimTime::from_secs(1_000_000));
        assert_eq!(st.len(), 1);
    }

    #[test]
    fn remove_is_unsubscription() {
        let mut st = SubscriptionStore::new(&space());
        st.insert(SubId(1), stored(0, 10, SimTime::MAX), SimTime::ZERO);
        assert!(st.remove(SubId(1)).is_some());
        assert!(st.remove(SubId(1)).is_none());
        assert!(match_ids(&mut st, &Event::new_unchecked(vec![5]), SimTime::ZERO).is_empty());
    }

    #[test]
    fn insert_purges_before_counting_peak() {
        let mut st = SubscriptionStore::new(&space());
        st.insert(
            SubId(1),
            stored(0, 10, SimTime::from_secs(1)),
            SimTime::ZERO,
        );
        st.insert(
            SubId(2),
            stored(0, 10, SimTime::from_secs(1)),
            SimTime::ZERO,
        );
        assert_eq!(st.peak(), 2);
        // Both lapsed; inserting at t=10 must not report a peak of 3.
        st.insert(
            SubId(3),
            stored(0, 10, SimTime::MAX),
            SimTime::from_secs(10),
        );
        assert_eq!(st.len(), 1);
        assert_eq!(st.peak(), 2);
    }

    /// Bulk insertion is observationally identical to sequential
    /// insertion: same logical/physical counts and same match sets, on a
    /// random workload with heavy shape duplication, before and after
    /// removing a slice of the population.
    #[test]
    fn bulk_insert_matches_sequential_build() {
        use cbps_rng::Rng;
        let s = EventSpace::new(vec![
            AttributeDef::new("a", 40),
            AttributeDef::new("b", 40),
            AttributeDef::new("c", 40),
        ]);
        let random_sub = |rng: &mut Rng| loop {
            let mut b = Subscription::builder(&s);
            for name in ["a", "b", "c"] {
                // Small domains + frequent wildcards force duplicate
                // shapes, covering chains, and reverse absorptions.
                if rng.gen_range(0u32..3) > 0 {
                    let lo = rng.gen_range(0u64..40);
                    let hi = rng.gen_range(lo..40);
                    b = b.range(name, lo, hi).unwrap();
                }
            }
            if let Ok(sub) = b.build() {
                return sub;
            }
        };
        for engine in [MatchEngineKind::Scan, MatchEngineKind::Sorted] {
            let mut rng = Rng::seed_from_u64(0xb01d);
            let items: Vec<(SubId, StoredSub)> = (0..600)
                .map(|i| {
                    let mut rec = stored(0, 0, SimTime::MAX);
                    rec.sub = random_sub(&mut rng);
                    (SubId(i), rec)
                })
                .collect();
            let mut seq = SubscriptionStore::with_options(&s, engine, true);
            for (id, rec) in items.clone() {
                seq.insert(id, rec, SimTime::ZERO);
            }
            let mut bulk = SubscriptionStore::with_options(&s, engine, true);
            assert_eq!(bulk.insert_bulk(items, SimTime::ZERO), 600);
            let probe = |seq: &mut SubscriptionStore, bulk: &mut SubscriptionStore| {
                assert_eq!(bulk.len(), seq.len());
                assert_eq!(bulk.physical_len(), seq.physical_len());
                let mut rng = Rng::seed_from_u64(0xeeee);
                for case in 0..300 {
                    let e = Event::new_unchecked((0..3).map(|_| rng.gen_range(0u64..40)).collect());
                    assert_eq!(
                        match_ids(bulk, &e, SimTime::ZERO),
                        match_ids(seq, &e, SimTime::ZERO),
                        "case {case}"
                    );
                }
            };
            probe(&mut seq, &mut bulk);
            // Member bookkeeping must survive churn identically.
            for i in (0..600).step_by(3) {
                assert_eq!(
                    bulk.remove(SubId(i)).is_some(),
                    seq.remove(SubId(i)).is_some()
                );
            }
            probe(&mut seq, &mut bulk);
        }
    }

    /// Bulk insertion routes already-stored ids and within-batch repeats
    /// through the refresh path instead of double-registering them.
    #[test]
    fn bulk_insert_refreshes_duplicates() {
        let mut st = SubscriptionStore::new(&space());
        st.insert(SubId(1), stored(0, 100, SimTime::MAX), SimTime::ZERO);
        let fresh = st.insert_bulk(
            vec![
                (SubId(1), stored(0, 100, SimTime::from_secs(5))),
                (SubId(2), stored(50, 60, SimTime::MAX)),
                (SubId(2), stored(50, 60, SimTime::from_secs(9))),
            ],
            SimTime::ZERO,
        );
        assert_eq!(fresh, 1);
        assert_eq!(st.len(), 2);
        assert_eq!(st.get(SubId(1)).unwrap().expires, SimTime::from_secs(5));
        assert_eq!(st.get(SubId(2)).unwrap().expires, SimTime::from_secs(9));
        // Refreshed ids keep a single physical registration: both lapse
        // cleanly.
        st.purge_expired(SimTime::from_secs(10));
        assert_eq!(st.len(), 0);
        assert_eq!(st.physical_len(), 0);
    }
}
