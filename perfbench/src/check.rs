//! Exact, timing-aware delivery checker.
//!
//! A `(subscription, publication)` pair is *required* when the event
//! matches the subscription and was published at least `window` after the
//! subscription was issued and at least `window` before it expires
//! (`issued + window <= at` and `at + window < expires`). With a zero
//! window this is exactly [`cbps::Oracle::expected`].
//!
//! Pairs that match but sit closer than `window` to either end of the
//! subscription's lifetime are *tolerated*: delivering them and dropping
//! them are both correct, because the subscription may still be in flight
//! (or its expiry not yet applied) when the publication reaches the
//! rendezvous. Every other delivery is spurious, and every repeated
//! delivery of a pair is a duplicate.
//!
//! The brute-force oracle compares every subscription with every
//! publication. This checker buckets subscriptions along the one attribute
//! that minimises the candidate pairs and tests only the publication's
//! bucket, which gives the same set at a fraction of the cost.

use std::collections::HashMap;

use cbps::{Event, EventId, EventSpace, SubId, Subscription};
use cbps_sim::SimTime;

/// Buckets per attribute domain.
const BUCKETS: u64 = 1024;

/// A subscription as issued during a replay.
#[derive(Clone, Copy, Debug)]
pub struct IssuedSub<'a> {
    /// Id assigned by the network.
    pub id: SubId,
    /// Issuing (subscribing) node.
    pub node: usize,
    /// The query.
    pub sub: &'a Subscription,
    /// Issue time.
    pub issued: SimTime,
    /// Expiry ([`SimTime::MAX`] = never).
    pub expires: SimTime,
}

/// A publication as issued during a replay.
#[derive(Clone, Copy, Debug)]
pub struct IssuedPub<'a> {
    /// Id assigned by the network.
    pub id: EventId,
    /// The event.
    pub event: &'a Event,
    /// Issue time.
    pub at: SimTime,
}

/// A notification as found in a subscriber's delivered log.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Delivery {
    /// The node whose log holds the notification.
    pub node: usize,
    /// The subscription that fired.
    pub sub: SubId,
    /// The event delivered.
    pub event: EventId,
}

/// Outcome of a check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Required pairs.
    pub required: u64,
    /// Required pairs never delivered.
    pub missed: u64,
    /// Deliveries that are neither required nor tolerated.
    pub spurious: u64,
    /// Deliveries of a pair beyond its first.
    pub duplicates: u64,
}

impl Verdict {
    /// Adds another check's counts to this one.
    pub fn absorb(&mut self, other: Verdict) {
        self.required += other.required;
        self.missed += other.missed;
        self.spurious += other.spurious;
        self.duplicates += other.duplicates;
    }

    /// Missed plus spurious plus duplicate deliveries.
    pub fn failed(&self) -> u64 {
        self.missed + self.spurious + self.duplicates
    }

    /// [`Verdict::failed`] over the required pairs (0 when none are
    /// required and nothing failed).
    pub fn failed_frac(&self) -> f64 {
        self.failed() as f64 / self.required.max(1) as f64
    }
}

fn micros(t: SimTime) -> u64 {
    t.as_micros()
}

/// `true` when the pair must be delivered.
fn required(sub: &IssuedSub<'_>, at: SimTime, window: u64) -> bool {
    let at = micros(at);
    micros(sub.issued).saturating_add(window) <= at
        && at.saturating_add(window) < micros(sub.expires)
}

/// `true` when delivering the pair is not an error (required or within
/// `window` of the subscription's lifetime).
fn allowed(sub: &IssuedSub<'_>, at: SimTime, window: u64) -> bool {
    let at = micros(at);
    micros(sub.issued) <= at.saturating_add(window)
        && at < micros(sub.expires).saturating_add(window)
}

fn bucket(value: u64, size: u64) -> usize {
    ((u128::from(value) * u128::from(BUCKETS)) / u128::from(size.max(1))) as usize
}

/// Bucket span `[first, last]` of one subscription along dimension `dim`.
fn span(sub: &Subscription, dim: usize, size: u64) -> (usize, usize) {
    match sub.constraint(dim) {
        Some(c) => (bucket(c.lo(), size), bucket(c.hi(), size)),
        None => (0, BUCKETS as usize - 1),
    }
}

/// Every required pair, sorted.
pub fn required_pairs(
    space: &EventSpace,
    subs: &[IssuedSub<'_>],
    pubs: &[IssuedPub<'_>],
    window: u64,
) -> Vec<(SubId, EventId)> {
    if subs.is_empty() || pubs.is_empty() {
        return Vec::new();
    }
    let b = BUCKETS as usize;
    // Pick the dimension whose buckets pair up the fewest candidates.
    let dim = (0..space.dims())
        .min_by_key(|&d| {
            let size = space.attr(d).size();
            let mut delta = vec![0i64; b + 1];
            for s in subs {
                let (lo, hi) = span(s.sub, d, size);
                delta[lo] += 1;
                delta[hi + 1] -= 1;
            }
            let mut events = vec![0u64; b];
            for p in pubs {
                events[bucket(p.event.value(d), size)] += 1;
            }
            let mut live = 0i64;
            let mut work = 0u128;
            for (k, &e) in events.iter().enumerate() {
                live += delta[k];
                work += u128::from(e) * live as u128;
            }
            work
        })
        .expect("event spaces have at least one dimension");
    let size = space.attr(dim).size();
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); b];
    for (i, s) in subs.iter().enumerate() {
        let (lo, hi) = span(s.sub, dim, size);
        for list in &mut lists[lo..=hi] {
            list.push(i as u32);
        }
    }
    let mut out = Vec::new();
    for p in pubs {
        for &i in &lists[bucket(p.event.value(dim), size)] {
            let s = &subs[i as usize];
            if required(s, p.at, window) && s.sub.matches(p.event) {
                out.push((s.id, p.id));
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Compares the delivered notifications against the required pairs.
pub fn check(
    space: &EventSpace,
    subs: &[IssuedSub<'_>],
    pubs: &[IssuedPub<'_>],
    deliveries: &[Delivery],
    window: u64,
) -> Verdict {
    let required = required_pairs(space, subs, pubs, window);
    let sub_of: HashMap<SubId, &IssuedSub<'_>> = subs.iter().map(|s| (s.id, s)).collect();
    let pub_of: HashMap<EventId, &IssuedPub<'_>> = pubs.iter().map(|p| (p.id, p)).collect();

    let mut delivered: Vec<(SubId, EventId)> = Vec::with_capacity(deliveries.len());
    let mut spurious = 0u64;
    for d in deliveries {
        let at_subscriber = sub_of.get(&d.sub).is_some_and(|s| s.node == d.node);
        if at_subscriber {
            delivered.push((d.sub, d.event));
        } else {
            spurious += 1;
        }
    }
    delivered.sort_unstable();
    let before = delivered.len();
    delivered.dedup();
    let duplicates = (before - delivered.len()) as u64;

    // Merge walk over the two sorted sets.
    let (mut i, mut j) = (0, 0);
    let mut missed = 0u64;
    while i < required.len() || j < delivered.len() {
        match (required.get(i), delivered.get(j)) {
            (Some(r), Some(d)) if r == d => {
                i += 1;
                j += 1;
            }
            (Some(r), Some(d)) if r < d => {
                missed += 1;
                i += 1;
            }
            (Some(_), None) => {
                missed += 1;
                i += 1;
            }
            (_, Some(&(sid, eid))) => {
                let ok = match (sub_of.get(&sid), pub_of.get(&eid)) {
                    (Some(s), Some(p)) => allowed(s, p.at, window) && s.sub.matches(p.event),
                    _ => false,
                };
                if !ok {
                    spurious += 1;
                }
                j += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
    Verdict {
        required: required.len() as u64,
        missed,
        spurious,
        duplicates,
    }
}
