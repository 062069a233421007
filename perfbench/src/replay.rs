//! Trace replay through the public `PubSubNetwork` API, and what a replay
//! produced.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use cbps::{EventId, PubSubNetwork, SubId};
use cbps_sim::{SimDuration, SimTime};
use cbps_workload::{OpKind, Trace};

use crate::check::{Delivery, IssuedPub, IssuedSub};
use crate::span::{SpanLog, ROOT};

/// Simulated time the network runs past the last operation, so every
/// notification (collecting flushes included) arrives.
pub const DRAIN: SimDuration = SimDuration::from_secs(600);

/// A replayed network and the ids it assigned.
#[derive(Debug)]
pub struct Replayed {
    /// The network after the drain.
    pub net: PubSubNetwork,
    /// Subscription ids, in trace order.
    pub sub_ids: Vec<SubId>,
    /// Event ids, in trace order.
    pub event_ids: Vec<EventId>,
    /// Wall time of the replay, drain included.
    pub wall: Duration,
}

/// Replays `trace` on `net`: advances the clock to each operation and
/// issues it from its node, then drains. With a span log, every operation
/// gets an `op` span (keyed by its index) whose children are the
/// `sim.run_until` and `core.subscribe`/`core.publish` calls; the drain is
/// one more `op` after the last index.
pub fn replay(trace: &Trace, mut net: PubSubNetwork, mut log: Option<&mut SpanLog>) -> Replayed {
    let mut sub_ids = Vec::with_capacity(trace.len());
    let mut event_ids = Vec::with_capacity(trace.len());
    let start = Instant::now();
    for (i, op) in trace.ops().iter().enumerate() {
        let i = i as u32;
        let parent = log.as_deref_mut().map(|l| l.open("op", i, ROOT));
        match log.as_deref_mut() {
            Some(l) => l.time("sim.run_until", i, parent.unwrap_or(ROOT), || {
                net.run_until(op.at)
            }),
            None => net.run_until(op.at),
        }
        match &op.kind {
            OpKind::Subscribe { sub, ttl } => {
                let mut call = || net.subscribe(op.node, sub.clone(), *ttl);
                let id = match log.as_deref_mut() {
                    Some(l) => l.time("core.subscribe", i, parent.unwrap_or(ROOT), call),
                    None => call(),
                };
                sub_ids.push(id.expect("trace nodes exist"));
            }
            OpKind::Publish { event } => {
                let mut call = || net.publish(op.node, event.clone());
                let id = match log.as_deref_mut() {
                    Some(l) => l.time("core.publish", i, parent.unwrap_or(ROOT), call),
                    None => call(),
                };
                event_ids.push(id.expect("trace nodes exist"));
            }
        }
        if let (Some(l), Some(p)) = (log.as_deref_mut(), parent) {
            l.close(p);
        }
    }
    let drain_to = trace.end_time() + DRAIN;
    match log {
        Some(l) => {
            let i = trace.len() as u32;
            let p = l.open("op", i, ROOT);
            l.time("sim.run_until", i, p, || net.run_until(drain_to));
            l.close(p);
        }
        None => net.run_until(drain_to),
    }
    Replayed {
        net,
        sub_ids,
        event_ids,
        wall: start.elapsed(),
    }
}

/// The simulated outcome of a replay.
///
/// Two replays of one trace need not agree exactly: with jittered link
/// delays, the order in which a node sends a batch of messages decides
/// which delay each one draws, and some of those orders follow hash-map
/// iteration. Latencies then differ, and so may pairs that race a
/// subscription; every replay is checked on its own.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Subscription ids, in trace order.
    pub sub_ids: Vec<SubId>,
    /// Event ids, in trace order.
    pub event_ids: Vec<EventId>,
    /// Trace operations.
    pub ops: u64,
    /// One-hop messages over all traffic classes.
    pub messages: u64,
    /// Publication-to-delivery latencies in simulated microseconds, sorted.
    pub latencies_us: Vec<u64>,
    /// Peak stored subscriptions of every node.
    pub peak_stored: Vec<usize>,
    /// Every delivered notification, sorted.
    pub deliveries: Vec<Delivery>,
    /// Repeated notifications the subscribers dropped before delivery.
    pub suppressed: u64,
}

impl Outcome {
    /// Maximum over nodes of the peak stored subscriptions.
    pub fn max_stored(&self) -> usize {
        self.peak_stored.iter().copied().max().unwrap_or(0)
    }
}

/// The subscriptions and publications a replay issued, in trace order,
/// given the ids the network assigned them.
pub fn issued<'a>(
    trace: &'a Trace,
    sub_ids: &[SubId],
    event_ids: &[EventId],
) -> (Vec<IssuedSub<'a>>, Vec<IssuedPub<'a>>) {
    let mut subs = Vec::with_capacity(sub_ids.len());
    let mut pubs = Vec::with_capacity(event_ids.len());
    for op in trace.ops() {
        match &op.kind {
            OpKind::Subscribe { sub, ttl } => subs.push(IssuedSub {
                id: sub_ids[subs.len()],
                node: op.node,
                sub,
                issued: op.at,
                expires: ttl.map(|d| op.at + d).unwrap_or(SimTime::MAX),
            }),
            OpKind::Publish { event } => pubs.push(IssuedPub {
                id: event_ids[pubs.len()],
                event,
                at: op.at,
            }),
        }
    }
    (subs, pubs)
}

/// Collects the simulated outcome of a replay.
pub fn outcome(trace: &Trace, r: &Replayed) -> Outcome {
    let published: HashMap<EventId, SimTime> = {
        let (_, pubs) = issued(trace, &r.sub_ids, &r.event_ids);
        pubs.iter().map(|p| (p.id, p.at)).collect()
    };
    let mut deliveries = Vec::new();
    let mut latencies_us = Vec::new();
    for node in 0..r.net.len() {
        for note in r.net.delivered(node) {
            deliveries.push(Delivery {
                node,
                sub: note.sub_id,
                event: note.event_id,
            });
            if let Some(&at) = published.get(&note.event_id) {
                latencies_us.push(note.at.saturating_since(at).as_micros());
            }
        }
    }
    deliveries.sort_unstable();
    latencies_us.sort_unstable();
    Outcome {
        sub_ids: r.sub_ids.clone(),
        event_ids: r.event_ids.clone(),
        ops: trace.len() as u64,
        messages: r.net.metrics().total_messages(),
        latencies_us,
        peak_stored: r.net.peak_stored_counts(),
        deliveries,
        suppressed: r.net.metrics().counter("notifications.duplicate"),
    }
}
