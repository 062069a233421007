//! Post-drain probes: the same run's inputs replayed straight into single
//! layers — deployment build, ak-mapping, per-node subscription stores and
//! routing state — each call timed inside a span.
//!
//! The probes call the layers' public functions outside the simulator, so
//! they see each layer's own cost without the event loop around it. The
//! store probe replays subscriptions and publications in trace order into
//! one store per rendezvous node (found on the ring view), so every match
//! sees the store contents of its own time.

use std::sync::Arc;
use std::time::Instant;

use cbps::{AkMapping, StoredSub, SubId, SubscriptionStore};
use cbps_overlay::{
    assign_node_keys, build_routing_states, KeyRangeSet, OverlayConfig, Peer, RingView,
    RoutingState,
};
use cbps_sim::{MatchEngineKind, SimTime, TraceId};
use cbps_workload::{OpKind, Trace};

use crate::span::{SpanLog, ROOT};
use crate::workload::Workload;

/// Counts and times the probes measured.
#[derive(Clone, Debug, Default)]
pub struct ProbeStats {
    /// Deployment build (keys, ring view, routing states), seconds.
    pub build_s: f64,
    /// Subscriptions mapped.
    pub subs: u64,
    /// Publications mapped.
    pub pubs: u64,
    /// Keys over all `SK(σ)`.
    pub sub_keys: u64,
    /// Key-range segments over all `SK(σ)`.
    pub sub_segments: u64,
    /// Keys over all `EK(e)`.
    pub pub_keys: u64,
    /// Total ns in `AkMapping::sk`.
    pub sk_ns: u64,
    /// Total ns in `AkMapping::ek`.
    pub ek_ns: u64,
    /// `RoutingState::mcast_split` calls and total ns.
    pub splits: u64,
    /// Total ns in `mcast_split`.
    pub split_ns: u64,
    /// `RoutingState::next_hop` calls.
    pub hops: u64,
    /// Total ns in `next_hop`.
    pub hop_ns: u64,
    /// `SubscriptionStore::insert` calls.
    pub inserts: u64,
    /// Total ns in `insert`.
    pub insert_ns: u64,
    /// `SubscriptionStore::purge_expired` calls.
    pub purges: u64,
    /// Total ns in `purge_expired`.
    pub purge_ns: u64,
    /// `SubscriptionStore::match_event_into` calls.
    pub matches: u64,
    /// Total ns in `match_event_into`.
    pub match_ns: u64,
    /// Matched subscriptions over all match calls.
    pub hits: u64,
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Times the deployment build: `assign_node_keys` → `RingView` →
/// `build_routing_states`.
fn overlay_build(
    cfg: &OverlayConfig,
    nodes: usize,
    log: &mut SpanLog,
) -> (RingView, Vec<RoutingState>) {
    log.time("overlay.build", u32::MAX, ROOT, || {
        let keys = assign_node_keys(cfg, nodes);
        let peers = keys
            .iter()
            .enumerate()
            .map(|(idx, &key)| Peer { idx, key })
            .collect();
        let ring = RingView::new(cfg.space, peers);
        let states = build_routing_states(cfg, &ring);
        (ring, states)
    })
}

/// Runs every probe over the inputs of one replay.
pub fn run(
    w: &Workload,
    trace: &Trace,
    sub_ids: &[SubId],
    log: &mut SpanLog,
    stats: &mut ProbeStats,
) {
    let t = Instant::now();
    let (ring, mut states) = overlay_build(&w.overlay(), w.nodes, log);
    stats.build_s = t.elapsed().as_secs_f64();
    let space = ring.space();
    let cfg = w.pubsub();
    let mapping: &AkMapping = &cfg.mapping;
    let mut peer_of = vec![
        Peer {
            idx: 0,
            key: space.key(0)
        };
        w.nodes
    ];
    for p in ring.peers() {
        peer_of[p.idx] = *p;
    }

    // Mapping: SK per subscription, EK per publication.
    let mut sks: Vec<KeyRangeSet> = Vec::with_capacity(sub_ids.len());
    let mut eks: Vec<KeyRangeSet> = Vec::new();
    let s = log.open("probe.mapping", u32::MAX, ROOT);
    for op in trace.ops() {
        match &op.kind {
            OpKind::Subscribe { sub, .. } => {
                let t = Instant::now();
                let sk = mapping.sk(sub);
                stats.sk_ns += ns(t);
                stats.sub_keys += sk.count();
                stats.sub_segments += sk.segment_count() as u64;
                stats.subs += 1;
                sks.push(sk);
            }
            OpKind::Publish { event } => {
                let t = Instant::now();
                let ek = mapping.ek(event);
                stats.ek_ns += ns(t);
                stats.pub_keys += ek.count();
                stats.pubs += 1;
                eks.push(ek);
            }
        }
    }
    log.close(s);

    // Overlay: first-hop m-cast split of each SK at its subscriber, and a
    // greedy route from each publisher to the first key of its EK.
    let s = log.open("probe.overlay", u32::MAX, ROOT);
    let (mut si, mut pi) = (0, 0);
    for op in trace.ops() {
        match &op.kind {
            OpKind::Subscribe { .. } => {
                let t = Instant::now();
                let split = states[op.node].mcast_split(&sks[si]);
                stats.split_ns += ns(t);
                stats.splits += 1;
                std::hint::black_box(split);
                si += 1;
            }
            OpKind::Publish { .. } => {
                if let Some(key) = eks[pi].min_key(space) {
                    let mut at = op.node;
                    for _ in 0..2 * space.bits() {
                        if states[at].covers(key) {
                            break;
                        }
                        let t = Instant::now();
                        let next = states[at].next_hop(key);
                        stats.hop_ns += ns(t);
                        stats.hops += 1;
                        match next {
                            Some(p) if p.idx != at => at = p.idx,
                            _ => break,
                        }
                    }
                }
                pi += 1;
            }
        }
    }
    log.close(s);
    drop(states);

    // Store and matching, one store per rendezvous node.
    let s = log.open("probe.store", u32::MAX, ROOT);
    let mut stores: Vec<Option<SubscriptionStore>> = (0..w.nodes).map(|_| None).collect();
    let mut out: Vec<(SubId, Arc<StoredSub>)> = Vec::new();
    let (mut si, mut pi) = (0, 0);
    for op in trace.ops() {
        match &op.kind {
            OpKind::Subscribe { sub, ttl } => {
                let sk = &sks[si];
                let expires = ttl.map(|d| op.at + d).unwrap_or(SimTime::MAX);
                for peer in ring.covering_nodes(sk) {
                    let store = stores[peer.idx].get_or_insert_with(|| {
                        SubscriptionStore::with_options(
                            &cfg.space,
                            MatchEngineKind::default(),
                            cfg.covering,
                        )
                    });
                    let t = Instant::now();
                    store.purge_expired(op.at);
                    stats.purge_ns += ns(t);
                    stats.purges += 1;
                    let record = StoredSub {
                        sub: sub.clone(),
                        subscriber: peer_of[op.node],
                        expires,
                        sk: sk.clone(),
                        trace: TraceId::NONE,
                        subgroups: 0,
                    };
                    let t = Instant::now();
                    store.insert(sub_ids[si], record, op.at);
                    stats.insert_ns += ns(t);
                    stats.inserts += 1;
                }
                si += 1;
            }
            OpKind::Publish { event } => {
                for peer in ring.covering_nodes(&eks[pi]) {
                    if let Some(store) = stores[peer.idx].as_mut() {
                        let t = Instant::now();
                        store.match_event_into(event, op.at, &mut out);
                        stats.match_ns += ns(t);
                        stats.matches += 1;
                        stats.hits += out.len() as u64;
                    }
                }
                pi += 1;
            }
        }
    }
    log.close(s);
}
