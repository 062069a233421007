//! The benchmark workloads: a deployment plus a seeded trace each.
//!
//! All three use the paper's open-loop arrivals (§5.1): one subscription
//! every 5 s, publications as a Poisson process with a 5 s mean. The
//! engine-implementation knobs (scheduler, event pool, match engine,
//! shards) stay at their defaults, so the benchmark measures what the
//! deployment does, not which implementation of a layer was picked.

use cbps::{
    deployment_key_space, ChordBackend, MappingKind, NotifyMode, OverlayBackend, Primitive,
    PubSubConfig, PubSubNetwork, PubSubNetworkBuilder, RendezvousMode,
};
use cbps_overlay::OverlayConfig;
use cbps_sim::{DelayModel, NetConfig, SimDuration};
use cbps_workload::{Trace, WorkloadConfig, WorkloadGen};

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Deployment size.
    pub nodes: usize,
    /// Ak-mapping.
    pub mapping: MappingKind,
    /// Routing primitive for subscriptions.
    pub primitive: Primitive,
    /// Notification mode.
    pub notify: NotifyMode,
    /// Rendezvous policy.
    pub rendezvous: RendezvousMode,
    /// Subscriptions in the trace.
    pub subs: usize,
    /// Publications in the trace (before any flash crowd).
    pub pubs: usize,
    /// Subscription TTL in seconds (`None` = never expires).
    pub ttl_secs: Option<u64>,
    /// Number of selective attributes.
    pub selective: usize,
    /// Mean streak of matching publications seeded by one subscription.
    pub streak: u64,
    /// Extra Zipf(1.1) flash-crowd publications.
    pub flash: usize,
    /// Independent traces drawn per run; simulated metrics pool over them.
    pub traces: usize,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    // The fig6/fig8 cost centre: store writes, covering, expiry and m-cast
    // forwarding do the work; matching does almost none.
    Workload {
        name: "sub-storm",
        nodes: 800,
        mapping: MappingKind::AttributeSplit,
        primitive: Primitive::MCast,
        notify: NotifyMode::Immediate,
        rendezvous: RendezvousMode::Static,
        subs: 8000,
        pubs: 2500,
        ttl_secs: Some(2500),
        selective: 0,
        streak: 1,
        flash: 0,
        traces: 4,
    },
    // The read side of the store that sub-storm writes: matching against
    // ~300 stored subscriptions per node, with m-cast bypassed and store
    // writes about 1% of the work. A match-engine change shows here.
    Workload {
        name: "pub-match",
        nodes: 32,
        mapping: MappingKind::KeySpaceSplit,
        primitive: Primitive::Unicast,
        notify: NotifyMode::Immediate,
        rendezvous: RendezvousMode::Static,
        subs: 10_000,
        pubs: 60_000,
        ttl_secs: None,
        selective: 1,
        streak: 4,
        flash: 0,
        traces: 4,
    },
    // The only workload where deployment build, long routes, the adaptive
    // rendezvous control loop (a Zipf flash crowd triggers a split and a
    // merge), collecting dispatch and per-node memory matter.
    Workload {
        name: "flash-ring",
        nodes: 20_000,
        mapping: MappingKind::SelectiveAttribute,
        primitive: Primitive::MCast,
        notify: NotifyMode::Collecting {
            period: SimDuration::from_secs(5),
        },
        rendezvous: RendezvousMode::Adaptive,
        subs: 5000,
        pubs: 5000,
        ttl_secs: None,
        selective: 1,
        streak: 1,
        flash: 5000,
        traces: 8,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The pub/sub configuration of the deployment.
    pub fn pubsub(&self) -> PubSubConfig {
        PubSubConfig::paper_default()
            .with_mapping(self.mapping)
            .with_primitive(self.primitive)
            .with_notify_mode(self.notify)
            .with_rendezvous(self.rendezvous)
            .with_key_space(deployment_key_space(self.nodes))
    }

    /// The overlay configuration of the deployment.
    pub fn overlay(&self) -> OverlayConfig {
        ChordBackend::with_key_space(
            ChordBackend::paper_default(),
            deployment_key_space(self.nodes),
        )
    }

    /// The network builder; `seed` seeds the simulator.
    ///
    /// One-hop delays are drawn uniformly from 25–75 ms by the simulator's
    /// jitter model (`DelayModel::Uniform`). The range is not from the
    /// paper: it is the paper's fixed 50 ms, the simulator's default, as
    /// the mean, ±50%. With the fixed delay every immediate notification
    /// arrives a whole number of 50 ms hops after its publication, so the
    /// latency percentiles could move only in 50 ms steps and would not
    /// resolve a change smaller than one hop.
    pub fn builder(&self, seed: u64) -> PubSubNetworkBuilder {
        let delay = DelayModel::Uniform {
            min: SimDuration::from_millis(25),
            max: SimDuration::from_millis(75),
        };
        PubSubNetwork::builder()
            .nodes(self.nodes)
            .net_config(NetConfig::new(seed).with_delay(delay))
            .overlay(self.overlay())
            .pubsub(self.pubsub())
    }

    /// Seed of the `i`-th trace of a run seeded with `seed` (the first
    /// trace uses `seed` itself). It seeds both the trace and the simulator.
    pub fn trace_seed(seed: u64, i: usize) -> u64 {
        seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The trace for `seed`: the same seed always gives the same trace.
    pub fn trace(&self, seed: u64) -> Trace {
        let space = self.pubsub().space;
        let cfg = WorkloadConfig::paper_default(self.nodes, space.dims())
            .with_counts(self.subs, self.pubs)
            .with_sub_ttl(self.ttl_secs.map(SimDuration::from_secs))
            .with_selective_attrs(self.selective)
            .with_seed_streak(self.streak)
            .with_flash_crowd(self.flash, 1.1);
        WorkloadGen::new(space, cfg, seed).gen_trace()
    }
}
