//! End-to-end matching-engine parity: a full pub/sub deployment —
//! overlay, mappings, notification pipeline, churn — must deliver exactly
//! the same notifications, count exactly the same messages and process
//! exactly the same events whether rendezvous nodes match with the row
//! scan or the sorted index, and whether subscription covering is on or
//! off. The core-crate differential suite checks the engines on
//! raw sub/unsub/event streams; this one checks everything layered on
//! top, including the rendered experiment tables `ci.sh` diffs between
//! `--match-engine scan` and `--match-engine sorted` on every run.

use cbps::{MappingKind, MatchEngineKind, NotifyMode, PubSubConfig, PubSubNetwork, SubId};
use cbps_sim::{SimDuration, TrafficClass};
use cbps_workload::{WorkloadConfig, WorkloadGen};

/// Replays a seeded workload with the given matching engine (and covering
/// switch) and renders every engine-invariant observable as one string.
fn run_digest(engine: MatchEngineKind, covering: bool, seed: u64) -> String {
    let mut net = PubSubNetwork::builder()
        .nodes(40)
        .seed(seed)
        .match_engine(engine)
        .pubsub(
            PubSubConfig::paper_default()
                .with_mapping(MappingKind::SelectiveAttribute)
                .with_notify_mode(NotifyMode::Collecting {
                    period: SimDuration::from_secs(10),
                })
                .with_replication(1)
                .with_covering(covering),
        )
        .build()
        .expect("valid network configuration");
    let wl = WorkloadConfig::paper_default(40, 4)
        .with_counts(80, 160)
        .with_sub_ttl(Some(SimDuration::from_secs(300)));
    let mut gen = WorkloadGen::new(net.config().space.clone(), wl, seed);
    let trace = gen.gen_trace();
    trace.replay(&mut net);
    // Crash a node and join a fresh one mid-run so replication hand-off
    // and the joiner's engine construction are compared too.
    net.crash(35);
    net.run_for_secs(60);
    net.join_new_node("parity-joiner", 0);
    net.run_until(trace.end_time() + SimDuration::from_secs(300));

    let mut deliveries: Vec<(usize, SubId, cbps::EventId)> = Vec::new();
    for idx in 0..40 {
        for note in net.delivered(idx) {
            deliveries.push((idx, note.sub_id, note.event_id));
        }
    }
    let messages: Vec<u64> = [
        TrafficClass::SUBSCRIPTION,
        TrafficClass::PUBLICATION,
        TrafficClass::NOTIFICATION,
        TrafficClass::COLLECT,
        TrafficClass::STATE_TRANSFER,
    ]
    .iter()
    .map(|&c| net.metrics().messages(c))
    .collect();
    let matches = net.metrics().counter("matches");
    let delivered = net.metrics().counter("notifications.delivered");
    let peaks = net.peak_stored_counts();
    let events = net.sim_mut().events_processed();
    format!(
        "matches {matches} delivered {delivered} events {events} \
         msgs {messages:?} peaks {peaks:?} deliveries {deliveries:?}"
    )
}

#[test]
fn pubsub_deployment_is_match_engine_independent() {
    for seed in [3u64, 17] {
        let baseline = run_digest(MatchEngineKind::Scan, true, seed);
        for (engine, covering) in [
            (MatchEngineKind::Scan, false),
            (MatchEngineKind::Sorted, true),
            (MatchEngineKind::Sorted, false),
        ] {
            let other = run_digest(engine, covering, seed);
            assert_eq!(
                baseline, other,
                "seed {seed}: {engine:?} engine (covering {covering}) diverged \
                 from the scan baseline"
            );
        }
        // Guard against a degenerate workload that compared nothing.
        assert!(
            baseline.contains("delivered") && !baseline.contains("deliveries []"),
            "workload delivered nothing: {baseline}"
        );
    }
}

/// The experiment harness path: the runner's process-wide match-engine
/// knob must not change a single byte of a rendered experiment table.
/// Kept as one test because the knob is global to the process.
#[test]
fn experiment_tables_are_match_engine_independent() {
    let render = |engine: MatchEngineKind| {
        cbps_bench::runner::set_match_engine(engine);
        let tables = cbps_bench::experiments::run_named("fig5", cbps_bench::Scale::Quick)
            .expect("fig5 is a known experiment");
        let out: Vec<String> = tables.iter().map(|t| t.render()).collect();
        out.join("\n")
    };
    let scan = render(MatchEngineKind::Scan);
    let sorted = render(MatchEngineKind::Sorted);
    cbps_bench::runner::set_match_engine(MatchEngineKind::Scan);
    assert_eq!(scan, sorted, "fig5 tables differ between match engines");
}
