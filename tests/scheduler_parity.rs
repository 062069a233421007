//! End-to-end scheduler parity: a full pub/sub deployment — overlay,
//! mappings, notification pipeline, observability — must produce
//! bit-identical results under the heap and the timing-wheel scheduler.
//! The sim-crate equivalence suite checks raw event ordering; this one
//! checks everything layered on top of it, including the rendered
//! experiment tables and the distilled `cbps-report/v2` observability
//! report that `ci.sh` diffs on every run.

use cbps::{MappingKind, NotifyMode, PubSubConfig, PubSubNetwork, SubId};
use cbps_bench::report::{ExperimentReport, ObsReport, RunReport};
use cbps_sim::{NetConfig, ObsMode, SchedulerKind, SimDuration, TrafficClass};
use cbps_workload::{WorkloadConfig, WorkloadGen};

/// Replays a seeded workload under `kind` and renders every observable
/// output as one JSON document (wall time pinned so only real signal is
/// compared).
fn run_report(kind: SchedulerKind, seed: u64) -> String {
    let mut net = PubSubNetwork::builder()
        .nodes(40)
        .net_config(NetConfig::new(seed).with_scheduler(kind))
        .pubsub(
            PubSubConfig::paper_default()
                .with_mapping(MappingKind::SelectiveAttribute)
                .with_notify_mode(NotifyMode::Collecting {
                    period: SimDuration::from_secs(10),
                })
                .with_replication(1),
        )
        .observability(ObsMode::Full)
        .build()
        .expect("valid network configuration");
    let wl = WorkloadConfig::paper_default(40, 4)
        .with_counts(80, 160)
        .with_sub_ttl(Some(SimDuration::from_secs(300)));
    let mut gen = WorkloadGen::new(net.config().space.clone(), wl, seed);
    let trace = gen.gen_trace();
    trace.replay(&mut net);
    // Crash a node and join a fresh one mid-run so failure handling and
    // state transfer are part of the comparison.
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
    let peaks: Vec<u64> = net
        .peak_stored_counts()
        .into_iter()
        .map(|p| p as u64)
        .collect();
    let sim = net.sim_mut();
    let events = sim.events_processed();
    let peak_queue_depth = sim.queue_peak() as u64;
    let obs = std::mem::take(net.metrics_mut().obs_mut());
    let report = RunReport {
        scale: "parity".to_owned(),
        jobs: 1,
        observability: ObsMode::Full.name().to_owned(),
        // Deliberately NOT kind.name(): the scheduler must be the only
        // difference between the two runs, so it stays out of the diff.
        scheduler: "under-test".to_owned(),
        shards: 1,
        match_engine: "scan".to_owned(),
        rendezvous: "static".to_owned(),
        overlay: "chord".to_owned(),
        experiments: vec![ExperimentReport {
            name: format!(
                "parity seed {seed}: {matches} matches, {delivered} delivered, \
                 msgs {messages:?}, deliveries {deliveries:?}"
            ),
            wall_secs: 0.0,
            events,
            peak_queue_depth,
            obs: Some(ObsReport::distill(&obs, &peaks)),
            alloc: None,
        }],
    };
    report.to_json()
}

#[test]
fn pubsub_deployment_is_scheduler_independent() {
    for seed in [3u64, 17] {
        let heap = run_report(SchedulerKind::Heap, seed);
        let wheel = run_report(SchedulerKind::Wheel, seed);
        assert_eq!(
            heap, wheel,
            "seed {seed}: heap and wheel runs produced different reports"
        );
        // Guard against a degenerate workload that compared nothing.
        assert!(heap.contains("\"events\":"), "report missing event count");
    }
}

/// The experiment harness path: the runner's process-wide scheduler knob
/// must not change a single byte of a rendered experiment table. Kept as
/// one test because the knob is global to the process.
#[test]
fn experiment_tables_are_scheduler_independent() {
    let render = |kind: SchedulerKind| {
        cbps_bench::runner::set_scheduler(kind);
        let tables = cbps_bench::experiments::run_named("route", cbps_bench::Scale::Quick)
            .expect("route is a known experiment");
        let out: Vec<String> = tables.iter().map(|t| t.render()).collect();
        out.join("\n")
    };
    let heap = render(SchedulerKind::Heap);
    let wheel = render(SchedulerKind::Wheel);
    cbps_bench::runner::set_scheduler(SchedulerKind::default());
    assert_eq!(heap, wheel, "route tables differ between schedulers");
}
