//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Generates the workload's trace from the seed, then replays it on fresh
//! deployments for `S` wall seconds, single-threaded in this process.
//!
//! * `--trace 0` prints the end-to-end metrics, measured with tracing off.
//! * `--trace 1` alternates untraced and traced replays, times the calls
//!   into each layer from outside (spans), runs the per-layer probes after
//!   the drain, and prints the per-layer metrics. The spans are written to
//!   `perfbench/out/<workload>.spans.tsv`.
//!
//! Either way the delivered notifications are checked against an exact
//! oracle outside the timed section. The next-to-last line of standard
//! output is the full report (every metric with its median, quartiles and
//! sample count, plus host cores, revision and seed); the last line is the
//! summary `{"correct", "attempted", "failed", "metrics"}`.

use std::io::Write;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cbps::PubSubNetwork;
use cbps_perfbench::check::{self, Verdict};
use cbps_perfbench::probe::{self, ProbeStats};
use cbps_perfbench::replay::{self, Outcome, Replayed};
use cbps_perfbench::span::{SpanLog, ROOT};
use cbps_perfbench::stats::{num, percentile, quartiles, string, Metric};
use cbps_perfbench::workload::{Workload, WORKLOADS};
use cbps_sim::TrafficClass;
use cbps_workload::Trace;

/// Tolerance window of the delivery check, in simulated seconds: pairs
/// published within this long of a subscription's issue or expiry may or
/// may not be delivered (the subscription can still be in flight).
const CHECK_WINDOW_SECS: u64 = 5;

/// Builds made before the first replay, only to sample the set-up time.
const SETUP_BUILDS: usize = 15;

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Builds a fresh deployment, timing `build` plus `reserve_workload`.
fn build(w: &Workload, seed: u64, setup: &mut Vec<f64>) -> Result<PubSubNetwork, String> {
    let t = Instant::now();
    let mut net = w
        .builder(seed)
        .build()
        .map_err(|e| format!("invalid deployment: {e}"))?;
    net.reserve_workload(w.subs);
    setup.push(t.elapsed().as_secs_f64());
    Ok(net)
}

/// Ops per wall second of one replay.
fn rate(trace: &Trace, r: &Replayed) -> f64 {
    trace.len() as f64 / r.wall.as_secs_f64()
}

/// `true` once another iteration as long as the last would overrun.
fn window_done(start: Instant, last: Duration, seconds: f64) -> bool {
    (start.elapsed() + last).as_secs_f64() > seconds
}

/// A memory figure of this process from `/proc/self/status` (`VmRSS:`,
/// `VmHWM:`), in MiB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out revision, read from `.git` when there is one.
fn revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

/// What the checks of a run found, summed over every checked replay.
#[derive(Debug, Default)]
struct Checked {
    verdict: Verdict,
    /// Repeated notifications the subscribers dropped before delivery.
    suppressed: u64,
    /// Wall seconds of each check.
    secs: Vec<f64>,
}

impl Checked {
    /// Checks one replay's deliveries against the exact checker.
    ///
    /// A subscriber drops a repeated `(subscription, event)` notification
    /// before it reaches the delivered log, so `duplicates` counts only
    /// what that deduplication lets through. The dropped repeats are
    /// reported as `suppressed` but are not failures: the paper's Mapping 3
    /// and the adaptive rendezvous's dual homing send them by design, and
    /// delivery stays exactly once.
    fn add(&mut self, trace: &Trace, w: &Workload, o: &Outcome) {
        let t = Instant::now();
        let (subs, pubs) = replay::issued(trace, &o.sub_ids, &o.event_ids);
        let window = CHECK_WINDOW_SECS * 1_000_000;
        let v = check::check(&w.pubsub().space, &subs, &pubs, &o.deliveries, window);
        self.verdict.absorb(v);
        self.suppressed += o.suppressed;
        self.secs.push(t.elapsed().as_secs_f64());
    }
}

fn run(args: &Args) -> Result<(), String> {
    let (checked, metrics) = if args.trace {
        traced(args)?
    } else {
        untraced(args)?
    };
    report(args, &checked, &metrics);
    Ok(())
}

/// End-to-end metrics, tracing off. The run's traces are replayed round
/// robin until the window closes, each on a fresh deployment, and every
/// replay is checked after its timed section. The simulated metrics pool
/// the first replay of every trace, so their samples do not depend on how
/// many replays fit in the window.
fn untraced(args: &Args) -> Result<(Checked, Vec<Metric>), String> {
    let w = args.workload;
    let seeds: Vec<u64> = (0..w.traces)
        .map(|i| Workload::trace_seed(args.seed, i))
        .collect();
    let traces: Vec<Trace> = seeds.iter().map(|&s| w.trace(s)).collect();
    // Resident before any deployment exists: the traces and the runtime.
    let resident = status_mb("VmRSS:");
    let start = Instant::now();
    let mut setup = Vec::new();
    for _ in 0..SETUP_BUILDS {
        drop(build(w, seeds[0], &mut setup)?);
    }
    let mut rates = Vec::new();
    let mut rss = 0.0;
    let mut checked = Checked::default();
    let mut outcomes = Vec::with_capacity(w.traces);
    for k in 0.. {
        let t = Instant::now();
        let i = k % w.traces;
        let net = build(w, seeds[i], &mut setup)?;
        let r = replay::replay(&traces[i], net, None);
        rates.push(rate(&traces[i], &r));
        // The deployment's own peak: the high-water mark after the first
        // replay over what was resident before the set-up builds (the
        // memory they free stays resident, and the replay reuses it).
        if k == 0 {
            rss = status_mb("VmHWM:") - resident;
        }
        let o = replay::outcome(&traces[i], &r);
        drop(r);
        checked.add(&traces[i], w, &o);
        if k < w.traces {
            outcomes.push(o);
        }
        if k + 1 >= w.traces && window_done(start, t.elapsed(), args.seconds) {
            break;
        }
    }
    let mut lat: Vec<u64> = outcomes
        .iter()
        .flat_map(|o| o.latencies_us.iter().copied())
        .collect();
    lat.sort_unstable();
    let messages: u64 = outcomes.iter().map(|o| o.messages).sum();
    let ops: u64 = outcomes.iter().map(|o| o.ops).sum();
    let max_stored = outcomes.iter().map(|o| o.max_stored() as f64).collect();
    let metrics = vec![
        Metric::new("ops_per_s", "1/s", rates),
        Metric::new("setup_s", "s", setup),
        Metric::one("peak_rss_mb", "MB", rss),
        Metric::one("notify_p50_ms", "ms", percentile(&lat, 0.50) as f64 / 1e3),
        Metric::one("notify_p99_ms", "ms", percentile(&lat, 0.99) as f64 / 1e3),
        Metric::one("msgs_per_op", "msgs/op", messages as f64 / ops as f64),
        Metric::new("max_stored", "count", max_stored),
        Metric::one("failed_frac", "ratio", checked.verdict.failed_frac()),
        Metric::one("notify_samples", "count", lat.len() as f64),
    ];
    Ok((checked, metrics))
}

/// Per-layer metrics: untraced and traced replays alternate in the
/// window, each checked after its timed section, then the probes run over
/// the last traced replay's inputs.
fn traced(args: &Args) -> Result<(Checked, Vec<Metric>), String> {
    let w = args.workload;
    let t = Instant::now();
    let trace = &w.trace(args.seed);
    let gen_s = t.elapsed().as_secs_f64();
    let start = Instant::now();
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let mut checked = Checked::default();
    let mut last: Option<(Replayed, SpanLog)> = None;
    loop {
        let t = Instant::now();
        drop(last.take());
        let net = build(w, args.seed, &mut Vec::new())?;
        let r = replay::replay(trace, net, None);
        plain.push(rate(trace, &r));
        checked.add(trace, w, &replay::outcome(trace, &r));
        drop(r);

        let mut log = SpanLog::new();
        let build_span = log.open("core.build", u32::MAX, ROOT);
        let net = build(w, args.seed, &mut Vec::new())?;
        log.close(build_span);
        let r = replay::replay(trace, net, Some(&mut log));
        spanned.push(rate(trace, &r));
        checked.add(trace, w, &replay::outcome(trace, &r));
        last = Some((r, log));
        if window_done(start, t.elapsed(), args.seconds) {
            break;
        }
    }
    let (mut r, mut log) = last.expect("at least one traced replay");

    let mut p = ProbeStats::default();
    probe::run(w, trace, &r.sub_ids, &mut log, &mut p);

    let totals = log.totals();
    let total = |name: &str| totals.get(name).map_or(0, |t| t.total) as f64;
    let replay_ns = {
        let ops: Vec<_> = log.spans().iter().filter(|s| s.name == "op").collect();
        (ops.last().map_or(0, |s| s.end) - ops.first().map_or(0, |s| s.start)) as f64
    };
    let outside_in = total("sim.run_until") + total("core.subscribe") + total("core.publish");

    let busy_ns = total("sim.run_until");
    let engine = r.net.sim_mut();
    let events = engine.events_processed() as f64;
    let queue_peak = engine.queue_peak() as f64;
    let m = r.net.metrics();
    let count = |name: &str| m.counter(name) as f64;
    let msgs = |c: TrafficClass| m.messages(c) as f64;
    let subs = trace.sub_count().max(1) as f64;
    let pubs = trace.pub_count().max(1) as f64;
    let delivered = count("notifications.delivered");
    let store_rx = count("store.insert") + count("store.duplicate-delivery");
    let work = r.net.rendezvous_work_counts();
    let work_mean = work.iter().sum::<u64>() as f64 / work.len().max(1) as f64;
    let work_max = work.iter().copied().max().unwrap_or(0) as f64;
    let (splits, merges) = r.net.rendezvous_counters();
    let peak_stored = r.net.peak_stored_counts();
    let avg_stored = peak_stored.iter().sum::<usize>() as f64 / peak_stored.len().max(1) as f64;
    let per = |a: f64, b: u64| a / b.max(1) as f64;
    let med = |v: &[f64]| quartiles(v).1;

    let mut metrics = vec![
        Metric::one("sim.busy_s", "s", busy_ns / 1e9),
        Metric::one("sim.events", "count", events),
        Metric::one("sim.ns_per_event", "ns", busy_ns / events.max(1.0)),
        Metric::one("sim.queue_peak", "count", queue_peak),
        Metric::one("overlay.build_s", "s", p.build_s),
        Metric::one(
            "overlay.msgs.subscription",
            "count",
            msgs(TrafficClass::SUBSCRIPTION),
        ),
        Metric::one(
            "overlay.msgs.publication",
            "count",
            msgs(TrafficClass::PUBLICATION),
        ),
        Metric::one(
            "overlay.msgs.notification",
            "count",
            msgs(TrafficClass::NOTIFICATION),
        ),
        Metric::one("overlay.msgs.collect", "count", msgs(TrafficClass::COLLECT)),
        Metric::one(
            "overlay.hops_per_sub",
            "msgs",
            msgs(TrafficClass::SUBSCRIPTION) / subs,
        ),
        Metric::one(
            "overlay.hops_per_pub",
            "msgs",
            msgs(TrafficClass::PUBLICATION) / pubs,
        ),
        Metric::one(
            "overlay.mcast_split_ns",
            "ns",
            per(p.split_ns as f64, p.splits),
        ),
        Metric::one("overlay.next_hop_ns", "ns", per(p.hop_ns as f64, p.hops)),
        Metric::one(
            "mapping.keys_per_sub",
            "keys",
            per(p.sub_keys as f64, p.subs),
        ),
        Metric::one(
            "mapping.segments_per_sub",
            "count",
            per(p.sub_segments as f64, p.subs),
        ),
        Metric::one(
            "mapping.keys_per_pub",
            "keys",
            per(p.pub_keys as f64, p.pubs),
        ),
        Metric::one("mapping.sk_ns", "ns", per(p.sk_ns as f64, p.subs)),
        Metric::one("mapping.ek_ns", "ns", per(p.ek_ns as f64, p.pubs)),
        Metric::one("store.inserts", "count", count("store.insert")),
        Metric::one("store.insert_ns", "ns", per(p.insert_ns as f64, p.inserts)),
        Metric::one("store.purge_ns", "ns", per(p.purge_ns as f64, p.purges)),
        Metric::one(
            "store.dup_ratio",
            "ratio",
            count("store.duplicate-delivery") / store_rx.max(1.0),
        ),
        Metric::one("store.avg_stored", "count", avg_stored),
        Metric::one("match.calls", "count", p.matches as f64),
        Metric::one("match.ns_per_call", "ns", per(p.match_ns as f64, p.matches)),
        Metric::one(
            "match.hits_per_call",
            "ratio",
            per(p.hits as f64, p.matches),
        ),
        Metric::one("notify.messages", "count", count("notifications.messages")),
        Metric::one(
            "notify.batch_mean",
            "items",
            delivered / count("notifications.messages").max(1.0),
        ),
        Metric::one("notify.delivered", "count", delivered),
        Metric::one(
            "notify.dup_ratio",
            "ratio",
            count("notifications.duplicate") / delivered.max(1.0),
        ),
        Metric::one("rendezvous.splits", "count", splits as f64),
        Metric::one("rendezvous.merges", "count", merges as f64),
        Metric::one(
            "rendezvous.load_max_mean",
            "ratio",
            work_max / work_mean.max(1e-9),
        ),
        Metric::one("workload.gen_s", "s", gen_s),
        Metric::new("workload.check_s", "s", checked.secs.clone()),
        Metric::one("trace.overhead", "ratio", med(&spanned) / med(&plain)),
        Metric::one("trace.coverage", "ratio", outside_in / replay_ns.max(1.0)),
    ];
    // `sim.run_until` and `overlay.build` have no child spans: their self
    // time is already reported as `sim.busy_s` and `overlay.build_s`.
    let reported = ["sim.run_until", "overlay.build"];
    for (name, t) in totals.iter().filter(|(n, _)| !reported.contains(n)) {
        metrics.push(Metric::one(
            format!("self.{name}_s"),
            "s",
            t.self_time as f64 / 1e9,
        ));
    }
    write_spans(w, &log);
    Ok((checked, metrics))
}

/// Writes the span log next to the benchmark; a failure only warns.
fn write_spans(w: &Workload, log: &SpanLog) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("{}.spans.tsv", w.name));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::File::create(&path))
        .map(std::io::BufWriter::new)
        .and_then(|mut f| {
            log.write_tsv(&mut f)?;
            f.flush()
        });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

/// Prints the full report line, then the summary line.
fn report(args: &Args, checked: &Checked, metrics: &[Metric]) {
    let verdict = &checked.verdict;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut full = format!(
        "{{\"schema\":\"cbps-perfbench/v1\",\"workload\":{},\"seed\":{},\"trace\":{},\
         \"seconds\":{},\"nproc\":{nproc},\"rev\":{},\"check\":{{\"required\":{},\
         \"missed\":{},\"spurious\":{},\"duplicates\":{},\"suppressed\":{}}},\"metrics\":{{",
        string(args.workload.name),
        args.seed,
        u8::from(args.trace),
        num(args.seconds),
        string(&revision()),
        verdict.required,
        verdict.missed,
        verdict.spurious,
        verdict.duplicates,
        checked.suppressed,
    );
    let mut summary = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let (q1, med, q3) = quartiles(&m.samples);
        let sep = if i == 0 { "" } else { "," };
        full.push_str(&format!(
            "{sep}{}:{{\"unit\":{},\"median\":{},\"q1\":{},\"q3\":{},\"n\":{}}}",
            string(&m.name),
            string(m.unit),
            num(med),
            num(q1),
            num(q3),
            m.samples.len()
        ));
    }
    full.push_str("}}");
    // The summary carries the benchmark's declared metrics only: the
    // failure fraction travels as `failed` over `attempted`, and the
    // latency sample count stays in the full report.
    let declared = metrics
        .iter()
        .filter(|m| !matches!(m.name.as_str(), "failed_frac" | "notify_samples"));
    for (i, m) in declared.enumerate() {
        let sep = if i == 0 { "" } else { "," };
        summary.push_str(&format!(
            "{sep}{}:{{\"value\":{},\"unit\":{}}}",
            string(&m.name),
            num(m.value()),
            string(m.unit)
        ));
    }
    println!("{full}");
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{summary}}}}}",
        verdict.failed() == 0 && verdict.required > 0,
        verdict.required.max(1),
        verdict.failed(),
    );
}
