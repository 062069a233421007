//! The benchmark's delivery checker against the brute-force oracle, and
//! how it counts each kind of failure.

use cbps::{Event, EventId, EventSpace, Oracle, SubId, Subscription};
use cbps_perfbench::check::{check, required_pairs, Delivery, IssuedPub, IssuedSub, Verdict};
use cbps_sim::{SimDuration, SimTime};
use cbps_workload::{OpKind, Trace, WorkloadConfig, WorkloadGen};

const W: u64 = 5_000_000;

fn small_trace(seed: u64, ttl: Option<u64>, wildcards: f64) -> Trace {
    let space = EventSpace::paper_default();
    let cfg = WorkloadConfig::paper_default(7, space.dims())
        .with_counts(60, 240)
        .with_sub_ttl(ttl.map(SimDuration::from_secs))
        .with_selective_attrs(1)
        .with_wildcard_probability(wildcards);
    WorkloadGen::new(space, cfg, seed).gen_trace()
}

/// The trace's operations with ids `SubId(i)` / `EventId(i)` in issue order.
fn issued(trace: &Trace) -> (Vec<IssuedSub<'_>>, Vec<IssuedPub<'_>>) {
    let (mut subs, mut pubs) = (Vec::new(), Vec::new());
    for op in trace.ops() {
        match &op.kind {
            OpKind::Subscribe { sub, ttl } => subs.push(IssuedSub {
                id: SubId(subs.len() as u64),
                node: op.node,
                sub,
                issued: op.at,
                expires: ttl.map_or(SimTime::MAX, |d| op.at + d),
            }),
            OpKind::Publish { event } => pubs.push(IssuedPub {
                id: EventId(pubs.len() as u64),
                event,
                at: op.at,
            }),
        }
    }
    (subs, pubs)
}

/// Every required pair, delivered once at its subscriber.
fn perfect(subs: &[IssuedSub<'_>], pairs: &[(SubId, EventId)]) -> Vec<Delivery> {
    pairs
        .iter()
        .map(|&(sub, event)| Delivery {
            node: subs[sub.0 as usize].node,
            sub,
            event,
        })
        .collect()
}

#[test]
fn zero_window_required_pairs_equal_the_oracle() {
    let space = EventSpace::paper_default();
    for (seed, ttl, wildcards) in [
        (1, None, 0.0),
        (2, Some(300), 0.0),
        (3, Some(120), 0.4),
        (4, None, 0.7),
        (5, Some(600), 0.2),
    ] {
        let trace = small_trace(seed, ttl, wildcards);
        let (subs, pubs) = issued(&trace);
        let mut oracle = Oracle::new();
        for s in &subs {
            oracle.add_sub(s.id, s.sub.clone(), s.issued, s.expires);
        }
        for p in &pubs {
            oracle.add_pub(p.id, p.event.clone(), p.at);
        }
        let expected: Vec<_> = oracle.expected().into_iter().collect();
        assert!(!expected.is_empty(), "seed {seed} should produce matches");
        assert_eq!(
            required_pairs(&space, &subs, &pubs, 0),
            expected,
            "seed {seed}"
        );
    }
}

#[test]
fn perfect_delivery_passes() {
    let space = EventSpace::paper_default();
    let trace = small_trace(9, Some(300), 0.0);
    let (subs, pubs) = issued(&trace);
    let pairs = required_pairs(&space, &subs, &pubs, W);
    let v = check(&space, &subs, &pubs, &perfect(&subs, &pairs), W);
    assert_eq!(v.required, pairs.len() as u64);
    assert_eq!(v.failed(), 0);
}

#[test]
fn dropped_duplicated_and_spurious_deliveries_each_fail_once() {
    let space = EventSpace::paper_default();
    let trace = small_trace(11, Some(300), 0.0);
    let (subs, pubs) = issued(&trace);
    let pairs = required_pairs(&space, &subs, &pubs, W);
    assert!(pairs.len() >= 2);
    let good = perfect(&subs, &pairs);
    let verdict = |deliveries: &[Delivery]| check(&space, &subs, &pubs, deliveries, W);

    let dropped = &good[1..];
    let v = verdict(dropped);
    assert_eq!((v.missed, v.spurious, v.duplicates), (1, 0, 0));
    assert_eq!(v.failed(), 1);

    let mut duplicated = good.clone();
    duplicated.push(good[0]);
    let v = verdict(&duplicated);
    assert_eq!((v.missed, v.spurious, v.duplicates), (0, 0, 1));
    assert_eq!(v.failed(), 1);

    // A publication that matches none of the subscription's constraints.
    let (s, p) = subs
        .iter()
        .flat_map(|s| pubs.iter().map(move |p| (s, p)))
        .find(|(s, p)| !s.sub.matches(p.event))
        .expect("some pair does not match");
    let mut spurious = good.clone();
    spurious.push(Delivery {
        node: s.node,
        sub: s.id,
        event: p.id,
    });
    let v = verdict(&spurious);
    assert_eq!((v.missed, v.spurious, v.duplicates), (0, 1, 0));
    assert_eq!(v.failed(), 1);

    // A required notification delivered to the wrong node is spurious
    // there and missed at the subscriber.
    let mut misrouted = good.clone();
    misrouted[0].node += 1;
    let v = verdict(&misrouted);
    assert_eq!((v.missed, v.spurious, v.duplicates), (1, 1, 0));
}

#[test]
fn pairs_within_the_window_are_tolerated_either_way() {
    let space = EventSpace::paper_default();
    let sub = Subscription::builder(&space)
        .range("a0", 100, 200)
        .unwrap()
        .build()
        .unwrap();
    let hit = Event::new(&space, vec![150, 1, 2, 3]).unwrap();
    let subs = [IssuedSub {
        id: SubId(0),
        node: 3,
        sub: &sub,
        issued: SimTime::from_secs(100),
        expires: SimTime::from_secs(200),
    }];
    // Published just before the issue, just after it, mid-life, near the
    // expiry, just after it, and long after it: only the mid-life pair is
    // required, the next four are tolerated, the last must not arrive.
    let pubs: Vec<IssuedPub<'_>> = [98, 102, 150, 197, 203, 300]
        .into_iter()
        .enumerate()
        .map(|(i, secs)| IssuedPub {
            id: EventId(i as u64),
            event: &hit,
            at: SimTime::from_secs(secs),
        })
        .collect();
    let note = |e| Delivery {
        node: 3,
        sub: SubId(0),
        event: EventId(e),
    };
    let only_required = check(&space, &subs, &pubs, &[note(2)], W);
    assert_eq!(
        only_required,
        Verdict {
            required: 1,
            ..Verdict::default()
        }
    );
    let all_tolerated = check(&space, &subs, &pubs, &[0, 1, 2, 3, 4].map(note), W);
    assert_eq!(all_tolerated.failed(), 0);
    let late = check(&space, &subs, &pubs, &[note(2), note(5)], W);
    assert_eq!((late.missed, late.spurious), (0, 1));
    let none = check(&space, &subs, &pubs, &[], W);
    assert_eq!((none.missed, none.failed()), (1, 1));
}
