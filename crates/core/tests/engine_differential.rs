//! Differential test of the two matching engines and the covering layer:
//! a seeded random stream of subscribe / unsubscribe / publish operations
//! is applied to every engine × covering configuration of the
//! [`SubscriptionStore`] and to the brute-force [`Oracle`], and every
//! probe's match set — plus the stores' logical sizes and peaks — must
//! agree exactly. Covering and the sorted index reorganize *physical*
//! state only; any observable difference is a correctness bug.

use cbps::{
    AttributeDef, Event, EventSpace, MatchEngineKind, Oracle, StoredSub, SubId, Subscription,
    SubscriptionStore,
};
use cbps_overlay::{KeyRangeSet, KeySpace, Peer};
use cbps_rng::Rng;
use cbps_sim::{SimTime, TraceId};

fn space() -> EventSpace {
    EventSpace::new(vec![
        AttributeDef::new("x", 1000),
        AttributeDef::new("y", 200),
        AttributeDef::new("z", 50),
    ])
}

/// A random subscription mixing narrow and wide ranges with wildcards.
/// Wide ranges make covered-by relations common; re-used shapes (drawn by
/// the caller from earlier subscriptions) exercise the duplicate path.
fn random_sub(rng: &mut Rng, space: &EventSpace) -> Subscription {
    loop {
        let mut b = Subscription::builder(space);
        let mut constrained = false;
        for d in 0..space.dims() {
            if rng.gen_bool(0.4) {
                continue; // wildcard
            }
            let size = space.attr(d).size();
            let wide = rng.gen_bool(0.3);
            let max_w = if wide { size } else { (size / 10).max(1) };
            let w = rng.gen_range(0..max_w);
            let lo = rng.gen_range(0..size - w);
            b = b
                .range(space.attr(d).name(), lo, lo + w)
                .expect("bounds are in-domain");
            constrained = true;
        }
        if constrained {
            return b.build().expect("at least one constraint");
        }
    }
}

fn random_event(rng: &mut Rng, space: &EventSpace) -> Event {
    let values = (0..space.dims())
        .map(|d| rng.gen_range(0..space.attr(d).size()))
        .collect();
    Event::new_unchecked(values)
}

const CONFIGS: [(MatchEngineKind, bool); 4] = [
    (MatchEngineKind::Scan, false),
    (MatchEngineKind::Scan, true),
    (MatchEngineKind::Sorted, false),
    (MatchEngineKind::Sorted, true),
];

#[test]
fn engines_and_covering_match_the_oracle() {
    let space = space();
    let keys = KeySpace::new(8);
    let subscriber = Peer {
        idx: 0,
        key: keys.key(1),
    };
    let sk = KeyRangeSet::of_key(keys, keys.key(2));
    let mut rng = Rng::seed_from_u64(0xd1ff_e4e2 ^ 0x0bad_cafe);

    for case in 0..16 {
        let mut stores: Vec<SubscriptionStore> = CONFIGS
            .iter()
            .map(|&(engine, covering)| SubscriptionStore::with_options(&space, engine, covering))
            .collect();
        let mut oracle = Oracle::new();
        let mut shapes: Vec<Subscription> = Vec::new();
        let mut live: Vec<SubId> = Vec::new();
        let mut next_id = 0u64;
        let mut clock = 0u64;
        let mut out = Vec::new();
        let mut probes = 0usize;

        for _step in 0..1500 {
            clock += rng.gen_range(0u64..3);
            let now = SimTime::from_secs(clock);
            match rng.gen_range(0u32..100) {
                // Subscribe (sometimes an exact repeat of an earlier shape,
                // hitting the covering table's duplicate fast path).
                0..=54 => {
                    let sub = if !shapes.is_empty() && rng.gen_bool(0.25) {
                        shapes[rng.gen_range(0..shapes.len() as u64) as usize].clone()
                    } else {
                        random_sub(&mut rng, &space)
                    };
                    shapes.push(sub.clone());
                    let expires = if rng.gen_bool(0.4) {
                        SimTime::from_secs(clock + rng.gen_range(1u64..200))
                    } else {
                        SimTime::MAX
                    };
                    let id = SubId(next_id);
                    next_id += 1;
                    for store in &mut stores {
                        let fresh = store.insert(
                            id,
                            StoredSub {
                                sub: sub.clone(),
                                subscriber,
                                expires,
                                sk: sk.clone(),
                                trace: TraceId::NONE,
                                subgroups: 0,
                            },
                            now,
                        );
                        assert!(fresh, "case {case}: id {id:?} is never re-used");
                    }
                    oracle.add_sub(id, sub, now, expires);
                    live.push(id);
                }
                // Unsubscribe a random live id (possibly already expired —
                // the stores and the oracle must agree on that too).
                55..=69 if !live.is_empty() => {
                    let pick = rng.gen_range(0..live.len() as u64) as usize;
                    let id = live.swap_remove(pick);
                    let removed: Vec<bool> =
                        stores.iter_mut().map(|s| s.remove(id).is_some()).collect();
                    assert!(
                        removed.iter().all(|&r| r == removed[0]),
                        "case {case}: stores disagree on removing {id:?}: {removed:?}"
                    );
                    oracle.remove_sub(id, now);
                }
                // Publish a probe event and compare every configuration's
                // match set against the brute-force oracle.
                _ => {
                    let event = random_event(&mut rng, &space);
                    let expected = oracle.matching_at(&event, now);
                    for (i, store) in stores.iter_mut().enumerate() {
                        store.match_event_into(&event, now, &mut out);
                        let got: Vec<SubId> = out.iter().map(|(id, _)| *id).collect();
                        assert_eq!(
                            got, expected,
                            "case {case}: config {:?} diverged from the oracle at {now:?}",
                            CONFIGS[i]
                        );
                    }
                    probes += 1;
                }
            }
            // Logical observables never depend on the physical layout.
            let len0 = stores[0].len();
            let peak0 = stores[0].peak();
            for (i, store) in stores.iter().enumerate() {
                assert_eq!(store.len(), len0, "case {case}: len of config {i}");
                assert_eq!(store.peak(), peak0, "case {case}: peak of config {i}");
            }
            // Covering may only shrink the physical population.
            for store in &stores {
                assert!(
                    store.physical_len() <= store.len(),
                    "case {case}: physical entries exceed logical"
                );
            }
        }
        assert!(
            probes > 100,
            "case {case}: degenerate op mix ({probes} probes)"
        );
    }
}

/// Covering must actually collapse state on a covering-heavy stream, not
/// just stay correct — otherwise the physical-sharing path is dead code.
#[test]
fn covering_collapses_wide_streams() {
    let space = space();
    let keys = KeySpace::new(8);
    let subscriber = Peer {
        idx: 0,
        key: keys.key(1),
    };
    let sk = KeyRangeSet::of_key(keys, keys.key(2));
    let mut rng = Rng::seed_from_u64(0xc0de_516e);
    let mut store = SubscriptionStore::with_options(&space, MatchEngineKind::Sorted, true);
    // One broad umbrella plus many subscriptions nested inside it.
    let umbrella = Subscription::builder(&space)
        .range("x", 0, 999)
        .unwrap()
        .build()
        .unwrap();
    store.insert(
        SubId(0),
        StoredSub {
            sub: umbrella,
            subscriber,
            expires: SimTime::MAX,
            sk: sk.clone(),
            trace: TraceId::NONE,
            subgroups: 0,
        },
        SimTime::ZERO,
    );
    for i in 1..400u64 {
        let lo = rng.gen_range(0u64..900);
        let sub = Subscription::builder(&space)
            .range("x", lo, lo + rng.gen_range(0u64..100))
            .unwrap()
            .build()
            .unwrap();
        store.insert(
            SubId(i),
            StoredSub {
                sub,
                subscriber,
                expires: SimTime::MAX,
                sk: sk.clone(),
                trace: TraceId::NONE,
                subgroups: 0,
            },
            SimTime::ZERO,
        );
    }
    assert_eq!(store.len(), 400);
    assert_eq!(
        store.physical_len(),
        1,
        "every x-only subscription is covered by the umbrella"
    );
    // And the delivered sets are still exact.
    let mut out = Vec::new();
    store.match_event_into(
        &Event::new_unchecked(vec![950, 0, 0]),
        SimTime::ZERO,
        &mut out,
    );
    let hit_ids: Vec<u64> = out.iter().map(|(id, _)| id.0).collect();
    assert!(hit_ids.contains(&0), "umbrella matches 950");
    // Only nested subs whose range reaches 950 may appear.
    assert!(out.iter().all(|(id, s)| id.0 == 0 || {
        let c = s.sub.constraint(0).expect("x is constrained");
        c.lo() <= 950 && 950 <= c.hi()
    }));
}
