//! Model-based property test of the rendezvous store: a random sequence
//! of insert / remove / purge / match operations is applied both to the
//! real [`SubscriptionStore`] and to a naive reference model, and every
//! observable must agree.
//!
//! Three dimensions with wildcard slots and a few hundred ids keep the
//! stores tens of rows deep, so removals and expiries routinely relocate
//! the last row of the table into a freed slot, and matches cross the
//! wildcard encoding on every dimension.
//!
//! Originally a `proptest` suite; now a plain seeded loop over
//! `cbps-rng` so the workspace tests with zero external crates.

use std::collections::HashMap;

use cbps::{
    AttributeDef, Event, EventSpace, MatchEngineKind, StoredSub, SubId, Subscription,
    SubscriptionStore,
};
use cbps_overlay::{KeyRangeSet, KeySpace, Peer};
use cbps_rng::Rng;
use cbps_sim::{SimTime, TraceId};

/// Per-dimension domain sizes of the test space.
const DOMAINS: [u64; 3] = [1000, 200, 50];
const IDS: u64 = 256;

/// One constraint slot per dimension; `None` is a wildcard.
type Shape = [Option<(u64, u64)>; 3];

#[derive(Clone, Debug)]
enum Op {
    Insert {
        id: u64,
        shape: Shape,
        expires: Option<u64>,
    },
    Remove {
        id: u64,
    },
    Purge {
        at: u64,
    },
    Match {
        values: [u64; 3],
        at: u64,
    },
}

fn random_shape(rng: &mut Rng) -> Shape {
    loop {
        let mut shape: Shape = [None; 3];
        for (slot, &size) in shape.iter_mut().zip(&DOMAINS) {
            if rng.gen_bool(0.35) {
                continue; // wildcard
            }
            let lo = rng.gen_range(0..size);
            let w = rng.gen_range(0..size / 4);
            *slot = Some((lo, (lo + w).min(size - 1)));
        }
        if shape.iter().any(Option::is_some) {
            return shape;
        }
    }
}

fn random_op(rng: &mut Rng) -> Op {
    match rng.gen_range(0u32..20) {
        0..=7 => Op::Insert {
            id: rng.gen_range(0..IDS),
            shape: random_shape(rng),
            expires: rng.gen_bool(0.6).then(|| rng.gen_range(1u64..500)),
        },
        8..=11 => Op::Remove {
            id: rng.gen_range(0..IDS),
        },
        12..=14 => Op::Purge {
            at: rng.gen_range(0u64..600),
        },
        _ => Op::Match {
            values: DOMAINS.map(|size| rng.gen_range(0..size)),
            at: rng.gen_range(0u64..600),
        },
    }
}

/// The naive model: a map of live records with explicit expiry filtering.
#[derive(Default)]
struct Model {
    live: HashMap<u64, (Shape, u64)>, // id -> (shape, expires_secs or MAX)
    peak: usize,
}

impl Model {
    fn purge(&mut self, at: u64) {
        self.live.retain(|_, &mut (_, e)| e > at);
    }

    fn ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.live.keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

#[test]
fn store_matches_naive_model() {
    let mut rng = Rng::seed_from_u64(0x0005_703e_cafe);
    for case in 0..96 {
        let ops: Vec<Op> = {
            let n = rng.gen_range(1usize..400);
            (0..n).map(|_| random_op(&mut rng)).collect()
        };
        // Every engine × covering combination must satisfy the model: the
        // physical organization of the store is unobservable through its
        // public API.
        for (engine, covering) in [
            (MatchEngineKind::Scan, false),
            (MatchEngineKind::Scan, true),
            (MatchEngineKind::Sorted, false),
            (MatchEngineKind::Sorted, true),
        ] {
            check_against_model(case, engine, covering, &ops);
        }
    }
}

fn check_against_model(case: usize, engine: MatchEngineKind, covering: bool, ops: &[Op]) {
    let space = EventSpace::new(vec![
        AttributeDef::new("x", DOMAINS[0]),
        AttributeDef::new("y", DOMAINS[1]),
        AttributeDef::new("z", DOMAINS[2]),
    ]);
    let keys = KeySpace::new(8);
    let mut store = SubscriptionStore::with_options(&space, engine, covering);
    let mut model = Model::default();
    let mut match_buf = Vec::new();
    // Operations are applied at non-decreasing times; track a clock so
    // purge/match times never go backwards (matching real usage).
    let mut clock = 0u64;
    let ctx = |what: &str| format!("case {case}, {engine:?} covering {covering}: {what}");

    for op in ops.iter().cloned() {
        match op {
            Op::Insert { id, shape, expires } => {
                let expires_at = expires.map_or(u64::MAX, |d| clock + d);
                let to_time = |secs| {
                    if secs == u64::MAX {
                        SimTime::MAX
                    } else {
                        SimTime::from_secs(secs)
                    }
                };
                let mut b = Subscription::builder(&space);
                for (d, slot) in shape.iter().enumerate() {
                    if let Some((lo, hi)) = *slot {
                        b = b.range(space.attr(d).name(), lo, hi).unwrap();
                    }
                }
                let stored = StoredSub {
                    sub: b.build().unwrap(),
                    subscriber: Peer {
                        idx: 0,
                        key: keys.key(1),
                    },
                    expires: to_time(expires_at),
                    sk: KeyRangeSet::of_key(keys, keys.key(2)),
                    trace: TraceId::NONE,
                    subgroups: 0,
                };
                let fresh = store.insert(SubId(id), stored, SimTime::from_secs(clock));
                model.purge(clock);
                let model_fresh = !model.live.contains_key(&id);
                assert_eq!(fresh, model_fresh, "{}", ctx(&format!("freshness of {id}")));
                match model.live.get_mut(&id) {
                    // A duplicate insert refreshes the expiry only.
                    Some(rec) => rec.1 = expires_at,
                    None => {
                        model.live.insert(id, (shape, expires_at));
                        model.peak = model.peak.max(model.live.len());
                    }
                }
                let got = store.get(SubId(id)).map(|s| s.expires);
                assert_eq!(
                    got,
                    Some(to_time(model.live[&id].1)),
                    "{}",
                    ctx(&format!("expiry of {id} after insert"))
                );
            }
            Op::Remove { id } => {
                let got = store.remove(SubId(id)).is_some();
                let expect = model.live.remove(&id).is_some();
                assert_eq!(got, expect, "{}", ctx(&format!("remove {id}")));
            }
            Op::Purge { at } => {
                clock = clock.max(at);
                store.purge_expired(SimTime::from_secs(clock));
                model.purge(clock);
            }
            Op::Match { values, at } => {
                clock = clock.max(at);
                store.match_event_into(
                    &Event::new_unchecked(values.to_vec()),
                    SimTime::from_secs(clock),
                    &mut match_buf,
                );
                model.purge(clock);
                let got: Vec<u64> = match_buf.iter().map(|(id, _)| id.0).collect();
                let mut expect: Vec<u64> = model
                    .live
                    .iter()
                    .filter(|(_, (shape, _))| {
                        shape
                            .iter()
                            .zip(values)
                            .all(|(slot, v)| slot.is_none_or(|(lo, hi)| lo <= v && v <= hi))
                    })
                    .map(|(&id, _)| id)
                    .collect();
                expect.sort_unstable();
                // Match output comes sorted by id.
                assert_eq!(got, expect, "{}", ctx(&format!("match at {values:?}")));
            }
        }
        let mut ids: Vec<u64> = store.iter().map(|(id, _)| id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, model.ids(), "{}", ctx("iterated id set"));
        assert_eq!(store.len(), model.live.len(), "{}", ctx("len"));
    }
    assert_eq!(store.peak(), model.peak, "{}", ctx("peak"));
}
