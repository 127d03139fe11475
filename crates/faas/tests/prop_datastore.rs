//! Property tests for the etcd-like datastore: revision monotonicity,
//! range consistency, and watch completeness under arbitrary op streams,
//! and every key's full metadata against a naive model of etcd's
//! semantics (leases and transactions included).

use bytes::Bytes;
use gfaas_faas::datastore::{Compare, KeyValue, LeaseId, Op, WatchEventKind};
use gfaas_faas::{Datastore, Revision};
use gfaas_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum DsOp {
    Put(u8, u8),
    Delete(u8),
    Get(u8),
}

fn arb_op() -> impl Strategy<Value = DsOp> {
    prop_oneof![
        (0u8..20, any::<u8>()).prop_map(|(k, v)| DsOp::Put(k, v)),
        (0u8..20).prop_map(DsOp::Delete),
        (0u8..20).prop_map(DsOp::Get),
    ]
}

fn key(k: u8) -> String {
    format!("/k/{k:02}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The store always agrees with a shadow BTreeMap, and the revision
    /// strictly increases across effective mutations.
    #[test]
    fn store_matches_shadow_model(ops in proptest::collection::vec(arb_op(), 1..200)) {
        let ds = Datastore::new();
        let mut shadow: BTreeMap<String, u8> = BTreeMap::new();
        let mut last_rev = ds.revision();
        for op in ops {
            match op {
                DsOp::Put(k, v) => {
                    let rev = ds.put(key(k), vec![v]);
                    prop_assert!(rev > last_rev);
                    last_rev = rev;
                    shadow.insert(key(k), v);
                }
                DsOp::Delete(k) => {
                    let existed = shadow.remove(&key(k)).is_some();
                    let rev = ds.delete(key(k));
                    prop_assert_eq!(rev.is_some(), existed);
                    if let Some(r) = rev {
                        prop_assert!(r > last_rev);
                        last_rev = r;
                    }
                }
                DsOp::Get(k) => {
                    let got = ds.get(key(k)).map(|kv| kv.value[0]);
                    prop_assert_eq!(got, shadow.get(&key(k)).copied());
                }
            }
            prop_assert_eq!(ds.len(), shadow.len());
        }
        // Range over the whole prefix equals the shadow, in order.
        let range: Vec<(String, u8)> = ds
            .range("/k/")
            .into_iter()
            .map(|kv| (kv.key.clone(), kv.value[0]))
            .collect();
        let expect: Vec<(String, u8)> = shadow.into_iter().collect();
        prop_assert_eq!(range, expect);
    }

    /// A watcher sees exactly the mutations under its prefix, in revision
    /// order, with the right kinds.
    #[test]
    fn watcher_sees_every_matching_mutation(ops in proptest::collection::vec(arb_op(), 1..120)) {
        let ds = Datastore::new();
        let watcher = ds.watch("/k/0"); // keys 00..09
        let mut expected = Vec::new();
        for op in ops {
            match op {
                DsOp::Put(k, v) => {
                    ds.put(key(k), vec![v]);
                    if key(k).starts_with("/k/0") {
                        expected.push((WatchEventKind::Put, key(k), Some(v)));
                    }
                }
                DsOp::Delete(k) => {
                    if ds.delete(key(k)).is_some() && key(k).starts_with("/k/0") {
                        expected.push((WatchEventKind::Delete, key(k), None));
                    }
                }
                DsOp::Get(_) => {}
            }
        }
        let events = watcher.drain();
        prop_assert_eq!(events.len(), expected.len());
        let mut last_rev = None;
        for (ev, (kind, k, v)) in events.iter().zip(&expected) {
            prop_assert_eq!(ev.kind, *kind);
            prop_assert_eq!(&ev.key, k);
            if let Some(v) = v {
                prop_assert_eq!(&ev.value, &Bytes::from(vec![*v]));
            }
            if let Some(lr) = last_rev {
                prop_assert!(ev.revision > lr);
            }
            last_rev = Some(ev.revision);
        }
    }
}

/// Keys on both sides of the store's 23-byte inline limit, sharing
/// prefixes; the watcher below sees the `/a` family only.
const KEYS: [&str; 10] = [
    "/a",
    "/a/b",
    "/gpu/1/status",
    "/gpu/10/status",
    "/latency/1234567890123",
    "/latency/12345678901234",
    "/latency/123456789012345",
    "/latency/1234567890123456",
    "/a/b/a-key-well-past-the-inline-limit",
    "/a/b/a-key-well-past-the-inline-limit/child",
];
const WATCHED: &str = "/a";

#[derive(Debug, Clone)]
enum Step {
    Put(usize, Vec<u8>),
    /// Attaches the `n`th granted lease (modulo the count; a plain put
    /// while none is granted).
    PutWithLease(usize, Vec<u8>, usize),
    Delete(usize),
    /// `txn([ValueEquals(k, expect)], [Put(k, new)], [Delete(other)])`;
    /// `None` expects the key's current value, so the CAS can succeed.
    Cas(usize, Option<Vec<u8>>, Vec<u8>, usize),
    /// `txn([NotExists(k)], [Put(k, v)], [])`.
    CreateIfAbsent(usize, Vec<u8>),
    /// `txn([ModRevisionEquals(k, current)], [Delete(k)], [])`.
    DeleteIfUnchanged(usize),
    Grant(u64),
    Keepalive(usize),
    /// Advances the clock by whole seconds, then expires due leases.
    Expire(u64),
}

/// Values on both sides of the store's 22-byte inline limit, over a
/// three-letter alphabet so equal values recur.
fn arb_value() -> impl Strategy<Value = Vec<u8>> {
    (0usize..30, 0u8..3).prop_map(|(n, b)| vec![b'a' + b; n])
}

fn arb_step() -> impl Strategy<Value = Step> {
    let k = || 0..KEYS.len();
    prop_oneof![
        (k(), arb_value()).prop_map(|(k, v)| Step::Put(k, v)),
        (k(), arb_value(), 0usize..4).prop_map(|(k, v, l)| Step::PutWithLease(k, v, l)),
        k().prop_map(Step::Delete),
        (k(), any::<bool>(), arb_value(), arb_value(), k())
            .prop_map(|(k, cur, e, n, o)| Step::Cas(k, (!cur).then_some(e), n, o)),
        (k(), arb_value()).prop_map(|(k, v)| Step::CreateIfAbsent(k, v)),
        k().prop_map(Step::DeleteIfUnchanged),
        (1u64..20).prop_map(Step::Grant),
        (0usize..4).prop_map(Step::Keepalive),
        (0u64..8).prop_map(Step::Expire),
    ]
}

/// The etcd semantics written out naively: every key's full metadata,
/// leases by id, and the watch events a `WATCHED` watcher must see.
#[derive(Default)]
struct Model {
    revision: u64,
    keys: BTreeMap<String, KeyValue>,
    /// `(ttl, expires_at, alive)` by lease id.
    leases: Vec<(SimDuration, SimTime, bool)>,
    events: Vec<(WatchEventKind, String, Bytes, Revision)>,
}

impl Model {
    fn bump(&mut self) -> Revision {
        self.revision += 1;
        Revision(self.revision)
    }

    fn event(&mut self, kind: WatchEventKind, key: &str, value: Bytes, rev: Revision) {
        if key.starts_with(WATCHED) {
            self.events.push((kind, key.to_string(), value, rev));
        }
    }

    fn put(&mut self, key: &str, value: &[u8], lease: Option<LeaseId>) -> Revision {
        let rev = self.bump();
        let kv = self.keys.entry(key.to_string()).or_insert(KeyValue {
            key: key.to_string(),
            value: Bytes::new(),
            create_revision: rev,
            mod_revision: rev,
            version: 0,
            lease: None,
        });
        kv.value = Bytes::copy_from_slice(value);
        kv.mod_revision = rev;
        kv.version += 1;
        kv.lease = lease.or(kv.lease);
        self.event(WatchEventKind::Put, key, Bytes::copy_from_slice(value), rev);
        rev
    }

    fn delete(&mut self, key: &str) -> Option<Revision> {
        self.keys.remove(key)?;
        let rev = self.bump();
        self.event(WatchEventKind::Delete, key, Bytes::new(), rev);
        Some(rev)
    }

    /// Lease ids in grant order; `n` picks one modulo the count.
    fn lease(&self, n: usize) -> Option<LeaseId> {
        (!self.leases.is_empty()).then(|| LeaseId((n % self.leases.len()) as u64))
    }

    /// Dead leases in id order, each one's keys in key order.
    fn expire(&mut self, now: SimTime) -> Vec<String> {
        let mut deleted = Vec::new();
        for id in 0..self.leases.len() {
            let (_, expires_at, alive) = self.leases[id];
            if !alive || now < expires_at {
                continue;
            }
            self.leases[id].2 = false;
            let doomed: Vec<String> = (self.keys.values())
                .filter(|kv| kv.lease == Some(LeaseId(id as u64)))
                .map(|kv| kv.key.clone())
                .collect();
            for k in doomed {
                self.delete(&k);
                deleted.push(k);
            }
        }
        deleted
    }
}

/// Applies `steps` to a store (with or without a watcher on `WATCHED`)
/// and to the model, comparing every return value, then the whole
/// keyspace with its metadata and the delivered watch events.
fn check_against_model(steps: &[Step], watch: bool) -> Result<(), TestCaseError> {
    let ds = Datastore::new();
    let watcher = watch.then(|| ds.watch(WATCHED));
    let mut model = Model::default();
    let mut now = SimTime::ZERO;
    for step in steps {
        match step.clone() {
            Step::Put(k, v) => {
                prop_assert_eq!(ds.put(KEYS[k], v.clone()), model.put(KEYS[k], &v, None));
            }
            Step::PutWithLease(k, v, n) => match model.lease(n) {
                Some(lease) => {
                    let got = ds.put_with_lease(KEYS[k], v.clone(), lease);
                    prop_assert_eq!(got, model.put(KEYS[k], &v, Some(lease)));
                }
                None => {
                    prop_assert_eq!(ds.put(KEYS[k], v.clone()), model.put(KEYS[k], &v, None));
                }
            },
            Step::Delete(k) => prop_assert_eq!(ds.delete(KEYS[k]), model.delete(KEYS[k])),
            Step::Cas(k, expect, new, other) => {
                let expect = match expect {
                    Some(e) => Bytes::from(e),
                    None => model
                        .keys
                        .get(KEYS[k])
                        .map_or_else(Bytes::new, |kv| kv.value.clone()),
                };
                let got = ds.txn(
                    &[Compare::ValueEquals(KEYS[k].into(), expect.clone())],
                    &[Op::Put(KEYS[k].into(), Bytes::from(new.clone()))],
                    &[Op::Delete(KEYS[other].into())],
                );
                let succeeded = model.keys.get(KEYS[k]).is_some_and(|kv| kv.value == expect);
                if succeeded {
                    model.put(KEYS[k], &new, None);
                } else {
                    model.delete(KEYS[other]);
                }
                prop_assert_eq!(got.succeeded, succeeded);
                prop_assert_eq!(got.revision, Revision(model.revision));
            }
            Step::CreateIfAbsent(k, v) => {
                let got = ds.txn(
                    &[Compare::NotExists(KEYS[k].into())],
                    &[Op::Put(KEYS[k].into(), Bytes::from(v.clone()))],
                    &[],
                );
                let succeeded = !model.keys.contains_key(KEYS[k]);
                if succeeded {
                    model.put(KEYS[k], &v, None);
                }
                prop_assert_eq!(got.succeeded, succeeded);
                prop_assert_eq!(got.revision, Revision(model.revision));
            }
            Step::DeleteIfUnchanged(k) => {
                let seen = model.keys.get(KEYS[k]).map(|kv| kv.mod_revision);
                let got = ds.txn(
                    &[Compare::ModRevisionEquals(
                        KEYS[k].into(),
                        seen.unwrap_or(Revision(0)),
                    )],
                    &[Op::Delete(KEYS[k].into())],
                    &[],
                );
                if seen.is_some() {
                    model.delete(KEYS[k]);
                }
                prop_assert_eq!(got.succeeded, seen.is_some());
                prop_assert_eq!(got.revision, Revision(model.revision));
            }
            Step::Grant(ttl) => {
                let ttl = SimDuration::from_secs(ttl);
                let id = ds.lease_grant(now, ttl);
                prop_assert_eq!(id, LeaseId(model.leases.len() as u64));
                model.leases.push((ttl, now + ttl, true));
            }
            Step::Keepalive(n) => {
                if let Some(id) = model.lease(n) {
                    let lease = &mut model.leases[id.0 as usize];
                    if lease.2 {
                        lease.1 = now + lease.0;
                    }
                    prop_assert_eq!(ds.lease_keepalive(id, now), lease.2);
                }
            }
            Step::Expire(secs) => {
                now += SimDuration::from_secs(secs);
                prop_assert_eq!(ds.expire_leases(now), model.expire(now));
            }
        }
        prop_assert_eq!(ds.revision(), Revision(model.revision));
        prop_assert_eq!(ds.len(), model.keys.len());
    }
    let want: Vec<KeyValue> = model.keys.values().cloned().collect();
    prop_assert_eq!(ds.range(""), want);
    for k in KEYS {
        prop_assert_eq!(ds.get(k), model.keys.get(k).cloned());
    }
    if let Some(w) = watcher {
        let got: Vec<_> = (w.drain().into_iter())
            .map(|e| (e.kind, e.key, e.value, e.revision))
            .collect();
        prop_assert_eq!(got, model.events);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Puts, leased puts, deletes, CAS transactions and lease expiry
    /// agree with the naive model on every key's value, revisions,
    /// version and lease, and on every watch event, whether or not a
    /// watcher is attached.
    #[test]
    fn store_matches_full_metadata_model(steps in proptest::collection::vec(arb_step(), 1..160)) {
        check_against_model(&steps, false)?;
        check_against_model(&steps, true)?;
    }
}
