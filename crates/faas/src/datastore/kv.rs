//! The store itself: revisions, ranges, transactions, watches, leases.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::btree_map::Entry as Slot;
use std::collections::BTreeMap;
use std::num::NonZeroU8;
use std::ops::Bound;

use bytes::Bytes;
use crossbeam::channel::unbounded;
use gfaas_sim::time::{SimDuration, SimTime};
use parking_lot::Mutex;

use super::lease::{Lease, LeaseId};
use super::txn::{Compare, Op, TxnResult};
use super::watch::{WatchEvent, WatchEventKind, WatchSink, Watcher};

/// A monotone store revision; every mutation bumps it by one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Revision(pub u64);

/// A stored key with its metadata (etcd's `KeyValue`).
#[derive(Debug, Clone, PartialEq)]
pub struct KeyValue {
    /// The key.
    pub key: String,
    /// The value.
    pub value: Bytes,
    /// Revision at which the key was created.
    pub create_revision: Revision,
    /// Revision of the last modification.
    pub mod_revision: Revision,
    /// Number of modifications since creation (1 = freshly created).
    pub version: u64,
    /// Attached lease, if any.
    pub lease: Option<LeaseId>,
}

/// Longest key a [`Key`] holds without a heap allocation.
const INLINE_KEY: usize = 23;
/// Longest value a [`Value`] holds without a heap allocation.
const INLINE_VALUE: usize = 22;

/// Copies a short slice into the front of a zeroed array.
fn inline<const N: usize>(src: &[u8]) -> [u8; N] {
    let mut buf = [0; N];
    buf[..src.len()].copy_from_slice(src);
    buf
}

/// A stored key, ordered by its bytes (which is `str`'s order). Keys of
/// up to [`INLINE_KEY`] bytes live in the map node itself, so inserting
/// a fresh short key allocates nothing beyond the node.
#[derive(Debug)]
enum Key {
    /// `len` is the length plus one: its zero is the niche that tags
    /// `Heap`, which keeps a `Key` at 24 bytes.
    Inline {
        bytes: [u8; INLINE_KEY],
        len: NonZeroU8,
    },
    Heap(Box<[u8]>),
}

const _: () = assert!(std::mem::size_of::<Key>() == 24);

impl Key {
    fn new(key: &[u8]) -> Self {
        if key.len() <= INLINE_KEY {
            Key::Inline {
                bytes: inline(key),
                len: NonZeroU8::MIN.saturating_add(key.len() as u8),
            }
        } else {
            Key::Heap(key.into())
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match self {
            Key::Inline { bytes, len } => &bytes[..usize::from(len.get() - 1)],
            Key::Heap(bytes) => bytes,
        }
    }

    /// An inline key as three big-endian words: its zero-padded bytes,
    /// then `len`. Comparing the words is comparing the keys' bytes,
    /// since where the padded bytes tie the shorter key is a prefix of
    /// the longer, and `len` puts it first.
    fn words(bytes: &[u8; INLINE_KEY], len: NonZeroU8) -> [u64; 3] {
        let word = |i: usize| u64::from_be_bytes(bytes[i..i + 8].try_into().expect("eight bytes"));
        [word(0), word(8), word(15) << 8 | u64::from(len.get())]
    }

    fn to_owned_string(&self) -> String {
        std::str::from_utf8(self.as_bytes())
            .expect("every key is written from a `str`")
            .to_owned()
    }
}

impl Borrow<[u8]> for Key {
    fn borrow(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Key::Inline { bytes: a, len: la }, Key::Inline { bytes: b, len: lb }) => {
                Key::words(a, *la).cmp(&Key::words(b, *lb))
            }
            _ => self.as_bytes().cmp(other.as_bytes()),
        }
    }
}

/// A stored value: up to [`INLINE_VALUE`] bytes in place, longer ones
/// shared.
#[derive(Debug)]
enum Value {
    Inline { bytes: [u8; INLINE_VALUE], len: u8 },
    Shared(Bytes),
}

impl Value {
    fn new(value: &[u8]) -> Self {
        if value.len() <= INLINE_VALUE {
            Value::Inline {
                bytes: inline(value),
                len: value.len() as u8,
            }
        } else {
            Value::Shared(Bytes::copy_from_slice(value))
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match self {
            Value::Inline { bytes, len } => &bytes[..usize::from(*len)],
            Value::Shared(bytes) => bytes,
        }
    }

    fn to_bytes(&self) -> Bytes {
        match self {
            Value::Inline { .. } => Bytes::copy_from_slice(self.as_bytes()),
            Value::Shared(bytes) => bytes.clone(),
        }
    }
}

/// A key's value and metadata; [`KeyValue`] is built from it on reads.
#[derive(Debug)]
struct Entry {
    value: Value,
    create_revision: Revision,
    mod_revision: Revision,
    version: u64,
    lease: Option<LeaseId>,
}

impl Entry {
    fn to_key_value(&self, key: &Key) -> KeyValue {
        KeyValue {
            key: key.to_owned_string(),
            value: self.value.to_bytes(),
            create_revision: self.create_revision,
            mod_revision: self.mod_revision,
            version: self.version,
            lease: self.lease,
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    revision: u64,
    map: BTreeMap<Key, Entry>,
    watchers: Vec<WatchSink>,
    // Keyed by a `BTreeMap` so `expire_leases` visits due leases in id
    // order: the expiry-delete sequence (and hence revision numbers and
    // watch-event order) must not depend on hash iteration order.
    leases: BTreeMap<LeaseId, Lease>,
    next_lease: u64,
}

impl Inner {
    fn bump(&mut self) -> Revision {
        self.revision += 1;
        Revision(self.revision)
    }

    /// Offers a change to the watchers; the event is built only if one
    /// is attached.
    fn notify(&mut self, kind: WatchEventKind, key: &str, value: &[u8], revision: Revision) {
        if self.watchers.is_empty() {
            return;
        }
        let event = WatchEvent {
            kind,
            key: key.to_owned(),
            value: Bytes::copy_from_slice(value),
            revision,
        };
        self.watchers.retain(|w| w.offer(&event));
    }

    fn put(&mut self, key: &str, value: &[u8], lease: Option<LeaseId>) -> Revision {
        let rev = self.bump();
        let stored = Value::new(value);
        match self.map.entry(Key::new(key.as_bytes())) {
            Slot::Occupied(mut slot) => {
                let e = slot.get_mut();
                e.value = stored;
                e.mod_revision = rev;
                e.version += 1;
                e.lease = lease.or(e.lease);
            }
            Slot::Vacant(slot) => {
                slot.insert(Entry {
                    value: stored,
                    create_revision: rev,
                    mod_revision: rev,
                    version: 1,
                    lease,
                });
            }
        }
        self.notify(WatchEventKind::Put, key, value, rev);
        rev
    }

    fn delete(&mut self, key: &str) -> Option<Revision> {
        self.map.remove(key.as_bytes())?;
        let rev = self.bump();
        self.notify(WatchEventKind::Delete, key, &[], rev);
        Some(rev)
    }

    fn check(&self, cmp: &Compare) -> bool {
        let entry = |k: &String| self.map.get(k.as_bytes());
        match cmp {
            Compare::Exists(k) => entry(k).is_some(),
            Compare::NotExists(k) => entry(k).is_none(),
            Compare::ValueEquals(k, v) => entry(k).is_some_and(|e| e.value.as_bytes() == &v[..]),
            Compare::ModRevisionEquals(k, r) => entry(k).is_some_and(|e| e.mod_revision == *r),
        }
    }
}

/// The etcd-like store. Cheap to share: clone an `&Datastore` into each
/// component; all methods take `&self`.
#[derive(Debug, Default)]
pub struct Datastore {
    inner: Mutex<Inner>,
}

impl Datastore {
    /// An empty store at revision 0.
    pub fn new() -> Self {
        Datastore::default()
    }

    /// The current revision.
    pub fn revision(&self) -> Revision {
        Revision(self.inner.lock().revision)
    }

    /// Writes a key, returning the new revision. The value is copied.
    pub fn put(&self, key: impl AsRef<str>, value: impl AsRef<[u8]>) -> Revision {
        self.inner.lock().put(key.as_ref(), value.as_ref(), None)
    }

    /// Writes a key attached to a lease.
    pub fn put_with_lease(
        &self,
        key: impl AsRef<str>,
        value: impl AsRef<[u8]>,
        lease: LeaseId,
    ) -> Revision {
        self.inner
            .lock()
            .put(key.as_ref(), value.as_ref(), Some(lease))
    }

    /// Reads a key.
    pub fn get(&self, key: impl AsRef<str>) -> Option<KeyValue> {
        let inner = self.inner.lock();
        let (k, e) = inner.map.get_key_value(key.as_ref().as_bytes())?;
        Some(e.to_key_value(k))
    }

    /// Reads all keys with the given prefix, in key order.
    pub fn range(&self, prefix: impl AsRef<str>) -> Vec<KeyValue> {
        let prefix = prefix.as_ref().as_bytes();
        let inner = self.inner.lock();
        inner
            .map
            .range::<[u8], _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(|(k, _)| k.as_bytes().starts_with(prefix))
            .map(|(k, e)| e.to_key_value(k))
            .collect()
    }

    /// Deletes a key; returns the revision if it existed.
    pub fn delete(&self, key: impl AsRef<str>) -> Option<Revision> {
        self.inner.lock().delete(key.as_ref())
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True iff the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Atomically: if all `compares` hold, apply `then_ops`, else
    /// `else_ops` (etcd's transaction).
    pub fn txn(&self, compares: &[Compare], then_ops: &[Op], else_ops: &[Op]) -> TxnResult {
        let mut inner = self.inner.lock();
        let succeeded = compares.iter().all(|c| inner.check(c));
        let ops = if succeeded { then_ops } else { else_ops };
        for op in ops {
            match op {
                Op::Put(k, v) => {
                    inner.put(k, v, None);
                }
                Op::Delete(k) => {
                    inner.delete(k);
                }
            }
        }
        TxnResult {
            succeeded,
            revision: Revision(inner.revision),
        }
    }

    /// Subscribes to changes under a prefix. Events from mutations after
    /// this call are delivered in revision order.
    pub fn watch(&self, prefix: impl Into<String>) -> Watcher {
        let prefix = prefix.into();
        let (tx, rx) = unbounded();
        self.inner.lock().watchers.push(WatchSink {
            prefix: prefix.clone(),
            tx,
        });
        Watcher { prefix, rx }
    }

    /// Grants a lease with the given TTL starting at `now`.
    pub fn lease_grant(&self, now: SimTime, ttl: SimDuration) -> LeaseId {
        let mut inner = self.inner.lock();
        let id = LeaseId(inner.next_lease);
        inner.next_lease += 1;
        inner.leases.insert(id, Lease::new(now, ttl));
        id
    }

    /// Refreshes a lease; returns false if it no longer exists.
    pub fn lease_keepalive(&self, id: LeaseId, now: SimTime) -> bool {
        let mut inner = self.inner.lock();
        match inner.leases.get_mut(&id) {
            Some(l) => {
                l.keepalive(now);
                true
            }
            None => false,
        }
    }

    /// Expires due leases at `now`, deleting their keys (with delete
    /// events) lease by lease in id order, each lease's keys in key
    /// order. Returns the deleted keys.
    pub fn expire_leases(&self, now: SimTime) -> Vec<String> {
        let mut inner = self.inner.lock();
        let dead: Vec<LeaseId> = inner
            .leases
            .iter()
            .filter(|(_, l)| l.expired(now))
            .map(|(&id, _)| id)
            .collect();
        if dead.is_empty() {
            return Vec::new();
        }
        for id in &dead {
            inner.leases.remove(id);
        }
        // One scan of the keyspace, in key order; the stable sort then
        // groups the keys by lease and keeps that order within each.
        let mut doomed: Vec<(LeaseId, String)> = inner
            .map
            .iter()
            .filter_map(|(k, e)| {
                let id = e.lease.filter(|id| dead.binary_search(id).is_ok())?;
                Some((id, k.to_owned_string()))
            })
            .collect();
        doomed.sort_by_key(|&(id, _)| id);
        doomed
            .into_iter()
            .map(|(_, k)| {
                inner.delete(&k);
                k
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn revisions_strictly_increase() {
        let ds = Datastore::new();
        let r1 = ds.put("a", b("1"));
        let r2 = ds.put("b", b("2"));
        let r3 = ds.put("a", b("3"));
        let r4 = ds.delete("b").unwrap();
        assert!(r1 < r2 && r2 < r3 && r3 < r4);
        assert_eq!(ds.revision(), r4);
    }

    #[test]
    fn key_metadata_tracks_versions() {
        let ds = Datastore::new();
        let r1 = ds.put("k", b("v1"));
        let kv = ds.get("k").unwrap();
        assert_eq!(kv.create_revision, r1);
        assert_eq!(kv.mod_revision, r1);
        assert_eq!(kv.version, 1);
        let r2 = ds.put("k", b("v2"));
        let kv = ds.get("k").unwrap();
        assert_eq!(kv.create_revision, r1);
        assert_eq!(kv.mod_revision, r2);
        assert_eq!(kv.version, 2);
        assert_eq!(kv.value, b("v2"));
    }

    #[test]
    fn delete_then_recreate_resets_metadata() {
        let ds = Datastore::new();
        ds.put("k", b("v1"));
        ds.delete("k");
        assert!(ds.get("k").is_none());
        let r = ds.put("k", b("v2"));
        let kv = ds.get("k").unwrap();
        assert_eq!(kv.create_revision, r);
        assert_eq!(kv.version, 1);
    }

    #[test]
    fn range_respects_prefix_and_order() {
        let ds = Datastore::new();
        ds.put("gpu/2/status", b("idle"));
        ds.put("gpu/1/status", b("busy"));
        ds.put("fn/alpha", b("x"));
        ds.put("gpu/10/status", b("idle"));
        let got: Vec<String> = ds.range("gpu/").into_iter().map(|kv| kv.key).collect();
        assert_eq!(got, vec!["gpu/1/status", "gpu/10/status", "gpu/2/status"]);
        assert!(ds.range("nope/").is_empty());
    }

    #[test]
    fn keys_sort_in_byte_order_inline_or_boxed() {
        let ds = Datastore::new();
        let mut keys = vec![
            "",
            "a",
            "a\0",
            "a\0\0",
            "a\u{1}",
            "ab",
            "b",
            "\u{7f}",
            "é",
            "/latency/1234567890123",
            "/latency/12345678901234",
            "/latency/1234567890123\0",
            "/latency/123456789012345",
            "/latency/12345678901234\0",
            "/latency/1234567890123456",
        ];
        for k in keys.iter().rev() {
            ds.put(k, *k);
        }
        keys.sort_unstable();
        let got: Vec<String> = ds.range("").into_iter().map(|kv| kv.key).collect();
        assert_eq!(got, keys);
        for k in keys {
            assert_eq!(ds.get(k).expect("stored").value, k);
        }
    }

    #[test]
    fn txn_cas_succeeds_and_fails_atomically() {
        let ds = Datastore::new();
        ds.put("lock", b("free"));
        let r = ds.txn(
            &[Compare::ValueEquals("lock".into(), b("free"))],
            &[
                Op::Put("lock".into(), b("held")),
                Op::Put("owner".into(), b("me")),
            ],
            &[],
        );
        assert!(r.succeeded);
        assert_eq!(ds.get("lock").unwrap().value, b("held"));
        assert_eq!(ds.get("owner").unwrap().value, b("me"));
        // Second CAS on the stale expectation takes the else branch.
        let r2 = ds.txn(
            &[Compare::ValueEquals("lock".into(), b("free"))],
            &[Op::Put("owner".into(), b("thief"))],
            &[Op::Put("contention".into(), b("1"))],
        );
        assert!(!r2.succeeded);
        assert_eq!(ds.get("owner").unwrap().value, b("me"));
        assert!(ds.get("contention").is_some());
    }

    #[test]
    fn txn_mod_revision_guard() {
        let ds = Datastore::new();
        let r1 = ds.put("k", b("a"));
        ds.put("k", b("b"));
        let r = ds.txn(
            &[Compare::ModRevisionEquals("k".into(), r1)],
            &[Op::Put("k".into(), b("stale-write"))],
            &[],
        );
        assert!(!r.succeeded);
        assert_eq!(ds.get("k").unwrap().value, b("b"));
    }

    #[test]
    fn txn_exists_guards() {
        let ds = Datastore::new();
        let r = ds.txn(
            &[Compare::NotExists("new".into())],
            &[Op::Put("new".into(), b("1"))],
            &[],
        );
        assert!(r.succeeded);
        let r2 = ds.txn(
            &[
                Compare::Exists("new".into()),
                Compare::NotExists("new".into()),
            ],
            &[Op::Delete("new".into())],
            &[],
        );
        assert!(!r2.succeeded, "contradictory compares cannot all hold");
        assert!(ds.get("new").is_some());
    }

    #[test]
    fn watch_delivers_matching_events_in_order() {
        let ds = Datastore::new();
        let w = ds.watch("gpu/");
        ds.put("gpu/0", b("idle"));
        ds.put("fn/x", b("ignored"));
        ds.put("gpu/0", b("busy"));
        ds.delete("gpu/0");
        let events = w.drain();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, WatchEventKind::Put);
        assert_eq!(events[0].value, b("idle"));
        assert_eq!(events[1].value, b("busy"));
        assert_eq!(events[2].kind, WatchEventKind::Delete);
        assert!(events[0].revision < events[1].revision);
        assert!(events[1].revision < events[2].revision);
    }

    #[test]
    fn watch_does_not_see_prior_state() {
        let ds = Datastore::new();
        ds.put("gpu/0", b("pre-existing"));
        let w = ds.watch("gpu/");
        assert!(w.try_next().is_none());
    }

    #[test]
    fn dropped_watcher_is_pruned() {
        let ds = Datastore::new();
        let w = ds.watch("a/");
        drop(w);
        ds.put("a/k", b("v")); // must not panic or leak
        ds.put("a/k", b("v2"));
        assert_eq!(ds.get("a/k").unwrap().value, b("v2"));
    }

    #[test]
    fn lease_expiry_deletes_keys_with_events() {
        let ds = Datastore::new();
        let w = ds.watch("status/");
        let t0 = SimTime::ZERO;
        let lease = ds.lease_grant(t0, SimDuration::from_secs(10));
        ds.put_with_lease("status/gpu0", b("idle"), lease);
        ds.put("status/gpu1", b("idle")); // no lease
        assert!(ds.expire_leases(SimTime::from_secs(5)).is_empty());
        let deleted = ds.expire_leases(SimTime::from_secs(10));
        assert_eq!(deleted, vec!["status/gpu0".to_string()]);
        assert!(ds.get("status/gpu0").is_none());
        assert!(ds.get("status/gpu1").is_some());
        let events = w.drain();
        assert_eq!(events.last().unwrap().kind, WatchEventKind::Delete);
    }

    #[test]
    fn keepalive_extends_lease() {
        let ds = Datastore::new();
        let lease = ds.lease_grant(SimTime::ZERO, SimDuration::from_secs(10));
        ds.put_with_lease("k", b("v"), lease);
        assert!(ds.lease_keepalive(lease, SimTime::from_secs(8)));
        assert!(ds.expire_leases(SimTime::from_secs(12)).is_empty());
        let dead = ds.expire_leases(SimTime::from_secs(18));
        assert_eq!(dead.len(), 1);
        assert!(!ds.lease_keepalive(lease, SimTime::from_secs(19)));
    }

    #[test]
    fn concurrent_access_is_safe() {
        use std::sync::Arc;
        let ds = Arc::new(Datastore::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let ds = Arc::clone(&ds);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    ds.put(format!("t{t}/k{i}"), Bytes::from(vec![t as u8]));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ds.len(), 800);
        assert_eq!(ds.revision(), Revision(800));
    }
}
