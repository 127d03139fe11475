//! An etcd-like versioned key-value store.
//!
//! The paper stores GPU status, per-GPU LRU lists, and request latencies in
//! etcd (§III-E). This module reproduces the etcd semantics those uses rely
//! on, in-process:
//!
//! * a **monotone revision counter** bumped by every mutation, with per-key
//!   create/mod revisions and versions (`kv`);
//! * **prefix ranges** over a sorted keyspace;
//! * **compare-and-swap transactions** (`txn`);
//! * **watches** delivering put/delete events over channels (`watch`);
//! * **TTL leases** that expire keys on the virtual clock (`lease`).
//!
//! The store is mutex-serialised, which trivially provides the
//! linearizability etcd's raft provides; distributed replication is not
//! modelled, since no result the paper reports depends on it.

mod kv;
mod lease;
mod txn;
mod watch;

pub use kv::{Datastore, KeyValue, Revision};
pub use lease::LeaseId;
pub use txn::{Compare, Op, TxnResult};
pub use watch::{WatchEvent, WatchEventKind, Watcher};
