//! TTL leases on the virtual clock.
//!
//! A lease grants a time-to-live; keys attached to it vanish when the lease
//! expires (unless kept alive), so a crashed writer's stale claim
//! disappears instead of attracting work forever. The datastore mirror
//! attaches none: the cluster re-publishes a crashed GPU's status and LRU
//! list itself (`mirror`).

use gfaas_sim::time::{SimDuration, SimTime};

/// Identifies one lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LeaseId(pub u64);

/// A granted lease.
#[derive(Debug, Clone)]
pub(super) struct Lease {
    pub(super) ttl: SimDuration,
    pub(super) expires_at: SimTime,
}

impl Lease {
    pub(super) fn new(now: SimTime, ttl: SimDuration) -> Self {
        Lease {
            ttl,
            expires_at: now + ttl,
        }
    }

    /// Pushes the expiry out by one TTL from `now`.
    pub(super) fn keepalive(&mut self, now: SimTime) {
        self.expires_at = now + self.ttl;
    }

    pub(super) fn expired(&self, now: SimTime) -> bool {
        now >= self.expires_at
    }
}
