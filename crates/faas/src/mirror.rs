//! Datastore mirroring (paper Fig 2): the GPU Managers publish each
//! GPU's status and LRU list to etcd, and each completion its latency.
//! This module alone knows the key layout.

use std::sync::Arc;

use gfaas_gpu::{GpuId, ModelId};
use gfaas_obs::{ObsEvent, Recorder};
use gfaas_sim::time::SimTime;

use crate::datastore::Datastore;

/// Key of a GPU's status: `busy`, `idle` or `offline`.
pub fn status_key(gpu: GpuId) -> String {
    format!("/gpu/{}/status", gpu.0)
}

/// Key of a GPU's LRU list: comma-separated model ids, coldest first.
pub fn lru_key(gpu: GpuId) -> String {
    format!("/gpu/{}/lru", gpu.0)
}

/// Key of a completed request's latency, in seconds.
pub fn latency_key(req: u64) -> String {
    format!("/latency/{req}")
}

/// A [`Recorder`] that turns the cluster's event stream into puts.
#[derive(Debug)]
pub struct DatastoreMirror(pub Arc<Datastore>);

impl Recorder for DatastoreMirror {
    fn record(&mut self, _t: SimTime, ev: &ObsEvent<'_>) {
        let ds = &self.0;
        let lru = |gpu, resident: &[ModelId]| {
            let list: Vec<String> = resident.iter().map(|m| m.0.to_string()).collect();
            ds.put(lru_key(gpu), list.join(","));
        };
        match *ev {
            ObsEvent::HoldStart { gpu, .. } | ObsEvent::Dispatch { gpu, hit: true, .. } => {
                ds.put(status_key(gpu), "busy");
            }
            ObsEvent::LoadStart { gpu, resident, .. } => {
                lru(gpu, resident);
                ds.put(status_key(gpu), "busy");
            }
            // Not `UnitIdle`, which a draining unit skips.
            ObsEvent::InvocationDone { gpu, .. } | ObsEvent::ScaleUp { gpu } => {
                ds.put(status_key(gpu), "idle");
            }
            ObsEvent::Crash { gpu, resident, .. } => {
                ds.put(status_key(gpu), "idle");
                lru(gpu, resident);
            }
            ObsEvent::Offline { gpu, resident } => {
                ds.put(status_key(gpu), "offline");
                lru(gpu, resident);
            }
            ObsEvent::Completion { req, latency, .. } => {
                ds.put(latency_key(req), format!("{:.6}", latency.as_secs_f64()));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datastore_keys_are_stable() {
        assert_eq!(status_key(GpuId(7)), "/gpu/7/status");
        assert_eq!(lru_key(GpuId(0)), "/gpu/0/lru");
        assert_eq!(latency_key(42), "/latency/42");
    }
}
