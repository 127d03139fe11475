//! GPU processes: one resident process per cached model.
//!
//! In the paper's design (§III-C) the GPU Manager starts one GPU process per
//! model; the process uploads the model at spawn and then serves inference
//! requests forwarded to it. Evicting the model kills the process. The
//! process is therefore also the cache item: "model resident" and "process
//! alive" are the same fact.

use crate::memory::AllocId;
use crate::ModelId;
use gfaas_sim::time::SimTime;

/// Identifies one GPU process (unique per device for its lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub u64);

/// Lifecycle of a GPU process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// Uploading its model over PCIe; finishes at the embedded time.
    Loading {
        /// When the upload completes.
        until: SimTime,
    },
    /// Model resident, no request in flight.
    Ready,
    /// Serving an inference; finishes at the embedded time.
    Running {
        /// When the inference completes.
        until: SimTime,
    },
}

/// A resident GPU process serving one model.
#[derive(Debug, Clone, Copy)]
pub struct GpuProcess {
    /// Process id, unique within its device.
    pub pid: ProcId,
    /// The model this process serves (the cache item).
    pub model: ModelId,
    /// Device-memory allocation backing the model weights.
    pub alloc: AllocId,
    /// Current lifecycle state.
    pub state: ProcState,
    /// When the process was spawned.
    pub spawned_at: SimTime,
    /// Completed inferences served by this process.
    pub inferences: u64,
}

impl GpuProcess {
    /// Creates a process that starts uploading immediately.
    pub fn spawn(
        pid: ProcId,
        model: ModelId,
        alloc: AllocId,
        at: SimTime,
        ready_at: SimTime,
    ) -> Self {
        GpuProcess {
            pid,
            model,
            alloc,
            state: ProcState::Loading { until: ready_at },
            spawned_at: at,
            inferences: 0,
        }
    }

    /// True iff the model is resident and no request is in flight.
    pub fn is_ready(&self) -> bool {
        matches!(self.state, ProcState::Ready)
    }

    /// True iff the process is still uploading its model.
    pub fn is_loading(&self) -> bool {
        matches!(self.state, ProcState::Loading { .. })
    }

    /// True iff the process is serving an inference.
    pub fn is_running(&self) -> bool {
        matches!(self.state, ProcState::Running { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_starts_loading() {
        let p = GpuProcess::spawn(
            ProcId(1),
            ModelId(7),
            AllocId(0),
            SimTime::from_secs(1),
            SimTime::from_secs(4),
        );
        assert!(p.is_loading());
        assert!(!p.is_ready());
        assert!(!p.is_running());
        assert_eq!(p.inferences, 0);
        assert_eq!(
            p.state,
            ProcState::Loading {
                until: SimTime::from_secs(4)
            }
        );
    }
}
