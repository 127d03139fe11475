//! `gfaas-gpu` — a deterministic simulated GPU device.
//!
//! The paper evaluates on three nodes with four GeForce RTX 2080 GPUs each.
//! We have no silicon, so this crate substitutes a device *model* that
//! reproduces exactly the properties the paper's scheduler and cache manager
//! depend on:
//!
//! 1. **Bounded residency with OOM semantics** — [`device::GpuDevice`]
//!    holds the sorted list of resident models and their bytes against
//!    the 8 GiB capacity; a load that does not fit is an explicit error,
//!    mirroring CUDA's `cudaErrorMemoryAllocation`.
//! 2. **PCIe model-upload cost** — [`pcie::PcieModel`] converts a model's
//!    byte size into a transfer latency. Calibrated against Table I of the
//!    paper: an effective ~1.6 GB/s link plus a fixed process-init overhead
//!    reproduces the paper's measured 2.3–4.4 s load times.
//! 3. **SM utilisation accounting** — [`sm::SmTracker`] integrates the time
//!    the streaming multiprocessors spend in inference compute (upload time
//!    counts as zero SM), which is what Fig 4c plots.
//!
//! The split is one record per fact: the device holds *what is resident*;
//! what runs, and until when, is held by the cluster's per-GPU unit
//! (`gfaas-core`'s `GpuUnit`), which also enforces the paper's
//! one-request-at-a-time rule. The device is *passive*: all timestamps are
//! supplied by the caller, so the same device code runs under virtual time
//! in experiments and in the live server.

#![warn(missing_docs)]

pub mod device;
pub mod pcie;
pub mod sm;

pub use device::{GpuDevice, GpuError, GpuSpec};
pub use pcie::PcieModel;
pub use sm::SmTracker;

/// Identifies one physical GPU in the cluster (unique across nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GpuId(pub u16);

impl std::fmt::Display for GpuId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gpu{}", self.0)
    }
}

/// Identifies one inference model (the unit of caching in GPU memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModelId(pub u32);

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "model{}", self.0)
    }
}

/// Bytes in one mebibyte; Table I sizes are given in MB (interpreted MiB).
pub const MIB: u64 = 1024 * 1024;

/// One level of the model-storage hierarchy a load is served from.
///
/// Tier 0 is device HBM (residency — a cache hit, no load at all); higher
/// numbers are further from the silicon and slower to serve. The default
/// stack used by `gfaas-store` is HBM ↔ host RAM ↔ origin (SSD/remote),
/// but the newtype supports arbitrarily deep stacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tier(pub u8);

impl Tier {
    /// Device HBM — the serving tier of a resident (cache-hit) model.
    pub const HBM: Tier = Tier(0);
    /// Host RAM — a demoted or prefetched model, one PCIe hop away.
    pub const HOST: Tier = Tier(1);
    /// The origin store (SSD/remote) — a fully cold model.
    pub const ORIGIN: Tier = Tier(2);

    /// Short human-readable label ("hbm" / "host" / "origin" / "tierN").
    pub fn label(&self) -> std::borrow::Cow<'static, str> {
        match self.0 {
            0 => "hbm".into(),
            1 => "host".into(),
            2 => "origin".into(),
            n => format!("tier{n}").into(),
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}
