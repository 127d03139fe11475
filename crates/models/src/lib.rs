//! `gfaas-models` — the paper's inference-model workload.
//!
//! Table I of the paper profiles 22 production CNN models: their GPU-memory
//! occupancy when serving batch-32 inference, their load (host→GPU upload)
//! time, and their inference latency. Those three numbers are everything
//! the scheduler and cache manager consume, so this crate embeds the table
//! verbatim ([`zoo`]) and wraps it in:
//!
//! * [`registry::ModelRegistry`] — id/name lookup plus the
//!   [`registry::LatencyProfile`] the cluster driver queries (occupancy
//!   bytes, load time, inference time as a function of batch size);
//! * [`profiler`] — the §IV-A profiling procedure: measure each model's
//!   load time through the PCIe model and fit inference-time-vs-batch-size
//!   with least-squares [`regression`], regenerating Table I.

#![warn(missing_docs)]

pub mod profiler;
pub mod registry;
pub mod regression;
pub mod zoo;

pub use registry::{LatencyProfile, ModelRegistry};
pub use zoo::{Family, ModelSpec, TABLE1};
