//! `gfaas` — umbrella crate for the GPU-enabled FaaS reproduction.
//!
//! This crate re-exports the workspace's public crates under one roof and
//! owns the repo-level integration tests (`tests/`) and runnable examples
//! (`examples/`). See the per-crate docs for the architecture:
//!
//! * [`sim`] — deterministic discrete-event simulation core;
//! * [`gpu`] — the simulated GPU device model;
//! * [`trace`] — Azure-trace-shaped workload synthesis;
//! * [`workload`] — composable scenario generation and the scenario registry;
//! * [`models`] — the Table I model zoo and profiler;
//! * [`faas`] — the FaaS substrate (datastore, gateway, watchdog);
//! * [`core`] — LALB/LALB+O3 scheduling and cache management;
//! * [`live`] — live serving: the CPU tensor engine, miniature networks
//!   and `LiveServer`, off the simulation path;
//! * [`mod@bench`] — the experiment harness behind the paper figures.

#![warn(missing_docs)]

pub use gfaas_bench as bench;
pub use gfaas_core as core;
pub use gfaas_faas as faas;
pub use gfaas_gpu as gpu;
pub use gfaas_live as live;
pub use gfaas_models as models;
pub use gfaas_sim as sim;
pub use gfaas_trace as trace;
pub use gfaas_workload as workload;
