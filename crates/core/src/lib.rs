//! `gfaas-core` — the paper's contribution: GPU-enabled FaaS with
//! co-designed scheduling and cache management.
//!
//! Three components extend the FaaS substrate (`gfaas-faas`) with GPU
//! support (paper Fig 2):
//!
//! * [`cache::CacheManager`] — global; treats models uploaded to each GPU's
//!   memory as cache items, asks its pluggable [`cache::Evictor`] for
//!   victims on misses (per-GPU LRU by default; FIFO/random for the §VI
//!   ablation, TinyLFU for drift-heavy workloads), and maintains the
//!   model→GPUs residency index the scheduler searches.
//! * [`gpu_manager`] — per-GPU execution state: the local queue, the
//!   in-flight request, hit counters, and the estimated-finish-time
//!   computation Algorithm 2 compares against model load time.
//! * [`scheduler`] — the policy surface: the open
//!   [`scheduler::SchedulerPolicy`] trait plus the paper's impls — the
//!   load-balancing baseline (**LB**), locality-aware load balancing
//!   (**LALB**, Algorithms 1–2), and LALB with out-of-order dispatch
//!   (**LALB+O3**) with its starvation limit.
//!
//! Schedulers and evictors are named by string specs (`"lalbo3:25"`,
//! `"tinylfu:0.9"`) resolved through [`policy::PolicyRegistry`]; a spec
//! is the only way to name a policy.
//!
//! Beyond the paper's fixed 12-GPU testbed, [`autoscale`] adds elastic
//! capacity: an open [`autoscale::Autoscaler`] trait stepped on a virtual
//! cadence over a borrowed [`cluster::ScaleView`], with a builtin
//! queue-pressure hysteresis policy
//! (`ClusterConfig::autoscale = Some("queue:min=4,max=16,up=12,down=2".parse()?)`)
//! that provisions cold GPUs under backlog and drains idle ones — no
//! request lost — when the queue stays quiet.
//!
//! [`cluster::Cluster`] wires everything to the discrete-event engine and
//! runs a workload trace to completion, producing [`metrics::RunMetrics`] —
//! exactly the quantities the paper's Figs 4–7 plot (average latency,
//! cache miss ratio, SM utilisation, false-miss ratio, hot-model
//! duplicates, latency variance).

#![warn(missing_docs)]

pub mod autoscale;
pub mod batching;
pub mod cache;
pub mod cluster;
pub mod config;
pub mod gpu_manager;
pub mod metrics;
pub mod policy;
pub mod request;
pub mod scheduler;
#[cfg(feature = "simcheck")]
pub mod simcheck;
pub mod tinylfu;

/// Re-export of the observability layer ([`gfaas_obs`]): the [`obs::Recorder`]
/// trait the cluster's lifecycle hooks feed, the concrete recorders
/// (ledger / Perfetto / sampler), and the `--record` spec.
pub use gfaas_obs as obs;

/// Re-export of the versioned-state layer ([`gfaas_snap`]): the pin
/// stack and per-pin write sets ([`snap::PinStack`], [`snap::PinnedVec`],
/// [`snap::PinnedDeque`]) behind [`cluster::Cluster::snapshot`] /
/// [`cluster::Cluster::rollback`], plus the checkpoint wire codec
/// ([`snap::Enc`] / [`snap::Dec`]) and its header/digest helpers.
pub use gfaas_snap as snap;

/// Re-export of the storage hierarchy ([`gfaas_store`]): the
/// [`store::ModelStore`] backend trait behind the cluster's load path,
/// the flat (paper-identical) and tiered (HBM ↔ host ↔ origin) backends,
/// and the `flat` | `tiered:host=64G,…` spec grammar.
pub use gfaas_store as store;

pub use autoscale::{
    AutoscaleError, AutoscaleSpec, Autoscaler, QueuePressureAutoscaler, ScaleDecision,
};
pub use batching::{AdaptiveBatch, BatchPlan, BatchPolicy, BatchView, CoalesceBatch, NoBatch};
pub use cache::{CacheManager, Evictor, FifoEvictor, LruEvictor, RandomEvictor};
pub use cluster::{Cluster, ScaleView, SchedCtx, SpecScore};
pub use config::{ClusterConfig, ConfigError};
pub use gfaas_obs::{NullRecorder, ObsEvent, RecordSpec, Recorder, SelfProfile};
pub use gfaas_store::{FlatStore, ModelStore, StoreError, StoreSpec, StoreStats, TieredStore};
pub use metrics::RunMetrics;
pub use policy::{PolicyError, PolicyRegistry, PolicySpec};
pub use request::Request;
pub use scheduler::{
    Dispatch, LalbScheduler, LbScheduler, LookaheadScheduler, Placement, SchedulerPolicy,
};
pub use tinylfu::TinyLfuEvictor;
