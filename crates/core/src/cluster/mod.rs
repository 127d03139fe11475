//! The cluster driver: Scheduler + Cache Manager + GPU Managers wired to
//! the discrete-event engine.
//!
//! This is the executable form of the paper's Fig 2/Fig 3 architecture.
//! The driver owns the global queue, the per-GPU units (local queue +
//! device), and the cache manager, and advances everything on virtual
//! time. Two kinds of occurrence drive it:
//!
//! * an *arrival* — a trace request enters the global queue; the scheduler
//!   runs if any GPU is idle. Arrivals stream straight from the
//!   time-sorted trace through a cursor, so the event heap only ever
//!   holds runtime events and stays fleet-sized even on million-request
//!   traces.
//! * `GpuDone` — a GPU finished its in-flight phase. A completed *load*
//!   rolls straight into the inference that triggered it; a completed
//!   *inference* records metrics, frees the GPU, and re-runs the scheduler.
//!
//! Scheduling passes implement §IV faithfully:
//!
//! * a pass runs "when at least one request is waiting in the global queue
//!   and at least one GPU is idle" — and additionally whenever an idle
//!   GPU has local-queue work, which Algorithm 1 always serves first;
//! * the active [`SchedulerPolicy`] orders the idle GPUs (frequency order
//!   for the locality-aware policies, longest-idle for LB) and answers
//!   one [`Dispatch`](crate::scheduler::Dispatch) per idle GPU through
//!   a borrowed [`SchedCtx`] view of the queue/residency/finish-time
//!   state;
//! * Algorithm 1's visit counters and Algorithm 2's hit-elsewhere /
//!   wait-on-busy arms live in the policy impls
//!   (see [`crate::scheduler`]).
//!
//! This root holds the event loop and its handlers. The subsystems it
//! delegates to live next to it: `dispatch` (the schedule pass,
//! dispatch execution, the Algorithm-2 wait estimator and [`SchedCtx`]),
//! `batch` (holds, coalescing, top-ups), `drain` (scale-up,
//! scale-down, drain and [`ScaleView`]), `persist` (pins, rollback,
//! checkpoints and their codecs) and `speculate` (the lookahead fork
//! engine).

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Arc;

use gfaas_faas::{mirror::DatastoreMirror, Datastore};
use gfaas_gpu::{GpuDevice, GpuId, GpuSpec, ModelId};
use gfaas_models::ModelRegistry;
use gfaas_obs::ledger::{Ledger, LedgerHandle, LedgerRecorder};
use gfaas_obs::perfetto::{PerfettoHandle, PerfettoRecorder};
use gfaas_obs::sampler::{SamplerRecorder, SeriesHandle, TimeSeries};
use gfaas_obs::{GpuSample, MultiRecorder, ObsEvent, Recorder, SampleView, SelfProfile};
use gfaas_sim::event::EventQueue;
use gfaas_sim::rng::DetRng;
use gfaas_sim::time::{SimDuration, SimTime};
use gfaas_snap::{PinStack, PinnedDeque, PinnedVec, PreImage};
use gfaas_store::{ModelStore, StoreStats};
use gfaas_trace::Trace;

use crate::autoscale::{Autoscaler, ScaleDecision};
use crate::batching::BatchPolicy;
use crate::cache::{CacheManager, Evictor};
use crate::config::{ClusterConfig, ConfigError};
use crate::gpu_manager::{GpuUnit, Phase, UnitState};
use crate::metrics::{MetricsCollector, RunMetrics};
use crate::policy::PolicyRegistry;
use crate::request::Request;
use crate::scheduler::SchedulerPolicy;
#[cfg(feature = "simcheck")]
use crate::simcheck::SimChecker;

mod batch;
mod dispatch;
mod drain;
mod persist;
mod speculate;
#[cfg(test)]
mod tests;

pub use dispatch::SchedCtx;
pub use drain::ScaleView;
use persist::{PinFrame, Scalars};
pub use speculate::SpecScore;

/// Discrete events driving the cluster.
///
/// GPU events carry the dispatch sequence token of the work they belong
/// to; a crash invalidates the token so the stale completion event is
/// ignored when it fires. `Copy` because a snapshot pin copies the
/// pending event heap (a fleet-sized handful of entries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// The GPU finished its current phase (load or inference).
    GpuDone(GpuId, u64),
    /// The GPU process serving the in-flight request crashed (failure
    /// injection, `ClusterConfig::crash_rate`).
    GpuCrash(GpuId, u64),
    /// The autoscaler's cadence fired: observe the cluster, apply one
    /// scale decision, and re-arm (while requests remain).
    ScaleTick,
    /// A held batch's timer expired (see [`crate::batching`]); the GPU
    /// launches whatever the hold gathered. Carries the hold's sequence
    /// token so a stale timer (the batch filled and launched early) is
    /// ignored.
    BatchHold(GpuId, u64),
    /// The telemetry sampler's cadence fired: snapshot the cluster for
    /// the attached [`Recorder`] and re-arm (while requests remain).
    /// Only ever scheduled when a recorder with a cadence is attached,
    /// so unrecorded runs see an unchanged event stream.
    ObsTick,
}

/// The GPU-enabled FaaS cluster.
pub struct Cluster {
    config: ClusterConfig,
    registry: ModelRegistry,
    /// The per-GPU units. Reads deref to a slice; every write goes
    /// through [`PinnedVec::write`], which saves the unit's pre-image
    /// into the innermost live pin (see [`Cluster::snapshot`]).
    units: PinnedVec<GpuUnit>,
    cache: CacheManager,
    /// The active scheduling policy. Taken out during a pass so the
    /// policy can borrow the cluster through [`SchedCtx`].
    sched: Option<Box<dyn SchedulerPolicy>>,
    /// The active request-batching policy ([`crate::batching`]); the
    /// builtin `none` keeps the paper's per-request dispatch.
    batcher: Box<dyn BatchPolicy>,
    /// The model-store backend behind every cache-miss load
    /// ([`gfaas_store`]); the builtin `flat` keeps the paper's uniform
    /// load times.
    store: Box<dyn ModelStore>,
    /// The global queue. Mutations under a live pin log their positional
    /// inverse; the queue also keeps Σ arrival ticks for fork scoring.
    global_queue: PinnedDeque<Request>,
    metrics: MetricsCollector,
    /// Clock, counters, RNG and arrival cursor: the plain state a pin
    /// copies whole and a checkpoint writes in one block.
    scalars: Scalars,
    /// Elastic capacity policy; `None` is the paper's fixed testbed.
    autoscaler: Option<Box<dyn Autoscaler>>,
    /// Recycled invocation vectors: every dispatch carries its requests in
    /// a `Vec` (through `InFlight`/`HoldSlot`), and completed
    /// invocations return theirs here instead of freeing, so the steady
    /// state allocates nothing per dispatch. Bounded by the fleet size.
    batch_pool: Vec<Vec<Request>>,
    /// Per-unit incremental summary of the local queue (parallel to
    /// `units`), maintained at every push/pop/remove so finish-time
    /// estimates need not walk the queue. See [`LocalAgg`]. Pinned like
    /// `units`.
    local_aggs: PinnedVec<LocalAgg>,
    /// Per-(unit, model) durations, built once: row `gi` holds every
    /// model's [`UnitTimes`] on unit `gi`'s profile. Indexed through
    /// [`Cluster::unit_times`].
    durations: Vec<UnitTimes>,
    /// Recycled buffer for the per-pass idle-GPU candidate list.
    idle_scratch: Vec<GpuId>,
    /// Attached event recorder (see [`gfaas_obs`]). `None` — the default —
    /// is verifiably zero-cost: every hook goes through
    /// [`Cluster::emit_with`], which never builds the [`ObsEvent`] without
    /// a recorder, and no [`Event::ObsTick`] is ever
    /// scheduled, so the event stream and metrics are byte-identical to a
    /// build without the hooks.
    recorder: Option<Box<dyn Recorder>>,
    /// Runtime invariant sanitizer (see [`crate::simcheck`]): observes
    /// arrivals, popped events, and queue-depth updates, asserting
    /// conservation invariants as the run progresses. Absent — not just
    /// inert — without the `simcheck` feature, and it never mutates sim
    /// state, so metrics are byte-identical either way (CI diffs the two
    /// builds on a smoke run).
    #[cfg(feature = "simcheck")]
    simcheck: SimChecker,
    /// Handle to the lifecycle ledger, when `config.record.ledger` is set.
    obs_ledger: Option<LedgerHandle>,
    /// Handle to the Perfetto trace builder, when `config.record.perfetto`
    /// is set.
    obs_perfetto: Option<PerfettoHandle>,
    /// Handle to the time-series sampler, when `config.record.sample_secs`
    /// is set.
    obs_series: Option<SeriesHandle>,
    /// Sampling cadence requested by the recorder (min over children).
    obs_cadence: Option<SimDuration>,
    /// Self-profiler counters for the event loop (always-on: plain
    /// integer bumps, no allocation). See [`SelfProfile`].
    profile: SelfProfile,
    /// Estimator-call count lives in a `Cell` because the estimators
    /// run through `&self`. Pinned with `profile`, and like it left out
    /// of checkpoints.
    estimator_calls: Cell<u64>,
    /// Recycled per-GPU sample buffer for [`ObsEvent::Sample`].
    obs_scratch: Vec<GpuSample>,
    /// The pending runtime-event heap. Owned by the cluster (not the
    /// run loop) so a run can pause at a virtual-time bound
    /// ([`Cluster::run_until`]), be checkpointed, and resume; the drive
    /// loop `mem::take`s it while running.
    events: EventQueue<Event>,
    /// Live pins (see [`gfaas_snap`]): one [`PinFrame`] of fixed-size
    /// state per [`Cluster::snapshot`] or lookahead fork, while `units`,
    /// `local_aggs` and `global_queue` keep the matching write sets.
    /// Empty — and the write paths one untaken branch — unless pins are
    /// in use.
    pins: PinStack<PinFrame>,
}

/// Incremental summary of one GPU's local queue, kept in lockstep with
/// the queue by [`Cluster::agg_push`] / [`Cluster::agg_remove`] /
/// [`Cluster::agg_rebuild`].
///
/// [`GpuUnit::estimated_wait_for`] charges queued work as sums over
/// integer-tick durations: a per-request inference sum, or per-model
/// coalesced group sums up to the request's own group, plus one upload
/// per distinct non-resident model. So the estimate folds into this
/// small state and stays *byte-identical* to the naive O(queue) walk
/// (addition of ticks is commutative and associative; residency is still
/// read at query time). The batched charge stops at the request's own
/// group, so the groups must stay in the order the queue serves them:
/// first-entry order. [`Cluster::estimated_wait_fast`] consumes the
/// summary and carries a debug-build assertion against the naive walk.
#[derive(Debug, Default, Clone)]
struct LocalAgg {
    /// Σ per-request inference time (on this unit's compute profile)
    /// over the local queue — the per-request-dispatch charge.
    infer_sum: SimDuration,
    /// Distinct queued models: `(model, Σ batch items, request count)`,
    /// ordered by each model's first entry in the queue. Entries leave
    /// when their count hits zero.
    groups: Vec<(ModelId, usize, usize)>,
}

/// One model's durations on one unit's profile, at the configured batch
/// size: the products every dispatch and estimate would otherwise redo
/// in `f64`. Computed by the same operations as the direct formula, so
/// each entry is tick-identical to it.
#[derive(Debug, Clone, Copy)]
struct UnitTimes {
    /// `registry.infer_time(m, config.batch_size)` × the unit's compute
    /// scale.
    infer: SimDuration,
    /// The flat load, `registry.load_time(m)` × the unit's PCIe scale —
    /// what the store prices every upload from.
    load: SimDuration,
}

impl PreImage for LocalAgg {
    fn save_from(&mut self, src: &Self) {
        self.infer_sum = src.infer_sum;
        self.groups.clone_from(&src.groups);
    }
}

impl Cluster {
    /// Builds a cluster from a config and a model registry, resolving the
    /// config's policy specs through the builtin [`PolicyRegistry`].
    ///
    /// # Panics
    /// On an invalid config (see [`ClusterConfig::validate`]) or an
    /// unresolvable policy spec; use [`Cluster::try_new`] for a `Result`.
    pub fn new(config: ClusterConfig, registry: ModelRegistry) -> Self {
        Cluster::try_new(config, registry).unwrap_or_else(|e| panic!("invalid cluster config: {e}"))
    }

    /// Builds a cluster from a config and a model registry, resolving the
    /// config's policy specs through the builtin [`PolicyRegistry`].
    pub fn try_new(config: ClusterConfig, registry: ModelRegistry) -> Result<Self, ConfigError> {
        let policies = PolicyRegistry::builtin();
        let sched = policies.scheduler(&config.policy)?;
        let evictor = policies.evictor(&config.replacement, config.seed)?;
        Cluster::with_policies(config, registry, sched, evictor)
    }

    /// Replaces the batching policy with a custom [`BatchPolicy`] impl —
    /// the open path mirroring [`Cluster::with_policies`] for policies
    /// living outside the builtin registry. The config's `batching` spec
    /// is ignored in favour of the given object.
    pub fn set_batcher(&mut self, batcher: Box<dyn BatchPolicy>) {
        self.batcher = batcher;
    }

    /// The active batching policy's display name.
    pub fn batcher_name(&self) -> String {
        self.batcher.name()
    }

    /// The active model-store backend's display name.
    pub fn store_name(&self) -> String {
        self.store.name()
    }

    /// The store backend's counters (host hits, origin loads, prefetches,
    /// demotions, …). Under the flat default only `origin_loads` moves:
    /// every demand load is an origin load.
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Builds a cluster around explicitly constructed policy objects —
    /// the open path for policies living outside the builtin registry.
    /// The config's `policy`/`replacement` specs are ignored in favour of
    /// the given objects.
    pub fn with_policies(
        config: ClusterConfig,
        registry: ModelRegistry,
        sched: Box<dyn SchedulerPolicy>,
        evictor: Box<dyn Evictor>,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        // The Cache Manager provisions against capacity minus the
        // headroom, so every GPU must fit the largest model within that.
        let largest_bytes = registry.ids().map(|m| registry.occupancy_bytes(m)).max();
        let largest_bytes = largest_bytes.unwrap_or(0);
        let headroom = config.mem_headroom_mib.saturating_mul(gfaas_gpu::MIB);
        let specs = config.hetero_specs.as_deref();
        let specs = specs.unwrap_or(std::slice::from_ref(&config.gpu_spec));
        let short = |s: &&GpuSpec| s.memory_bytes.saturating_sub(headroom) < largest_bytes;
        if let Some(s) = specs.iter().find(short) {
            return Err(ConfigError::NoRoom {
                gpu: s.name.clone(),
                headroom_mib: config.mem_headroom_mib,
                largest_bytes,
            });
        }
        // Batching always resolves through the builtin registry (use
        // `set_batcher` for custom policies).
        let batcher = PolicyRegistry::builtin().batcher(&config.batching)?;
        let store = config.store.build()?;
        // An elastic cluster allocates every device it may ever bring
        // online; `num_gpus` (clamped into the autoscale band) of them
        // start online, the rest wait offline for a scale-up.
        let total_units = config
            .autoscale
            .as_ref()
            .map_or(config.num_gpus, |a| a.max_gpus);
        let initial_online = config.autoscale.as_ref().map_or(config.num_gpus, |a| {
            config.num_gpus.clamp(a.min_gpus, a.max_gpus)
        });
        let autoscaler = config.autoscale.as_ref().map(|a| a.build()).transpose()?;
        let units: Vec<GpuUnit> = (0..total_units)
            .map(|i| {
                let spec = config
                    .hetero_specs
                    .as_ref()
                    .map(|s| s[i].clone())
                    .unwrap_or_else(|| config.gpu_spec.clone());
                let mut unit = GpuUnit::new(GpuDevice::new(GpuId(i as u16), spec));
                if i >= initial_online {
                    unit.state = UnitState::Offline;
                }
                unit
            })
            .collect();
        let cache = CacheManager::with_evictor(units.iter().map(|u| u.id()), evictor);
        let durations = units
            .iter()
            .flat_map(|u| {
                let spec = u.device.spec();
                registry.ids().map(|m| UnitTimes {
                    infer: registry
                        .infer_time(m, config.batch_size)
                        .mul_f64(spec.compute_scale),
                    load: registry.load_time(m).mul_f64(spec.load_scale),
                })
            })
            .collect();
        let rng = DetRng::new(config.seed ^ 0xc4a5);
        // Build the recorder stack from the config's record spec. Off by
        // default: `recorder` stays `None` and every hook is a dead branch.
        let mut multi = MultiRecorder::default();
        let mut obs_ledger = None;
        let mut obs_perfetto = None;
        let mut obs_series = None;
        if config.record.ledger {
            let slo = config.record.slo_secs.map(SimDuration::from_secs_f64);
            let (rec, handle) = LedgerRecorder::new(slo);
            multi.push(Box::new(rec));
            obs_ledger = Some(handle);
        }
        if config.record.perfetto {
            let (rec, handle) = PerfettoRecorder::new();
            multi.push(Box::new(rec));
            obs_perfetto = Some(handle);
        }
        if let Some(secs) = config.record.sample_secs {
            let (rec, handle) = SamplerRecorder::new(SimDuration::from_secs_f64(secs));
            multi.push(Box::new(rec));
            obs_series = Some(handle);
        }
        let recorder = multi.into_recorder();
        let obs_cadence = recorder.as_ref().and_then(|r| r.sample_cadence());
        Ok(Cluster {
            config,
            registry,
            units: PinnedVec::new(units),
            cache,
            sched: Some(sched),
            batcher,
            store,
            global_queue: PinnedDeque::new(),
            metrics: MetricsCollector::new(),
            scalars: Scalars {
                rng,
                online_low: initial_online,
                online_high: initial_online,
                idle_online: initial_online,
                ..Scalars::default()
            },
            autoscaler,
            batch_pool: Vec::new(),
            local_aggs: PinnedVec::new(vec![LocalAgg::default(); total_units]),
            durations,
            idle_scratch: Vec::new(),
            recorder,
            #[cfg(feature = "simcheck")]
            simcheck: SimChecker::new(),
            obs_ledger,
            obs_perfetto,
            obs_series,
            obs_cadence,
            profile: SelfProfile::default(),
            estimator_calls: Cell::new(0),
            obs_scratch: Vec::new(),
            events: EventQueue::new(),
            pins: PinStack::new(),
        })
    }

    /// Attaches an externally constructed [`Recorder`], replacing every
    /// sink: the recorders built from `config.record` and a datastore
    /// mirror alike, so call [`Cluster::with_datastore`] afterwards. The
    /// open path for custom sinks; the built-in handle accessors
    /// ([`Cluster::ledger`] etc.) return `None` afterwards.
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.obs_cadence = recorder.sample_cadence();
        self.recorder = Some(recorder);
        self.obs_ledger = None;
        self.obs_perfetto = None;
        self.obs_series = None;
    }

    /// Snapshot of the lifecycle ledger, if `config.record.ledger` was
    /// set. Meaningful after [`Cluster::run`] returns.
    pub fn ledger(&self) -> Option<Ledger> {
        self.obs_ledger.as_ref().map(|h| h.snapshot())
    }

    /// The recorded Perfetto/Chrome trace-event JSON, if
    /// `config.record.perfetto` was set. Meaningful after
    /// [`Cluster::run`] returns; loads in `ui.perfetto.dev`.
    pub fn perfetto_json(&self) -> Option<String> {
        self.obs_perfetto.as_ref().map(|h| h.to_json())
    }

    /// Snapshot of the sampled time series, if `config.record.sample_secs`
    /// was set. Meaningful after [`Cluster::run`] returns.
    pub fn time_series(&self) -> Option<TimeSeries> {
        self.obs_series.as_ref().map(|h| h.snapshot())
    }

    /// The event-loop self-profile gathered over [`Cluster::run`] —
    /// schedule passes, estimator calls, heap peak, and friends. Always
    /// collected (plain counter bumps); independent of `config.record`.
    pub fn self_profile(&self) -> SelfProfile {
        let mut p = self.profile.clone();
        p.estimator_calls = self.estimator_calls.get();
        p
    }

    /// The one emit path: builds an event with `build` and hands it to
    /// the attached recorder. Without a recorder this is one branch and
    /// the event is never built. The recorder is taken out while the
    /// event is built from `&self` and put back afterwards.
    #[inline]
    fn emit_with<'e>(&mut self, build: impl FnOnce(&Cluster) -> ObsEvent<'e>) {
        if let Some(mut r) = self.recorder.take() {
            r.record(self.scalars.now, &build(self));
            self.recorder = Some(r);
        }
    }

    /// Attaches a datastore: with `config.report_to_datastore` set, a
    /// [`DatastoreMirror`] joins the recorder slot after any recorder
    /// already there and mirrors GPU status, LRU lists and completion
    /// latencies into it, like the paper's components do through etcd.
    pub fn with_datastore(mut self, ds: Arc<Datastore>) -> Self {
        if self.config.report_to_datastore {
            let mut sinks = MultiRecorder::default();
            if let Some(r) = self.recorder.take() {
                sinks.push(r);
            }
            sinks.push(Box::new(DatastoreMirror::new(ds)));
            // The mirror takes no samples, so the cadence stands.
            self.recorder = sinks.into_recorder();
        }
        self
    }

    /// Overrides which model Fig 6's duplicates metric tracks (defaults to
    /// the trace's most-invoked model).
    pub fn set_hot_model(&mut self, model: ModelId) {
        self.scalars.hot_model = Some(model);
    }

    /// The configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The model registry in use.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The active scheduler's display name.
    pub fn scheduler_name(&self) -> String {
        self.sched.as_ref().expect("scheduler in place").name()
    }

    /// The active evictor's registry key.
    pub fn evictor_name(&self) -> &'static str {
        self.cache.evictor_name()
    }

    /// Requests moved to busy GPUs' local queues over the run.
    pub fn local_moves(&self) -> u64 {
        self.scalars.local_moves
    }

    /// Total evictions performed.
    pub fn evictions(&self) -> u64 {
        self.cache.evictions()
    }

    /// Injected GPU-process crashes observed during the run.
    pub fn crashes(&self) -> u64 {
        self.scalars.crashes
    }

    /// Replaces the autoscaler with a custom [`Autoscaler`] impl — the
    /// open path mirroring [`Cluster::with_policies`]. The config's
    /// `autoscale` spec must be set: it still sizes the device pool
    /// (`max_gpus`) and the initial online fleet.
    ///
    /// # Panics
    /// If the config has no `autoscale` spec (there would be no offline
    /// devices to scale into).
    pub fn set_autoscaler(&mut self, autoscaler: Box<dyn Autoscaler>) {
        assert!(
            self.config.autoscale.is_some(),
            "set_autoscaler requires config.autoscale (it sizes the device pool)"
        );
        self.autoscaler = Some(autoscaler);
    }

    /// GPUs currently online (dispatchable); draining and offline GPUs
    /// are not counted.
    pub fn online_gpus(&self) -> usize {
        self.units
            .iter()
            .filter(|u| u.state == UnitState::Online)
            .count()
    }

    /// Low/high watermarks of the online fleet size over the run — the
    /// observable the min/max autoscale bounds are asserted against.
    pub fn online_bounds(&self) -> (usize, usize) {
        (self.scalars.online_low, self.scalars.online_high)
    }

    /// GPUs brought online by the autoscaler over the run.
    pub fn scale_ups(&self) -> u64 {
        self.scalars.scale_ups
    }

    /// GPUs drained offline by the autoscaler over the run.
    pub fn scale_downs(&self) -> u64 {
        self.scalars.scale_downs
    }

    /// `model`'s row entry for unit `gi` in the duration table.
    fn unit_times(&self, gi: usize, model: ModelId) -> UnitTimes {
        let n = self.registry.len();
        self.durations[gi * n..(gi + 1) * n][model.0 as usize]
    }

    /// Per-GPU inference time: the registry profile scaled by this GPU
    /// type's compute factor (§VI heterogeneity). The configured batch
    /// size reads the duration table; a coalesced item count is priced
    /// by the formula.
    fn infer_time_on(&self, gi: usize, model: ModelId, batch: usize) -> SimDuration {
        if batch == self.config.batch_size {
            return self.unit_times(gi, model).infer;
        }
        self.registry
            .infer_time(model, batch)
            .mul_f64(self.units[gi].device.spec().compute_scale)
    }

    /// Per-GPU model load time, scaled likewise — the estimator view of
    /// the load cost, priced through the store backend. Under the flat
    /// default this is exactly the registry profile × the device's PCIe
    /// scale (the duration table's flat entry); a tiered store reprices
    /// it by where the bytes live now (host cache, an in-flight fetch,
    /// or origin).
    fn load_time_on(&self, gi: usize, model: ModelId) -> SimDuration {
        self.store.load_cost(
            self.scalars.now,
            model,
            self.registry.occupancy_bytes(model),
            self.unit_times(gi, model).load,
        )
    }

    /// Feeds one queue-depth observation to the metrics integral and,
    /// under `simcheck`, to the sanitizer's independent mirror of it
    /// (the two must reproduce `avg_queue_depth` bit-for-bit).
    fn note_queue_depth(&mut self, t: SimTime, len: usize) {
        self.metrics.observe_queue_depth(t, len);
        #[cfg(feature = "simcheck")]
        self.simcheck.observe_queue_depth(t, len);
    }

    /// The global queue changed length outside an arrival: note its new
    /// depth and tell the recorder.
    fn queue_depth_changed(&mut self) {
        let len = self.global_queue.len();
        self.note_queue_depth(self.scalars.now, len);
        self.emit_with(|_| ObsEvent::QueueDepth { len });
    }

    /// Fleet audit under `simcheck`: request conservation plus
    /// residency/host-tier capacity conservation, at the current instant.
    #[cfg(feature = "simcheck")]
    fn audit_invariants(&mut self) {
        let completed = self.metrics.completed();
        self.simcheck.audit(
            completed,
            self.global_queue.len(),
            &self.units,
            &self.registry,
            self.store.as_ref(),
        );
    }

    /// Runs a trace to completion (all requests served) and returns the
    /// run metrics.
    pub fn run(&mut self, trace: &Trace) -> RunMetrics {
        self.begin_run(trace);
        self.drive(trace, None);
        self.finish_run()
    }

    /// Runs the trace until virtual time passes `until`, then pauses:
    /// every arrival and runtime event at or before `until` is processed,
    /// the first occurrence after it is left pending. The paused cluster
    /// can be [`Cluster::snapshot`]ted, [`Cluster::checkpoint`]ed, driven
    /// further with another `run_until`, or run to completion with
    /// [`Cluster::resume`] — the occurrence stream is identical to an
    /// unpaused [`Cluster::run`], so the final metrics are byte-identical.
    pub fn run_until(&mut self, trace: &Trace, until: SimTime) {
        self.begin_run(trace);
        self.drive(trace, Some(until));
    }

    /// Drives a paused run (after [`Cluster::run_until`] or
    /// [`Cluster::restore`]) to completion and returns the run metrics.
    /// On a cluster that never started, this is exactly [`Cluster::run`].
    pub fn resume(&mut self, trace: &Trace) -> RunMetrics {
        self.run(trace)
    }

    /// One-time run setup: counters, tick scheduling, RunStart telemetry.
    /// Guarded by `run_started` so `run`/`run_until`/`resume` compose and
    /// a restored checkpoint does not redo it.
    fn begin_run(&mut self, trace: &Trace) {
        if self.scalars.run_started {
            return;
        }
        self.scalars.run_started = true;
        if self.scalars.hot_model.is_none() {
            self.scalars.hot_model = trace.hottest_model().map(ModelId);
        }
        self.metrics.record_hot_replicas(SimTime::ZERO, 0);
        self.note_queue_depth(SimTime::ZERO, 0);
        self.scalars.pending_total = trace.len() as u64;
        // Arrivals stream from the trace cursor instead of being
        // pre-scheduled, so the heap holds only runtime events (a handful
        // per GPU) rather than the whole trace.
        self.events = EventQueue::with_capacity(self.units.len() * 2 + 8);
        self.scalars.next_arrival = 0;
        if let Some(autoscaler) = &self.autoscaler {
            self.events
                .schedule(SimTime::ZERO + autoscaler.cadence(), Event::ScaleTick);
        }
        self.emit_with(|c| ObsEvent::RunStart {
            online_gpus: c.online_gpus(),
            total_gpus: c.units.len(),
        });
        for gi in 0..self.units.len() {
            if matches!(self.units[gi].state, UnitState::Online) {
                self.emit_with(|c| ObsEvent::UnitIdle {
                    gpu: c.units[gi].id(),
                });
            }
        }
        if let Some(cadence) = self.obs_cadence {
            self.events
                .schedule(SimTime::ZERO + cadence, Event::ObsTick);
        }
    }

    /// The event loop: interleaves trace arrivals with runtime events in
    /// virtual-time order until both streams are exhausted — or, with a
    /// bound, until the next occurrence would land after `until`. At
    /// equal timestamps the arrival wins the tie-break — exactly the
    /// order pre-scheduled arrivals popped in, since their sequence
    /// numbers (0..N-1, assigned before any runtime event) sorted below
    /// everything else.
    fn drive(&mut self, trace: &Trace, until: Option<SimTime>) {
        let mut events = std::mem::take(&mut self.events);
        let arrivals = trace.requests();
        let num_tenants = self.config.num_tenants.max(1) as u32;
        loop {
            let arrival_at = arrivals.get(self.scalars.next_arrival).map(|r| r.at);
            let take_arrival = match (arrival_at, events.peek_time()) {
                (Some(a), Some(h)) => a <= h,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if let Some(bound) = until {
                let next_at = if take_arrival {
                    arrival_at.expect("arrival branch has an arrival")
                } else {
                    events.peek_time().expect("event branch has an event")
                };
                if next_at > bound {
                    break;
                }
            }
            if take_arrival {
                let r = &arrivals[self.scalars.next_arrival];
                debug_assert!(r.at >= self.scalars.now, "trace not sorted by arrival");
                self.scalars.now = r.at;
                let request = Request::new(
                    self.scalars.next_arrival as u64,
                    r.function,
                    ModelId(r.model),
                    self.config.batch_size,
                    r.at,
                )
                .with_tenant((r.function % num_tenants) as u16);
                self.scalars.next_arrival += 1;
                self.profile.arrivals += 1;
                #[cfg(feature = "simcheck")]
                self.simcheck.on_arrival(self.scalars.now);
                let req_id = request.id;
                let req_model = request.model;
                self.global_queue.push_back(request);
                let qlen = self.global_queue.len();
                self.note_queue_depth(self.scalars.now, qlen);
                self.emit_with(|_| ObsEvent::Arrival {
                    req: req_id,
                    model: req_model,
                    queue_len: qlen,
                });
                // Feed the store's arrival-rate tracker; a tiered backend
                // may start an async prefetch on its origin link here.
                let bytes = self.registry.occupancy_bytes(req_model);
                self.store.note_arrival(self.scalars.now, req_model, bytes);
                self.schedule_pass(&mut events);
            } else {
                let (t, ev) = events.pop().expect("peeked event exists");
                self.profile.heap_peak = self.profile.heap_peak.max(events.len() + 1);
                self.deliver(t, ev, &mut events);
            }
        }
        self.events = events;
    }

    /// Advances the clock to a popped runtime event due at `t` and
    /// dispatches it to its handler. Shared by the main
    /// [`Cluster::drive`] loop and the lookahead policy's speculative
    /// replay, so a what-if fork advances the world through exactly the
    /// code the real timeline uses.
    fn deliver(&mut self, t: SimTime, ev: Event, events: &mut EventQueue<Event>) {
        debug_assert!(t >= self.scalars.now, "event delivered out of order");
        self.profile.events_popped += 1;
        self.scalars.now = t;
        #[cfg(feature = "simcheck")]
        if self.simcheck.on_event(t) {
            self.audit_invariants();
        }
        match ev {
            Event::GpuDone(g, seq) => self.on_gpu_done(g, seq, events),
            Event::GpuCrash(g, seq) => self.on_gpu_crash(g, seq, events),
            Event::ScaleTick => self.on_scale_tick(events),
            Event::BatchHold(g, seq) => self.on_batch_hold(g, seq, events),
            Event::ObsTick => self.on_obs_tick(events),
        }
    }

    /// End-of-run accounting: finalises the metrics, closes recorder
    /// sinks, and (under `simcheck`) runs the drained-state audits and
    /// the ledger cross-check. Only meaningful once both occurrence
    /// streams are exhausted.
    fn finish_run(&mut self) -> RunMetrics {
        debug_assert!(self.events.is_empty(), "runtime events left pending");
        debug_assert!(self.global_queue.is_empty(), "requests left undispatched");
        debug_assert!(
            self.units
                .iter()
                .all(|u| u.is_idle() && u.local_queue.is_empty()),
            "GPUs left busy after the event queue drained"
        );

        // Flush the final partial sampling window, then let sinks close
        // any open trace slices at the loop's last timestamp (`self.scalars.now`,
        // which is >= every emitted event's time).
        self.emit_sample();
        let now = self.scalars.now;
        if let Some(r) = self.recorder.as_deref_mut() {
            r.finish(now);
        }

        let end = self.scalars.last_completion;
        let gpu_seconds: f64 = self
            .units
            .iter()
            .map(|u| u.provisioned_until(end).as_secs_f64())
            .sum();
        // Fixed clusters keep the paper's per-device mean (byte-identical
        // to the published pipeline); elastic clusters weight by
        // provisioned time, since averaging an offline device's zero over
        // the whole makespan would understate real utilisation.
        let sm: f64 = if self.autoscaler.is_some() {
            if gpu_seconds > 0.0 {
                self.units
                    .iter()
                    .map(|u| u.device.sm_utilization(SimTime::ZERO, end) * end.as_secs_f64())
                    .sum::<f64>()
                    / gpu_seconds
            } else {
                0.0
            }
        } else {
            self.units
                .iter()
                .map(|u| u.device.sm_utilization(SimTime::ZERO, end))
                .sum::<f64>()
                / self.units.len().max(1) as f64
        };
        // The histogram's tick sum must be read before `finish` consumes
        // the collector; the ledger cross-check compares against it.
        #[cfg(feature = "simcheck")]
        let latency_ticks = self.metrics.latency_tick_sum();
        let mut metrics = std::mem::take(&mut self.metrics).finish(end, sm);
        metrics.gpu_seconds_provisioned = gpu_seconds;
        metrics.scale_up_events = self.scalars.scale_ups;
        metrics.scale_down_events = self.scalars.scale_downs;
        metrics.gpu_busy_seconds = self.scalars.busy_secs;
        #[cfg(feature = "simcheck")]
        {
            self.simcheck.finish(
                end,
                &metrics,
                &self.units,
                &self.registry,
                self.store.as_ref(),
            );
            // Two independent accountings of every completed request —
            // the observability ledger and the metrics pipeline — must
            // agree to the tick.
            if let Some(ledger) = self.ledger() {
                self.simcheck
                    .check_ledger(&ledger, metrics.completed, latency_ticks);
            }
        }
        metrics
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    /// The telemetry cadence fired: snapshot the fleet for the recorder
    /// and re-arm while the run is still in progress.
    fn on_obs_tick(&mut self, events: &mut EventQueue<Event>) {
        self.emit_sample();
        if let Some(cadence) = self.obs_cadence {
            if self.metrics.completed() < self.scalars.pending_total {
                events.schedule(self.scalars.now + cadence, Event::ObsTick);
            }
        }
    }

    /// Emits one [`ObsEvent::Sample`] snapshot of the whole fleet to the
    /// recorder; a no-op without one.
    fn emit_sample(&mut self) {
        if self.recorder.is_none() {
            return;
        }
        let mut gpus = std::mem::take(&mut self.obs_scratch);
        gpus.clear();
        let live = self.units.iter().filter(|u| u.state != UnitState::Offline);
        gpus.extend(live.map(|u| GpuSample {
            gpu: u.id(),
            online: u.state == UnitState::Online,
            draining: u.state == UnitState::Draining,
            busy: u.in_flight.is_some(),
            resident: u.device.resident_models().count(),
            local_depth: u.local_queue.len(),
        }));
        let count = |keep: fn(&GpuSample) -> bool| gpus.iter().filter(|s| keep(s)).count();
        let view = SampleView {
            queue_len: self.global_queue.len(),
            online: count(|s| s.online),
            busy: count(|s| s.busy),
            draining: self.scalars.draining_units,
            holding: self.scalars.holding_units,
            gpus: &gpus,
        };
        self.emit_with(|_| ObsEvent::Sample { view });
        gpus.clear();
        self.obs_scratch = gpus;
    }

    fn on_gpu_done(&mut self, g: GpuId, seq: u64, events: &mut EventQueue<Event>) {
        let (gi, now) = (g.0 as usize, self.scalars.now);
        let phase = match &self.units[gi].in_flight {
            // A missing or mismatched token means the work crashed in the
            // meantime: the completion is stale and ignored.
            Some(f) if f.seq == seq => {
                assert!(now >= f.until, "{g}: completion before its phase ends");
                f.phase
            }
            _ => return,
        };
        match phase {
            Phase::Loading => {
                let (model, tier) = {
                    let f = self.units[gi].in_flight.as_ref().expect("work in flight");
                    (f.model(), f.tier)
                };
                // The upload was a natural batch-forming window: requests
                // for this model that queued up during the load join the
                // invocation now, before the inference kernel launches.
                if !self.batcher.is_passthrough() {
                    self.topup_loaded_batch(gi);
                }
                self.emit_with(|_| ObsEvent::LoadComplete {
                    gpu: g,
                    model,
                    tier,
                });
                // A coalesced invocation runs the whole batch's inputs in
                // one pass of the affine latency model.
                let items = self.units[gi]
                    .in_flight
                    .as_ref()
                    .expect("work in flight")
                    .items();
                let dur = self.infer_time_on(gi, model, items);
                let done = now + dur;
                let unit = self.units.write(gi);
                unit.device.sm_begin(now);
                if let Some(f) = unit.in_flight.as_mut() {
                    // The upload interval just closed; `started` now marks
                    // the inference interval for busy-time accounting.
                    self.scalars.busy_secs += now.duration_since(f.started).as_secs_f64();
                    f.started = now;
                    f.until = done;
                    f.phase = Phase::Running;
                }
                self.emit_with(|c| {
                    let f = c.units[gi].in_flight.as_ref().expect("work in flight");
                    ObsEvent::InferStart {
                        gpu: g,
                        model,
                        batch: f.seq,
                        requests: f.requests.len(),
                        items: f.items(),
                    }
                });
                self.schedule_inference_outcome(gi, done, dur, events);
            }
            Phase::Running => {
                let unit = self.units.write(gi);
                let inflight = unit.in_flight.take().expect("work in flight");
                unit.device.sm_end(now);
                self.scalars.busy_secs += self
                    .scalars
                    .now
                    .duration_since(inflight.started)
                    .as_secs_f64();
                // Per-request completion accounting: every coalesced
                // request ends now, each against its own arrival.
                let (b_model, b_seq) = (inflight.model(), inflight.seq);
                for r in &inflight.requests {
                    let latency = now.duration_since(r.arrival);
                    self.metrics.record_completion(latency);
                    self.emit_with(|_| ObsEvent::Completion {
                        req: r.id,
                        gpu: g,
                        batch: b_seq,
                        model: b_model,
                        latency,
                    });
                }
                self.metrics.record_invocation(inflight.requests.len());
                self.emit_with(|_| ObsEvent::InvocationDone {
                    gpu: g,
                    batch: b_seq,
                    requests: inflight.requests.len(),
                });
                self.scalars.last_completion = self.scalars.last_completion.max(now);
                // Riding requests always served via residency (the lead's
                // load or cache hit), so they count toward Algorithm 1's
                // hit frequency; a lead miss does not.
                let hit_served = inflight.requests.len() - usize::from(!inflight.was_hit);
                self.units.write(gi).hits += hit_served as u64;
                let mut recycled = inflight.requests;
                recycled.clear();
                self.batch_pool.push(recycled);
                self.unit_idle(gi);
                self.maybe_finish_drain(gi);
                self.schedule_pass(events);
            }
        }
    }

    /// Schedules the end of an inference that starts now and completes at
    /// `done`; with failure injection enabled it may instead crash partway
    /// through.
    fn schedule_inference_outcome(
        &mut self,
        gi: usize,
        done: SimTime,
        dur: SimDuration,
        events: &mut EventQueue<Event>,
    ) {
        let g = self.units[gi].id();
        let seq = self.units[gi]
            .in_flight
            .as_ref()
            .expect("work in flight")
            .seq;
        if self.config.crash_rate > 0.0 && self.scalars.rng.chance(self.config.crash_rate) {
            let frac = self.scalars.rng.range_f64(0.05, 0.95);
            let crash_at = done - dur.mul_f64(1.0 - frac);
            events.schedule(crash_at, Event::GpuCrash(g, seq));
        }
        events.schedule(done, Event::GpuDone(g, seq));
    }

    /// Marks `gi` idle now that its invocation ended (completed or
    /// crashed): an online unit rejoins the idle pool.
    fn unit_idle(&mut self, gi: usize) {
        let g = self.units[gi].id();
        self.units.write(gi).idle_since = self.scalars.now;
        if self.units[gi].state == UnitState::Online {
            self.scalars.idle_online += 1;
            self.emit_with(|_| ObsEvent::UnitIdle { gpu: g });
        }
    }

    /// Failure injection: the GPU process serving the in-flight request
    /// died. The model's memory is reclaimed, the cache entry dropped, and
    /// the request is retried from the head of the global queue (its
    /// original arrival time is preserved, so the retry's latency reflects
    /// the crash).
    fn on_gpu_crash(&mut self, g: GpuId, seq: u64, events: &mut EventQueue<Event>) {
        let (gi, now) = (g.0 as usize, self.scalars.now);
        match &self.units[gi].in_flight {
            Some(f) if f.seq == seq && matches!(f.phase, Phase::Running) => {}
            _ => return, // already completed or crashed
        }
        let unit = self.units.write(gi);
        let inflight = unit.in_flight.take().expect("work in flight");
        let model = inflight.model();
        unit.device.sm_end(now);
        unit.device
            .evict(model)
            .expect("crashing model is resident");
        // The partial inference consumed real GPU time before dying (the
        // completed upload was already accounted at the phase switch).
        self.scalars.busy_secs += self
            .scalars
            .now
            .duration_since(inflight.started)
            .as_secs_f64();
        self.cache.remove(g, model);
        self.on_residency_change(model);
        if self.recorder.is_some() {
            let resident = self.cache.resident(g);
            self.emit_with(|_| ObsEvent::Crash {
                gpu: g,
                model,
                requeued: inflight.requests.len(),
                resident: &resident,
            });
        }
        self.unit_idle(gi);
        self.scalars.crashes += 1;
        // Retry: the crashed invocation's requests (the whole coalesced
        // batch) rejoin the global queue at the front in order, followed
        // by any of this GPU's local-queue requests that were waiting on
        // the now-dead process (their residency expectation is void).
        let mut requeue = inflight.requests;
        let mut keep = VecDeque::new();
        while let Some(r) = self.units.write(gi).local_queue.pop_front() {
            if r.model == model {
                requeue.push(r);
            } else {
                keep.push_back(r);
            }
        }
        self.units.write(gi).local_queue = keep;
        self.agg_rebuild(gi);
        for r in requeue.into_iter().rev() {
            let id = r.id;
            self.global_queue.push_front(r);
            self.emit_with(|_| ObsEvent::Requeued { req: id });
        }
        self.queue_depth_changed();
        self.maybe_finish_drain(gi);
        self.schedule_pass(events);
    }

    /// One autoscaler cadence: observe, decide, apply, re-arm. Ticks stop
    /// re-arming once every trace request has completed, so the event
    /// queue drains and the run ends.
    fn on_scale_tick(&mut self, events: &mut EventQueue<Event>) {
        #[cfg(feature = "simcheck")]
        self.audit_invariants();
        if self.metrics.completed() >= self.scalars.pending_total {
            return;
        }
        let mut autoscaler = self.autoscaler.take().expect("tick without autoscaler");
        let decision = autoscaler.step(&ScaleView { cluster: self });
        let cadence = autoscaler.cadence();
        self.autoscaler = Some(autoscaler);
        match decision {
            ScaleDecision::Hold => {}
            ScaleDecision::Up(n) => self.scale_up(n, events),
            ScaleDecision::Down(n) => self.scale_down(n),
        }
        events.schedule(self.scalars.now + cadence, Event::ScaleTick);
    }

    /// A held batch's timer fired: launch whatever it gathered (after a
    /// final same-model top-up). A stale token means the batch already
    /// launched early.
    fn on_batch_hold(&mut self, g: GpuId, seq: u64, events: &mut EventQueue<Event>) {
        let gi = g.0 as usize;
        if self.units[gi]
            .holding
            .as_ref()
            .is_some_and(|h| h.seq == seq)
        {
            self.fill_hold(gi, true, events);
        }
    }

    fn on_residency_change(&mut self, model: ModelId) {
        if self.scalars.hot_model == Some(model) {
            let replicas = self.cache.replica_count(model);
            self.metrics.record_hot_replicas(self.scalars.now, replicas);
            self.emit_with(|_| ObsEvent::HotReplicas { replicas });
        }
    }
}
