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
//!   one [`Dispatch`] per idle GPU through a borrowed [`SchedCtx`] view
//!   of the queue/residency/finish-time state;
//! * Algorithm 1's visit counters and Algorithm 2's hit-elsewhere /
//!   wait-on-busy arms live in the policy impls
//!   (see [`crate::scheduler`]).

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Arc;

use gfaas_faas::Datastore;
use gfaas_gpu::{GpuDevice, GpuId, ModelId, Tier};
use gfaas_models::ModelRegistry;
use gfaas_obs::ledger::{Ledger, LedgerHandle, LedgerRecorder};
use gfaas_obs::perfetto::{PerfettoHandle, PerfettoRecorder};
use gfaas_obs::sampler::{SamplerRecorder, SeriesHandle, TimeSeries};
use gfaas_obs::{Arm, GpuSample, MultiRecorder, ObsEvent, Recorder, SampleView, SelfProfile};
use gfaas_sim::event::EventQueue;
use gfaas_sim::rng::DetRng;
use gfaas_sim::time::{SimDuration, SimTime};
use gfaas_snap::{
    fnv1a, read_header, write_header, Dec, Enc, Fnv1a, JournalStats, PinStack, PinnedDeque,
    PinnedVec, PreImage, SnapError, SnapId, WriteSet,
};
use gfaas_store::{ModelStore, StoreStats};
use gfaas_trace::Trace;

use crate::autoscale::{Autoscaler, ScaleDecision};
use crate::batching::{BatchPolicy, BatchView};
use crate::cache::{CacheManager, Evictor};
use crate::config::{BusyWaitPolicy, ClusterConfig, ConfigError};
use crate::gpu_manager::{lru_key, status_key, GpuUnit, HoldSlot, InFlight, Phase, UnitState};
use crate::metrics::{MetricsCollector, MetricsMark, RunMetrics};
use crate::policy::{PolicyRegistry, PolicySpec};
use crate::request::Request;
use crate::scheduler::{Dispatch, LalbScheduler, SchedulerPolicy, DEFAULT_O3_LIMIT};
#[cfg(feature = "simcheck")]
use crate::simcheck::SimChecker;

/// Discrete events driving the cluster.
///
/// GPU events carry the dispatch sequence token of the work they belong
/// to; a crash invalidates the token so the stale completion event is
/// ignored when it fires. `Copy` because a snapshot pin copies the
/// pending event heap (a fleet-sized handful of entries).
#[derive(Debug, Clone, Copy)]
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
    /// Cached `store.is_flat()` so the hot load path (estimators run per
    /// scheduling decision) gates on one predictable branch and the flat
    /// default stays byte-identical to a build without the store hooks.
    store_flat: bool,
    /// The global queue. Mutations under a live pin log their positional
    /// inverse; the queue also keeps Σ arrival ticks for fork scoring.
    global_queue: PinnedDeque<Request>,
    metrics: MetricsCollector,
    now: SimTime,
    last_completion: SimTime,
    hot_model: Option<ModelId>,
    local_moves: u64,
    crashes: u64,
    dispatch_seq: u64,
    rng: gfaas_sim::rng::DetRng,
    datastore: Option<Arc<Datastore>>,
    /// Elastic capacity policy; `None` is the paper's fixed testbed.
    autoscaler: Option<Box<dyn Autoscaler>>,
    /// GPUs brought online / drained offline over the run.
    scale_ups: u64,
    scale_downs: u64,
    /// Low/high watermarks of the online (dispatchable) fleet size.
    online_low: usize,
    online_high: usize,
    /// Requests in the running trace; ticks stop once all have completed.
    pending_total: u64,
    /// Recycled invocation vectors: every dispatch carries its requests in
    /// a `Vec` (through [`InFlight`]/[`HoldSlot`]), and completed
    /// invocations return theirs here instead of freeing, so the steady
    /// state allocates nothing per dispatch. Bounded by the fleet size.
    batch_pool: Vec<Vec<Request>>,
    /// Online units that are idle right now, maintained at every
    /// dispatch, completion, and scale transition. Together with the two
    /// counters below it lets a scheduling pass on a saturated cluster
    /// prove itself a no-op in O(1) instead of scanning the fleet — and
    /// every arrival triggers a pass.
    idle_online: usize,
    /// Units with a forming batch parked in their hold slot.
    holding_units: usize,
    /// Units in the [`UnitState::Draining`] state.
    draining_units: usize,
    /// Integrated GPU busy time (uploads + inference, including crashed
    /// work) — `RunMetrics::gpu_busy_seconds`.
    busy_secs: f64,
    /// Per-unit incremental summary of the local queue (parallel to
    /// `units`), maintained at every push/pop/remove so finish-time
    /// estimates need not walk the queue. See [`LocalAgg`]. Pinned like
    /// `units`.
    local_aggs: PinnedVec<LocalAgg>,
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
    /// SLO threshold for `ObsEvent::SloMiss` emission.
    obs_slo: Option<SimDuration>,
    /// Self-profiler counters for the event loop (always-on: plain
    /// integer bumps, no allocation). See [`SelfProfile`].
    profile: SelfProfile,
    /// Estimator-call count lives in a `Cell` because
    /// [`Cluster::estimated_wait_fast`] is called through `&self`.
    estimator_calls: Cell<u64>,
    /// Recycled per-GPU sample buffer for [`ObsEvent::Sample`].
    obs_scratch: Vec<GpuSample>,
    /// The pending runtime-event heap. Owned by the cluster (not the
    /// run loop) so a run can pause at a virtual-time bound
    /// ([`Cluster::run_until`]), be checkpointed, and resume; the drive
    /// loop `mem::take`s it while running.
    events: EventQueue<Event>,
    /// Cursor into the trace: the next arrival to admit. Part of the
    /// pinned/checkpointed state — rolling back re-delivers arrivals.
    next_arrival: usize,
    /// Whether [`Cluster::begin_run`] already performed its one-time
    /// setup (tick scheduling, RunStart emission, counters).
    run_started: bool,
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
/// [`GpuUnit::estimated_wait`] charges queued work as order-independent
/// sums over integer-tick durations — a per-request inference sum, or
/// per-model coalesced group sums, plus one upload per distinct
/// non-resident model — so the whole estimate folds into this constant
/// -size state and stays *byte-identical* to the naive O(queue) walk
/// (addition of ticks is commutative and associative; residency is still
/// read at query time). [`Cluster::estimated_wait_fast`] consumes it and
/// carries a debug-build assertion against the naive recompute.
#[derive(Debug, Default, Clone)]
struct LocalAgg {
    /// Σ per-request inference time (on this unit's compute profile)
    /// over the local queue — the per-request-dispatch charge.
    infer_sum: SimDuration,
    /// Distinct queued models: `(model, Σ batch items, request count)`,
    /// in first-push order. Entries leave when their count hits zero.
    groups: Vec<(ModelId, usize, usize)>,
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
    /// demotions, …). All-zero under the flat default.
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
        // Batching always resolves through the builtin registry (use
        // `set_batcher` for custom policies). The store spec resolves the
        // same way — through its canonical display form, so a registry
        // shadowing `tiered` would be honoured.
        let batcher = PolicyRegistry::builtin().batcher(&config.batching)?;
        let store_spec = PolicySpec::parse(&config.store.to_string())?;
        let store = PolicyRegistry::builtin().store(&store_spec)?;
        let store_flat = store.is_flat();
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
        let autoscaler = match &config.autoscale {
            Some(spec) => Some(spec.build()?),
            None => None,
        };
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
        let rng = gfaas_sim::rng::DetRng::new(config.seed ^ 0xc4a5);
        // Build the recorder stack from the config's record spec. Off by
        // default: `recorder` stays `None` and every hook is a dead branch.
        let obs_slo = config.record.slo_secs.map(SimDuration::from_secs_f64);
        let mut multi = MultiRecorder::default();
        let mut obs_ledger = None;
        let mut obs_perfetto = None;
        let mut obs_series = None;
        if config.record.ledger {
            let (rec, handle) = LedgerRecorder::new(obs_slo);
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
            store_flat,
            global_queue: PinnedDeque::new(),
            metrics: MetricsCollector::new(),
            now: SimTime::ZERO,
            last_completion: SimTime::ZERO,
            hot_model: None,
            local_moves: 0,
            crashes: 0,
            dispatch_seq: 0,
            rng,
            datastore: None,
            autoscaler,
            scale_ups: 0,
            scale_downs: 0,
            online_low: initial_online,
            online_high: initial_online,
            pending_total: 0,
            batch_pool: Vec::new(),
            idle_online: initial_online,
            holding_units: 0,
            draining_units: 0,
            busy_secs: 0.0,
            local_aggs: PinnedVec::new(vec![LocalAgg::default(); total_units]),
            idle_scratch: Vec::new(),
            recorder,
            #[cfg(feature = "simcheck")]
            simcheck: SimChecker::new(),
            obs_ledger,
            obs_perfetto,
            obs_series,
            obs_cadence,
            obs_slo,
            profile: SelfProfile::default(),
            estimator_calls: Cell::new(0),
            obs_scratch: Vec::new(),
            events: EventQueue::new(),
            next_arrival: 0,
            run_started: false,
            pins: PinStack::new(),
        })
    }

    /// Attaches an externally constructed [`Recorder`], replacing any
    /// recorder built from `config.record`. The open path for custom
    /// sinks; the built-in handle accessors ([`Cluster::ledger`] etc.)
    /// return `None` afterwards.
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
            r.record(self.now, &build(self));
            self.recorder = Some(r);
        }
    }

    /// Attaches a datastore; the cluster then mirrors GPU status, LRU
    /// lists, and completion latencies into it like the paper's components
    /// do through etcd. Requires `config.report_to_datastore`.
    pub fn with_datastore(mut self, ds: Arc<Datastore>) -> Self {
        self.datastore = Some(ds);
        self
    }

    /// Overrides which model Fig 6's duplicates metric tracks (defaults to
    /// the trace's most-invoked model).
    pub fn set_hot_model(&mut self, model: ModelId) {
        self.hot_model = Some(model);
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
        self.local_moves
    }

    /// Total evictions performed.
    pub fn evictions(&self) -> u64 {
        self.cache.evictions()
    }

    /// Injected GPU-process crashes observed during the run.
    pub fn crashes(&self) -> u64 {
        self.crashes
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
        (self.online_low, self.online_high)
    }

    /// GPUs brought online by the autoscaler over the run.
    pub fn scale_ups(&self) -> u64 {
        self.scale_ups
    }

    /// GPUs drained offline by the autoscaler over the run.
    pub fn scale_downs(&self) -> u64 {
        self.scale_downs
    }

    /// Per-GPU inference time: the registry profile scaled by this GPU
    /// type's compute factor (§VI heterogeneity).
    fn infer_time_on(&self, gi: usize, model: ModelId, batch: usize) -> SimDuration {
        self.registry
            .infer_time(model, batch)
            .mul_f64(self.units[gi].device.spec().compute_scale)
    }

    /// Per-GPU model load time, scaled likewise — the estimator view of
    /// the load cost, priced through the store backend. Under the flat
    /// default this is exactly the registry profile × the device's PCIe
    /// scale; a tiered store reprices it by where the bytes live now
    /// (host cache, an in-flight fetch, or origin).
    fn load_time_on(&self, gi: usize, model: ModelId) -> SimDuration {
        self.load_cost_scaled(model, self.units[gi].device.spec().load_scale)
    }

    /// The store-priced load cost for `model` given a device's PCIe
    /// scale. Factored out of [`Cluster::load_time_on`] so estimator
    /// closures can price loads without borrowing the whole unit.
    fn load_cost_scaled(&self, model: ModelId, load_scale: f64) -> SimDuration {
        let flat = self.registry.load_time(model).mul_f64(load_scale);
        if self.store_flat {
            flat
        } else {
            self.store
                .load_cost(self.now, model, self.registry.occupancy_bytes(model), flat)
        }
    }

    // ------------------------------------------------------------------
    // Local-queue aggregates (incremental finish-time estimators)
    // ------------------------------------------------------------------

    /// Accounts `r` joining `gi`'s local queue. Call alongside every
    /// `local_queue` push.
    fn agg_push(&mut self, gi: usize, r: &Request) {
        let dur = self.infer_time_on(gi, r.model, r.batch);
        let agg = self.local_aggs.write(gi);
        agg.infer_sum += dur;
        match agg.groups.iter_mut().find(|g| g.0 == r.model) {
            Some(g) => {
                g.1 += r.batch;
                g.2 += 1;
            }
            None => agg.groups.push((r.model, r.batch, 1)),
        }
    }

    /// Accounts `r` leaving `gi`'s local queue (dispatch, coalescing
    /// collection). The inference charge is recomputed from the same
    /// immutable profile it was added from, so the subtraction is exact.
    fn agg_remove(&mut self, gi: usize, r: &Request) {
        let dur = self.infer_time_on(gi, r.model, r.batch);
        let agg = self.local_aggs.write(gi);
        agg.infer_sum -= dur;
        let pos = agg
            .groups
            .iter()
            .position(|g| g.0 == r.model)
            .expect("removed request was accounted");
        let g = &mut agg.groups[pos];
        g.1 -= r.batch;
        g.2 -= 1;
        if g.2 == 0 {
            agg.groups.remove(pos);
        }
    }

    /// Pops the head of `gi`'s local queue and accounts it with
    /// [`Cluster::agg_remove`]. An empty queue is checked through a read,
    /// so it is not a write a live pin would have to save.
    fn pop_local(&mut self, gi: usize) -> Option<Request> {
        if self.units[gi].local_queue.is_empty() {
            return None;
        }
        let r = self.units.write(gi).local_queue.pop_front()?;
        self.agg_remove(gi, &r);
        Some(r)
    }

    /// Recomputes `gi`'s aggregate from its queue — the rare-path reset
    /// after a crash rebuilds the local queue wholesale.
    fn agg_rebuild(&mut self, gi: usize) {
        *self.local_aggs.write(gi) = LocalAgg::default();
        let n = self.units[gi].local_queue.len();
        for i in 0..n {
            let r = self.units[gi].local_queue[i];
            self.agg_push(gi, &r);
        }
    }

    /// [`GpuUnit::estimated_wait`] evaluated from the incremental
    /// aggregate in O(distinct queued models) instead of O(queue).
    /// Byte-identical by construction (see [`LocalAgg`]); debug builds
    /// assert equality against the naive walk on every call, which is
    /// also the oracle the property tests lean on.
    fn estimated_wait_fast(&self, gi: usize) -> SimDuration {
        self.estimator_calls.set(self.estimator_calls.get() + 1);
        let coalesced = !self.batcher.is_passthrough();
        let unit = &self.units[gi];
        let mut wait = unit
            .device
            .busy_until()
            .map(|t| t.duration_since(self.now))
            .unwrap_or(SimDuration::ZERO);
        if let Some(f) = &unit.in_flight {
            if f.phase == Phase::Loading {
                wait += self.infer_time_on(gi, f.model(), f.items());
            }
        }
        if let Some(h) = &unit.holding {
            wait += h.release_at.duration_since(self.now.min(h.release_at));
            if !unit.device.has_model(h.model()) {
                wait += self.load_time_on(gi, h.model());
            }
            wait += self.infer_time_on(gi, h.model(), h.items());
        }
        let agg = &self.local_aggs[gi];
        if coalesced {
            for &(m, items, _) in &agg.groups {
                if !unit.device.has_model(m) {
                    wait += self.load_time_on(gi, m);
                }
                wait += self.infer_time_on(gi, m, items);
            }
        } else {
            for &(m, _, _) in &agg.groups {
                if !unit.device.has_model(m) {
                    wait += self.load_time_on(gi, m);
                }
            }
            wait += agg.infer_sum;
        }
        #[cfg(debug_assertions)]
        {
            let spec = unit.device.spec();
            let (compute_scale, load_scale) = (spec.compute_scale, spec.load_scale);
            let registry = &self.registry;
            let naive = unit.estimated_wait(
                self.now,
                coalesced,
                |m, b| registry.infer_time(m, b).mul_f64(compute_scale),
                |m| self.load_cost_scaled(m, load_scale),
            );
            debug_assert_eq!(wait, naive, "local-queue aggregate out of sync on GPU {gi}");
        }
        wait
    }

    /// Requests a tenant currently occupies (in flight, held for a batch,
    /// or in local queues).
    fn tenant_load(&self, tenant: u16) -> usize {
        let of = |rs: &[Request]| rs.iter().filter(|r| r.tenant == tenant).count();
        self.units
            .iter()
            .map(|u| {
                let inflight = u.in_flight.as_ref().map_or(0, |f| of(&f.requests));
                let held = u.holding.as_ref().map_or(0, |h| of(&h.requests));
                inflight + held + u.local_queue.iter().filter(|r| r.tenant == tenant).count()
            })
            .sum()
    }

    /// True iff §VI isolation forbids dispatching more work for `tenant`.
    fn tenant_blocked(&self, tenant: u16) -> bool {
        match self.config.tenant_max_inflight {
            Some(cap) => self.tenant_load(tenant) >= cap,
            None => false,
        }
    }

    /// Feeds one queue-depth observation to the metrics integral and,
    /// under `simcheck`, to the sanitizer's independent mirror of it
    /// (the two must reproduce `avg_queue_depth` bit-for-bit).
    fn note_queue_depth(&mut self, t: SimTime, len: usize) {
        self.metrics.observe_queue_depth(t, len);
        #[cfg(feature = "simcheck")]
        self.simcheck.observe_queue_depth(t, len);
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
        if self.run_started {
            return;
        }
        self.run_started = true;
        if self.hot_model.is_none() {
            self.hot_model = trace.hottest_model().map(ModelId);
        }
        self.metrics.record_hot_replicas(SimTime::ZERO, 0);
        self.note_queue_depth(SimTime::ZERO, 0);
        self.pending_total = trace.len() as u64;
        // Arrivals stream from the trace cursor instead of being
        // pre-scheduled, so the heap holds only runtime events (a handful
        // per GPU) rather than the whole trace.
        self.events = EventQueue::with_capacity(self.units.len() * 2 + 8);
        self.next_arrival = 0;
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
            let arrival_at = arrivals.get(self.next_arrival).map(|r| r.at);
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
                let r = &arrivals[self.next_arrival];
                debug_assert!(r.at >= self.now, "trace not sorted by arrival");
                self.now = r.at;
                let request = Request::new(
                    self.next_arrival as u64,
                    r.function,
                    ModelId(r.model),
                    self.config.batch_size,
                    r.at,
                )
                .with_tenant((r.function % num_tenants) as u16);
                self.next_arrival += 1;
                self.profile.arrivals += 1;
                #[cfg(feature = "simcheck")]
                self.simcheck.on_arrival(self.now);
                let req_id = request.id;
                let req_model = request.model;
                self.global_queue.push_back(request);
                let qlen = self.global_queue.len();
                self.note_queue_depth(self.now, qlen);
                self.emit_with(|_| ObsEvent::Arrival {
                    req: req_id,
                    model: req_model,
                    queue_len: qlen,
                });
                // Feed the store's arrival-rate tracker; a tiered backend
                // may start an async prefetch on its origin link here.
                if !self.store_flat {
                    let bytes = self.registry.occupancy_bytes(req_model);
                    self.store.note_arrival(self.now, req_model, bytes);
                }
                self.schedule_pass(&mut events);
            } else {
                let (t, ev) = events.pop().expect("peeked event exists");
                debug_assert!(t >= self.now, "event delivered out of order");
                self.profile.events_popped += 1;
                self.profile.heap_peak = self.profile.heap_peak.max(events.len() + 1);
                self.now = t;
                #[cfg(feature = "simcheck")]
                if self.simcheck.on_event(t) {
                    self.audit_invariants();
                }
                self.handle_event(ev, &mut events);
            }
        }
        self.events = events;
    }

    /// Dispatches one popped runtime event to its handler. Shared by the
    /// main [`Cluster::drive`] loop and the lookahead policy's
    /// speculative replay, so a what-if fork advances the world through
    /// exactly the code the real timeline uses.
    fn handle_event(&mut self, ev: Event, events: &mut EventQueue<Event>) {
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
        // any open trace slices at the loop's last timestamp (`self.now`,
        // which is >= every emitted event's time).
        self.emit_sample();
        let now = self.now;
        if let Some(r) = self.recorder.as_deref_mut() {
            r.finish(now);
        }

        let end = self.last_completion;
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
        metrics.scale_up_events = self.scale_ups;
        metrics.scale_down_events = self.scale_downs;
        metrics.gpu_busy_seconds = self.busy_secs;
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
            if self.metrics.completed() < self.pending_total {
                events.schedule(self.now + cadence, Event::ObsTick);
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
        let mut busy = 0usize;
        let mut online = 0usize;
        for u in self.units.iter() {
            let is_online = matches!(u.state, UnitState::Online);
            let is_draining = matches!(u.state, UnitState::Draining);
            if matches!(u.state, UnitState::Offline) {
                continue;
            }
            let is_busy = u.in_flight.is_some();
            if is_online {
                online += 1;
            }
            if is_busy {
                busy += 1;
            }
            gpus.push(GpuSample {
                gpu: u.id(),
                online: is_online,
                draining: is_draining,
                busy: is_busy,
                resident: u.device.resident_models().count(),
                local_depth: u.local_queue.len(),
            });
        }
        let view = SampleView {
            queue_len: self.global_queue.len(),
            online,
            busy,
            draining: self.draining_units,
            holding: self.holding_units,
            gpus: &gpus,
        };
        self.emit_with(|_| ObsEvent::Sample { view });
        gpus.clear();
        self.obs_scratch = gpus;
    }

    fn on_gpu_done(&mut self, g: GpuId, seq: u64, events: &mut EventQueue<Event>) {
        let gi = g.0 as usize;
        let phase = match &self.units[gi].in_flight {
            // A missing or mismatched token means the work crashed in the
            // meantime: the completion is stale and ignored.
            Some(f) if f.seq == seq => f.phase,
            _ => return,
        };
        match phase {
            Phase::Loading => {
                let (model, tier) = {
                    let f = self.units[gi].in_flight.as_ref().expect("work in flight");
                    (f.model(), f.tier)
                };
                self.units
                    .write(gi)
                    .device
                    .complete_load(self.now, model)
                    .expect("load completion mismatch");
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
                let done = self
                    .units
                    .write(gi)
                    .device
                    .start_inference(self.now, model, dur)
                    .expect("post-load inference start");
                if let Some(f) = self.units.write(gi).in_flight.as_mut() {
                    // The upload interval just closed; `started` now marks
                    // the inference interval for busy-time accounting.
                    self.busy_secs += self.now.duration_since(f.started).as_secs_f64();
                    f.started = self.now;
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
                let inflight = self
                    .units
                    .write(gi)
                    .in_flight
                    .take()
                    .expect("work in flight");
                self.units
                    .write(gi)
                    .device
                    .complete_inference(self.now, inflight.model())
                    .expect("inference completion mismatch");
                self.busy_secs += self.now.duration_since(inflight.started).as_secs_f64();
                // Per-request completion accounting: every coalesced
                // request ends now, each against its own arrival.
                let (b_model, b_seq) = (inflight.model(), inflight.seq);
                for r in &inflight.requests {
                    let latency = self.now.duration_since(r.arrival);
                    self.metrics.record_completion(latency);
                    self.report_latency(r, latency);
                    self.emit_with(|_| ObsEvent::Completion {
                        req: r.id,
                        gpu: g,
                        batch: b_seq,
                        model: b_model,
                        latency,
                    });
                    if let Some(slo) = self.obs_slo.filter(|&slo| latency > slo) {
                        self.emit_with(|_| ObsEvent::SloMiss {
                            req: r.id,
                            latency,
                            slo,
                        });
                    }
                }
                self.metrics.record_invocation(inflight.requests.len());
                self.emit_with(|_| ObsEvent::InvocationDone {
                    gpu: g,
                    batch: b_seq,
                    requests: inflight.requests.len(),
                });
                self.last_completion = self.last_completion.max(self.now);
                // Riding requests always served via residency (the lead's
                // load or cache hit), so they count toward Algorithm 1's
                // hit frequency; a lead miss does not.
                let hit_served = inflight.requests.len() - usize::from(!inflight.was_hit);
                self.units.write(gi).hits += hit_served as u64;
                let mut recycled = inflight.requests;
                recycled.clear();
                self.batch_pool.push(recycled);
                self.units.write(gi).idle_since = self.now;
                if self.units[gi].state == UnitState::Online {
                    self.idle_online += 1;
                    self.emit_with(|_| ObsEvent::UnitIdle { gpu: g });
                }
                self.report_status(g, "idle");
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
        if self.config.crash_rate > 0.0 && self.rng.chance(self.config.crash_rate) {
            let frac = self.rng.range_f64(0.05, 0.95);
            let crash_at = done - dur.mul_f64(1.0 - frac);
            events.schedule(crash_at, Event::GpuCrash(g, seq));
        }
        events.schedule(done, Event::GpuDone(g, seq));
    }

    /// Failure injection: the GPU process serving the in-flight request
    /// died. The model's memory is reclaimed, the cache entry dropped, and
    /// the request is retried from the head of the global queue (its
    /// original arrival time is preserved, so the retry's latency reflects
    /// the crash).
    fn on_gpu_crash(&mut self, g: GpuId, seq: u64, events: &mut EventQueue<Event>) {
        let gi = g.0 as usize;
        match &self.units[gi].in_flight {
            Some(f) if f.seq == seq && matches!(f.phase, Phase::Running) => {}
            _ => return, // already completed or crashed
        }
        let inflight = self
            .units
            .write(gi)
            .in_flight
            .take()
            .expect("work in flight");
        let model = inflight.model();
        self.units
            .write(gi)
            .device
            .force_kill(self.now, model)
            .expect("crashing process exists");
        // The partial inference consumed real GPU time before dying (the
        // completed upload was already accounted at the phase switch).
        self.busy_secs += self.now.duration_since(inflight.started).as_secs_f64();
        self.cache.remove(g, model);
        self.on_residency_change(model);
        self.emit_with(|_| ObsEvent::Crash {
            gpu: g,
            model,
            requeued: inflight.requests.len(),
        });
        self.units.write(gi).idle_since = self.now;
        if self.units[gi].state == UnitState::Online {
            self.idle_online += 1;
            self.emit_with(|_| ObsEvent::UnitIdle { gpu: g });
        }
        self.crashes += 1;
        self.report_status(g, "idle");
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
        let qlen = self.global_queue.len();
        self.note_queue_depth(self.now, qlen);
        self.emit_with(|_| ObsEvent::QueueDepth { len: qlen });
        self.maybe_finish_drain(gi);
        self.schedule_pass(events);
    }

    // ------------------------------------------------------------------
    // Autoscaling (elastic capacity; the policy lives in `autoscale`)
    // ------------------------------------------------------------------

    /// One autoscaler cadence: observe, decide, apply, re-arm. Ticks stop
    /// re-arming once every trace request has completed, so the event
    /// queue drains and the run ends.
    fn on_scale_tick(&mut self, events: &mut EventQueue<Event>) {
        #[cfg(feature = "simcheck")]
        self.audit_invariants();
        if self.metrics.completed() >= self.pending_total {
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
        events.schedule(self.now + cadence, Event::ScaleTick);
    }

    /// Brings up to `want` offline devices online, cold (empty caches,
    /// reset frequency counters), then runs a scheduling pass so queued
    /// work can flow onto them immediately.
    fn scale_up(&mut self, want: usize, events: &mut EventQueue<Event>) {
        let mut provisioned: Vec<GpuId> = Vec::new();
        for gi in 0..self.units.len() {
            if provisioned.len() == want {
                break;
            }
            if self.units[gi].state == UnitState::Offline {
                let unit = self.units.write(gi);
                unit.state = UnitState::Online;
                unit.online_since = self.now;
                unit.idle_since = self.now;
                // A cold device has no cache; its old hit frequency (from
                // a previous online interval) would skew Algorithm 1's
                // idle ordering.
                unit.hits = 0;
                debug_assert!(unit.is_idle(), "offline units carry no work");
                self.idle_online += 1;
                provisioned.push(unit.id());
            }
        }
        if provisioned.is_empty() {
            return;
        }
        self.scale_ups += provisioned.len() as u64;
        self.online_high = self.online_high.max(self.online_gpus());
        // Cold devices mean a burst of compulsory misses is coming: let a
        // tiered store stage its hottest absent models toward the host
        // cache before the cold-start storm hits the origin link.
        if !self.store_flat {
            self.store.note_scale_up(self.now);
        }
        for g in provisioned {
            self.report_status(g, "idle");
            self.emit_with(|_| ObsEvent::ScaleUp { gpu: g });
            self.emit_with(|_| ObsEvent::UnitIdle { gpu: g });
        }
        self.schedule_pass(events);
    }

    /// Marks up to `want` online GPUs as drain victims, never dropping
    /// the online fleet below the autoscale minimum. Victims are chosen
    /// in evictor-style idle order — idle GPUs first, longest-idle first
    /// (the LRU of GPUs) — then busy ones by the same stale last-idle
    /// instant (id breaks ties); an already-idle victim drains (evicts
    /// its residents and goes offline) immediately, a busy one finishes
    /// its in-flight request and local queue first.
    fn scale_down(&mut self, want: usize) {
        let min_gpus = self
            .config
            .autoscale
            .as_ref()
            .map_or(1, |a| a.min_gpus)
            .max(1);
        let online = self.online_gpus();
        let allowed = online.saturating_sub(min_gpus).min(want);
        if allowed == 0 {
            return;
        }
        let mut victims: Vec<usize> = (0..self.units.len())
            .filter(|&gi| self.units[gi].state == UnitState::Online)
            .collect();
        victims.sort_by_key(|&gi| {
            let u = &self.units[gi];
            (!u.is_idle(), u.idle_since, gi)
        });
        for &gi in victims.iter().take(allowed) {
            if self.units[gi].is_idle() {
                self.idle_online -= 1;
            }
            self.units.write(gi).state = UnitState::Draining;
            self.draining_units += 1;
            self.scale_downs += 1;
            self.emit_with(|c| ObsEvent::DrainStart {
                gpu: c.units[gi].id(),
            });
            self.maybe_finish_drain(gi);
        }
        self.online_low = self.online_low.min(self.online_gpus());
    }

    /// Completes a drain if the unit has nothing left to run: evicts its
    /// resident models (no request is lost — residency only speeds up
    /// future dispatches), closes its provisioned interval, and takes it
    /// offline.
    fn maybe_finish_drain(&mut self, gi: usize) {
        let unit = &self.units[gi];
        if unit.state != UnitState::Draining
            || unit.in_flight.is_some()
            || unit.holding.is_some()
            || !unit.local_queue.is_empty()
        {
            return;
        }
        let g = unit.id();
        let residents: Vec<ModelId> = unit.device.resident_models().collect();
        for model in residents {
            self.units
                .write(gi)
                .device
                .evict(model)
                .expect("drained GPU's residents are ready processes");
            self.cache.remove(g, model);
            self.on_residency_change(model);
            // Drain evictions demote like capacity evictions do — the
            // device is going away cleanly, so its weights are written
            // back to the host cache. (Crashes do not demote: the
            // process died with its memory.)
            if !self.store_flat {
                let bytes = self.registry.occupancy_bytes(model);
                self.store.demote(self.now, model, bytes);
            }
            self.emit_with(|_| ObsEvent::Eviction { gpu: g, model });
        }
        let unit = self.units.write(gi);
        unit.provisioned += self.now.duration_since(unit.online_since);
        unit.state = UnitState::Offline;
        self.draining_units -= 1;
        self.emit_with(|_| ObsEvent::Offline { gpu: g });
        self.report_status(g, "offline");
        self.report_lru(g);
    }

    // ------------------------------------------------------------------
    // Request batching (coalescing; the policies live in `batching`)
    // ------------------------------------------------------------------

    /// Same-model requests immediately coalescable with a dispatch on
    /// `gi`: matching entries in its local queue, plus — for online GPUs
    /// — matching, tenant-unblocked entries in the global queue.
    fn coalescable(&self, gi: usize, model: ModelId) -> usize {
        // The aggregate's request count is exactly the filter count the
        // naive scan produced.
        let local = self.local_aggs[gi]
            .groups
            .iter()
            .find(|g| g.0 == model)
            .map_or(0, |g| g.2);
        debug_assert_eq!(
            local,
            self.units[gi]
                .local_queue
                .iter()
                .filter(|r| r.model == model)
                .count()
        );
        let global = if self.units[gi].state == UnitState::Online {
            self.global_queue
                .iter()
                .filter(|r| r.model == model && !self.tenant_blocked(r.tenant))
                .count()
        } else {
            0
        };
        local + global
    }

    /// Moves same-model requests into `out` until it holds `cap`
    /// requests: local-queue entries first (they were placed here and
    /// would run next anyway), then global-queue entries in arrival
    /// order. Draining GPUs take no global work — a scale-down victim
    /// only winds down what it already owns. The §VI tenant cap counts
    /// the forming batch itself (its requests live only in `out` during
    /// collection, invisible to [`Cluster::tenant_load`]), so one
    /// coalesced invocation cannot smuggle a capped tenant past its
    /// in-flight limit.
    fn collect_same_model(
        &mut self,
        gi: usize,
        model: ModelId,
        cap: usize,
        out: &mut Vec<Request>,
    ) {
        let g = self.units[gi].id();
        let mut i = 0;
        while out.len() < cap && i < self.units[gi].local_queue.len() {
            if self.units[gi].local_queue[i].model == model {
                let r = self
                    .units
                    .write(gi)
                    .local_queue
                    .remove(i)
                    .expect("index in bounds");
                self.agg_remove(gi, &r);
                self.emit_with(|_| ObsEvent::Join { req: r.id, gpu: g });
                out.push(r);
            } else {
                i += 1;
            }
        }
        if self.units[gi].state != UnitState::Online {
            return;
        }
        let global_before = self.global_queue.len();
        let mut i = 0;
        while out.len() < cap && i < self.global_queue.len() {
            let (matches, tenant) = {
                let r = &self.global_queue[i];
                (r.model == model, r.tenant)
            };
            let blocked = matches
                && self.config.tenant_max_inflight.is_some_and(|tenant_cap| {
                    let forming = out.iter().filter(|r| r.tenant == tenant).count();
                    self.tenant_load(tenant) + forming >= tenant_cap
                });
            if matches && !blocked {
                let r = self.global_queue.remove(i).expect("index in bounds");
                self.emit_with(|_| ObsEvent::Join { req: r.id, gpu: g });
                out.push(r);
            } else {
                i += 1;
            }
        }
        let qlen = self.global_queue.len();
        if qlen != global_before {
            self.note_queue_depth(self.now, qlen);
            self.emit_with(|_| ObsEvent::QueueDepth { len: qlen });
        }
    }

    /// The affine-latency view a [`BatchPolicy`] plans against, scaled to
    /// GPU `gi`'s own compute and PCIe profiles.
    fn batch_view(
        &self,
        gi: usize,
        model: ModelId,
        hit: bool,
        lead_arrival: SimTime,
        available: usize,
    ) -> BatchView {
        let spec = self.units[gi].device.spec();
        let profile = self.registry.profile(model);
        BatchView {
            model,
            hit,
            now: self.now,
            lead_arrival,
            available,
            items_per_request: self.config.batch_size,
            infer_base_secs: profile.infer_base_secs * spec.compute_scale,
            infer_item_secs: profile.infer_per_item_secs * spec.compute_scale,
            load_secs: profile.load_time.mul_f64(spec.load_scale).as_secs_f64(),
        }
    }

    /// Executes a scheduler dispatch through the batching layer: plans a
    /// batch for the lead request, coalesces available same-model
    /// requests, and either launches now or parks the batch in a hold
    /// slot awaiting its `BatchHold` timer. The `none` policy
    /// short-circuits to the paper's per-request launch.
    fn dispatch_batched(
        &mut self,
        gi: usize,
        lead: Request,
        hit: bool,
        events: &mut EventQueue<Event>,
    ) {
        // Every dispatch path funnels through here on an idle unit, and
        // every branch below leaves it busy (in flight or holding).
        debug_assert!(self.units[gi].is_idle(), "dispatch on a busy GPU");
        if self.units[gi].state == UnitState::Online {
            self.idle_online -= 1;
        }
        self.emit_with(|c| ObsEvent::Join {
            req: lead.id,
            gpu: c.units[gi].id(),
        });
        let mut requests = self.batch_pool.pop().unwrap_or_default();
        requests.push(lead);
        if self.batcher.is_passthrough() {
            self.launch_batch(gi, requests, hit, events);
            return;
        }
        let model = lead.model;
        let available = self.coalescable(gi, model);
        let view = self.batch_view(gi, model, hit, lead.arrival, available);
        let plan = self.batcher.plan(&view);
        let cap = plan.max_requests.max(1);
        self.collect_same_model(gi, model, cap, &mut requests);
        // The driver's backstop on [`BatchPlan::hold`]'s contract: a solo
        // batch launches immediately no matter what the policy answered —
        // holding a lone request would trade its latency for nothing.
        if requests.len() >= 2 && requests.len() < cap {
            if let Some(hold) = plan.hold {
                let g = self.units[gi].id();
                let seq = self.dispatch_seq;
                self.dispatch_seq += 1;
                let release_at = self.now + hold;
                self.profile.holds_parked += 1;
                self.emit_with(|_| ObsEvent::HoldStart {
                    gpu: g,
                    model,
                    gathered: requests.len(),
                    release_at,
                });
                self.units.write(gi).holding = Some(HoldSlot {
                    requests,
                    max_requests: cap,
                    hit,
                    release_at,
                    seq,
                });
                self.holding_units += 1;
                self.report_status(g, "busy");
                events.schedule(release_at, Event::BatchHold(g, seq));
                return;
            }
        }
        self.launch_batch(gi, requests, hit, events);
    }

    /// Tops a held batch up with same-model requests that arrived since
    /// the hold began, launching early when it fills. Returns true iff
    /// the batch launched.
    fn fill_hold(&mut self, gi: usize, events: &mut EventQueue<Event>) -> bool {
        let Some(slot) = &self.units[gi].holding else {
            return false;
        };
        let (model, cap) = (slot.model(), slot.max_requests);
        let mut slot = self
            .units
            .write(gi)
            .holding
            .take()
            .expect("slot checked above");
        self.collect_same_model(gi, model, cap, &mut slot.requests);
        if slot.requests.len() >= cap {
            // Full: launch now; the pending BatchHold timer goes stale
            // (its token no longer matches a held slot).
            self.holding_units -= 1;
            self.launch_batch(gi, slot.requests, slot.hit, events);
            true
        } else {
            self.units.write(gi).holding = Some(slot);
            false
        }
    }

    /// A held batch's timer fired: launch whatever it gathered (after a
    /// final same-model top-up). A stale token means the batch already
    /// launched early.
    fn on_batch_hold(&mut self, g: GpuId, seq: u64, events: &mut EventQueue<Event>) {
        let gi = g.0 as usize;
        match &self.units[gi].holding {
            Some(h) if h.seq == seq => {}
            _ => return,
        }
        let mut slot = self
            .units
            .write(gi)
            .holding
            .take()
            .expect("slot checked above");
        self.holding_units -= 1;
        self.collect_same_model(gi, slot.model(), slot.max_requests, &mut slot.requests);
        self.launch_batch(gi, slot.requests, slot.hit, events);
    }

    /// Grows a just-loaded invocation's batch with same-model requests
    /// that queued up during the upload, re-consulting the batch policy
    /// (as a hit view: the model is resident now). The upload itself was
    /// the gathering window, so any `hold` in the new plan is ignored —
    /// the inference launches immediately.
    fn topup_loaded_batch(&mut self, gi: usize) {
        let (model, lead_arrival, len) = {
            let f = self.units[gi].in_flight.as_ref().expect("work in flight");
            (f.model(), f.lead().arrival, f.requests.len())
        };
        let available = self.coalescable(gi, model);
        if available == 0 {
            return;
        }
        let view = self.batch_view(gi, model, true, lead_arrival, available);
        let cap = self.batcher.plan(&view).max_requests.max(1);
        if cap <= len {
            return;
        }
        let mut requests = {
            let f = self
                .units
                .write(gi)
                .in_flight
                .as_mut()
                .expect("work in flight");
            std::mem::take(&mut f.requests)
        };
        self.collect_same_model(gi, model, cap, &mut requests);
        let g = self.units[gi].id();
        for _ in len..requests.len() {
            // Joiners ride the completed upload: hit decisions and cache
            // accesses like any coalesced request.
            self.metrics.record_dispatch(true, false);
            self.cache.touch(g, model);
        }
        let joined = requests.len() - len;
        if joined > 0 {
            self.emit_with(|_| ObsEvent::LoadRiders { gpu: g, joined });
        }
        self.units
            .write(gi)
            .in_flight
            .as_mut()
            .expect("work in flight")
            .requests = requests;
    }

    /// Launches a coalesced invocation on `gi` (both the hit and miss
    /// paths; a single-request batch is exactly the paper's per-request
    /// dispatch).
    fn launch_batch(
        &mut self,
        gi: usize,
        requests: Vec<Request>,
        hit: bool,
        events: &mut EventQueue<Event>,
    ) {
        self.profile.dispatches += 1;
        if hit {
            self.execute_hit(gi, requests, events);
        } else {
            self.execute_miss(gi, requests, events);
        }
    }

    // ------------------------------------------------------------------
    // Scheduling (paper §IV; the algorithms live in the policy impls)
    // ------------------------------------------------------------------

    /// Runs scheduling iterations until no dispatch is possible. The
    /// structure (pass loop, local-queue priority, idle filtering) is the
    /// driver's; every placement decision is the policy's. Draining GPUs
    /// are invisible to the policy but still serve their own local
    /// queues, so no already-placed request is lost to a scale-down.
    fn schedule_pass(&mut self, events: &mut EventQueue<Event>) {
        self.profile.schedule_passes += 1;
        let mut sched = self.sched.take().expect("scheduler in place");
        loop {
            self.profile.pass_rounds += 1;
            debug_assert_eq!(
                self.idle_online,
                self.units
                    .iter()
                    .filter(|u| u.state == UnitState::Online && u.is_idle())
                    .count(),
                "idle_online counter out of sync"
            );
            debug_assert_eq!(
                self.holding_units,
                self.units.iter().filter(|u| u.holding.is_some()).count(),
                "holding_units counter out of sync"
            );
            debug_assert_eq!(
                self.draining_units,
                self.units
                    .iter()
                    .filter(|u| u.state == UnitState::Draining)
                    .count(),
                "draining_units counter out of sync"
            );
            // The saturated common case: nothing to top up, nothing to
            // drain, nowhere to dispatch — the pass is provably a no-op.
            if self.idle_online == 0 && self.holding_units == 0 && self.draining_units == 0 {
                break;
            }
            let mut progress = false;
            // Held batches vacuum up matching new arrivals and launch
            // early once full (no-op under per-request dispatch).
            if self.holding_units > 0 && !self.batcher.is_passthrough() {
                for gi in 0..self.units.len() {
                    if self.units[gi].holding.is_some() && self.fill_hold(gi, events) {
                        progress = true;
                    }
                }
            }
            // Drain victims run down their local queues (always resident
            // hits) but receive no new work.
            if self.draining_units > 0 {
                for gi in 0..self.units.len() {
                    if self.units[gi].state == UnitState::Draining && self.units[gi].is_idle() {
                        if let Some(r) = self.pop_local(gi) {
                            debug_assert!(
                                self.cache.is_cached(self.units[gi].id(), r.model),
                                "local-queue request's model must be resident"
                            );
                            self.dispatch_batched(gi, r, true, events);
                            progress = true;
                        }
                    }
                }
            }
            // Online idle GPUs with work available to them, Algorithm 1's
            // input. The candidate list lives in a recycled buffer — a
            // pass runs on every arrival, so per-pass allocation is hot.
            let mut idle = std::mem::take(&mut self.idle_scratch);
            idle.clear();
            if self.idle_online > 0 {
                idle.extend(
                    self.units
                        .iter()
                        .filter(|u| u.state == UnitState::Online && u.is_idle())
                        .filter(|u| !u.local_queue.is_empty() || !self.global_queue.is_empty())
                        .map(|u| u.id()),
                );
            }
            if idle.is_empty() {
                self.idle_scratch = idle;
                if progress {
                    continue;
                }
                break;
            }
            let mut ctx = SchedCtx {
                cluster: self,
                events,
                progress,
            };
            sched.idle_order(&ctx, &mut idle);
            for &g in &idle {
                let gi = g.0 as usize;
                if !ctx.cluster.units[gi].is_idle() {
                    continue; // became busy earlier in this iteration
                }
                // Algorithm 1 lines 2–5: the local queue has priority.
                if let Some(r) = ctx.cluster.pop_local(gi) {
                    debug_assert!(
                        ctx.cluster.cache.is_cached(g, r.model),
                        "local-queue request's model must be resident"
                    );
                    ctx.cluster.dispatch_batched(gi, r, true, ctx.events);
                    ctx.progress = true;
                    continue;
                }
                if ctx.cluster.global_queue.is_empty() {
                    continue;
                }
                let dispatch = sched.on_gpu_idle(g, &mut ctx);
                ctx.apply(g, dispatch);
            }
            let made_progress = ctx.progress;
            self.idle_scratch = idle;
            if !made_progress {
                break;
            }
        }
        self.sched = Some(sched);
    }

    // ------------------------------------------------------------------
    // Dispatch execution
    // ------------------------------------------------------------------

    /// Starts a cache-hit inference on an idle GPU — one invocation
    /// serving every request in `requests` (one, unless a batch policy
    /// coalesced more).
    fn execute_hit(&mut self, gi: usize, requests: Vec<Request>, events: &mut EventQueue<Event>) {
        let g = self.units[gi].id();
        let model = requests[0].model;
        debug_assert!(self.cache.is_cached(g, model), "hit without residency");
        debug_assert!(requests.iter().all(|r| r.model == model));
        // Every coalesced request is a hit decision and a cache access.
        for _ in &requests {
            self.metrics.record_dispatch(true, false);
        }
        for _ in &requests {
            self.cache.touch(g, model);
        }
        let items: usize = requests.iter().map(|r| r.batch).sum();
        let dur = self.infer_time_on(gi, model, items);
        let done = self
            .units
            .write(gi)
            .device
            .start_inference(self.now, model, dur)
            .expect("hit dispatch on idle GPU");
        let seq = self.dispatch_seq;
        self.dispatch_seq += 1;
        self.emit_with(|_| ObsEvent::Dispatch {
            gpu: g,
            lead: requests[0].id,
            model,
            hit: true,
            false_miss: false,
            coalesced: requests.len(),
        });
        self.emit_with(|_| ObsEvent::InferStart {
            gpu: g,
            model,
            batch: seq,
            requests: requests.len(),
            items,
        });
        self.units.write(gi).in_flight = Some(InFlight {
            requests,
            phase: Phase::Running,
            was_hit: true,
            started: self.now,
            seq,
            tier: Tier::HBM,
        });
        self.report_status(g, "busy");
        self.schedule_inference_outcome(gi, done, dur, events);
    }

    /// Starts a cache-miss (load, then inference) on an idle GPU,
    /// evicting victims as needed. The lead request pays the miss;
    /// coalesced requests ride the same upload and count as hits.
    fn execute_miss(&mut self, gi: usize, requests: Vec<Request>, events: &mut EventQueue<Event>) {
        let g = self.units[gi].id();
        let model = requests[0].model;
        debug_assert!(!self.cache.is_cached(g, model), "miss with residency");
        debug_assert!(requests.iter().all(|r| r.model == model));
        let false_miss = self.cache.cached_anywhere(model);
        self.metrics.record_dispatch(false, false_miss);
        for _ in 1..requests.len() {
            self.metrics.record_dispatch(true, false);
        }
        self.emit_with(|_| ObsEvent::Dispatch {
            gpu: g,
            lead: requests[0].id,
            model,
            hit: false,
            false_miss,
            coalesced: requests.len(),
        });

        let occupancy = self.registry.occupancy_bytes(model);
        // The Cache Manager provisions against capacity minus its OOM
        // headroom (see `ClusterConfig::mem_headroom_mib`).
        let headroom = self.config.mem_headroom_mib * gfaas_gpu::MIB;
        let free = self.units[gi].device.free_bytes().saturating_sub(headroom);
        let registry = &self.registry;
        let victims = self
            .cache
            .select_victims(g, occupancy, free, |m| registry.occupancy_bytes(m), &[])
            .unwrap_or_else(|| {
                panic!(
                    "model {} ({} B) cannot fit GPU {} ({} B capacity)",
                    model,
                    occupancy,
                    g,
                    self.units[gi].device.spec().memory_bytes
                )
            });
        for v in victims {
            self.units
                .write(gi)
                .device
                .evict(v)
                .expect("victims on an idle GPU are evictable");
            self.on_residency_change(v);
            // Eviction demotes: the victim's weights land in the host
            // cache (a device→host writeback overlaps compute, so the
            // demotion itself is free), making the next miss for it a
            // host hit instead of an origin fetch.
            if !self.store_flat {
                let bytes = self.registry.occupancy_bytes(v);
                self.store.demote(self.now, v, bytes);
            }
            self.emit_with(|_| ObsEvent::Eviction { gpu: g, model: v });
        }
        // The store prices (and accounts) the upload: the flat backend
        // echoes the per-device profile time; a tiered backend settles
        // background transfers, serves from host if resident, joins an
        // in-flight prefetch, or queues an origin fetch.
        let flat_load = self
            .registry
            .load_time(model)
            .mul_f64(self.units[gi].device.spec().load_scale);
        let (tier, load_time) = if self.store_flat {
            (Tier::ORIGIN, flat_load)
        } else {
            self.store.begin_load(self.now, model, occupancy, flat_load)
        };
        let (_pid, ready) = self
            .units
            .write(gi)
            .device
            .start_load_timed(self.now, model, occupancy, load_time)
            .expect("load after eviction fits");
        self.cache.insert(g, model);
        self.on_residency_change(model);
        // Riding requests access the freshly inserted model (frequency
        // for TinyLFU-style evictors; a no-op for the insert-hot LRU).
        for _ in 1..requests.len() {
            self.cache.touch(g, model);
        }
        self.report_lru(g);
        let seq = self.dispatch_seq;
        self.dispatch_seq += 1;
        self.emit_with(|_| ObsEvent::LoadStart {
            gpu: g,
            model,
            batch: seq,
            tier,
        });
        self.units.write(gi).in_flight = Some(InFlight {
            requests,
            phase: Phase::Loading,
            was_hit: false,
            started: self.now,
            seq,
            tier,
        });
        self.report_status(g, "busy");
        events.schedule(ready, Event::GpuDone(g, seq));
    }

    fn on_residency_change(&mut self, model: ModelId) {
        if self.hot_model == Some(model) {
            let replicas = self.cache.replica_count(model);
            self.metrics.record_hot_replicas(self.now, replicas);
            self.emit_with(|_| ObsEvent::HotReplicas { replicas });
        }
    }

    // ------------------------------------------------------------------
    // Datastore mirroring (paper Fig 2: components coordinate via etcd)
    // ------------------------------------------------------------------

    fn report_status(&self, g: GpuId, status: &str) {
        if !self.config.report_to_datastore {
            return;
        }
        if let Some(ds) = &self.datastore {
            ds.put(status_key(g), status.to_string());
        }
    }

    fn report_lru(&self, g: GpuId) {
        if !self.config.report_to_datastore {
            return;
        }
        if let Some(ds) = &self.datastore {
            let list = self
                .cache
                .resident(g)
                .iter()
                .map(|m| m.0.to_string())
                .collect::<Vec<_>>()
                .join(",");
            ds.put(lru_key(g), list);
        }
    }

    fn report_latency(&self, r: &Request, latency: SimDuration) {
        if !self.config.report_to_datastore {
            return;
        }
        if let Some(ds) = &self.datastore {
            ds.put(
                format!("/latency/{}", r.id),
                format!("{:.6}", latency.as_secs_f64()),
            );
        }
    }

    // ------------------------------------------------------------------
    // Versioned state: snapshot / rollback / commit (gfaas-snap)
    // ------------------------------------------------------------------

    /// Pins the complete mutable simulation state and returns a handle.
    /// The cluster keeps running normally; [`Cluster::rollback`] restores
    /// this instant byte-identically, [`Cluster::commit`] retires the
    /// pin. A pin records the fixed-size state (scalars, RNG, pending
    /// events, metric marks, policy blobs) up front and the GPU units and
    /// global queue as write sets, so it costs O(state touched), never
    /// O(queue). Zero-cost when unused: with no pin live every write path
    /// is one untaken branch.
    pub fn snapshot(&mut self) -> SnapId {
        let events = std::mem::take(&mut self.events);
        let id = self.pin(&events);
        self.events = events;
        id
    }

    /// Restores the state pinned by `id`, discarding everything that
    /// happened since — metrics, RNG, queues, residency, pending events,
    /// the arrival cursor, all of it — and closing every younger pin. The
    /// pin survives, so the same snapshot can be rolled back to again.
    /// Returns false for a dead or foreign id. Attached recorders and
    /// datastores are *not* rewound: rolling back mid-recording leaves
    /// already-emitted telemetry in the sinks (the lookahead forks stash
    /// the recorder first for exactly that reason).
    pub fn rollback(&mut self, id: SnapId) -> bool {
        let Some(at) = self.pins.find(id) else {
            return false;
        };
        let mut events = std::mem::take(&mut self.events);
        self.rollback_to(at, false, &mut events);
        self.events = events;
        true
    }

    /// Retires the pin `id` (and any older pins), keeping the current
    /// timeline. Returns false for a dead or foreign id.
    pub fn commit(&mut self, id: SnapId) -> bool {
        let Some(at) = self.pins.find(id) else {
            return false;
        };
        self.units.commit(at);
        self.local_aggs.commit(at);
        self.global_queue.commit(at);
        self.pins.committed(at);
        true
    }

    /// Pin counters: snapshots taken, rollbacks (including speculative
    /// forks), commits.
    pub fn journal_stats(&self) -> JournalStats {
        self.pins.stats()
    }

    /// Live (uncommitted, un-rolled-back) pins.
    pub fn journal_depth(&self) -> usize {
        self.pins.depth()
    }

    /// Opens a pin: records the fixed-size state into a recycled
    /// [`PinFrame`] and opens the containers' write sets. The event heap
    /// is passed in because the drive loop owns it (`mem::take`n) while a
    /// speculation fork pins.
    fn pin(&mut self, events: &EventQueue<Event>) -> SnapId {
        let (id, f) = self.pins.push();
        f.scalars = Scalars {
            now: self.now,
            last_completion: self.last_completion,
            hot_model: self.hot_model,
            local_moves: self.local_moves,
            crashes: self.crashes,
            dispatch_seq: self.dispatch_seq,
            rng: self.rng.state(),
            scale_ups: self.scale_ups,
            scale_downs: self.scale_downs,
            online_low: self.online_low,
            online_high: self.online_high,
            pending_total: self.pending_total,
            idle_online: self.idle_online,
            holding_units: self.holding_units,
            draining_units: self.draining_units,
            busy_secs: self.busy_secs,
            next_arrival: self.next_arrival,
            run_started: self.run_started,
            estimator_calls: self.estimator_calls.get(),
        };
        f.profile = self.profile.clone();
        self.metrics.mark_into(&mut f.metrics);
        f.replaced_metrics = None;
        f.events.clone_from(events);
        // Policy objects keep their state private; their checkpoint
        // hooks serialise it into one reused buffer.
        f.blobs.clear();
        self.cache.save_state(&mut f.blobs);
        f.sched_present = self.sched.is_some();
        if let Some(s) = &self.sched {
            s.save_state(&mut f.blobs);
        }
        self.batcher.save_state(&mut f.blobs);
        self.store.save_state(&mut f.blobs);
        if let Some(a) = &self.autoscaler {
            a.save_state(&mut f.blobs);
        }
        #[cfg(feature = "simcheck")]
        f.simcheck.clone_from(&self.simcheck);
        self.units.pin(id);
        self.local_aggs.pin(id);
        self.global_queue.pin(id);
        id
    }

    /// Restores the instant pinned at stack position `at`: undoes the
    /// write sets innermost-first, then copies the pin's fixed-size
    /// state back. Younger pins close; with `retire` the pin itself
    /// closes too (a finished fork), otherwise it stays open for further
    /// rollbacks.
    fn rollback_to(&mut self, at: usize, retire: bool, events: &mut EventQueue<Event>) {
        self.units.rollback(at);
        self.local_aggs.rollback(at);
        self.global_queue.rollback(at);
        if retire {
            self.units.release(at);
            self.local_aggs.release(at);
            self.global_queue.release(at);
        }
        // A checkpoint restore under a live pin swaps the whole metrics
        // collector; the innermost-first walk puts the oldest one back.
        for f in self.pins.frames_from_mut(at).rev() {
            if let Some(m) = f.replaced_metrics.take() {
                self.metrics = m;
            }
        }
        let f = self.pins.frame_mut(at);
        let Scalars {
            now,
            last_completion,
            hot_model,
            local_moves,
            crashes,
            dispatch_seq,
            rng,
            scale_ups,
            scale_downs,
            online_low,
            online_high,
            pending_total,
            idle_online,
            holding_units,
            draining_units,
            busy_secs,
            next_arrival,
            run_started,
            estimator_calls,
        } = f.scalars;
        self.now = now;
        self.last_completion = last_completion;
        self.hot_model = hot_model;
        self.local_moves = local_moves;
        self.crashes = crashes;
        self.dispatch_seq = dispatch_seq;
        self.rng = DetRng::from_state(rng);
        self.scale_ups = scale_ups;
        self.scale_downs = scale_downs;
        self.online_low = online_low;
        self.online_high = online_high;
        self.pending_total = pending_total;
        self.idle_online = idle_online;
        self.holding_units = holding_units;
        self.draining_units = draining_units;
        self.busy_secs = busy_secs;
        self.next_arrival = next_arrival;
        self.run_started = run_started;
        self.estimator_calls.set(estimator_calls);
        self.profile.clone_from(&f.profile);
        self.metrics.rewind(&f.metrics);
        if retire {
            // The frame is closing: take its heap instead of copying it.
            std::mem::swap(events, &mut f.events);
        } else {
            events.clone_from(&f.events);
        }
        let mut dec = Dec::new(f.blobs.as_bytes());
        self.cache
            .load_state(&mut dec)
            .expect("pinned cache state decodes");
        assert_eq!(
            f.sched_present,
            self.sched.is_some(),
            "snapshot and rollback straddle a scheduling pass"
        );
        if let Some(s) = self.sched.as_mut() {
            s.load_state(&mut dec)
                .expect("pinned scheduler state decodes");
        }
        self.batcher
            .load_state(&mut dec)
            .expect("pinned batcher state decodes");
        self.store
            .load_state(&mut dec)
            .expect("pinned store state decodes");
        if let Some(a) = self.autoscaler.as_mut() {
            a.load_state(&mut dec)
                .expect("pinned autoscaler state decodes");
        }
        debug_assert_eq!(dec.remaining(), 0, "pinned policy state fully consumed");
        #[cfg(feature = "simcheck")]
        self.simcheck.clone_from(&f.simcheck);
        self.pins.rolled_back(at, retire);
    }

    // ------------------------------------------------------------------
    // Trace checkpoint / warm start (on-disk form of the state image)
    // ------------------------------------------------------------------

    /// FNV digest of the full config debug form — the checkpoint
    /// envelope's compatibility fingerprint.
    fn config_digest(&self) -> u64 {
        fnv1a(format!("{:?}", self.config).as_bytes())
    }

    /// Serialises the paused run into a self-describing byte image. The
    /// envelope carries digests of the config and the trace, so a
    /// [`Cluster::restore`] into a different world is rejected instead of
    /// silently diverging. Call between [`Cluster::run_until`] and
    /// [`Cluster::resume`]; a warm-started run's metrics are
    /// byte-identical to an uninterrupted one.
    pub fn checkpoint(&self, trace: &Trace) -> Vec<u8> {
        assert!(self.sched.is_some(), "checkpoint outside a scheduling pass");
        let mut enc = Enc::new();
        write_header(
            &mut enc,
            self.config_digest(),
            trace_digest(trace),
            trace.len(),
        );
        self.encode_state(&mut enc, &self.events);
        enc.into_bytes()
    }

    /// The checkpoint image body: every piece of mutable simulation
    /// state, with the pending events passed in (a fork runs with the
    /// heap owned by the drive loop). The scheduler's state is written
    /// only when it is in its slot — it always is outside a pass, which
    /// is where checkpoints are taken.
    fn encode_state(&self, enc: &mut Enc, events: &EventQueue<Event>) {
        for u in self.units.iter() {
            save_unit(enc, u);
        }
        self.cache.save_state(enc);
        if let Some(s) = &self.sched {
            s.save_state(enc);
        }
        self.batcher.save_state(enc);
        self.store.save_state(enc);
        enc.put_bool(self.autoscaler.is_some());
        if let Some(a) = &self.autoscaler {
            a.save_state(enc);
        }
        enc.put_usize(self.global_queue.len());
        for r in self.global_queue.iter() {
            save_request(enc, r);
        }
        self.metrics.save_state(enc);
        enc.put_time(self.now);
        enc.put_time(self.last_completion);
        enc.put_bool(self.hot_model.is_some());
        if let Some(m) = self.hot_model {
            enc.put_u32(m.0);
        }
        enc.put_u64(self.local_moves);
        enc.put_u64(self.crashes);
        enc.put_u64(self.dispatch_seq);
        for w in self.rng.state() {
            enc.put_u64(w);
        }
        enc.put_u64(self.scale_ups);
        enc.put_u64(self.scale_downs);
        enc.put_usize(self.online_low);
        enc.put_usize(self.online_high);
        enc.put_u64(self.pending_total);
        enc.put_usize(self.idle_online);
        enc.put_usize(self.holding_units);
        enc.put_usize(self.draining_units);
        enc.put_f64(self.busy_secs);
        save_events(enc, events);
        enc.put_usize(self.next_arrival);
        enc.put_bool(self.run_started);
        // The sanitizer slot is written unconditionally so the wire
        // layout is identical with and without the `simcheck` feature —
        // a checkpoint taken by either build restores under either.
        #[cfg(feature = "simcheck")]
        self.simcheck.save_state(enc);
        #[cfg(not(feature = "simcheck"))]
        {
            enc.put_u64(0);
            enc.put_time(SimTime::ZERO);
            enc.put_u64(0);
            enc.put_u64(0);
            enc.put_time(SimTime::ZERO);
            enc.put_usize(0);
            enc.put_u128(0);
        }
    }

    /// Restores a [`Cluster::checkpoint`] image into this cluster, which
    /// must have been built from the same config and be resuming the
    /// same trace (both enforced by the envelope digests). On success
    /// the cluster is exactly the paused instant; drive it with
    /// [`Cluster::resume`] or [`Cluster::run_until`]. On error the
    /// cluster is left exactly as it was before the call.
    pub fn restore(&mut self, bytes: &[u8], trace: &Trace) -> Result<(), SnapError> {
        // Decoding overwrites units and policy state in place, so keep a
        // checkpoint of the current state to decode back if the bytes are
        // bad.
        let backup = self.checkpoint(trace);
        let restored = self.decode_checkpoint(bytes, trace);
        if restored.is_err() {
            self.decode_checkpoint(&backup, trace)
                .expect("a cluster's own checkpoint decodes");
        }
        restored
    }

    /// The decoding half of [`Cluster::restore`]. Writes go through the
    /// pinned containers like any other, so a pin taken before a restore
    /// still rolls back across it; the one wholesale swap, the metrics
    /// collector, is handed to the innermost pin.
    fn decode_checkpoint(&mut self, bytes: &[u8], trace: &Trace) -> Result<(), SnapError> {
        let mut dec = Dec::new(bytes);
        read_header(
            &mut dec,
            self.config_digest(),
            trace_digest(trace),
            trace.len(),
        )?;
        for gi in 0..self.units.len() {
            load_unit(&mut dec, self.units.write(gi))?;
        }
        self.cache.load_state(&mut dec)?;
        self.sched
            .as_mut()
            .expect("restore outside a scheduling pass")
            .load_state(&mut dec)?;
        self.batcher.load_state(&mut dec)?;
        self.store.load_state(&mut dec)?;
        if dec.bool()? != self.autoscaler.is_some() {
            return Err(SnapError::Corrupt("autoscaler presence mismatch"));
        }
        if let Some(a) = self.autoscaler.as_mut() {
            a.load_state(&mut dec)?;
        }
        let qlen = dec.usize()?;
        let mut queue = VecDeque::with_capacity(qlen.min(dec.remaining()));
        for _ in 0..qlen {
            queue.push_back(load_request(&mut dec)?);
        }
        let metrics = MetricsCollector::load_state(&mut dec)?;
        self.now = dec.time()?;
        self.last_completion = dec.time()?;
        self.hot_model = if dec.bool()? {
            Some(ModelId(dec.u32()?))
        } else {
            None
        };
        self.local_moves = dec.u64()?;
        self.crashes = dec.u64()?;
        self.dispatch_seq = dec.u64()?;
        let mut rng_state = [0u64; 4];
        for w in &mut rng_state {
            *w = dec.u64()?;
        }
        if rng_state == [0u64; 4] {
            return Err(SnapError::Corrupt("all-zero rng state"));
        }
        self.scale_ups = dec.u64()?;
        self.scale_downs = dec.u64()?;
        self.online_low = dec.usize()?;
        self.online_high = dec.usize()?;
        self.pending_total = dec.u64()?;
        self.idle_online = dec.usize()?;
        self.holding_units = dec.usize()?;
        self.draining_units = dec.usize()?;
        self.busy_secs = dec.f64()?;
        let events = load_events(&mut dec)?;
        let next_arrival = dec.usize()?;
        if next_arrival > trace.len() {
            return Err(SnapError::Corrupt("arrival cursor past trace end"));
        }
        self.run_started = dec.bool()?;
        #[cfg(feature = "simcheck")]
        self.simcheck.load_state(&mut dec)?;
        #[cfg(not(feature = "simcheck"))]
        {
            let _ = dec.u64()?;
            let _ = dec.time()?;
            let _ = dec.u64()?;
            let _ = dec.u64()?;
            let _ = dec.time()?;
            let _ = dec.usize()?;
            let _ = dec.u128()?;
        }
        dec.finish()?;
        self.validate_requests(&queue)?;
        self.global_queue.replace(queue);
        let replaced = std::mem::replace(&mut self.metrics, metrics);
        if let Some(f) = self.pins.top_mut() {
            f.replaced_metrics.get_or_insert(replaced);
        }
        self.rng = DetRng::from_state(rng_state);
        self.events = events;
        self.next_arrival = next_arrival;
        // Derived state follows the restored queues.
        for gi in 0..self.units.len() {
            self.agg_rebuild(gi);
        }
        Ok(())
    }

    /// Rejects decoded requests the simulation cannot run: a model the
    /// registry does not know, a batch size other than the config's, or
    /// an empty invocation. The estimators index the registry by model,
    /// so these must be caught before any derived state is rebuilt.
    fn validate_requests(&self, global: &VecDeque<Request>) -> Result<(), SnapError> {
        let ok = |r: &Request| {
            (r.model.0 as usize) < self.registry.len() && r.batch == self.config.batch_size
        };
        for u in self.units.iter() {
            let inflight = u.in_flight.as_ref().map_or(&[][..], |f| &f.requests);
            let held = u.holding.as_ref().map_or(&[][..], |h| &h.requests);
            if u.in_flight.as_ref().is_some_and(|f| f.requests.is_empty())
                || u.holding.as_ref().is_some_and(|h| h.requests.is_empty())
            {
                return Err(SnapError::Corrupt("empty invocation"));
            }
            if !(inflight.iter().all(ok) && held.iter().all(ok) && u.local_queue.iter().all(ok)) {
                return Err(SnapError::Corrupt("request outside the config"));
            }
        }
        if !global.iter().all(ok) {
            return Err(SnapError::Corrupt("request outside the config"));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Speculative what-if scheduling (the lookahead policy's fork engine)
    // ------------------------------------------------------------------

    /// The debug fork oracle's view of the whole state: the checkpoint
    /// body (scheduler slot included only when occupied), plus the
    /// self-profile and estimator count a checkpoint leaves out.
    #[cfg(debug_assertions)]
    fn state_bytes(&self, events: &EventQueue<Event>) -> Vec<u8> {
        let mut enc = Enc::new();
        self.encode_state(&mut enc, events);
        let p = &self.profile;
        for v in [
            p.arrivals,
            p.events_popped,
            p.schedule_passes,
            p.pass_rounds,
            p.dispatches,
            p.estimator_calls,
            p.holds_parked,
            p.heap_peak as u64,
            self.estimator_calls.get(),
        ] {
            enc.put_u64(v);
        }
        enc.into_bytes()
    }

    /// Forks the world, performs one candidate placement for the queued
    /// request at `queue_index`, replays up to `horizon` pending runtime
    /// events under a plain greedy LALBO3 scheduler, scores the outcome,
    /// and rolls everything back. The fork is invisible: recorder and
    /// datastore are stashed for its duration, and every other mutable
    /// bit — metrics, RNG, residency, queues, the event heap — is pinned
    /// and restored byte-identically. Debug builds check that on every
    /// fork by encoding the whole state before the pin and after the
    /// restore.
    pub(crate) fn speculate_placement(
        &mut self,
        events: &mut EventQueue<Event>,
        queue_index: usize,
        placement: SpecPlacement,
        horizon: usize,
    ) -> SpecScore {
        let recorder = self.recorder.take();
        let datastore = self.datastore.take();
        #[cfg(debug_assertions)]
        let before = self.state_bytes(events);
        self.pin(events);
        let completed0 = self.metrics.completed();
        let lat0 = self.metrics.latency_sample_count();

        // The candidate leaves the global queue before placement — the
        // same bookkeeping as `SchedCtx::take_queued`, so conservation
        // audits hold inside the fork.
        let r = self
            .global_queue
            .remove(queue_index)
            .expect("speculated index in bounds");
        let qlen = self.global_queue.len();
        let now = self.now;
        self.note_queue_depth(now, qlen);
        match placement {
            SpecPlacement::HitOn(g) => self.dispatch_batched(g.0 as usize, r, true, events),
            SpecPlacement::MissOn(g) => self.dispatch_batched(g.0 as usize, r, false, events),
            SpecPlacement::WaitOn(g) => {
                let gi = g.0 as usize;
                self.agg_push(gi, &r);
                self.units.write(gi).local_queue.push_back(r);
                self.local_moves += 1;
            }
        }

        // The fork starts mid-pass: idle GPUs *after* the served one in
        // the round's order still have undrained local queues, which the
        // rest of the outer round would serve next (Algorithm 1's local
        // priority). Serve them now so the replay's own passes see the
        // post-round invariant — an idle GPU never sits on queued work.
        for gi in 0..self.units.len() {
            if self.units[gi].state != UnitState::Offline && self.units[gi].is_idle() {
                if let Some(r) = self.pop_local(gi) {
                    self.dispatch_batched(gi, r, true, events);
                }
            }
        }

        // Inside the fork the world advances under greedy LALBO3 — the
        // lookahead recursing into its own forks would never terminate.
        // Future *arrivals* are invisible to the fork; only the already
        // -pending runtime events replay.
        let outer = self
            .sched
            .replace(Box::new(LalbScheduler::new(DEFAULT_O3_LIMIT)));
        for _ in 0..horizon {
            let Some((t, ev)) = events.pop() else {
                break;
            };
            debug_assert!(t >= self.now, "event delivered out of order");
            self.profile.events_popped += 1;
            self.now = t;
            #[cfg(feature = "simcheck")]
            if self.simcheck.on_event(t) {
                self.audit_invariants();
            }
            self.handle_event(ev, events);
        }
        self.sched = outer;

        // The waiting bill: completions pay their latency, everything
        // still outstanding pays its age as of the fork's end time.
        let end = self.now;
        let age = |r: &Request| end.duration_since(r.arrival).as_micros() as u128;
        let mut cost_ticks = self.metrics.latency_ticks_from(lat0) as u128;
        // Σ (end − arrival) over the global queue in O(1): ticks are
        // integer µs and every queued arrival is at or before `end`.
        let queued = self.global_queue.len();
        let queue_age =
            queued as u128 * u128::from(end.as_micros()) - self.global_queue.weight_sum();
        debug_assert_eq!(
            queue_age,
            self.global_queue.iter().map(age).sum::<u128>(),
            "global-queue arrival sum out of sync"
        );
        cost_ticks += queue_age;
        let mut pending = queued;
        for u in self.units.iter() {
            pending += u.local_queue.len();
            cost_ticks += u.local_queue.iter().map(age).sum::<u128>();
            if let Some(f) = &u.in_flight {
                cost_ticks += f.requests.iter().map(age).sum::<u128>();
            }
            if let Some(h) = &u.holding {
                cost_ticks += h.requests.iter().map(age).sum::<u128>();
            }
        }
        let score = SpecScore {
            completed: self.metrics.completed() - completed0,
            cost_ticks,
            pending,
        };

        // A retiring rollback (not a commit) closes only this fork's pin,
        // so pins the caller holds across the pass survive.
        let at = self.pins.depth() - 1;
        self.rollback_to(at, true, events);
        #[cfg(debug_assertions)]
        assert!(
            self.state_bytes(events) == before,
            "fork restore diverged from the pinned state"
        );
        self.recorder = recorder;
        self.datastore = datastore;
        score
    }

    /// [`GpuUnit::estimated_join_wait`] evaluated from the incremental
    /// aggregate: the preceding coalesced groups are charged from
    /// [`LocalAgg`]'s first-push-ordered sums and the walk early-returns
    /// at the request's own group, so the estimate costs O(preceding
    /// groups) instead of rebuilding a group list from the whole queue on
    /// every call. Byte-identical to the naive walk (same group order,
    /// same totals); debug builds assert that on every call, which is
    /// also what the property tests lean on.
    fn estimated_join_wait_fast(&self, gi: usize, model: ModelId) -> SimDuration {
        self.estimator_calls.set(self.estimator_calls.get() + 1);
        let unit = &self.units[gi];
        let mut wait = unit
            .device
            .busy_until()
            .map(|t| t.duration_since(self.now))
            .unwrap_or(SimDuration::ZERO);
        'done: {
            if let Some(f) = &unit.in_flight {
                if f.phase == Phase::Loading {
                    if f.model() == model {
                        break 'done; // joins the forming invocation
                    }
                    wait += self.infer_time_on(gi, f.model(), f.items());
                }
            }
            if let Some(h) = &unit.holding {
                wait += h.release_at.duration_since(self.now.min(h.release_at));
                if h.model() == model {
                    break 'done; // joins the held batch at its release
                }
                if !unit.device.has_model(h.model()) {
                    wait += self.load_time_on(gi, h.model());
                }
                wait += self.infer_time_on(gi, h.model(), h.items());
            }
            for &(m, items, _) in &self.local_aggs[gi].groups {
                if m == model {
                    break 'done; // shares its own group's invocation
                }
                if !unit.device.has_model(m) {
                    wait += self.load_time_on(gi, m);
                }
                wait += self.infer_time_on(gi, m, items);
            }
        }
        #[cfg(debug_assertions)]
        {
            let spec = unit.device.spec();
            let (compute_scale, load_scale) = (spec.compute_scale, spec.load_scale);
            let registry = &self.registry;
            let naive = unit.estimated_join_wait(
                self.now,
                model,
                |m, b| registry.infer_time(m, b).mul_f64(compute_scale),
                |m| self.load_cost_scaled(m, load_scale),
            );
            debug_assert_eq!(wait, naive, "join-wait aggregate out of sync on GPU {gi}");
        }
        wait
    }
}

/// The fixed-size state one pin records when it opens (see
/// [`Cluster::snapshot`]). The unbounded state — GPU units, local
/// aggregates, the global queue — is not here: those containers keep
/// their own write sets for the same pin. Policy objects (scheduler,
/// batcher, store, evictor inside the cache, autoscaler) contribute their
/// state through the save/load hooks the on-disk checkpoint uses.
/// Scratch buffers and attached sinks (recorder, datastore) are
/// deliberately not pinned. Frames are recycled, so every buffer here is
/// reused by the next pin.
#[derive(Default)]
struct PinFrame {
    scalars: Scalars,
    profile: SelfProfile,
    metrics: MetricsMark,
    /// The collector a checkpoint restore swapped out under this pin.
    replaced_metrics: Option<MetricsCollector>,
    events: EventQueue<Event>,
    /// Cache, scheduler (when present), batcher, store and autoscaler
    /// state, in that order.
    blobs: Enc,
    /// Whether the scheduler was in its slot; it is not mid-pass, and a
    /// rollback must agree.
    sched_present: bool,
    #[cfg(feature = "simcheck")]
    simcheck: SimChecker,
}

/// The cluster's plain scalar state, copied whole into each pin.
#[derive(Debug, Default, Clone, Copy)]
struct Scalars {
    now: SimTime,
    last_completion: SimTime,
    hot_model: Option<ModelId>,
    local_moves: u64,
    crashes: u64,
    dispatch_seq: u64,
    rng: [u64; 4],
    scale_ups: u64,
    scale_downs: u64,
    online_low: usize,
    online_high: usize,
    pending_total: u64,
    idle_online: usize,
    holding_units: usize,
    draining_units: usize,
    busy_secs: f64,
    next_arrival: usize,
    run_started: bool,
    estimator_calls: u64,
}

/// A candidate placement a lookahead policy can fork on — the three §IV
/// arms, addressed at an explicit GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecPlacement {
    /// Dispatch as a cache hit on this idle GPU.
    HitOn(GpuId),
    /// Join this busy GPU's local queue (Algorithm 2's wait arm).
    WaitOn(GpuId),
    /// Dispatch as a miss — load the model — on this idle GPU.
    MissOn(GpuId),
}

/// What a speculative fork observed over its replay horizon. Compared
/// lexicographically: more completions, then a smaller waiting bill.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecScore {
    /// Requests completed inside the fork.
    pub completed: u64,
    /// The fork's total waiting bill in integer microseconds: latency
    /// accumulated by its completions *plus* the age (time since
    /// arrival) of every request still outstanding — queued globally or
    /// locally, in flight, or held in a forming batch — when the horizon
    /// ended. Charging outstanding work its age (not a headcount) makes
    /// starvation visible to the scorer: a placement that serves the
    /// young and strands the old loses to one that drains the tail.
    pub cost_ticks: u128,
    /// Requests still queued (global + local) when the horizon ended.
    pub pending: usize,
}

impl SpecScore {
    /// Strict "this fork won": ties on every field answer false, so a
    /// deterministic caller iterating candidates in index order keeps
    /// the earliest of equals.
    pub fn better_than(&self, other: &SpecScore) -> bool {
        if self.completed != other.completed {
            return self.completed > other.completed;
        }
        if self.cost_ticks != other.cost_ticks {
            return self.cost_ticks < other.cost_ticks;
        }
        self.pending < other.pending
    }
}

/// FNV digest over the trace's observable arrival stream — the
/// checkpoint envelope's proof that a warm start resumes the same
/// workload it paused.
fn trace_digest(trace: &Trace) -> u64 {
    let mut h = Fnv1a::new();
    for r in trace.requests() {
        h.write_u64(r.at.as_micros());
        h.write_u64(r.function as u64);
        h.write_u64(r.model as u64);
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// Checkpoint codecs for the driver-owned plain-data state
// ---------------------------------------------------------------------------

fn save_request(enc: &mut Enc, r: &Request) {
    enc.put_u64(r.id);
    enc.put_u32(r.function);
    enc.put_u32(r.model.0);
    enc.put_usize(r.batch);
    enc.put_time(r.arrival);
    enc.put_u32(r.visits);
    enc.put_u16(r.tenant);
}

fn load_request(dec: &mut Dec<'_>) -> Result<Request, SnapError> {
    Ok(Request {
        id: dec.u64()?,
        function: dec.u32()?,
        model: ModelId(dec.u32()?),
        batch: dec.usize()?,
        arrival: dec.time()?,
        visits: dec.u32()?,
        tenant: dec.u16()?,
    })
}

fn save_inflight(enc: &mut Enc, f: &InFlight) {
    enc.put_usize(f.requests.len());
    for r in &f.requests {
        save_request(enc, r);
    }
    enc.put_u8(match f.phase {
        Phase::Loading => 0,
        Phase::Running => 1,
    });
    enc.put_bool(f.was_hit);
    enc.put_time(f.started);
    enc.put_u64(f.seq);
    enc.put_u8(f.tier.0);
}

fn load_inflight(dec: &mut Dec<'_>) -> Result<InFlight, SnapError> {
    let n = dec.usize()?;
    let mut requests = Vec::with_capacity(n.min(dec.remaining()));
    for _ in 0..n {
        requests.push(load_request(dec)?);
    }
    let phase = match dec.u8()? {
        0 => Phase::Loading,
        1 => Phase::Running,
        _ => return Err(SnapError::Corrupt("unknown in-flight phase")),
    };
    Ok(InFlight {
        requests,
        phase,
        was_hit: dec.bool()?,
        started: dec.time()?,
        seq: dec.u64()?,
        tier: Tier(dec.u8()?),
    })
}

fn save_hold(enc: &mut Enc, h: &HoldSlot) {
    enc.put_usize(h.requests.len());
    for r in &h.requests {
        save_request(enc, r);
    }
    enc.put_usize(h.max_requests);
    enc.put_bool(h.hit);
    enc.put_time(h.release_at);
    enc.put_u64(h.seq);
}

fn load_hold(dec: &mut Dec<'_>) -> Result<HoldSlot, SnapError> {
    let n = dec.usize()?;
    let mut requests = Vec::with_capacity(n.min(dec.remaining()));
    for _ in 0..n {
        requests.push(load_request(dec)?);
    }
    Ok(HoldSlot {
        requests,
        max_requests: dec.usize()?,
        hit: dec.bool()?,
        release_at: dec.time()?,
        seq: dec.u64()?,
    })
}

fn save_unit(enc: &mut Enc, u: &GpuUnit) {
    u.device.save_state(enc);
    enc.put_usize(u.local_queue.len());
    for r in &u.local_queue {
        save_request(enc, r);
    }
    enc.put_bool(u.in_flight.is_some());
    if let Some(f) = &u.in_flight {
        save_inflight(enc, f);
    }
    enc.put_bool(u.holding.is_some());
    if let Some(h) = &u.holding {
        save_hold(enc, h);
    }
    enc.put_u64(u.hits);
    enc.put_time(u.idle_since);
    enc.put_u8(match u.state {
        UnitState::Online => 0,
        UnitState::Draining => 1,
        UnitState::Offline => 2,
    });
    enc.put_time(u.online_since);
    enc.put_dur(u.provisioned);
}

fn load_unit(dec: &mut Dec<'_>, u: &mut GpuUnit) -> Result<(), SnapError> {
    u.device.load_state(dec)?;
    let n = dec.usize()?;
    let mut queue = VecDeque::with_capacity(n.min(dec.remaining()));
    for _ in 0..n {
        queue.push_back(load_request(dec)?);
    }
    u.local_queue = queue;
    u.in_flight = if dec.bool()? {
        Some(load_inflight(dec)?)
    } else {
        None
    };
    u.holding = if dec.bool()? {
        Some(load_hold(dec)?)
    } else {
        None
    };
    u.hits = dec.u64()?;
    u.idle_since = dec.time()?;
    u.state = match dec.u8()? {
        0 => UnitState::Online,
        1 => UnitState::Draining,
        2 => UnitState::Offline,
        _ => return Err(SnapError::Corrupt("unknown unit state")),
    };
    u.online_since = dec.time()?;
    u.provisioned = dec.dur()?;
    Ok(())
}

fn save_events(enc: &mut Enc, q: &EventQueue<Event>) {
    enc.put_u64(q.next_seq());
    enc.put_u64(q.total_scheduled());
    enc.put_u64(q.total_delivered());
    let entries = q.entries();
    enc.put_usize(entries.len());
    for (t, seq, ev) in entries {
        enc.put_time(t);
        enc.put_u64(seq);
        save_event(enc, ev);
    }
}

fn load_events(dec: &mut Dec<'_>) -> Result<EventQueue<Event>, SnapError> {
    let next_seq = dec.u64()?;
    let scheduled = dec.u64()?;
    let delivered = dec.u64()?;
    let n = dec.usize()?;
    let mut entries = Vec::with_capacity(n.min(dec.remaining()));
    for _ in 0..n {
        let t = dec.time()?;
        let seq = dec.u64()?;
        entries.push((t, seq, load_event(dec)?));
    }
    Ok(EventQueue::from_parts(
        entries, next_seq, scheduled, delivered,
    ))
}

fn save_event(enc: &mut Enc, ev: &Event) {
    match ev {
        Event::GpuDone(g, seq) => {
            enc.put_u8(0);
            enc.put_u16(g.0);
            enc.put_u64(*seq);
        }
        Event::GpuCrash(g, seq) => {
            enc.put_u8(1);
            enc.put_u16(g.0);
            enc.put_u64(*seq);
        }
        Event::ScaleTick => enc.put_u8(2),
        Event::BatchHold(g, seq) => {
            enc.put_u8(3);
            enc.put_u16(g.0);
            enc.put_u64(*seq);
        }
        Event::ObsTick => enc.put_u8(4),
    }
}

fn load_event(dec: &mut Dec<'_>) -> Result<Event, SnapError> {
    Ok(match dec.u8()? {
        0 => Event::GpuDone(GpuId(dec.u16()?), dec.u64()?),
        1 => Event::GpuCrash(GpuId(dec.u16()?), dec.u64()?),
        2 => Event::ScaleTick,
        3 => Event::BatchHold(GpuId(dec.u16()?), dec.u64()?),
        4 => Event::ObsTick,
        _ => return Err(SnapError::Corrupt("unknown event tag")),
    })
}

/// The borrowed cluster view a [`SchedulerPolicy`] works through during a
/// scheduling pass: read access to the global queue, GPU/cache/finish-time
/// state, plus the two Algorithm 2 placement commands that execute on
/// *other* GPUs ([`SchedCtx::dispatch_hit`], [`SchedCtx::enqueue_local`]).
pub struct SchedCtx<'a> {
    cluster: &'a mut Cluster,
    events: &'a mut EventQueue<Event>,
    progress: bool,
}

impl SchedCtx<'_> {
    // --- global queue -------------------------------------------------

    /// Requests currently waiting in the global queue.
    pub fn queue_len(&self) -> usize {
        self.cluster.global_queue.len()
    }

    /// The queued request at position `i` (0 = head, arrival order).
    pub fn queued(&self, i: usize) -> &Request {
        &self.cluster.global_queue[i]
    }

    /// Removes and returns the queued request at position `i` for
    /// dispatch.
    pub fn take_queued(&mut self, i: usize) -> Request {
        let r = self
            .cluster
            .global_queue
            .remove(i)
            .expect("index in bounds");
        let qlen = self.cluster.global_queue.len();
        let now = self.cluster.now;
        self.cluster.note_queue_depth(now, qlen);
        self.cluster
            .emit_with(|_| ObsEvent::QueueDepth { len: qlen });
        r
    }

    /// Records that the request at position `i` was passed over by
    /// out-of-order dispatch (Algorithm 1's visit counter).
    pub fn note_skip(&mut self, i: usize) {
        self.note_skips(i..i + 1);
    }

    /// [`SchedCtx::note_skip`] for every request in `range`: one call
    /// for a scan's run of consecutive skips.
    pub fn note_skips(&mut self, range: std::ops::Range<usize>) {
        if !range.is_empty() {
            self.cluster.global_queue.update(range, |r| r.visits += 1);
        }
    }

    /// True iff §VI isolation forbids dispatching more work for `tenant`.
    pub fn tenant_blocked(&self, tenant: u16) -> bool {
        self.cluster.tenant_blocked(tenant)
    }

    // --- GPU state ----------------------------------------------------

    /// True iff `gpu` has no request in flight.
    pub fn is_idle(&self, gpu: GpuId) -> bool {
        self.cluster.units[gpu.0 as usize].is_idle()
    }

    /// Requests waiting in `gpu`'s local queue. An idle GPU with a
    /// backlog is mid-pass — Algorithm 1's local priority will serve it
    /// before new work may target it, so hit-elsewhere arms must skip it.
    pub fn local_backlog(&self, gpu: GpuId) -> usize {
        self.cluster.units[gpu.0 as usize].local_queue.len()
    }

    /// Cache hits `gpu` has served (Algorithm 1's frequency ordering key).
    pub fn hits(&self, gpu: GpuId) -> u64 {
        self.cluster.units[gpu.0 as usize].hits
    }

    /// When `gpu` last became idle (LB's longest-idle ordering key).
    pub fn idle_since(&self, gpu: GpuId) -> SimTime {
        self.cluster.units[gpu.0 as usize].idle_since
    }

    /// Estimated time until `gpu` drains its in-flight request and local
    /// queue (the paper's finish-time estimate), on this GPU's own
    /// compute and PCIe profiles. Queued requests whose model is not
    /// resident are charged their upload as well as their inference, so
    /// the wait-vs-load comparison stays honest for policies that queue
    /// non-resident work. When a batching policy is active, same-model
    /// queued work is charged as one coalesced invocation — the time the
    /// driver will actually spend — which makes waiting at a busy holder
    /// correctly cheaper than replicating the model.
    pub fn estimated_wait(&self, gpu: GpuId) -> SimDuration {
        self.cluster.estimated_wait_fast(gpu.0 as usize)
    }

    /// The wait a request for `model` would see before being *served* if
    /// queued at busy `gpu` — what Algorithm 2 compares against the load
    /// time. Under per-request dispatch this is exactly
    /// [`SchedCtx::estimated_wait`]; under batching the request shares
    /// its model's coalesced invocation (a forming load, a held batch,
    /// or a local-queue group), so only preceding work counts.
    pub fn estimated_wait_for(&self, gpu: GpuId, model: ModelId) -> SimDuration {
        if self.cluster.batcher.is_passthrough() {
            return self.estimated_wait(gpu);
        }
        self.cluster.estimated_join_wait_fast(gpu.0 as usize, model)
    }

    /// Time to upload `model` onto `gpu` (scaled by its PCIe profile).
    pub fn load_time(&self, gpu: GpuId, model: ModelId) -> SimDuration {
        self.cluster.load_time_on(gpu.0 as usize, model)
    }

    // --- cache state --------------------------------------------------

    /// True iff `model` is resident on `gpu`.
    pub fn is_cached(&self, gpu: GpuId, model: ModelId) -> bool {
        self.cluster.cache.is_cached(gpu, model)
    }

    /// GPUs currently holding `model`, in id order (the §VI replica
    /// list). Only online GPUs count: a draining GPU still holds its
    /// models but must not attract new work, and its residents are about
    /// to be evicted anyway.
    pub fn holders(&self, model: ModelId) -> Vec<GpuId> {
        self.cluster
            .cache
            .holders(model)
            .iter()
            .copied()
            .filter(|&g| self.cluster.units[g.0 as usize].state == UnitState::Online)
            .collect()
    }

    // --- config / time ------------------------------------------------

    /// Algorithm 2's busy-holder handling (ablation knob).
    pub fn busy_wait(&self) -> BusyWaitPolicy {
        self.cluster.config.busy_wait
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.cluster.now
    }

    // --- placement commands (execute immediately) ---------------------

    /// Dispatches `r` as a cache hit on idle GPU `gpu` (Algorithm 2's
    /// hit-elsewhere arm). Executes immediately so later decisions in the
    /// same pass see `gpu` busy.
    pub fn dispatch_hit(&mut self, gpu: GpuId, r: Request) {
        let gi = gpu.0 as usize;
        debug_assert!(
            self.cluster.units[gi].local_queue.is_empty(),
            "idle GPUs have drained local queues"
        );
        self.cluster.emit_with(|_| ObsEvent::SchedArm {
            req: r.id,
            arm: Arm::HitRemote,
        });
        self.cluster.dispatch_batched(gi, r, true, self.events);
        self.progress = true;
    }

    /// Appends `r` to busy GPU `gpu`'s local queue (Algorithm 2's
    /// wait-on-busy arm). Executes immediately so later finish-time
    /// estimates in the same pass include `r`.
    pub fn enqueue_local(&mut self, gpu: GpuId, r: Request) {
        let gi = gpu.0 as usize;
        self.cluster.emit_with(|_| ObsEvent::SchedArm {
            req: r.id,
            arm: Arm::WaitBusy,
        });
        self.cluster.emit_with(|_| ObsEvent::LocalEnqueue {
            req: r.id,
            gpu,
            model: r.model,
        });
        self.cluster.agg_push(gi, &r);
        self.cluster.units.write(gi).local_queue.push_back(r);
        self.cluster.local_moves += 1;
        self.progress = true;
    }

    /// Dispatches `r` as a cache miss (load, then inference) on idle GPU
    /// `gpu` — completes the placement command set so a policy can
    /// execute any [`SpecPlacement`] it scored, not just the arms
    /// addressed at the GPU currently being served.
    pub fn dispatch_miss(&mut self, gpu: GpuId, r: Request) {
        let gi = gpu.0 as usize;
        self.cluster.emit_with(|_| ObsEvent::SchedArm {
            req: r.id,
            arm: Arm::Miss,
        });
        self.cluster.dispatch_batched(gi, r, false, self.events);
        self.progress = true;
    }

    /// What-if fork: tries placing the queued request at `queue_index`
    /// per `placement`, replays up to `horizon` pending runtime events
    /// under greedy LALBO3, and reports the outcome — then restores the
    /// world byte-identically, as if the fork never ran.
    pub fn speculate(
        &mut self,
        queue_index: usize,
        placement: SpecPlacement,
        horizon: usize,
    ) -> SpecScore {
        self.cluster
            .speculate_placement(self.events, queue_index, placement, horizon)
    }

    /// Executes a policy's dispatch for `gpu` (driver-internal).
    fn apply(&mut self, gpu: GpuId, dispatch: Dispatch) {
        let gi = gpu.0 as usize;
        match dispatch {
            Dispatch::None => {}
            Dispatch::Hit(r) => {
                self.cluster.emit_with(|_| ObsEvent::SchedArm {
                    req: r.id,
                    arm: Arm::HitLocal,
                });
                self.cluster.dispatch_batched(gi, r, true, self.events);
                self.progress = true;
            }
            Dispatch::Miss(r) => {
                self.cluster.emit_with(|_| ObsEvent::SchedArm {
                    req: r.id,
                    arm: Arm::Miss,
                });
                self.cluster.dispatch_batched(gi, r, false, self.events);
                self.progress = true;
            }
        }
    }
}

/// The borrowed, read-only cluster view an [`Autoscaler`] observes on
/// each step: global queue depth, fleet composition, and per-GPU
/// utilisation and residency signals.
pub struct ScaleView<'a> {
    pub(crate) cluster: &'a Cluster,
}

impl ScaleView<'_> {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.cluster.now
    }

    /// Requests waiting in the global queue — the pressure signal.
    pub fn queue_len(&self) -> usize {
        self.cluster.global_queue.len()
    }

    /// Devices in the pool (online + draining + offline) — the autoscale
    /// `max_gpus`.
    pub fn total_gpus(&self) -> usize {
        self.cluster.units.len()
    }

    /// Online (dispatchable) GPUs.
    pub fn active_gpus(&self) -> usize {
        self.cluster.online_gpus()
    }

    /// GPUs currently draining toward offline.
    pub fn draining_gpus(&self) -> usize {
        self.cluster
            .units
            .iter()
            .filter(|u| u.state == UnitState::Draining)
            .count()
    }

    /// Online GPUs with a request in flight.
    pub fn busy_gpus(&self) -> usize {
        self.cluster
            .units
            .iter()
            .filter(|u| u.state == UnitState::Online && !u.is_idle())
            .count()
    }

    /// The online GPUs, in id order.
    pub fn online(&self) -> Vec<GpuId> {
        self.cluster
            .units
            .iter()
            .filter(|u| u.state == UnitState::Online)
            .map(|u| u.id())
            .collect()
    }

    /// How long `gpu` has been idle, or `None` when busy or not online.
    pub fn idle_secs(&self, gpu: GpuId) -> Option<f64> {
        let unit = &self.cluster.units[gpu.0 as usize];
        (unit.state == UnitState::Online && unit.is_idle()).then(|| {
            self.cluster
                .now
                .duration_since(unit.idle_since)
                .as_secs_f64()
        })
    }

    /// Depth of `gpu`'s local queue.
    pub fn local_depth(&self, gpu: GpuId) -> usize {
        self.cluster.units[gpu.0 as usize].local_queue.len()
    }

    /// Number of models resident on `gpu`.
    pub fn resident_models(&self, gpu: GpuId) -> usize {
        self.cluster.units[gpu.0 as usize].device.resident_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfaas_models::zoo::{Family, ModelSpec};
    use gfaas_trace::TraceRequest;

    /// A registry of `n` identical small models: 100 MiB, 1 s load, 1 s
    /// inference at batch 32 — easy arithmetic for assertions.
    fn toy_registry(n: usize) -> ModelRegistry {
        let specs: Vec<ModelSpec> = (0..n)
            .map(|i| ModelSpec {
                name: Box::leak(format!("toy{i}").into_boxed_str()),
                occupancy_mib: 100,
                load_secs: 1.0,
                infer_secs_b32: 1.0,
                family: Family::ResNet,
            })
            .collect();
        ModelRegistry::from_specs(specs)
    }

    fn trace_of(reqs: &[(f64, u32)]) -> Trace {
        Trace::new(
            reqs.iter()
                .map(|&(s, m)| TraceRequest {
                    at: SimTime::from_secs_f64(s),
                    function: m,
                    model: m,
                })
                .collect(),
        )
    }

    fn spec(s: &str) -> PolicySpec {
        PolicySpec::parse(s).expect("valid policy spec")
    }

    fn cluster(gpus: usize, mem_mib: u64, policy: &str, nmodels: usize) -> Cluster {
        Cluster::new(
            ClusterConfig::test(gpus, mem_mib, spec(policy)),
            toy_registry(nmodels),
        )
    }

    #[test]
    fn single_request_is_a_cold_miss() {
        let mut c = cluster(1, 1000, "lalb", 1);
        let m = c.run(&trace_of(&[(0.0, 0)]));
        assert_eq!(m.completed, 1);
        assert_eq!(m.miss_ratio, 1.0);
        assert_eq!(m.false_miss_ratio, 0.0, "cold miss is not a false miss");
        // Latency = load (1 s) + inference (1 s).
        assert!((m.avg_latency_secs - 2.0).abs() < 1e-6);
    }

    #[test]
    fn repeat_requests_hit_the_cache() {
        let mut c = cluster(1, 1000, "lalb", 1);
        let m = c.run(&trace_of(&[(0.0, 0), (10.0, 0), (20.0, 0)]));
        assert_eq!(m.completed, 3);
        assert!((m.miss_ratio - 1.0 / 3.0).abs() < 1e-9);
        // Hits take only the 1 s inference.
        assert!((m.max_latency_secs - 2.0).abs() < 1e-6);
    }

    #[test]
    fn lalb_routes_to_the_gpu_with_the_model() {
        // Two GPUs; model 0 lands on one of them; a later request for
        // model 0 must hit even though the other GPU is idle (and longest
        // idle, which would attract an LB dispatch).
        let mut c = cluster(2, 1000, "lalb", 2);
        let m = c.run(&trace_of(&[(0.0, 0), (10.0, 1), (20.0, 0)]));
        assert_eq!(m.completed, 3);
        assert_eq!(m.misses, 2, "only the two cold loads miss");
        assert_eq!(m.false_misses, 0);
    }

    #[test]
    fn lb_ignores_locality_and_false_misses() {
        // Two GPUs. Request A(m0) → gpu0. B(m1) → gpu1. C(m0) arrives when
        // both idle; LB picks the longest-idle GPU = gpu0 — which *does*
        // hold m0... so use 3 GPUs to force the false miss deterministically:
        // gpu2 has been idle longest (never used) and lacks m0.
        let mut c = cluster(3, 1000, "lb", 2);
        let m = c.run(&trace_of(&[(0.0, 0), (10.0, 1), (20.0, 0)]));
        assert_eq!(m.completed, 3);
        assert_eq!(m.misses, 3, "LB sends the repeat to the cold GPU");
        assert_eq!(m.false_misses, 1, "the repeat was cached elsewhere");
    }

    #[test]
    fn lalb_waits_on_busy_holder_when_faster_than_loading() {
        // One GPU holds model 0 and is busy with a 1 s inference; load
        // time is 1 s. A second request for model 0 arrives mid-inference:
        // remaining wait (~0.5 s) < load (1 s) → join the local queue, hit.
        let mut c = cluster(2, 1000, "lalb", 1);
        let m = c.run(&trace_of(&[(0.0, 0), (2.5, 0)]));
        // First: load 1s + infer 1s, busy [0,2]... arrives 2.5 when idle.
        // Make it overlap instead:
        assert_eq!(m.completed, 2);
        let mut c2 = cluster(2, 1000, "lalb", 1);
        let m2 = c2.run(&trace_of(&[(0.0, 0), (1.5, 0)]));
        // At t=1.5 gpu0 is inferring until t=2 (wait 0.5 < load 1).
        assert_eq!(m2.misses, 1, "second request waits for the busy holder");
        assert_eq!(c2.local_moves(), 1);
        // First request: load+infer = 2 s latency. Second: starts at t=2
        // off the local queue, finishes t=3 → latency 1.5 s.
        assert!((m2.max_latency_secs - 2.0).abs() < 1e-6);
        assert!((m2.avg_latency_secs - 1.75).abs() < 1e-6);
    }

    #[test]
    fn lalb_prefers_idle_miss_when_busy_holder_is_slow() {
        // gpu0 holds model 0 but has a long local backlog; a cold load on
        // idle gpu1 (1 s) beats waiting. Build backlog with three quick
        // requests for model 0 arriving together, then the probe.
        let mut c = cluster(2, 1000, "lalb", 1);
        let m = c.run(&trace_of(&[(0.0, 0), (0.1, 0), (0.2, 0), (0.3, 0)]));
        // t=0: miss on gpu0 (load until 1, infer until 2).
        // t=0.1: holder busy, wait = 1.9 > load 1 → miss on gpu1.
        // t=0.2: holders both busy; waits (1.8, 1.9-ish)... with both busy
        // and no idle GPU nothing dispatches until one frees.
        assert_eq!(m.completed, 4);
        assert_eq!(m.misses, 2, "duplicate replica created by load balancing");
        assert_eq!(
            m.false_misses, 1,
            "the replica is a false miss by definition"
        );
    }

    #[test]
    fn o3_dispatches_later_hit_ahead_of_head() {
        // gpu0 holds m0, gpu1 holds m1; both become idle at t≈2. Queue at
        // that moment: [m2 (cold), m0]. With O3, gpu0 should serve m0
        // first (hit), skipping m2; m2 then loads on gpu1's... gpu1 scans:
        // no m1 request; LLB places m2 as a miss there.
        let mut c = cluster(2, 1000, "lalbo3", 3);
        let m = c.run(&trace_of(&[(0.0, 0), (0.0, 1), (1.5, 2), (1.6, 0)]));
        assert_eq!(m.completed, 4);
        // Misses: m0 cold, m1 cold, m2 cold = 3. The m0 repeat must hit.
        assert_eq!(m.misses, 3);
        assert_eq!(m.hit_ratio, 0.25);
    }

    #[test]
    fn lalb_without_o3_serves_in_order() {
        // Same workload as the O3 test but limit 0: when gpu0 frees up,
        // the head (m2, cold) is placed there first, and m0's repeat then
        // replicates m0 onto gpu1 because waiting behind m2's load+infer
        // (2 s) is slower than a fresh 1 s load. In-order service costs a
        // fourth miss — and it is a false miss — exactly the behaviour O3
        // dispatch eliminates (compare `o3_dispatches_later_hit_ahead_of_head`).
        let mut c = cluster(2, 1000, "lalb", 3);
        let m = c.run(&trace_of(&[(0.0, 0), (0.0, 1), (1.5, 2), (1.6, 0)]));
        assert_eq!(m.completed, 4);
        assert_eq!(m.misses, 4);
        assert_eq!(m.false_misses, 1);
    }

    #[test]
    fn starvation_limit_bounds_visits() {
        // One m1 request queues at the head while a long stream of m0
        // hits arrives behind it (m0 is resident, m1 is not). O3 keeps
        // skipping the m1 head in favour of the m0 hits, incrementing its
        // visit counter each pass; once the counter reaches the limit the
        // head must be dispatched regardless. We read the per-request
        // latency back through the datastore mirror.
        let run = |limit: u32| {
            let mut cfg = ClusterConfig::test(1, 250, spec(&format!("lalbo3:{limit}")));
            cfg.report_to_datastore = true;
            let ds = Arc::new(Datastore::new());
            let mut c = Cluster::new(cfg, toy_registry(2)).with_datastore(Arc::clone(&ds));
            let mut reqs = vec![(0.0, 0), (0.1, 1)]; // id 0 = m0, id 1 = m1
            for i in 0..20 {
                reqs.push((0.2 + i as f64 * 0.01, 0));
            }
            let m = c.run(&trace_of(&reqs));
            assert_eq!(m.completed, 22);
            let lat: f64 = String::from_utf8(ds.get("/latency/1").unwrap().value.to_vec())
                .unwrap()
                .parse()
                .unwrap();
            lat
        };
        // Limit 2: m1 is skipped twice (t=2, t=3 passes), then force-
        // dispatched: load 4→5, infer 5→6 → latency ≈ 5.9 s.
        let bounded = run(2);
        assert!((bounded - 5.9).abs() < 0.01, "bounded latency {bounded}");
        // A huge limit starves m1 behind all 20 hits: served at t≈22.
        let starved = run(1000);
        assert!(starved > 20.0, "starved latency {starved}");
    }

    #[test]
    fn eviction_under_memory_pressure() {
        // GPU fits two 100 MiB models; touch three models round-robin.
        let mut c = cluster(1, 250, "lalb", 3);
        let m = c.run(&trace_of(&[
            (0.0, 0),
            (10.0, 1),
            (20.0, 2), // evicts m0 (LRU)
            (30.0, 0), // miss again (was evicted), evicts m1
        ]));
        assert_eq!(m.completed, 4);
        assert_eq!(m.misses, 4);
        assert_eq!(c.evictions(), 2);
    }

    #[test]
    fn duplicates_metric_tracks_hot_model() {
        let mut c = cluster(3, 1000, "lb", 2);
        // Hot model 0 gets replicated by LB across GPUs.
        let m = c.run(&trace_of(&[
            (0.0, 0),
            (0.1, 0),
            (0.2, 0),
            (10.0, 0),
            (10.1, 0),
        ]));
        assert_eq!(m.completed, 5);
        assert!(m.avg_duplicates > 0.5, "duplicates {:?}", m.avg_duplicates);
    }

    #[test]
    fn deterministic_given_seed() {
        let t = trace_of(&[(0.0, 0), (0.5, 1), (1.0, 2), (1.5, 0), (2.0, 1)]);
        let m1 = cluster(2, 250, "lalbo3", 3).run(&t);
        let m2 = cluster(2, 250, "lalbo3", 3).run(&t);
        assert_eq!(m1, m2);
    }

    #[test]
    fn saturated_queue_eventually_drains() {
        // 50 requests for 5 models on 1 small GPU: heavy thrash, but all
        // must complete and the makespan must be finite and consistent.
        let reqs: Vec<(f64, u32)> = (0..50).map(|i| (i as f64 * 0.01, (i % 5) as u32)).collect();
        let mut c = cluster(1, 250, "lalbo3", 5);
        let m = c.run(&trace_of(&reqs));
        assert_eq!(m.completed, 50);
        assert!(m.makespan_secs > 50.0, "50 × ≥1 s of serial inference");
        assert!(m.queue_peak > 10);
    }

    #[test]
    fn datastore_mirroring_writes_keys() {
        let ds = Arc::new(Datastore::new());
        let mut cfg = ClusterConfig::test(1, 1000, spec("lalb"));
        cfg.report_to_datastore = true;
        let mut c = Cluster::new(cfg, toy_registry(1)).with_datastore(Arc::clone(&ds));
        c.run(&trace_of(&[(0.0, 0)]));
        assert_eq!(
            ds.get("/gpu/0/status").unwrap().value,
            bytes::Bytes::from_static(b"idle")
        );
        assert!(ds.get("/gpu/0/lru").is_some());
        assert!(ds.get("/latency/0").is_some());
    }

    #[test]
    fn heterogeneous_gpu_uses_its_own_profile() {
        // One GPU scaled to half load and half inference time: a cold
        // request costs 0.5 + 0.5 = 1 s instead of 2 s.
        let mut cfg = ClusterConfig::test(1, 1000, spec("lalb"));
        cfg.hetero_specs = Some(vec![gfaas_gpu::GpuSpec::test(1000).with_scales(0.5, 0.5)]);
        let mut c = Cluster::new(cfg, toy_registry(1));
        let m = c.run(&trace_of(&[(0.0, 0)]));
        assert!(
            (m.avg_latency_secs - 1.0).abs() < 1e-6,
            "{}",
            m.avg_latency_secs
        );
    }

    #[test]
    fn heterogeneous_estimation_prefers_fast_busy_holder() {
        // gpu0 (fast, holds m0, busy) vs gpu1 (slow, idle). The fast
        // holder's estimated wait (0.25 s remaining) beats a slow cold
        // load (1 s) → the repeat request queues locally and hits.
        let mut cfg = ClusterConfig::test(2, 1000, spec("lalb"));
        cfg.hetero_specs = Some(vec![
            gfaas_gpu::GpuSpec::test(1000).with_scales(0.5, 0.5),
            gfaas_gpu::GpuSpec::test(1000),
        ]);
        let mut c = Cluster::new(cfg, toy_registry(1));
        // First m0 at t=0 → fast gpu0 (ids tie-break): busy until t=1.0.
        // Second m0 at t=0.75: gpu0 wait 0.25 < load-on-gpu1 1.0 → wait.
        let m = c.run(&trace_of(&[(0.0, 0), (0.75, 0)]));
        assert_eq!(m.misses, 1, "repeat must wait for the fast holder");
        assert_eq!(c.local_moves(), 1);
    }

    #[test]
    fn tenant_cap_serialises_one_tenant() {
        // Tenant 0 (even functions) capped at 1 concurrent request; three
        // of its requests arrive together on a 3-GPU cluster. They must
        // run one at a time even though GPUs are free.
        let mut cfg = ClusterConfig::test(3, 1000, spec("lalbo3"));
        cfg.num_tenants = 2;
        cfg.tenant_max_inflight = Some(1);
        let mut c = Cluster::new(cfg, toy_registry(1));
        let m = c.run(&trace_of(&[(0.0, 0), (0.0, 0), (0.0, 0)]));
        assert_eq!(m.completed, 3);
        // Serialised: 2 s (cold) + 1 s + 1 s → last completes at t=4,
        // so max latency is 4 s (vs 2 s if run in parallel).
        assert!(
            (m.max_latency_secs - 4.0).abs() < 1e-6,
            "{}",
            m.max_latency_secs
        );
    }

    #[test]
    fn tenant_cap_does_not_starve_other_tenants() {
        // Tenant 0 floods; tenant 1's single request (odd function rank)
        // must still be served promptly on a free GPU.
        let mut cfg = ClusterConfig::test(2, 1000, spec("lalbo3"));
        cfg.num_tenants = 2;
        cfg.tenant_max_inflight = Some(1);
        cfg.report_to_datastore = true;
        let ds = Arc::new(Datastore::new());
        let mut c = Cluster::new(cfg, toy_registry(2)).with_datastore(Arc::clone(&ds));
        // ids: 0..4 are tenant 0 (function 0 → model 0); id 5 is tenant 1.
        let m = c.run(&trace_of(&[
            (0.0, 0),
            (0.0, 0),
            (0.0, 0),
            (0.0, 0),
            (0.0, 0),
            (0.1, 1),
        ]));
        assert_eq!(m.completed, 6);
        let lat: f64 = String::from_utf8(ds.get("/latency/5").unwrap().value.to_vec())
            .unwrap()
            .parse()
            .unwrap();
        // Tenant 1's request cold-loads immediately on the second GPU:
        // ~2 s, not behind tenant 0's ~6 s backlog.
        assert!(lat < 2.5, "tenant 1 latency {lat}");
    }

    #[test]
    fn crashes_are_retried_and_complete() {
        let mut cfg = ClusterConfig::test(2, 1000, spec("lalbo3"));
        cfg.crash_rate = 0.3;
        cfg.seed = 5;
        let mut c = Cluster::new(cfg, toy_registry(3));
        let reqs: Vec<(f64, u32)> = (0..40).map(|i| (i as f64 * 0.8, (i % 3) as u32)).collect();
        let m = c.run(&trace_of(&reqs));
        // Every request completes exactly once despite crashes.
        assert_eq!(m.completed, 40);
        assert!(c.crashes() > 0, "30% crash rate must fire at least once");
        // A crashed model was evicted, so crashes inflate the miss count
        // beyond the distinct-model minimum.
        assert!(m.misses > 3);
        // Ratios stay sane.
        assert!(m.miss_ratio <= 1.0 && m.hit_ratio <= 1.0);
    }

    #[test]
    fn crash_free_config_never_crashes() {
        let mut c = cluster(2, 1000, "lalbo3", 2);
        let m = c.run(&trace_of(&[(0.0, 0), (1.0, 1), (2.0, 0)]));
        assert_eq!(c.crashes(), 0);
        assert_eq!(m.completed, 3);
    }

    #[test]
    fn crash_latency_includes_the_retry() {
        // With crash_rate 1.0 nothing would ever complete (every attempt
        // crashes); use a rate that certainly fires on the first draw for
        // this seed but lets the retry through. Probe seeds for one where
        // exactly the first attempt crashes.
        for seed in 0..50u64 {
            let mut cfg = ClusterConfig::test(1, 1000, spec("lalb"));
            cfg.crash_rate = 0.5;
            cfg.seed = seed;
            let mut c = Cluster::new(cfg, toy_registry(1));
            let m = c.run(&trace_of(&[(0.0, 0)]));
            assert_eq!(m.completed, 1);
            if c.crashes() == 1 {
                // load 1s + partial inference + reload 1s + inference 1s
                // → latency strictly above the crash-free 2 s.
                assert!(m.avg_latency_secs > 2.0, "latency {}", m.avg_latency_secs);
                return;
            }
        }
        panic!("no seed in 0..50 produced exactly one crash");
    }

    #[test]
    fn sm_utilization_counts_inference_only() {
        // One request: load 1 s + infer 1 s → SM busy 1 of 2 s.
        let mut c = cluster(1, 1000, "lalb", 1);
        let m = c.run(&trace_of(&[(0.0, 0)]));
        assert!((m.sm_utilization - 0.5).abs() < 1e-6);
    }

    // ------------------------------------------------------------------
    // Autoscaling
    // ------------------------------------------------------------------

    #[test]
    fn fixed_cluster_reports_full_fleet_gpu_seconds() {
        let mut c = cluster(2, 1000, "lalb", 1);
        let m = c.run(&trace_of(&[(0.0, 0)]));
        assert!(
            (m.gpu_seconds_provisioned - 2.0 * m.makespan_secs).abs() < 1e-9,
            "{} vs {}",
            m.gpu_seconds_provisioned,
            m.makespan_secs
        );
        assert_eq!(m.scale_up_events, 0);
        assert_eq!(m.scale_down_events, 0);
        assert_eq!(c.online_bounds(), (2, 2));
    }

    #[test]
    fn queue_pressure_scales_up_then_releases_the_quiet_fleet() {
        let mut cfg = ClusterConfig::test(2, 1000, spec("lalbo3"));
        cfg.autoscale = Some("queue:min=1,max=4,up=3,down=0,cadence=1".parse().unwrap());
        let mut c = Cluster::new(cfg, toy_registry(4));
        // A 12-request burst at t=0 swamps the 2-GPU initial fleet; a
        // long quiet gap then lets the autoscaler release capacity before
        // a final straggler arrives.
        let mut reqs: Vec<(f64, u32)> = (0..12).map(|i| (0.0, (i % 4) as u32)).collect();
        reqs.push((40.0, 0));
        let m = c.run(&trace_of(&reqs));
        assert_eq!(m.completed, 13, "no request lost across scale events");
        assert!(m.scale_up_events >= 2, "burst must provision GPUs");
        assert!(m.scale_down_events >= 1, "quiet gap must release GPUs");
        let (low, high) = c.online_bounds();
        assert!(high > 2 && high <= 4, "high watermark {high}");
        assert_eq!(low, 1, "fleet must drain to the configured minimum");
        // Elasticity must cost less than keeping the peak fleet all run.
        assert!(m.gpu_seconds_provisioned < 4.0 * m.makespan_secs);
        assert!(m.gpu_seconds_provisioned > 0.0);
    }

    #[test]
    fn autoscaled_runs_are_deterministic() {
        let run = || {
            let mut cfg = ClusterConfig::test(2, 500, spec("lalbo3"));
            cfg.autoscale = Some("queue:min=1,max=4,up=2,down=0,cadence=1".parse().unwrap());
            let mut c = Cluster::new(cfg, toy_registry(5));
            let reqs: Vec<(f64, u32)> = (0..30).map(|i| (i as f64 * 0.2, (i % 5) as u32)).collect();
            c.run(&trace_of(&reqs))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn draining_gpu_finishes_in_flight_and_local_queue_then_goes_offline() {
        /// Returns `Down(1)` on its first step, then holds — pinning the
        /// drain to an instant where both GPUs are busy, so the victim
        /// must wind down real work.
        #[derive(Debug)]
        struct DrainOnce {
            fired: bool,
        }
        impl crate::autoscale::Autoscaler for DrainOnce {
            fn name(&self) -> String {
                "drain-once".into()
            }
            fn cadence(&self) -> SimDuration {
                SimDuration::from_secs_f64(1.5)
            }
            fn step(&mut self, view: &ScaleView<'_>) -> ScaleDecision {
                if self.fired {
                    return ScaleDecision::Hold;
                }
                self.fired = true;
                assert_eq!(view.busy_gpus(), 3, "drain must hit a fully busy fleet");
                ScaleDecision::Down(1)
            }
        }

        let mut cfg = ClusterConfig::test(3, 1000, spec("lalb"));
        cfg.autoscale = Some("queue:min=1,max=3,up=9,down=0,cadence=1".parse().unwrap());
        let mut c = Cluster::new(cfg, toy_registry(3));
        c.set_autoscaler(Box::new(DrainOnce { fired: false }));
        // t=0: m0 → gpu0 (load 1 + infer 1). t=0.1: m1 → gpu1. t=1.2:
        // m0 again — gpu0's remaining wait (0.8 s) beats a 1 s load, so
        // idle gpu2's pass queues it locally at gpu0. t=1.3: cold m2
        // occupies gpu2, so the tick at t=1.5 sees all three GPUs busy
        // and drains the tie-break victim gpu0 — which must still serve
        // both its in-flight request and the locally queued hit before
        // going offline. A final m2 repeat at t=3.5 hits the survivor.
        let m = c.run(&trace_of(&[
            (0.0, 0),
            (0.1, 1),
            (1.2, 0),
            (1.3, 2),
            (3.5, 2),
        ]));
        assert_eq!(m.completed, 5, "drained requests are not lost");
        assert_eq!(c.local_moves(), 1, "the repeat queued at the busy holder");
        assert_eq!(m.misses, 3, "the locally queued request still hits");
        assert_eq!(m.scale_down_events, 1);
        assert_eq!(c.online_bounds(), (2, 3));
        assert_eq!(c.online_gpus(), 2);
        // Drain evictions clear the victim's device without polluting the
        // replacement-policy eviction count.
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.units[0].device.resident_count(), 0);
        assert_eq!(c.units[0].state, UnitState::Offline);
    }

    #[test]
    #[should_panic(expected = "set_autoscaler")]
    fn set_autoscaler_requires_an_autoscale_config() {
        let mut c = cluster(1, 1000, "lalb", 1);
        c.set_autoscaler(
            crate::autoscale::AutoscaleSpec::default()
                .build()
                .expect("default spec builds"),
        );
    }

    // ------------------------------------------------------------------
    // The pluggable policy surface
    // ------------------------------------------------------------------

    #[test]
    fn spec_strings_drive_the_cluster() {
        let mut cfg = ClusterConfig::test(2, 1000, spec("lalbo3"));
        cfg.policy = "lalbo3:25".parse().unwrap();
        cfg.replacement = "tinylfu:0.9".parse().unwrap();
        let mut c = Cluster::new(cfg, toy_registry(2));
        assert_eq!(c.scheduler_name(), "LALBO3");
        assert_eq!(c.evictor_name(), "tinylfu");
        let m = c.run(&trace_of(&[(0.0, 0), (1.0, 1), (10.0, 0)]));
        assert_eq!(m.completed, 3);
    }

    #[test]
    fn try_new_surfaces_bad_specs_and_configs() {
        let mut cfg = ClusterConfig::test(2, 1000, spec("lalb"));
        cfg.policy = crate::policy::PolicySpec::bare("belady");
        assert!(Cluster::try_new(cfg, toy_registry(1)).is_err());
        let mut cfg = ClusterConfig::test(2, 1000, spec("lalb"));
        cfg.batch_size = 0;
        assert!(matches!(
            Cluster::try_new(cfg, toy_registry(1)),
            Err(ConfigError::ZeroBatch)
        ));
    }

    #[test]
    #[should_panic(expected = "invalid cluster config")]
    fn new_panics_on_invalid_config() {
        let mut cfg = ClusterConfig::test(4, 1000, spec("lalb"));
        cfg.gpus_per_node = 3; // does not divide 4
        let _ = Cluster::new(cfg, toy_registry(1));
    }

    #[test]
    fn injected_policy_objects_match_the_spec_path() {
        // For every paper scheduler × evictor pair, the spec path (the
        // config's specs resolved through the builtin registry) resolves
        // to the paper's names and runs bit-identically to directly
        // injected policy objects (`with_policies`).
        use crate::cache::{FifoEvictor, LruEvictor, RandomEvictor};
        use crate::scheduler::{LalbScheduler, LbScheduler};
        let t = trace_of(&[(0.0, 0), (0.3, 1), (0.9, 2), (1.5, 0), (2.0, 1), (2.2, 2)]);
        type BuildScheduler = fn() -> Box<dyn SchedulerPolicy>;
        type BuildEvictor = fn(u64) -> Box<dyn Evictor>;
        let schedulers: [(&str, &str, BuildScheduler); 4] = [
            ("lb", "LB", || Box::new(LbScheduler)),
            ("lalb", "LALB", || Box::new(LalbScheduler::new(0))),
            ("lalbo3", "LALBO3", || Box::new(LalbScheduler::new(25))),
            ("lalbo3:7", "LALBO3(limit=7)", || {
                Box::new(LalbScheduler::new(7))
            }),
        ];
        let evictors: [(&str, BuildEvictor); 3] = [
            ("lru", |_| Box::new(LruEvictor::default())),
            ("fifo", |_| Box::new(FifoEvictor::default())),
            ("random", |seed| Box::new(RandomEvictor::new(seed))),
        ];
        for (sched_spec, sched_name, sched) in schedulers {
            for (ev_spec, evictor) in evictors {
                let mut cfg = ClusterConfig::test(2, 250, spec(sched_spec));
                cfg.replacement = spec(ev_spec);
                let seed = cfg.seed;
                let mut via_spec = Cluster::new(cfg.clone(), toy_registry(3));
                assert_eq!(via_spec.scheduler_name(), sched_name);
                assert_eq!(via_spec.evictor_name(), ev_spec);
                let mut injected =
                    Cluster::with_policies(cfg, toy_registry(3), sched(), evictor(seed)).unwrap();
                assert_eq!(
                    injected.run(&t),
                    via_spec.run(&t),
                    "{sched_spec} x {ev_spec}"
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Request batching
    // ------------------------------------------------------------------

    /// A test cluster with the given batching spec.
    fn batched_cluster(gpus: usize, nmodels: usize, batching: &str) -> Cluster {
        let mut cfg = ClusterConfig::test(gpus, 1000, spec("lalb"));
        cfg.batching = batching.parse().unwrap();
        Cluster::new(cfg, toy_registry(nmodels))
    }

    #[test]
    fn coalesce_merges_a_same_model_backlog_into_one_invocation() {
        // Four m0 requests arrive together on one GPU. Per-request: load
        // 1 s + 4 sequential 1 s inferences (done at 2, 3, 4, 5). With
        // coalescing, the three requests queued behind the lead join its
        // invocation when the load completes: one batch-128 inference =
        // 0.1 + 0.9 × 4 = 3.7 s, everyone done at 4.7 s.
        let mut c = batched_cluster(1, 1, "coalesce:max=8,wait=0.05");
        assert_eq!(c.batcher_name(), "coalesce(max=8)");
        let m = c.run(&trace_of(&[(0.0, 0), (0.01, 0), (0.02, 0), (0.03, 0)]));
        assert_eq!(m.completed, 4);
        assert_eq!(m.invocations, 1, "one coalesced invocation");
        assert_eq!(m.avg_effective_batch, 4.0);
        assert_eq!(m.batched_requests, 4);
        assert_eq!(m.effective_batch_hist, vec![(4, 1)]);
        assert_eq!(m.misses, 1, "riders share the lead's upload");
        assert!((m.makespan_secs - 4.7).abs() < 1e-6, "{}", m.makespan_secs);
        // Busy time: 1 s load + 3.7 s inference.
        assert!((m.gpu_busy_seconds - 4.7).abs() < 1e-6);
    }

    #[test]
    fn held_batch_launches_early_when_it_fills() {
        // m0's cold load+infer occupies the GPU until t=2 while two more
        // m0 requests queue up. At t=2 the dispatch coalesces both (take
        // 2 < max 3) and holds until 2.5; the arrival at t=2.2 fills the
        // batch, which launches immediately: 3-request inference =
        // 0.1 + 0.9 × 3 = 2.8 s → makespan 5.0, not 2.5 + 2.8.
        let mut c = batched_cluster(1, 1, "coalesce:max=3,wait=0.5");
        let m = c.run(&trace_of(&[(0.0, 0), (1.5, 0), (1.6, 0), (2.2, 0)]));
        assert_eq!(m.completed, 4);
        assert_eq!(m.effective_batch_hist, vec![(1, 1), (3, 1)]);
        assert_eq!(m.batched_requests, 3);
        assert!((m.makespan_secs - 5.0).abs() < 1e-6, "{}", m.makespan_secs);
    }

    #[test]
    fn hold_timer_fires_when_no_one_joins() {
        // As above but nothing arrives during the hold: the BatchHold
        // timer fires at t=2.5 and launches the partial 2-request batch
        // (0.1 + 0.9 × 2 = 1.9 s) → makespan 4.4.
        let mut c = batched_cluster(1, 1, "coalesce:max=3,wait=0.5");
        let m = c.run(&trace_of(&[(0.0, 0), (1.5, 0), (1.6, 0)]));
        assert_eq!(m.completed, 3);
        assert_eq!(m.effective_batch_hist, vec![(1, 1), (2, 1)]);
        assert_eq!(m.batched_requests, 2);
        assert!((m.makespan_secs - 4.4).abs() < 1e-6, "{}", m.makespan_secs);
    }

    #[test]
    fn batching_none_is_identical_to_the_paper_path() {
        let reqs: Vec<(f64, u32)> = (0..60).map(|i| (i as f64 * 0.11, (i % 5) as u32)).collect();
        let t = trace_of(&reqs);
        let legacy = cluster(3, 400, "lalbo3", 5).run(&t);
        let mut cfg = ClusterConfig::test(3, 400, spec("lalbo3"));
        cfg.batching = "none".parse().unwrap();
        let none = Cluster::new(cfg, toy_registry(5)).run(&t);
        assert_eq!(legacy, none);
    }

    #[test]
    fn batched_runs_are_deterministic_and_conserve_requests() {
        let reqs: Vec<(f64, u32)> = (0..80).map(|i| (i as f64 * 0.07, (i % 6) as u32)).collect();
        let t = trace_of(&reqs);
        for spec in [
            "coalesce:max=4,wait=0.05",
            "adaptive:slo=20,max=8,wait=0.05",
        ] {
            let a = batched_cluster(3, 6, spec).run(&t);
            let b = batched_cluster(3, 6, spec).run(&t);
            assert_eq!(a, b, "{spec}");
            assert_eq!(a.completed, 80, "{spec}");
            assert!(a.batched_requests > 0, "{spec} must coalesce something");
        }
    }

    #[test]
    fn coalescing_respects_the_tenant_inflight_cap() {
        // §VI isolation must hold through the batching layer: with a
        // 1-request tenant cap, a coalesced dispatch may not pull the
        // capped tenant's queued requests into its batch (the forming
        // batch itself counts toward the cap). The three requests
        // serialise exactly like the per-request dispatch test:
        // 2 s (cold) + 1 s + 1 s → max latency 4 s.
        let mut cfg = ClusterConfig::test(3, 1000, spec("lalbo3"));
        cfg.num_tenants = 2;
        cfg.tenant_max_inflight = Some(1);
        cfg.batching = "coalesce:max=8,wait=0.05".parse().unwrap();
        let mut c = Cluster::new(cfg, toy_registry(1));
        let m = c.run(&trace_of(&[(0.0, 0), (0.0, 0), (0.0, 0)]));
        assert_eq!(m.completed, 3);
        assert_eq!(m.batched_requests, 0, "the cap forbids coalescing here");
        assert!(
            (m.max_latency_secs - 4.0).abs() < 1e-6,
            "{}",
            m.max_latency_secs
        );
    }

    #[test]
    fn batching_survives_crashes_without_losing_requests() {
        let mut cfg = ClusterConfig::test(2, 1000, spec("lalbo3"));
        cfg.batching = "coalesce:max=4,wait=0.05".parse().unwrap();
        cfg.crash_rate = 0.3;
        cfg.seed = 5;
        let mut c = Cluster::new(cfg, toy_registry(3));
        let reqs: Vec<(f64, u32)> = (0..40).map(|i| (i as f64 * 0.3, (i % 3) as u32)).collect();
        let m = c.run(&trace_of(&reqs));
        assert_eq!(m.completed, 40, "crashed batches retry whole");
        assert!(c.crashes() > 0);
    }

    #[test]
    fn draining_gpu_with_held_batch_finishes_before_going_offline() {
        // A GPU drained *mid-hold* must still launch and finish its held
        // batch before going offline.
        #[derive(Debug)]
        struct DrainAll;
        impl crate::autoscale::Autoscaler for DrainAll {
            fn name(&self) -> String {
                "drain-all".into()
            }
            fn cadence(&self) -> SimDuration {
                SimDuration::from_secs_f64(2.2)
            }
            fn step(&mut self, _view: &ScaleView<'_>) -> ScaleDecision {
                ScaleDecision::Down(1)
            }
        }
        let mut cfg = ClusterConfig::test(2, 1000, spec("lalb"));
        cfg.batching = "coalesce:max=4,wait=0.5".parse().unwrap();
        cfg.autoscale = Some(
            "queue:min=1,max=2,up=99,down=0,cadence=2.2"
                .parse()
                .unwrap(),
        );
        let mut c = Cluster::new(cfg, toy_registry(2));
        c.set_autoscaler(Box::new(DrainAll));
        // gpu0 runs m0 until t=2 while two more m0 requests queue; at t=2
        // they form a held batch (release 2.5). gpu1 runs m1 work and is
        // busy again at the t=2.2 tick, so the victim order (both busy,
        // stalest idle_since first) drains gpu0 — mid-hold. The hold must
        // still fire, run its batch on the draining GPU, and only then
        // take it offline.
        let m = c.run(&trace_of(&[
            (0.0, 0),
            (0.1, 1),
            (1.5, 0),
            (1.6, 0),
            (2.15, 1),
        ]));
        assert_eq!(m.completed, 5, "held requests survive the drain");
        assert_eq!(m.scale_down_events, 1);
        assert_eq!(m.effective_batch_hist, vec![(1, 3), (2, 1)]);
        assert_eq!(c.units[0].state, UnitState::Offline);
        assert!(c.units[0].holding.is_none());
        assert_eq!(c.online_gpus(), 1);
    }

    #[test]
    fn injected_custom_batcher_overrides_the_spec() {
        /// Merges everything available, never holds.
        #[derive(Debug)]
        struct TakeAll;
        impl crate::batching::BatchPolicy for TakeAll {
            fn name(&self) -> String {
                "take-all".into()
            }
            fn plan(&mut self, view: &crate::batching::BatchView) -> crate::batching::BatchPlan {
                crate::batching::BatchPlan {
                    max_requests: 1 + view.available,
                    hold: None,
                }
            }
        }
        let mut c = batched_cluster(1, 1, "none");
        c.set_batcher(Box::new(TakeAll));
        assert_eq!(c.batcher_name(), "take-all");
        let m = c.run(&trace_of(&[(0.0, 0), (0.01, 0), (0.02, 0)]));
        assert_eq!(m.completed, 3);
        assert_eq!(m.invocations, 1);
        assert_eq!(m.avg_effective_batch, 3.0);
    }

    #[test]
    fn custom_scheduler_plugs_into_the_cluster() {
        /// Dispatches the queue head to the *lowest-id* idle GPU,
        /// ignoring locality and idle time — not a builtin policy.
        #[derive(Debug)]
        struct FirstGpu;
        impl SchedulerPolicy for FirstGpu {
            fn name(&self) -> String {
                "first-gpu".into()
            }
            fn idle_order(&mut self, _ctx: &SchedCtx<'_>, idle: &mut Vec<GpuId>) {
                idle.sort();
            }
            fn on_gpu_idle(&mut self, gpu: GpuId, ctx: &mut SchedCtx<'_>) -> Dispatch {
                if ctx.queue_len() == 0 {
                    return Dispatch::None;
                }
                let r = ctx.take_queued(0);
                if ctx.is_cached(gpu, r.model) {
                    Dispatch::Hit(r)
                } else {
                    Dispatch::Miss(r)
                }
            }
        }

        let cfg = ClusterConfig::test(3, 1000, spec("lalb"));
        let mut c = Cluster::with_policies(
            cfg,
            toy_registry(2),
            Box::new(FirstGpu),
            Box::new(crate::cache::LruEvictor::default()),
        )
        .unwrap();
        assert_eq!(c.scheduler_name(), "first-gpu");
        // Requests arriving while all GPUs idle always land on gpu0.
        let m = c.run(&trace_of(&[(0.0, 0), (10.0, 1), (20.0, 0)]));
        assert_eq!(m.completed, 3);
        // gpu0 evicted nothing (1000 MiB fits both models), served all
        // three: the repeat of m0 is a hit because gpu0 still holds it.
        assert_eq!(m.misses, 2);
    }

    // ------------------------------------------------------------------
    // Versioned state: snapshot / rollback / checkpoint / lookahead
    // ------------------------------------------------------------------

    /// A busy little workload: 30 requests over 6 models on 3 GPUs with
    /// 300 MiB each (evictions!), batching and autoscaling enabled — every
    /// journaled component carries non-trivial state.
    fn snap_fixture() -> (ClusterConfig, Trace) {
        let mut cfg = ClusterConfig::test(3, 300, spec("lalbo3"));
        cfg.batching = "coalesce:max=4,wait=0.05".parse().unwrap();
        cfg.autoscale = Some("queue:min=2,max=4,up=6,down=1".parse().unwrap());
        let reqs: Vec<(f64, u32)> = (0..30).map(|i| (i as f64 * 0.13, (i % 6) as u32)).collect();
        (cfg, trace_of(&reqs))
    }

    fn snap_cluster(cfg: &ClusterConfig) -> Cluster {
        Cluster::new(cfg.clone(), toy_registry(6))
    }

    #[test]
    fn run_until_then_resume_is_byte_identical_to_a_full_run() {
        let (cfg, t) = snap_fixture();
        let full = snap_cluster(&cfg).run(&t);
        let mut paused = snap_cluster(&cfg);
        paused.run_until(&t, SimTime::from_secs_f64(3.0));
        assert!(paused.metrics.completed() > 0, "the pause point is mid-run");
        assert!(paused.metrics.completed() < 30);
        paused.run_until(&t, SimTime::from_secs_f64(5.0));
        assert_eq!(paused.resume(&t), full, "pausing must not perturb the run");
    }

    #[test]
    fn rollback_restores_byte_identical_state() {
        let (cfg, t) = snap_fixture();
        let mut c = snap_cluster(&cfg);
        c.run_until(&t, SimTime::from_secs_f64(1.3));
        let before = c.checkpoint(&t);
        let id = c.snapshot();
        assert_eq!(c.journal_depth(), 1);
        c.run_until(&t, SimTime::from_secs_f64(2.9));
        assert_ne!(c.checkpoint(&t), before, "the run advanced past the pin");
        assert!(c.rollback(id));
        // The checkpoint codec serialises every field of mutable state, so
        // byte equality here is the strongest restore check we can make.
        assert_eq!(c.checkpoint(&t), before, "rollback must be byte-exact");
        // The pin survives rollback: advance and rewind a second time.
        c.run_until(&t, SimTime::from_secs_f64(4.2));
        assert!(c.rollback(id));
        assert_eq!(c.checkpoint(&t), before);
        // A rolled-back cluster finishes exactly like an unperturbed one.
        let full = snap_cluster(&cfg).run(&t);
        assert_eq!(c.resume(&t), full);
    }

    #[test]
    fn commit_retires_pins_and_rollback_of_retired_pin_fails() {
        let (cfg, t) = snap_fixture();
        let mut c = snap_cluster(&cfg);
        c.run_until(&t, SimTime::from_secs_f64(1.0));
        let old = c.snapshot();
        c.run_until(&t, SimTime::from_secs_f64(1.5));
        let new = c.snapshot();
        assert_eq!(c.journal_depth(), 2);
        // Committing the newer pin retires it *and* everything older.
        assert!(c.commit(new));
        assert_eq!(c.journal_depth(), 0);
        assert!(!c.rollback(old), "retired pins must not restore");
        assert!(!c.rollback(new));
        assert!(!c.commit(new), "double-commit is rejected");
        let stats = c.journal_stats();
        assert_eq!(stats.snapshots, 2);
        assert_eq!(stats.commits, 1);
        assert_eq!(stats.rollbacks, 0, "failed rollbacks do not count");
    }

    #[test]
    fn plain_runs_never_touch_the_journal() {
        // Zero-cost guarantee: without snapshots or lookahead, the
        // journal stays empty for the whole run.
        let (cfg, t) = snap_fixture();
        let mut c = snap_cluster(&cfg);
        c.run(&t);
        let stats = c.journal_stats();
        assert_eq!(stats.snapshots, 0);
        assert_eq!(stats.rollbacks, 0);
        assert_eq!(stats.commits, 0);
        assert_eq!(c.journal_depth(), 0);
    }

    #[test]
    fn checkpoint_restore_warm_start_is_byte_identical() {
        let (cfg, t) = snap_fixture();
        let full = snap_cluster(&cfg).run(&t);
        let mut c = snap_cluster(&cfg);
        c.run_until(&t, SimTime::from_secs_f64(1.9));
        let bytes = c.checkpoint(&t);
        // Restore into a *fresh* cluster with the same config and warm-start.
        let mut warm = snap_cluster(&cfg);
        warm.restore(&bytes, &t).unwrap();
        assert_eq!(warm.checkpoint(&t), bytes, "restore round-trips the wire");
        assert_eq!(warm.resume(&t), full, "warm start reproduces the full run");
        // The original paused cluster agrees too.
        assert_eq!(c.resume(&t), full);
    }

    #[test]
    fn restore_rejects_foreign_and_corrupt_checkpoints() {
        let (cfg, t) = snap_fixture();
        let mut c = snap_cluster(&cfg);
        c.run_until(&t, SimTime::from_secs_f64(1.0));
        let bytes = c.checkpoint(&t);

        // Wrong config: different fleet size.
        let mut other = Cluster::new(ClusterConfig::test(4, 300, spec("lalbo3")), toy_registry(6));
        assert!(matches!(
            other.restore(&bytes, &t),
            Err(SnapError::ConfigMismatch)
        ));

        // Wrong trace: one extra request.
        let mut reqs: Vec<(f64, u32)> =
            (0..30).map(|i| (i as f64 * 0.13, (i % 6) as u32)).collect();
        reqs.push((9.9, 0));
        assert!(matches!(
            snap_cluster(&cfg).restore(&bytes, &trace_of(&reqs)),
            Err(SnapError::TraceMismatch)
        ));

        // Truncated payload.
        assert!(snap_cluster(&cfg)
            .restore(&bytes[..bytes.len() - 3], &t)
            .is_err());

        // Corrupt magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            snap_cluster(&cfg).restore(&bad, &t),
            Err(SnapError::BadMagic)
        ));

        // A failed restore leaves the target untouched and runnable.
        let full = snap_cluster(&cfg).run(&t);
        let mut target = snap_cluster(&cfg);
        assert!(target.restore(&bad, &t).is_err());
        assert_eq!(target.run(&t), full);

        // Truncated anywhere, a checkpoint taken at 2 s must be rejected
        // by a target paused at 1 s without touching it: the target then
        // resumes exactly like an untouched twin.
        let mut later = snap_cluster(&cfg);
        later.run_until(&t, SimTime::from_secs_f64(2.0));
        let later_bytes = later.checkpoint(&t);
        let paused = || {
            let mut c = snap_cluster(&cfg);
            c.run_until(&t, SimTime::from_secs_f64(1.0));
            c
        };
        let twin = paused().resume(&t);
        let stride = (later_bytes.len() / 40).max(1);
        let cuts = (0..later_bytes.len()).step_by(stride);
        for cut in cuts.chain([later_bytes.len() - 1]) {
            let mut target = paused();
            assert!(
                target.restore(&later_bytes[..cut], &t).is_err(),
                "cut at {cut}"
            );
            assert_eq!(target.resume(&t), twin, "cut at {cut}");
        }
    }

    /// A test cluster driven by the lookahead what-if scheduler.
    fn lookahead_cluster(gpus: usize, mem_mib: u64, nmodels: usize, k: usize) -> Cluster {
        let cfg = ClusterConfig::test(gpus, mem_mib, spec("lalbo3"));
        Cluster::with_policies(
            cfg,
            toy_registry(nmodels),
            Box::new(crate::scheduler::LookaheadScheduler::new(k, 8, 25)),
            Box::new(crate::cache::LruEvictor::default()),
        )
        .unwrap()
    }

    #[test]
    fn lookahead_serves_every_request_and_retires_every_fork() {
        let reqs: Vec<(f64, u32)> = (0..60).map(|i| (i as f64 * 0.09, (i % 5) as u32)).collect();
        let t = trace_of(&reqs);
        let mut c = lookahead_cluster(3, 300, 5, 4);
        assert_eq!(c.scheduler_name(), "Lookahead(k=4,h=8)");
        let m = c.run(&t);
        assert_eq!(m.completed, 60);
        let stats = c.journal_stats();
        assert!(stats.snapshots > 0, "contended placements must speculate");
        assert_eq!(
            stats.snapshots, stats.rollbacks,
            "every fork is rolled back, none leaks"
        );
        assert_eq!(c.journal_depth(), 0, "no frames survive the run");
    }

    #[test]
    fn lookahead_runs_are_deterministic() {
        let reqs: Vec<(f64, u32)> = (0..60).map(|i| (i as f64 * 0.09, (i % 5) as u32)).collect();
        let t = trace_of(&reqs);
        let a = lookahead_cluster(3, 300, 5, 4).run(&t);
        let b = lookahead_cluster(3, 300, 5, 4).run(&t);
        assert_eq!(a, b);
    }

    #[test]
    fn lookahead_with_k1_executes_without_forking() {
        // k=1 keeps only the first candidate arm: placement is decided
        // without speculation, so the journal must stay untouched.
        let reqs: Vec<(f64, u32)> = (0..40).map(|i| (i as f64 * 0.11, (i % 4) as u32)).collect();
        let t = trace_of(&reqs);
        let mut c = lookahead_cluster(2, 300, 4, 1);
        let m = c.run(&t);
        assert_eq!(m.completed, 40);
        assert_eq!(c.journal_stats().snapshots, 0);
    }

    #[test]
    fn speculation_does_not_perturb_the_chosen_timeline() {
        // The lookahead run must itself be a valid simulation: conserve
        // requests and, like every policy, produce identical metrics when
        // paused and resumed (the fork/rollback machinery composes with
        // the user-facing snapshot API).
        let reqs: Vec<(f64, u32)> = (0..50).map(|i| (i as f64 * 0.08, (i % 5) as u32)).collect();
        let t = trace_of(&reqs);
        let full = lookahead_cluster(3, 300, 5, 4).run(&t);
        let mut paused = lookahead_cluster(3, 300, 5, 4);
        paused.run_until(&t, SimTime::from_secs_f64(2.0));
        assert_eq!(paused.resume(&t), full);
    }
}
