//! Scheduling (paper §IV) and dispatch execution: the schedule pass,
//! the hit and miss launches, the incremental wait estimator the
//! policies consult, and the [`SchedCtx`] view a
//! [`SchedulerPolicy`](crate::scheduler::SchedulerPolicy) works
//! through. The algorithms themselves live in the policy impls
//! ([`crate::scheduler`]).

use std::ops::ControlFlow;

use gfaas_gpu::{GpuId, ModelId, Tier};
use gfaas_obs::{Arm, ObsEvent};
use gfaas_sim::event::EventQueue;
use gfaas_sim::time::{SimDuration, SimTime};

use super::{Cluster, Event, LocalAgg, SpecScore};
use crate::config::BusyWaitPolicy;
use crate::gpu_manager::{GpuUnit, InFlight, Phase, UnitState};
use crate::request::Request;
use crate::scheduler::{Dispatch, Placement};

impl Cluster {
    /// Appends `r` to `gi`'s local queue (Algorithm 2's wait-on-busy
    /// arm), with its aggregate and the local-move count.
    pub(super) fn push_local(&mut self, gi: usize, r: Request) {
        self.agg_push(gi, &r);
        self.units.write(gi).local_queue.push_back(r);
        self.scalars.local_moves += 1;
    }

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

    /// Accounts `r` leaving index `at` of `gi`'s local queue (dispatch,
    /// coalescing collection); `r` must have been its model's first queued
    /// entry, as both callers take entries front to back. The inference
    /// charge is recomputed from the same immutable profile it was added
    /// from, so the subtraction is exact. When entries of `r`'s model
    /// remain, its group moves past exactly the groups whose first entries
    /// now lie ahead of the model's new first entry, which keeps `groups`
    /// in first-entry order.
    pub(super) fn agg_remove(&mut self, gi: usize, at: usize, r: &Request) {
        let dur = self.infer_time_on(gi, r.model, r.batch);
        let queue = &self.units[gi].local_queue;
        debug_assert!(
            !queue.range(..at).any(|q| q.model == r.model),
            "removed entry was not its model's first"
        );
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
            return;
        }
        let ahead = || queue.range(at..).take_while(|q| q.model != r.model);
        let passed = agg.groups[pos + 1..]
            .iter()
            .take_while(|g| ahead().any(|q| q.model == g.0))
            .count();
        agg.groups[pos..=pos + passed].rotate_left(1);
    }

    /// Pops the head of `gi`'s local queue and accounts it with
    /// [`Cluster::agg_remove`]. An empty queue is checked through a read,
    /// so it is not a write a live pin would have to save.
    pub(super) fn pop_local(&mut self, gi: usize) -> Option<Request> {
        if self.units[gi].local_queue.is_empty() {
            return None;
        }
        let r = self.units.write(gi).local_queue.pop_front()?;
        self.agg_remove(gi, 0, &r);
        Some(r)
    }

    /// Recomputes `gi`'s aggregate from its queue — the rare-path reset
    /// after a crash rebuilds the local queue wholesale.
    pub(super) fn agg_rebuild(&mut self, gi: usize) {
        *self.local_aggs.write(gi) = LocalAgg::default();
        let n = self.units[gi].local_queue.len();
        for i in 0..n {
            let r = self.units[gi].local_queue[i];
            self.agg_push(gi, &r);
        }
    }

    /// [`GpuUnit::estimated_wait_for`] evaluated from the incremental
    /// aggregate in O(distinct queued models) instead of O(queue): the
    /// per-request inference sum and per-model group sums of [`LocalAgg`]
    /// stand in for the queue walk. Byte-identical by construction; debug
    /// builds assert equality against the naive walk on every call, which
    /// is also the oracle the property tests lean on.
    fn estimated_wait_fast(&self, gi: usize, model: ModelId) -> SimDuration {
        self.estimator_calls.set(self.estimator_calls.get() + 1);
        let coalesced = !self.batcher.is_passthrough();
        let (unit, now) = (&self.units[gi], self.scalars.now);
        let infer = |m, b| self.infer_time_on(gi, m, b);
        let load = |m| self.load_time_on(gi, m);
        let wait = match unit.wait_before_queue(now, model, coalesced, infer, load) {
            ControlFlow::Break(wait) => wait,
            ControlFlow::Continue(mut wait) => {
                let agg = &self.local_aggs[gi];
                let upload = |m| {
                    if unit.device.has_model(m) {
                        SimDuration::ZERO
                    } else {
                        load(m)
                    }
                };
                if coalesced {
                    // Groups ahead of the request's own, which it shares.
                    for &(m, items, _) in agg.groups.iter().take_while(|g| g.0 != model) {
                        wait += upload(m) + infer(m, items);
                    }
                } else {
                    for &(m, ..) in &agg.groups {
                        wait += upload(m);
                    }
                    wait += agg.infer_sum;
                }
                wait
            }
        };
        debug_assert_eq!(
            wait,
            unit.estimated_wait_for(now, model, coalesced, infer, load),
            "local-queue aggregate out of sync on GPU {gi}"
        );
        wait
    }

    /// Requests a tenant currently occupies (in flight, held for a batch,
    /// or in local queues).
    pub(super) fn tenant_load(&self, tenant: u16) -> usize {
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
    pub(super) fn tenant_blocked(&self, tenant: u16) -> bool {
        match self.config.tenant_max_inflight {
            Some(cap) => self.tenant_load(tenant) >= cap,
            None => false,
        }
    }

    /// Recounts what the idle-online, holding and draining counters
    /// track, for the debug check on every pass round and for restore.
    pub(super) fn fleet_counts(&self) -> (usize, usize, usize) {
        let count = |keep: fn(&GpuUnit) -> bool| self.units.iter().filter(|u| keep(u)).count();
        (
            count(|u| u.state == UnitState::Online && u.is_idle()),
            count(|u| u.holding.is_some()),
            count(|u| u.state == UnitState::Draining),
        )
    }

    /// Runs scheduling iterations until no dispatch is possible. The
    /// structure (pass loop, local-queue priority, idle filtering) is the
    /// driver's; every placement decision is the policy's. Draining GPUs
    /// are invisible to the policy but still serve their own local
    /// queues, so no already-placed request is lost to a scale-down.
    pub(super) fn schedule_pass(&mut self, events: &mut EventQueue<Event>) {
        self.profile.schedule_passes += 1;
        let mut sched = self.sched.take().expect("scheduler in place");
        loop {
            self.profile.pass_rounds += 1;
            let s = &self.scalars;
            debug_assert_eq!(
                (s.idle_online, s.holding_units, s.draining_units),
                self.fleet_counts(),
                "fleet counters (idle online, holding, draining) out of sync"
            );
            // The saturated common case: nothing to top up, nothing to
            // drain, nowhere to dispatch — the pass is provably a no-op.
            if self.scalars.idle_online == 0
                && self.scalars.holding_units == 0
                && self.scalars.draining_units == 0
            {
                break;
            }
            let mut progress = false;
            // Held batches vacuum up matching new arrivals and launch
            // early once full (no-op under per-request dispatch).
            if self.scalars.holding_units > 0 && !self.batcher.is_passthrough() {
                for gi in 0..self.units.len() {
                    if self.units[gi].holding.is_some() && self.fill_hold(gi, false, events) {
                        progress = true;
                    }
                }
            }
            // Drain victims run down their local queues (always resident
            // hits) but receive no new work.
            if self.scalars.draining_units > 0 {
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
            if self.scalars.idle_online > 0 {
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

    /// Starts a cache-hit inference on an idle GPU — one invocation
    /// serving every request in `requests` (one, unless a batch policy
    /// coalesced more).
    pub(super) fn execute_hit(
        &mut self,
        gi: usize,
        requests: Vec<Request>,
        events: &mut EventQueue<Event>,
    ) {
        let g = self.units[gi].id();
        let model = requests[0].model;
        debug_assert!(self.cache.is_cached(g, model), "hit without residency");
        debug_assert!(requests.iter().all(|r| r.model == model));
        // Every coalesced request is a hit decision and a cache access.
        for _ in &requests {
            self.metrics.record_dispatch(true, false);
            self.cache.touch(g, model);
        }
        let items: usize = requests.iter().map(|r| r.batch).sum();
        let dur = self.infer_time_on(gi, model, items);
        let done = self.scalars.now + dur;
        let seq = self.scalars.dispatch_seq;
        self.scalars.dispatch_seq += 1;
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
        self.units.write(gi).launch(InFlight {
            requests,
            phase: Phase::Running,
            was_hit: true,
            started: self.scalars.now,
            until: done,
            seq,
            tier: Tier::HBM,
        });
        self.schedule_inference_outcome(gi, done, dur, events);
    }

    /// Kills `model`'s process on `gi`, once the cache has dropped it,
    /// and demotes its weights: they land in the host cache (a
    /// device→host writeback overlaps compute, so the demotion itself is
    /// free), making the next miss for them a host hit instead of an
    /// origin fetch. Capacity and drain evictions both demote; crashes
    /// do not, as the process died with its memory.
    pub(super) fn evict_resident(&mut self, gi: usize, model: ModelId) {
        self.units.write(gi).evict(model);
        self.on_residency_change(model);
        let bytes = self.registry.occupancy_bytes(model);
        self.store.demote(self.scalars.now, model, bytes);
        let gpu = self.units[gi].id();
        self.emit_with(|_| ObsEvent::Eviction { gpu, model });
    }

    /// Starts a cache-miss (load, then inference) on an idle GPU,
    /// evicting victims as needed. The lead request pays the miss;
    /// coalesced requests ride the same upload and count as hits.
    pub(super) fn execute_miss(
        &mut self,
        gi: usize,
        requests: Vec<Request>,
        events: &mut EventQueue<Event>,
    ) {
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
            self.evict_resident(gi, v);
        }
        // The store prices (and accounts) the upload: the flat backend
        // echoes the per-device profile time; a tiered backend settles
        // background transfers, serves from host if resident, joins an
        // in-flight prefetch, or queues an origin fetch.
        let flat_load = self.unit_times(gi, model).load;
        let (tier, load_time) =
            self.store
                .begin_load(self.scalars.now, model, occupancy, flat_load);
        self.units
            .write(gi)
            .device
            .load(model, occupancy)
            .expect("load after eviction fits");
        let ready = self.scalars.now + load_time;
        self.cache.insert(g, model);
        self.on_residency_change(model);
        // Riding requests access the freshly inserted model (frequency
        // for TinyLFU-style evictors; a no-op for the insert-hot LRU).
        for _ in 1..requests.len() {
            self.cache.touch(g, model);
        }
        let seq = self.scalars.dispatch_seq;
        self.scalars.dispatch_seq += 1;
        if self.recorder.is_some() {
            let resident = self.cache.resident(g);
            self.emit_with(|_| ObsEvent::LoadStart {
                gpu: g,
                model,
                batch: seq,
                tier,
                resident: &resident,
            });
        }
        self.units.write(gi).launch(InFlight {
            requests,
            phase: Phase::Loading,
            was_hit: false,
            started: self.scalars.now,
            until: ready,
            seq,
            tier,
        });
        events.schedule(ready, Event::GpuDone(g, seq));
    }
}

/// The borrowed cluster view a
/// [`SchedulerPolicy`](crate::scheduler::SchedulerPolicy) works through during a
/// scheduling pass: read access to the global queue, GPU/cache/finish-time
/// state, and four commands — [`SchedCtx::take_queued`],
/// [`SchedCtx::note_skips`], [`SchedCtx::perform`] (Algorithm 2's arms on
/// *other* GPUs) and [`SchedCtx::speculate`] (a decision's what-if
/// forks).
pub struct SchedCtx<'a> {
    pub(super) cluster: &'a mut Cluster,
    pub(super) events: &'a mut EventQueue<Event>,
    pub(super) progress: bool,
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
        self.cluster.queue_depth_changed();
        r
    }

    /// Records that every request in `range` was passed over by
    /// out-of-order dispatch (Algorithm 1's visit counter): one call for
    /// a scan's run of consecutive skips.
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

    /// The wait a request for `model` would see at busy `gpu` before
    /// being served — what Algorithm 2 compares against the load time —
    /// on this GPU's own compute and PCIe profiles (see
    /// [`GpuUnit::estimated_wait_for`]). Per-request dispatch charges the
    /// whole drain, including the upload of any non-resident queued
    /// model; under batching the request shares its model's invocation (a
    /// forming load, a held batch, or a local-queue group), so only the
    /// work ahead of it counts, which makes waiting at a busy holder
    /// correctly cheaper than replicating the model.
    pub fn estimated_wait_for(&self, gpu: GpuId, model: ModelId) -> SimDuration {
        self.cluster.estimated_wait_fast(gpu.0 as usize, model)
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

    /// The models resident on `gpu` (an upload in progress counts), in
    /// id order — the same set [`SchedCtx::is_cached`] answers from the
    /// cache's replica lists.
    pub fn resident_models(&self, gpu: GpuId) -> impl Iterator<Item = ModelId> + '_ {
        self.cluster.units[gpu.0 as usize].device.resident_models()
    }

    /// GPUs currently holding `model`, in id order (the §VI replica
    /// list), walked in place over the cache's list. Only online GPUs
    /// count: a draining GPU still holds its models but must not attract
    /// new work, and its residents are about to be evicted anyway.
    pub fn holders(&self, model: ModelId) -> impl Iterator<Item = GpuId> + '_ {
        let units = &self.cluster.units;
        self.cluster
            .cache
            .holders(model)
            .iter()
            .copied()
            .filter(move |&g| units[g.0 as usize].state == UnitState::Online)
    }

    // --- config / time ------------------------------------------------

    /// Algorithm 2's busy-holder handling (ablation knob).
    pub fn busy_wait(&self) -> BusyWaitPolicy {
        self.cluster.config.busy_wait
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.cluster.scalars.now
    }

    // --- placement commands (execute immediately) ---------------------

    /// Performs `placement` for `r`, which must already be off the
    /// global queue: a hit or a miss launches on its idle target, a wait
    /// joins the busy holder's local queue. Executes immediately so later
    /// decisions in the same pass see its effect. A policy's arms on
    /// other GPUs and a what-if fork's candidate both come through here.
    pub fn perform(&mut self, r: Request, placement: Placement) {
        let arm = match placement {
            Placement::HitOn(_) => Arm::HitRemote,
            Placement::WaitOn(_) => Arm::WaitBusy,
            Placement::MissOn(_) => Arm::Miss,
        };
        self.perform_as(r, placement, arm);
    }

    /// What-if forks for one decision: for each of `candidates` in
    /// order, tries placing the queued request at `queue_index` that
    /// way, replays up to `horizon` pending runtime events under greedy
    /// LALBO3, and pushes the outcome onto `scores` (cleared first, so
    /// `scores[c]` is `candidates[c]`'s) — restoring the world
    /// byte-identically after each, as if no fork ran. Every candidate
    /// gets its own pin and retiring rollback.
    pub fn speculate(
        &mut self,
        queue_index: usize,
        candidates: &[Placement],
        horizon: usize,
        scores: &mut Vec<SpecScore>,
    ) {
        self.cluster
            .speculate_placements(self.events, queue_index, candidates, horizon, scores);
    }

    /// Executes a policy's dispatch for `gpu` (driver-internal).
    fn apply(&mut self, gpu: GpuId, dispatch: Dispatch) {
        match dispatch {
            Dispatch::None => {}
            Dispatch::Hit(r) => self.perform_as(r, Placement::HitOn(gpu), Arm::HitLocal),
            Dispatch::Miss(r) => self.perform_as(r, Placement::MissOn(gpu), Arm::Miss),
        }
    }

    /// The one per-arm path: records the Algorithm-2 `arm` that placed
    /// `r`, then performs `placement`.
    fn perform_as(&mut self, r: Request, placement: Placement, arm: Arm) {
        let cluster = &mut *self.cluster;
        cluster.emit_with(|_| ObsEvent::SchedArm { req: r.id, arm });
        match placement {
            Placement::HitOn(gpu) => {
                debug_assert!(
                    cluster.units[gpu.0 as usize].local_queue.is_empty(),
                    "idle GPUs have drained local queues"
                );
                cluster.dispatch_batched(gpu.0 as usize, r, true, self.events);
            }
            Placement::MissOn(gpu) => {
                cluster.dispatch_batched(gpu.0 as usize, r, false, self.events)
            }
            Placement::WaitOn(gpu) => {
                cluster.emit_with(|_| ObsEvent::LocalEnqueue {
                    req: r.id,
                    gpu,
                    model: r.model,
                });
                cluster.push_local(gpu.0 as usize, r);
            }
        }
        self.progress = true;
    }
}
