//! Versioned state: snapshot pins, rollback and commit (see
//! [`gfaas_snap`]), and the on-disk checkpoint a warm start restores.
//! A pin and a checkpoint record the same state through the same
//! codecs: [`Scalars`] for the plain fields, one policy-blob sequence
//! for the policy objects, and the `save_*`/`load_*` functions below
//! for the driver-owned plain data.

use gfaas_gpu::{GpuId, ModelId, Tier};
use gfaas_obs::SelfProfile;
use gfaas_sim::event::EventQueue;
use gfaas_sim::rng::DetRng;
use gfaas_sim::time::SimTime;
use gfaas_snap::{
    fnv1a, read_header, write_header, Dec, Enc, Fnv1a, JournalStats, SnapError, SnapId, WriteSet,
};
use gfaas_trace::Trace;

use super::{Cluster, Event};
use crate::gpu_manager::{GpuUnit, HoldSlot, InFlight, Phase, UnitState};
use crate::metrics::{MetricsCollector, MetricsMark};
use crate::request::Request;
#[cfg(feature = "simcheck")]
use crate::simcheck::SimChecker;

/// Bytes of the sanitizer's slot in a checkpoint: `SimChecker`'s six
/// 8-byte words and one 16-byte integral. Builds without the `simcheck`
/// feature write zeros there, so either build restores the other's
/// images.
#[cfg(not(feature = "simcheck"))]
const SIMCHECK_SLOT: usize = 64;

impl Cluster {
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
    /// Returns false for a dead or foreign id. Attached recorders, a
    /// datastore mirror among them, are *not* rewound: rolling back
    /// mid-recording leaves already-emitted telemetry in the sinks (the
    /// lookahead forks stash the recorder first for exactly that reason).
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
    pub(super) fn pin(&mut self, events: &EventQueue<Event>) -> SnapId {
        let (id, f) = self.pins.push();
        f.scalars.clone_from(&self.scalars);
        f.profile.clone_from(&self.profile);
        f.profile.estimator_calls = self.estimator_calls.get();
        self.metrics.mark_into(&mut f.metrics);
        f.replaced_metrics = None;
        f.events.clone_from(events);
        f.sched_present = self.sched.is_some();
        #[cfg(feature = "simcheck")]
        f.simcheck.clone_from(&self.simcheck);
        // Policy objects keep their state private; their checkpoint
        // hooks serialise it into the frame's reused buffer.
        let mut blobs = std::mem::take(&mut f.blobs);
        blobs.clear();
        self.save_policies(&mut blobs);
        self.pins.top_mut().expect("pin just pushed").blobs = blobs;
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
    pub(super) fn rollback_to(&mut self, at: usize, retire: bool, events: &mut EventQueue<Event>) {
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
        self.scalars.clone_from(&f.scalars);
        // The live profile's estimator count stays zero: the `Cell`
        // holds it between pins.
        self.profile.clone_from(&f.profile);
        self.estimator_calls
            .set(std::mem::take(&mut self.profile.estimator_calls));
        self.metrics.rewind(&f.metrics);
        if retire {
            // The frame is closing: take its heap instead of copying it.
            std::mem::swap(events, &mut f.events);
        } else {
            events.clone_from(&f.events);
        }
        assert_eq!(
            f.sched_present,
            self.sched.is_some(),
            "snapshot and rollback straddle a scheduling pass"
        );
        let blobs = std::mem::take(&mut f.blobs);
        let mut dec = Dec::new(blobs.as_bytes());
        self.load_policies(&mut dec)
            .expect("pinned policy state decodes");
        debug_assert_eq!(dec.remaining(), 0, "pinned policy state fully consumed");
        let f = self.pins.frame_mut(at);
        f.blobs = blobs;
        #[cfg(feature = "simcheck")]
        self.simcheck.clone_from(&f.simcheck);
        self.pins.rolled_back(at, retire);
    }

    /// Writes the policy objects' state — cache (with its evictor),
    /// scheduler (when in its slot), batcher, store, autoscaler — in the
    /// one order both a pin and a checkpoint use.
    fn save_policies(&self, enc: &mut Enc) {
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
    }

    /// Reads back what [`Cluster::save_policies`] wrote.
    fn load_policies(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapError> {
        self.cache.load_state(dec)?;
        if let Some(s) = self.sched.as_mut() {
            s.load_state(dec)?;
        }
        self.batcher.load_state(dec)?;
        self.store.load_state(dec)?;
        if dec.bool()? != self.autoscaler.is_some() {
            return Err(SnapError::Corrupt("autoscaler presence mismatch"));
        }
        if let Some(a) = self.autoscaler.as_mut() {
            a.load_state(dec)?;
        }
        Ok(())
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
    pub(super) fn encode_state(&self, enc: &mut Enc, events: &EventQueue<Event>) {
        for u in self.units.iter() {
            save_unit(enc, u);
        }
        self.save_policies(enc);
        save_requests(enc, self.global_queue.iter());
        self.metrics.save_state(enc);
        self.scalars.save(enc);
        save_events(enc, events);
        // The sanitizer slot is written unconditionally so the wire
        // layout is identical with and without the `simcheck` feature.
        #[cfg(feature = "simcheck")]
        self.simcheck.save_state(enc);
        #[cfg(not(feature = "simcheck"))]
        enc.put_raw(&[0; SIMCHECK_SLOT]);
    }

    /// Restores a [`Cluster::checkpoint`] image into this cluster, which
    /// must have been built from the same config and be resuming the
    /// same trace (both enforced by the envelope digests). An image that
    /// decodes but breaks an invariant every running cluster keeps is
    /// rejected too: each device's resident list must be sorted and fit
    /// its memory, residency must match the cache, in-flight and held
    /// work the residents and the SM interval, and every pending event
    /// must name a GPU in the fleet. On success the
    /// cluster is exactly the paused instant; drive it with
    /// [`Cluster::resume`] or [`Cluster::run_until`]. On error the
    /// cluster is left exactly as it was before the call.
    pub fn restore(&mut self, bytes: &[u8], trace: &Trace) -> Result<(), SnapError> {
        // Decoding overwrites the state in place, so keep a checkpoint
        // of the current state to decode back if the bytes are bad.
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
        self.load_policies(&mut dec)?;
        self.global_queue.replace(load_requests(&mut dec)?.into());
        let metrics = MetricsCollector::load_state(&mut dec)?;
        let replaced = std::mem::replace(&mut self.metrics, metrics);
        if let Some(f) = self.pins.top_mut() {
            f.replaced_metrics.get_or_insert(replaced);
        }
        self.scalars = Scalars::load(&mut dec)?;
        self.events = load_events(&mut dec)?;
        #[cfg(feature = "simcheck")]
        self.simcheck.load_state(&mut dec)?;
        #[cfg(not(feature = "simcheck"))]
        dec.take(SIMCHECK_SLOT)?;
        dec.finish()?;
        self.check_restored(trace)?;
        // Derived state follows the restored queues.
        for gi in 0..self.units.len() {
            self.agg_rebuild(gi);
        }
        Ok(())
    }

    /// Rejects a decoded state the simulation cannot run. Each check is
    /// an invariant a running cluster keeps, so a genuine checkpoint
    /// passes, while a corrupt one that happens to decode fails here
    /// instead of panicking later in [`Cluster::resume`]:
    ///
    /// * every request names a registry model at the config's batch size;
    /// * each GPU passes [`Cluster::check_unit`];
    /// * the cache's residency index lists exactly the devices' residents;
    /// * every pending event is due no earlier than now, names a GPU in
    ///   the fleet and carries an already issued token, and a scale tick
    ///   has an autoscaler to step;
    /// * the idle, holding and draining counters match the fleet;
    /// * the arrival cursor fits the trace, and each admitted request is
    ///   either completed or outstanding somewhere, exactly once.
    fn check_restored(&self, trace: &Trace) -> Result<(), SnapError> {
        let s = &self.scalars;
        let corrupt = |what| Err(SnapError::Corrupt(what));
        if !self.global_queue.iter().all(|r| self.runnable(r)) {
            return corrupt("request outside the config");
        }
        let events = self.events.entries();
        for &(t, _, ev) in &events {
            let in_fleet = match *ev {
                Event::GpuDone(g, seq) | Event::GpuCrash(g, seq) | Event::BatchHold(g, seq) => {
                    (g.0 as usize) < self.units.len() && seq < s.dispatch_seq
                }
                Event::ScaleTick => self.autoscaler.is_some(),
                Event::ObsTick => true,
            };
            if t < s.now || !in_fleet {
                return corrupt("event outside the fleet or the timeline");
            }
        }
        let mut outstanding = self.global_queue.len();
        for u in self.units.iter() {
            outstanding += self.check_unit(u, &events)?;
        }
        let resident: usize = self.units.iter().map(|u| u.device.resident_count()).sum();
        let indexed = (0..self.registry.len() as u32).map(ModelId).all(|m| {
            let on = |g: &GpuId| self.units.get(g.0 as usize);
            self.cache
                .holders(m)
                .iter()
                .all(|g| on(g).is_some_and(|u| u.device.has_model(m)))
        });
        if !indexed || resident != self.cache.total_resident() {
            return corrupt("cache residency index disagrees with the devices");
        }
        if self.fleet_counts() != (s.idle_online, s.holding_units, s.draining_units) {
            return corrupt("fleet counters disagree with the units");
        }
        #[cfg(feature = "simcheck")]
        if !self
            .simcheck
            .agrees_with(s.next_arrival as u64, s.now, &self.metrics)
        {
            return corrupt("sanitizer state disagrees with the run");
        }
        let started = if s.run_started { trace.len() as u64 } else { 0 };
        if s.next_arrival > trace.len()
            || trace
                .requests()
                .get(s.next_arrival)
                .is_some_and(|r| r.at < s.now)
            || s.last_completion > s.now
            || s.pending_total != started
            || self.metrics.completed().checked_add(outstanding as u64)
                != Some(s.next_arrival as u64)
        {
            return corrupt("arrival cursor or request count disagrees with the trace");
        }
        Ok(())
    }

    /// The per-GPU half of [`Cluster::check_restored`]: the unit is
    /// consistent ([`GpuUnit::check_state`]), its requests are runnable,
    /// its residents are registry models whose sizes sum to its used
    /// memory and which the evictor lists, and its in-flight work and
    /// held batch each have exactly one pending completion or timer, due
    /// when the in-flight phase ends or the hold releases. Returns the count
    /// of requests the unit holds.
    fn check_unit(
        &self,
        u: &GpuUnit,
        events: &[(SimTime, u64, &Event)],
    ) -> Result<usize, SnapError> {
        let (g, d) = (u.id(), &u.device);
        let corrupt = |what| Err(SnapError::Corrupt(what));
        u.check_state(self.scalars.now)?;
        let in_flight = u.in_flight.iter().flat_map(|f| &f.requests);
        let held = in_flight.chain(u.holding.iter().flat_map(|h| &h.requests));
        let mut requests = held.chain(&u.local_queue);
        if !requests.all(|r| self.runnable(r))
            || d.resident_models()
                .any(|m| m.0 as usize >= self.registry.len())
        {
            return corrupt("request or resident model outside the config");
        }
        let bytes: u64 = d
            .resident_models()
            .map(|m| self.registry.occupancy_bytes(m))
            .sum();
        let mut order = self.cache.resident(g);
        order.sort_unstable();
        if bytes != d.used_bytes() || !order.into_iter().eq(d.resident_models()) {
            return corrupt("device residency disagrees with the registry or the cache");
        }
        let pending = |want: Event, at: SimTime| {
            let mut due = events.iter().filter(|e| *e.2 == want).map(|e| e.0);
            due.next() == Some(at) && due.next().is_none()
        };
        let done_ok = u
            .in_flight
            .as_ref()
            .is_none_or(|f| pending(Event::GpuDone(g, f.seq), f.until));
        let hold_ok = u
            .holding
            .as_ref()
            .is_none_or(|h| pending(Event::BatchHold(g, h.seq), h.release_at));
        if !done_ok || !hold_ok {
            return corrupt("live work without its pending event");
        }
        Ok(u.local_queue.len()
            + u.in_flight.as_ref().map_or(0, |f| f.requests.len())
            + u.holding.as_ref().map_or(0, |h| h.requests.len()))
    }

    /// Whether a decoded request can run here: a model the registry
    /// knows (the estimators index the registry by model) at the config's
    /// batch size.
    fn runnable(&self, r: &Request) -> bool {
        (r.model.0 as usize) < self.registry.len() && r.batch == self.config.batch_size
    }
}

/// The fixed-size state one pin records when it opens (see
/// [`Cluster::snapshot`]). The unbounded state — GPU units, local
/// aggregates, the global queue — is not here: those containers keep
/// their own write sets for the same pin. Policy objects (scheduler,
/// batcher, store, evictor inside the cache, autoscaler) contribute their
/// state through the save/load hooks the on-disk checkpoint uses.
/// Scratch buffers and the attached recorder (with any datastore
/// mirror in it) are deliberately not pinned. Frames are recycled, so
/// every buffer here is reused by the next pin.
#[derive(Default)]
pub(super) struct PinFrame {
    scalars: Scalars,
    /// The self-profile, with the estimator count folded in.
    profile: SelfProfile,
    metrics: MetricsMark,
    /// The collector a checkpoint restore swapped out under this pin.
    replaced_metrics: Option<MetricsCollector>,
    events: EventQueue<Event>,
    /// The policy objects' state, as [`Cluster::save_policies`] writes it.
    blobs: Enc,
    /// Whether the scheduler was in its slot; it is not mid-pass, and a
    /// rollback must agree.
    sched_present: bool,
    #[cfg(feature = "simcheck")]
    simcheck: SimChecker,
}

/// The cluster's plain state: clock, counters, RNG and the arrival
/// cursor. A pin copies it whole; a checkpoint writes it with
/// [`Scalars::save`] and reads it back with [`Scalars::load`].
#[derive(Debug, Default, Clone)]
pub(super) struct Scalars {
    pub(super) now: SimTime,
    pub(super) last_completion: SimTime,
    /// The model Fig 6's duplicates metric tracks.
    pub(super) hot_model: Option<ModelId>,
    pub(super) local_moves: u64,
    pub(super) crashes: u64,
    /// The next dispatch's sequence token (see [`Event`]).
    pub(super) dispatch_seq: u64,
    pub(super) rng: DetRng,
    /// GPUs brought online / drained offline over the run.
    pub(super) scale_ups: u64,
    pub(super) scale_downs: u64,
    /// Low/high watermarks of the online (dispatchable) fleet size.
    pub(super) online_low: usize,
    pub(super) online_high: usize,
    /// Requests in the running trace; ticks stop once all have completed.
    pub(super) pending_total: u64,
    /// Online units that are idle right now, maintained at every
    /// dispatch, completion, and scale transition. Together with the two
    /// counters below it lets a scheduling pass on a saturated cluster
    /// prove itself a no-op in O(1) instead of scanning the fleet — and
    /// every arrival triggers a pass.
    pub(super) idle_online: usize,
    /// Units with a forming batch parked in their hold slot.
    pub(super) holding_units: usize,
    /// Units in the [`UnitState::Draining`] state.
    pub(super) draining_units: usize,
    /// Integrated GPU busy time (uploads + inference, including crashed
    /// work) — `RunMetrics::gpu_busy_seconds`.
    pub(super) busy_secs: f64,
    /// Cursor into the trace: the next arrival to admit. Rolling back
    /// re-delivers arrivals.
    pub(super) next_arrival: usize,
    /// Whether the one-time run setup (tick scheduling, RunStart
    /// emission, counters) already happened.
    pub(super) run_started: bool,
}

impl Scalars {
    fn save(&self, enc: &mut Enc) {
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
        enc.put_usize(self.next_arrival);
        enc.put_bool(self.run_started);
    }

    fn load(dec: &mut Dec<'_>) -> Result<Scalars, SnapError> {
        Ok(Scalars {
            now: dec.time()?,
            last_completion: dec.time()?,
            hot_model: if dec.bool()? {
                Some(ModelId(dec.u32()?))
            } else {
                None
            },
            local_moves: dec.u64()?,
            crashes: dec.u64()?,
            dispatch_seq: dec.u64()?,
            rng: {
                let state = [dec.u64()?, dec.u64()?, dec.u64()?, dec.u64()?];
                if state == [0; 4] {
                    return Err(SnapError::Corrupt("all-zero rng state"));
                }
                DetRng::from_state(state)
            },
            scale_ups: dec.u64()?,
            scale_downs: dec.u64()?,
            online_low: dec.usize()?,
            online_high: dec.usize()?,
            pending_total: dec.u64()?,
            idle_online: dec.usize()?,
            holding_units: dec.usize()?,
            draining_units: dec.usize()?,
            busy_secs: dec.f64()?,
            next_arrival: dec.usize()?,
            run_started: dec.bool()?,
        })
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

fn save_requests<'a>(enc: &mut Enc, rs: impl ExactSizeIterator<Item = &'a Request>) {
    enc.put_usize(rs.len());
    for r in rs {
        enc.put_u64(r.id);
        enc.put_u32(r.function);
        enc.put_u32(r.model.0);
        enc.put_usize(r.batch);
        enc.put_time(r.arrival);
        enc.put_u32(r.visits);
        enc.put_u16(r.tenant);
    }
}

fn load_requests(dec: &mut Dec<'_>) -> Result<Vec<Request>, SnapError> {
    let n = dec.usize()?;
    let mut rs = Vec::with_capacity(n.min(dec.remaining()));
    for _ in 0..n {
        rs.push(Request {
            id: dec.u64()?,
            function: dec.u32()?,
            model: ModelId(dec.u32()?),
            batch: dec.usize()?,
            arrival: dec.time()?,
            visits: dec.u32()?,
            tenant: dec.u16()?,
        });
    }
    Ok(rs)
}

fn save_unit(enc: &mut Enc, u: &GpuUnit) {
    u.device.save_state(enc);
    save_requests(enc, u.local_queue.iter());
    enc.put_bool(u.in_flight.is_some());
    if let Some(f) = &u.in_flight {
        save_requests(enc, f.requests.iter());
        enc.put_u8(match f.phase {
            Phase::Loading => 0,
            Phase::Running => 1,
        });
        enc.put_bool(f.was_hit);
        enc.put_time(f.started);
        enc.put_time(f.until);
        enc.put_u64(f.seq);
        enc.put_u8(f.tier.0);
    }
    enc.put_bool(u.holding.is_some());
    if let Some(h) = &u.holding {
        save_requests(enc, h.requests.iter());
        enc.put_usize(h.max_requests);
        enc.put_bool(h.hit);
        enc.put_time(h.release_at);
        enc.put_u64(h.seq);
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
    u.local_queue = load_requests(dec)?.into();
    u.in_flight = if dec.bool()? {
        Some(InFlight {
            requests: load_requests(dec)?,
            phase: match dec.u8()? {
                0 => Phase::Loading,
                1 => Phase::Running,
                _ => return Err(SnapError::Corrupt("unknown in-flight phase")),
            },
            was_hit: dec.bool()?,
            started: dec.time()?,
            until: dec.time()?,
            seq: dec.u64()?,
            tier: Tier(dec.u8()?),
        })
    } else {
        None
    };
    u.holding = if dec.bool()? {
        Some(HoldSlot {
            requests: load_requests(dec)?,
            max_requests: dec.usize()?,
            hit: dec.bool()?,
            release_at: dec.time()?,
            seq: dec.u64()?,
        })
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::tests::{snap_cluster, snap_fixture};

    /// Checkpoints the fixture paused mid-run after `corrupt` edits its
    /// state, and restores the image into a fresh cluster. A rejected
    /// image must leave that cluster as it was.
    fn restore_after(corrupt: impl FnOnce(&mut Cluster)) -> Result<(), SnapError> {
        let (cfg, t) = snap_fixture();
        let mut c = snap_cluster(&cfg);
        c.run_until(&t, SimTime::from_secs_f64(1.9));
        corrupt(&mut c);
        let bytes = c.checkpoint(&t);
        let mut target = snap_cluster(&cfg);
        let before = target.checkpoint(&t);
        let restored = target.restore(&bytes, &t);
        if restored.is_err() {
            assert_eq!(
                target.checkpoint(&t),
                before,
                "a rejected image changed the target"
            );
        }
        restored
    }

    /// A unit with work in flight, and its in-flight token.
    fn busy(c: &Cluster) -> (usize, u64) {
        let gi = (0..c.units.len())
            .find(|&gi| c.units[gi].in_flight.is_some())
            .expect("the fixture is busy at its pause");
        (gi, c.units[gi].in_flight.as_ref().expect("busy").seq)
    }

    #[test]
    fn restore_accepts_a_genuine_checkpoint() {
        assert_eq!(restore_after(|_| {}), Ok(()));
    }

    #[test]
    fn restore_rejects_states_a_running_cluster_never_reaches() {
        type Corrupt = fn(&mut Cluster);
        let cases: [(&str, Corrupt); 11] = [
            ("fleet counters disagree with the units", |c| {
                c.scalars.idle_online += 1;
            }),
            (
                "arrival cursor or request count disagrees with the trace",
                |c| {
                    c.scalars.next_arrival -= 1;
                },
            ),
            ("event outside the fleet or the timeline", |c| {
                c.events
                    .schedule(c.scalars.now, Event::GpuDone(GpuId(9), 0));
            }),
            ("live work without its pending event", |c| {
                let (gi, seq) = busy(c);
                let g = c.units[gi].id();
                c.events.schedule(c.scalars.now, Event::GpuDone(g, seq));
            }),
            (
                "device residency disagrees with the registry or the cache",
                |c| {
                    let (gi, _) = busy(c);
                    let g = c.units[gi].id();
                    let m = c.units[gi]
                        .device
                        .resident_models()
                        .next()
                        .expect("resident");
                    c.cache.remove(g, m);
                },
            ),
            ("local-queue request without its model resident", |c| {
                let r = Request::new(99, 5, ModelId(5), c.config.batch_size, c.scalars.now);
                let gi = (0..c.units.len())
                    .find(|&gi| !c.units[gi].device.has_model(r.model))
                    .expect("some GPU lacks the model");
                c.units.write(gi).local_queue.push_back(r);
            }),
            ("request or resident model outside the config", |c| {
                let (gi, _) = busy(c);
                let u = c.units.write(gi);
                let mut r = *u.in_flight.as_ref().expect("busy").lead();
                r.batch += 1;
                u.local_queue.push_back(r);
            }),
            ("in-flight work disagrees with the device", |c| {
                let (gi, _) = busy(c);
                let u = c.units.write(gi);
                let m = u.in_flight.as_ref().expect("busy").model();
                u.device.evict(m).expect("in-flight model is resident");
            }),
            ("SM interval disagrees with the in-flight phase", |c| {
                let (gi, _) = busy(c);
                let f = c.units.write(gi).in_flight.as_mut().expect("busy");
                f.phase = match f.phase {
                    Phase::Loading => Phase::Running,
                    Phase::Running => Phase::Loading,
                };
            }),
            ("held batch disagrees with the device", |c| {
                let (gi, seq) = busy(c);
                let u = c.units.write(gi);
                let f = u.in_flight.as_ref().expect("busy");
                u.holding = Some(HoldSlot {
                    requests: f.requests.clone(),
                    max_requests: 2,
                    hit: true,
                    release_at: f.until,
                    seq,
                });
            }),
            ("offline GPU holds work or models", |c| {
                let (gi, _) = busy(c);
                c.units.write(gi).state = UnitState::Offline;
            }),
        ];
        for (why, corrupt) in cases {
            assert_eq!(restore_after(corrupt), Err(SnapError::Corrupt(why)));
        }
    }
}
