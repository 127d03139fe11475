//! Per-GPU execution state and wait estimation (paper §III-C).
//!
//! The paper runs one GPU Manager per node; each manages its GPUs'
//! processes, enforces one-request-at-a-time, reports busy/idle status, and
//! estimates how long a request would wait at a GPU before being served —
//! the quantity Algorithm 2 compares against a model's load time when
//! deciding between a hit on a busy GPU and a miss on an idle one
//! ([`GpuUnit::estimated_wait_for`]).
//!
//! [`GpuUnit`] is that per-GPU state: the simulated device (what is
//! resident), the in-flight invocation (what runs, and until when — its
//! only record), the local queue of requests scheduled to it while busy,
//! and the hit counter used to sort idle GPUs "by frequency" (Algorithm
//! 1's input ordering).

use std::collections::VecDeque;
use std::ops::ControlFlow;

use gfaas_gpu::{GpuDevice, GpuId, ModelId, Tier};
use gfaas_sim::time::{SimDuration, SimTime};
use gfaas_snap::{PreImage, SnapError};

use crate::request::Request;

/// Which phase the in-flight request is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Uploading the model (cache-miss path).
    Loading,
    /// Running the inference.
    Running,
}

/// The work currently executing on a GPU: one invocation serving one or
/// more coalesced same-model requests (one, unless a
/// [`crate::batching::BatchPolicy`] merged a batch).
#[derive(Debug)]
pub struct InFlight {
    /// The coalesced requests, lead first (the lead's dispatch decided
    /// placement and hit/miss accounting). Never empty; all share one
    /// model.
    pub requests: Vec<Request>,
    /// Load-then-infer (miss) or infer-only (hit).
    pub phase: Phase,
    /// Whether the lead dispatch was a cache hit (riding requests always
    /// count as hits — they share the lead's upload or residency).
    pub was_hit: bool,
    /// When the current phase started on the device (the upload, then
    /// the inference).
    pub started: SimTime,
    /// When the current phase ends: its `GpuDone` event is due then.
    pub until: SimTime,
    /// Dispatch sequence token; completion/crash events must match it
    /// (a crash invalidates the token so stale completions are ignored).
    pub seq: u64,
    /// Which storage tier served the lead dispatch: [`Tier::HBM`] for a
    /// cache hit, the tier [`gfaas_store::ModelStore::begin_load`] reported
    /// for a miss (host cache vs origin under a tiered store; a flat store
    /// always reports origin). Carried so the load-complete event can be
    /// labelled with where the bytes actually came from.
    pub tier: Tier,
}

impl Clone for InFlight {
    fn clone(&self) -> Self {
        InFlight {
            requests: self.requests.clone(),
            phase: self.phase,
            was_hit: self.was_hit,
            started: self.started,
            until: self.until,
            seq: self.seq,
            tier: self.tier,
        }
    }

    /// Field-wise copy into the existing request buffer (allocation-free
    /// when it is large enough) — a unit pre-image save.
    fn clone_from(&mut self, src: &Self) {
        let InFlight {
            requests,
            phase,
            was_hit,
            started,
            until,
            seq,
            tier,
        } = self;
        requests.clone_from(&src.requests);
        *phase = src.phase;
        *was_hit = src.was_hit;
        *started = src.started;
        *until = src.until;
        *seq = src.seq;
        *tier = src.tier;
    }
}

impl InFlight {
    /// A single-request invocation (the paper's per-request dispatch)
    /// whose current phase runs over `[started, until)`. The tier
    /// defaults to [`Tier::HBM`] — the hit path; miss paths set the
    /// serving tier explicitly from the store's answer.
    pub fn solo(
        request: Request,
        phase: Phase,
        was_hit: bool,
        (started, until): (SimTime, SimTime),
        seq: u64,
    ) -> Self {
        InFlight {
            requests: vec![request],
            phase,
            was_hit,
            started,
            until,
            seq,
            tier: Tier::HBM,
        }
    }

    /// The invocation's model (shared by every coalesced request).
    pub fn model(&self) -> ModelId {
        self.requests[0].model
    }

    /// The lead request.
    pub fn lead(&self) -> &Request {
        &self.requests[0]
    }

    /// Total inference inputs across the coalesced requests — what the
    /// affine latency model is charged with.
    pub fn items(&self) -> usize {
        self.requests.iter().map(|r| r.batch).sum()
    }
}

/// A batch parked on a GPU by a [`crate::batching::BatchPolicy`] hold:
/// the dispatch is delayed briefly so more same-model requests can join.
/// The GPU is reserved (not idle) while holding; a `BatchHold` timer —
/// or the batch filling to `max_requests` — launches it.
#[derive(Debug)]
pub struct HoldSlot {
    /// The requests gathered so far, lead first (never empty).
    pub requests: Vec<Request>,
    /// Fill target: reaching it launches the batch before the timer.
    pub max_requests: usize,
    /// Whether the lead dispatch was a cache hit.
    pub hit: bool,
    /// When the hold timer fires.
    pub release_at: SimTime,
    /// Sequence token matching the scheduled `BatchHold` event (an early
    /// launch clears the slot; the stale timer is then ignored).
    pub seq: u64,
}

impl Clone for HoldSlot {
    fn clone(&self) -> Self {
        HoldSlot {
            requests: self.requests.clone(),
            max_requests: self.max_requests,
            hit: self.hit,
            release_at: self.release_at,
            seq: self.seq,
        }
    }

    /// Field-wise copy into the existing request buffer.
    fn clone_from(&mut self, src: &Self) {
        let HoldSlot {
            requests,
            max_requests,
            hit,
            release_at,
            seq,
        } = self;
        requests.clone_from(&src.requests);
        *max_requests = src.max_requests;
        *hit = src.hit;
        *release_at = src.release_at;
        *seq = src.seq;
    }
}

impl HoldSlot {
    /// The held batch's model.
    pub fn model(&self) -> ModelId {
        self.requests[0].model
    }

    /// Total inference inputs gathered so far.
    pub fn items(&self) -> usize {
        self.requests.iter().map(|r| r.batch).sum()
    }
}

/// Provisioning state of a GPU in an elastic cluster.
///
/// Fixed clusters keep every unit [`UnitState::Online`] for the whole
/// run; the other states exist for the autoscaler
/// ([`crate::autoscale`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitState {
    /// Not provisioned: invisible to the scheduler, holds no models.
    Offline,
    /// Provisioned and dispatchable.
    Online,
    /// Scale-down victim: finishes its in-flight request and local queue
    /// but receives no new work; once drained, its resident models are
    /// evicted and it goes [`UnitState::Offline`].
    Draining,
}

/// Per-GPU execution state.
#[derive(Debug, Clone)]
pub struct GpuUnit {
    /// The simulated device.
    pub device: GpuDevice,
    /// Requests scheduled to this GPU while it was busy (always cache hits
    /// by construction — Algorithm 2 only moves a request here when the
    /// model is resident).
    pub local_queue: VecDeque<Request>,
    /// The in-flight invocation, if any.
    pub in_flight: Option<InFlight>,
    /// A batch held back for coalescing ([`HoldSlot`]), if any. A holding
    /// GPU is reserved: not idle, but nothing runs on the device yet.
    pub holding: Option<HoldSlot>,
    /// Cache hits served; Algorithm 1 sorts idle GPUs by this frequency.
    pub hits: u64,
    /// When the GPU last became idle (for the LB baseline's longest-idle
    /// selection).
    pub idle_since: SimTime,
    /// Provisioning state ([`UnitState::Online`] in fixed clusters).
    pub state: UnitState,
    /// When the current online interval began (meaningful while not
    /// [`UnitState::Offline`]).
    pub online_since: SimTime,
    /// Provisioned time accumulated over *completed* online intervals;
    /// the open interval is closed by [`GpuUnit::provisioned_until`].
    pub provisioned: SimDuration,
}

impl PreImage for GpuUnit {
    /// Copies every mutable field into this image's existing buffers; the
    /// device's id and static spec are skipped (see
    /// [`GpuDevice::copy_state_from`]).
    fn save_from(&mut self, src: &Self) {
        let GpuUnit {
            device,
            local_queue,
            in_flight,
            holding,
            hits,
            idle_since,
            state,
            online_since,
            provisioned,
        } = self;
        device.copy_state_from(&src.device);
        // Two slice copies rather than a per-element clone.
        local_queue.clear();
        let (head, tail) = src.local_queue.as_slices();
        local_queue.extend(head);
        local_queue.extend(tail);
        in_flight.clone_from(&src.in_flight);
        holding.clone_from(&src.holding);
        *hits = src.hits;
        *idle_since = src.idle_since;
        *state = src.state;
        *online_since = src.online_since;
        *provisioned = src.provisioned;
    }
}

impl GpuUnit {
    /// Wraps a fresh device, online from time zero.
    pub fn new(device: GpuDevice) -> Self {
        GpuUnit {
            device,
            local_queue: VecDeque::new(),
            in_flight: None,
            holding: None,
            hits: 0,
            idle_since: SimTime::ZERO,
            state: UnitState::Online,
            online_since: SimTime::ZERO,
            provisioned: SimDuration::ZERO,
        }
    }

    /// Total provisioned (online or draining) time up to `end`: completed
    /// intervals plus the still-open one. The integral behind
    /// `gpu_seconds_provisioned`.
    pub fn provisioned_until(&self, end: SimTime) -> SimDuration {
        let open = match self.state {
            UnitState::Offline => SimDuration::ZERO,
            UnitState::Online | UnitState::Draining => end.duration_since(self.online_since),
        };
        self.provisioned + open
    }

    /// Checks a decoded unit against the invariants every live unit
    /// keeps at virtual time `now`: local-queue work is resident;
    /// in-flight work is a non-empty single-model batch of a resident
    /// model, started by `now`; the SM interval is open exactly while an
    /// inference runs, since it started; a held batch is not also in
    /// flight, is a non-empty single-model batch, and was a hit exactly
    /// when its model is resident; an offline unit is empty.
    pub fn check_state(&self, now: SimTime) -> Result<(), SnapError> {
        let d = &self.device;
        let corrupt = |what| Err(SnapError::Corrupt(what));
        let one_model = |rs: &[Request]| rs.iter().all(|r| r.model == rs[0].model);
        if !self.local_queue.iter().all(|r| d.has_model(r.model)) {
            return corrupt("local-queue request without its model resident");
        }
        let in_flight_ok = self.in_flight.as_ref().is_none_or(|f| {
            !f.requests.is_empty()
                && one_model(&f.requests)
                && d.has_model(f.model())
                && f.started <= now
        });
        if !in_flight_ok {
            return corrupt("in-flight work disagrees with the device");
        }
        let running = self
            .in_flight
            .as_ref()
            .filter(|f| f.phase == Phase::Running);
        if d.sm_open_since() != running.map(|f| f.started) {
            return corrupt("SM interval disagrees with the in-flight phase");
        }
        let hold_ok = self.holding.as_ref().is_none_or(|h| {
            self.in_flight.is_none()
                && !h.requests.is_empty()
                && one_model(&h.requests)
                && h.hit == d.has_model(h.model())
        });
        if !hold_ok {
            return corrupt("held batch disagrees with the device");
        }
        let empty = self.is_idle() && self.local_queue.is_empty() && d.resident_count() == 0;
        if self.state == UnitState::Offline && !empty {
            return corrupt("offline GPU holds work or models");
        }
        Ok(())
    }

    /// The device id.
    pub fn id(&self) -> GpuId {
        self.device.id()
    }

    /// True iff no invocation is in flight and no held batch reserves the
    /// GPU.
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_none() && self.holding.is_none()
    }

    /// Puts `f` in flight; a hit ([`Phase::Running`]) opens the SM
    /// interval at `f.started`. Panics if work is already in flight or
    /// held — the GPU serves one request at a time — or if `f`'s model
    /// is not resident.
    pub fn launch(&mut self, f: InFlight) {
        assert!(self.is_idle(), "dispatch on busy GPU {}", self.id());
        let model = f.model();
        assert!(
            self.device.has_model(model),
            "{model} dispatched to GPU {} without residency",
            self.id()
        );
        if f.phase == Phase::Running {
            self.device.sm_begin(f.started);
        }
        self.in_flight = Some(f);
    }

    /// Evicts a resident model, returning the bytes freed. Panics if the
    /// model is in flight or not resident.
    pub fn evict(&mut self, model: ModelId) -> u64 {
        assert!(
            self.in_flight.as_ref().is_none_or(|f| f.model() != model),
            "evicting {model} while it is in flight on GPU {}",
            self.id()
        );
        self.device.evict(model).expect("evicted model is resident")
    }

    /// Estimated wait, from `now`, before a request for `model` placed
    /// in this GPU's local queue starts being served — the quantity
    /// Algorithm 2 compares against `model`'s load time when choosing
    /// between a hit on a busy GPU and a miss on an idle one. This walk
    /// over the queue is the reference; the driver evaluates the same
    /// value from an incremental aggregate and asserts it against this in
    /// debug builds.
    ///
    /// Both modes charge the remaining busy time first, then the work
    /// ahead of the local queue: the inference of an in-flight upload, and
    /// a held batch's hold remainder, upload when missing and inference.
    ///
    /// Per-request dispatch (`coalesced` false) then charges the whole
    /// local queue, as the paper does ("the time to wait for the busy GPU
    /// to finish its current request and requests already queued in its
    /// local queue"): every queued request's inference, plus one upload
    /// (`load_time`) per distinct non-resident queued model. Algorithm 2
    /// only queues residents locally, so the load term matters only for
    /// custom policies and crash/drain races that leave non-resident work
    /// queued. `model` is unused in this mode.
    ///
    /// Under batching (`coalesced` set) the request rides its own model's
    /// invocation — an in-flight upload of `model`, a held batch of
    /// `model`, or `model`'s local-queue group — so the charge stops
    /// there. Each group ahead of it, in first-entry order, is charged as
    /// one affine inference over its combined inputs plus its upload when
    /// missing.
    ///
    /// `infer_time` maps (model, batch) to latency; `load_time` maps a
    /// model to its upload time on this GPU.
    pub fn estimated_wait_for(
        &self,
        now: SimTime,
        model: ModelId,
        coalesced: bool,
        infer_time: impl Fn(ModelId, usize) -> SimDuration,
        load_time: impl Fn(ModelId) -> SimDuration,
    ) -> SimDuration {
        let mut wait = match self.wait_before_queue(now, model, coalesced, &infer_time, &load_time)
        {
            ControlFlow::Break(wait) => return wait,
            ControlFlow::Continue(wait) => wait,
        };
        if coalesced {
            // Local-queue groups run in first-entry order.
            let mut groups: Vec<(ModelId, usize)> = Vec::new();
            for r in &self.local_queue {
                match groups.iter_mut().find(|(m, _)| *m == r.model) {
                    Some(g) => g.1 += r.batch,
                    None => groups.push((r.model, r.batch)),
                }
            }
            for (m, items) in groups {
                if m == model {
                    break;
                }
                if !self.device.has_model(m) {
                    wait += load_time(m);
                }
                wait += infer_time(m, items);
            }
        } else {
            let mut pending_loads: Vec<ModelId> = Vec::new();
            for r in &self.local_queue {
                if !self.device.has_model(r.model) && !pending_loads.contains(&r.model) {
                    pending_loads.push(r.model);
                    wait += load_time(r.model);
                }
                wait += infer_time(r.model, r.batch);
            }
        }
        wait
    }

    /// The part of [`GpuUnit::estimated_wait_for`] ahead of the local
    /// queue: the remaining busy time; the inference of an in-flight
    /// upload; and a held batch's hold remainder, upload when missing and
    /// inference. Under batching a request for `model` rides an in-flight
    /// upload or a held batch of `model`, so the wait ends there
    /// ([`ControlFlow::Break`]).
    pub(crate) fn wait_before_queue(
        &self,
        now: SimTime,
        model: ModelId,
        coalesced: bool,
        infer_time: impl Fn(ModelId, usize) -> SimDuration,
        load_time: impl Fn(ModelId) -> SimDuration,
    ) -> ControlFlow<SimDuration, SimDuration> {
        let mut wait = SimDuration::ZERO;
        if let Some(f) = &self.in_flight {
            wait = f.until.duration_since(now);
            if f.phase == Phase::Loading {
                if coalesced && f.model() == model {
                    return ControlFlow::Break(wait); // joins the forming invocation
                }
                wait += infer_time(f.model(), f.items());
            }
        }
        if let Some(h) = &self.holding {
            wait += h.release_at.duration_since(now.min(h.release_at));
            if coalesced && h.model() == model {
                return ControlFlow::Break(wait); // joins the held batch at its release
            }
            if !self.device.has_model(h.model()) {
                wait += load_time(h.model());
            }
            wait += infer_time(h.model(), h.items());
        }
        ControlFlow::Continue(wait)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfaas_gpu::{GpuSpec, MIB};

    fn unit() -> GpuUnit {
        GpuUnit::new(GpuDevice::new(GpuId(3), GpuSpec::test(8192)))
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn d(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn req(id: u64, model: u32) -> Request {
        Request::new(id, 0, ModelId(model), 32, SimTime::ZERO)
    }

    /// No queued model misses residency in these tests unless stated, so
    /// the load closure is a loud sentinel: charging it is a bug.
    fn no_load(_: ModelId) -> SimDuration {
        SimDuration::from_secs(9999)
    }

    /// Makes `model` resident on `u`.
    fn make_resident(u: &mut GpuUnit, model: u32) {
        u.device.load(ModelId(model), 100 * MIB).unwrap();
    }

    /// A unit running resident m0 over `[t(0), t(10))`.
    fn running() -> GpuUnit {
        let mut u = unit();
        make_resident(&mut u, 0);
        u.launch(InFlight::solo(
            req(1, 0),
            Phase::Running,
            true,
            (t(0), t(10)),
            0,
        ));
        u
    }

    /// The message of the panic `f` raises.
    fn panic_message(f: impl FnOnce()) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).expect_err("panics");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn idle_unit_has_zero_wait() {
        let u = unit();
        assert!(u.is_idle());
        for coalesced in [false, true] {
            let wait = u.estimated_wait_for(t(0), ModelId(0), coalesced, |_, _| d(1), no_load);
            assert_eq!(wait, SimDuration::ZERO);
        }
    }

    #[test]
    fn wait_includes_current_work_and_local_queue() {
        let mut u = running();
        u.local_queue.push_back(req(2, 0));
        u.local_queue.push_back(req(3, 0));
        let wait = u.estimated_wait_for(t(0), ModelId(0), false, |_, _| d(2), no_load);
        // Remaining inference (10 s) + 2 resident local hits × 2 s.
        assert_eq!(wait, d(14));
        assert!(!u.is_idle());
    }

    #[test]
    fn wait_shrinks_as_time_passes() {
        let u = running();
        let early = u.estimated_wait_for(t(0), ModelId(0), false, |_, _| d(0), no_load);
        let late = u.estimated_wait_for(t(6), ModelId(0), false, |_, _| d(0), no_load);
        assert_eq!(early, d(10));
        assert_eq!(late, d(4));
    }

    #[test]
    fn wait_charges_one_load_per_distinct_missing_model() {
        // Busy running model 0 until t=10; the local queue holds two
        // requests for missing model 7, one for missing model 8, and one
        // resident hit for model 0.
        let mut u = running();
        u.local_queue.push_back(req(2, 7));
        u.local_queue.push_back(req(3, 7));
        u.local_queue.push_back(req(4, 8));
        u.local_queue.push_back(req(5, 0));
        let wait = u.estimated_wait_for(t(0), ModelId(0), false, |_, _| d(2), |_| d(3));
        // 10 (in flight) + 4 × 2 (inferences) + 2 × 3 (loads of 7 and 8,
        // each charged once).
        assert_eq!(wait, d(24));
    }

    /// A unit uploading m0 until t=5.
    fn uploading() -> GpuUnit {
        let mut u = unit();
        make_resident(&mut u, 0);
        u.launch(InFlight::solo(
            req(1, 0),
            Phase::Loading,
            false,
            (t(0), t(5)),
            0,
        ));
        u
    }

    /// An otherwise idle unit holding a batch of resident m0 until t=4.
    fn holding() -> GpuUnit {
        let mut u = unit();
        make_resident(&mut u, 0);
        u.holding = Some(HoldSlot {
            requests: vec![req(1, 0)],
            max_requests: 4,
            hit: true,
            release_at: t(4),
            seq: 0,
        });
        u
    }

    /// A unit running resident m0 until t=10 with local queue
    /// `[m1, m2, m1]`; m2 is never resident, m1 only when `m1_resident`.
    fn queued(m1_resident: bool) -> GpuUnit {
        let mut u = running();
        if m1_resident {
            make_resident(&mut u, 1);
        }
        for (id, m) in [(2, 1), (3, 2), (4, 1)] {
            u.local_queue.push_back(req(id, m));
        }
        u
    }

    #[test]
    fn batching_charges_only_the_work_ahead_of_the_request_invocation() {
        // Affine inference: 1 s + 1 s per 32 items, so one request costs
        // 2 s and a two-request group 3 s; every upload costs 3 s.
        let infer = |_: ModelId, items: usize| d(1 + items as u64 / 32);
        let load = |_: ModelId| d(3);
        // (unit, request model, per-request wait, batched wait)
        let cases = [
            // An upload of m0 in flight: a batched m0 request joins it
            // when the upload ends; per-request dispatch waits for its
            // inference too, as does a batched request for another model.
            (uploading(), 0, 5 + 2, 5),
            (uploading(), 1, 5 + 2, 5 + 2),
            // A held m0 batch: a batched m0 request joins it at release.
            (holding(), 0, 4 + 2, 4),
            (holding(), 1, 4 + 2, 4 + 2),
            // Queue [m1, m2, m1] behind 10 s of work. Batched, an m2
            // request waits for one m1 invocation over both m1 requests'
            // inputs (plus m1's upload when missing) and then runs;
            // per-request dispatch charges all three requests and one
            // upload per missing model.
            (queued(false), 2, 10 + 3 + 3 + 3 * 2, 10 + 3 + 3),
            (queued(true), 2, 10 + 3 + 3 * 2, 10 + 3),
            // A batched m1 request shares the head group's invocation.
            (queued(false), 1, 10 + 3 + 3 + 3 * 2, 10),
            // With no invocation of its own, the batched wait is the full
            // coalesced drain.
            (queued(false), 7, 10 + 3 + 3 + 3 * 2, 10 + 3 + 3 + 3 + 2),
        ];
        for (i, (u, model, per_request, batched)) in cases.into_iter().enumerate() {
            let model = ModelId(model);
            let wait = |coalesced| u.estimated_wait_for(t(0), model, coalesced, infer, load);
            assert_eq!(wait(false), d(per_request), "case {i}: per-request");
            assert_eq!(wait(true), d(batched), "case {i}: batched");
        }
    }

    #[test]
    fn estimate_matches_actual_drain_replayed_on_the_device() {
        // Accuracy check against the unit's own transitions: the unit
        // runs m0 until t=10 with a local queue of [m0 hit, m7 (not
        // resident)]. The estimator must predict exactly the drain time
        // the replayed schedule realises: 10 (in flight) + 2 (m0 hit) +
        // 3 (m7 load) + 2 (m7 infer) = 17.
        let infer = |_: ModelId, _: usize| d(2);
        let load = |_: ModelId| d(3);
        let mut u = running();
        u.local_queue.push_back(req(2, 0));
        u.local_queue.push_back(req(3, 7));
        let estimate = u.estimated_wait_for(t(0), ModelId(0), false, infer, load);

        // Replay: each phase ends at its `until`, and the next starts
        // there.
        let finish = |u: &mut GpuUnit| {
            let f = u.in_flight.take().expect("work in flight");
            if f.phase == Phase::Running {
                u.device.sm_end(f.until);
            }
            f.until
        };
        let mut now = finish(&mut u);
        for r in u.local_queue.drain(..).collect::<Vec<_>>() {
            let (phase, was_hit) = if u.device.has_model(r.model) {
                (Phase::Running, true)
            } else {
                u.device.load(r.model, 100 * MIB).unwrap();
                (Phase::Loading, false)
            };
            let until = now
                + match phase {
                    Phase::Running => infer(r.model, r.batch),
                    Phase::Loading => load(r.model),
                };
            u.launch(InFlight::solo(r, phase, was_hit, (now, until), 0));
            now = finish(&mut u);
            if phase == Phase::Loading {
                u.launch(InFlight::solo(
                    r,
                    Phase::Running,
                    false,
                    (now, now + infer(r.model, r.batch)),
                    0,
                ));
                now = finish(&mut u);
            }
        }
        assert_eq!(now.duration_since(t(0)), estimate);
        assert_eq!(estimate, d(17));
        assert_eq!(u.device.sm_utilization(t(0), now), 14.0 / 17.0);
    }

    #[test]
    fn launch_refuses_busy_units() {
        let m0 = InFlight::solo(req(9, 0), Phase::Running, true, (t(0), t(1)), 1);
        for mut u in [uploading(), running(), holding()] {
            let f = m0.clone();
            assert_eq!(
                panic_message(move || u.launch(f)),
                "dispatch on busy GPU gpu3"
            );
        }
    }

    #[test]
    fn launch_refuses_missing_models() {
        let m0 = InFlight::solo(req(9, 0), Phase::Running, true, (t(0), t(1)), 1);
        let mut u = unit();
        let f = m0.clone();
        assert_eq!(
            panic_message(move || u.launch(f)),
            "model0 dispatched to GPU gpu3 without residency"
        );
        // An idle unit with the model resident takes the work and opens
        // the SM interval for a hit.
        let mut u = unit();
        make_resident(&mut u, 0);
        u.launch(m0);
        assert_eq!(u.device.sm_open_since(), Some(t(0)));
    }

    #[test]
    fn evict_refuses_the_in_flight_model() {
        for mut u in [uploading(), running()] {
            make_resident(&mut u, 1);
            assert_eq!(
                panic_message(|| {
                    u.evict(ModelId(0));
                }),
                "evicting model0 while it is in flight on GPU gpu3"
            );
            assert_eq!(u.evict(ModelId(1)), 100 * MIB, "other residents go");
            assert!(u.device.has_model(ModelId(0)));
        }
    }

    #[test]
    fn check_state_holds_through_a_miss_cycle_and_catches_corruption() {
        let mut u = unit();
        u.check_state(t(0)).unwrap();
        make_resident(&mut u, 0);
        u.launch(InFlight::solo(
            req(1, 0),
            Phase::Loading,
            false,
            (t(0), t(3)),
            0,
        ));
        u.check_state(t(0)).unwrap();
        // The upload ends and the inference starts.
        u.device.sm_begin(t(3));
        let f = u.in_flight.as_mut().expect("work in flight");
        (f.phase, f.started, f.until) = (Phase::Running, t(3), t(4));
        u.check_state(t(3)).unwrap();
        type Corrupt = fn(&mut GpuUnit);
        let cases: [(&str, Corrupt); 7] = [
            ("SM interval disagrees with the in-flight phase", |u| {
                u.in_flight.as_mut().unwrap().phase = Phase::Loading;
            }),
            ("SM interval disagrees with the in-flight phase", |u| {
                u.device.sm_end(t(3));
            }),
            ("in-flight work disagrees with the device", |u| {
                u.device.evict(ModelId(0)).unwrap();
            }),
            ("in-flight work disagrees with the device", |u| {
                u.in_flight.as_mut().unwrap().requests.push(req(2, 1));
            }),
            ("local-queue request without its model resident", |u| {
                u.local_queue.push_back(req(2, 1));
            }),
            ("held batch disagrees with the device", |u| {
                u.holding = holding().holding;
            }),
            ("offline GPU holds work or models", |u| {
                u.state = UnitState::Offline;
            }),
        ];
        for (why, corrupt) in cases {
            let mut bad = u.clone();
            corrupt(&mut bad);
            assert_eq!(bad.check_state(t(3)), Err(SnapError::Corrupt(why)));
        }
        assert_eq!(
            u.check_state(t(2)),
            Err(SnapError::Corrupt(
                "in-flight work disagrees with the device"
            )),
            "started after now"
        );
        u.device.sm_end(t(4));
        u.in_flight = None;
        u.check_state(t(4)).unwrap();
    }
}
