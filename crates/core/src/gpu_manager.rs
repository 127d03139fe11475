//! Per-GPU execution state and finish-time estimation (paper §III-C).
//!
//! The paper runs one GPU Manager per node; each manages its GPUs'
//! processes, enforces one-request-at-a-time, reports busy/idle status, and
//! estimates the finish time of a GPU's queued work — the quantity
//! Algorithm 2 compares against a model's load time when deciding between
//! a hit on a busy GPU and a miss on an idle one.
//!
//! [`GpuUnit`] is that per-GPU state: the simulated device, the local
//! queue of requests scheduled to it while busy, the in-flight request, and
//! the hit counter used to sort idle GPUs "by frequency" (Algorithm 1's
//! input ordering).

use std::collections::VecDeque;

use gfaas_gpu::{DeviceState, GpuDevice, GpuId, ModelId, Tier};
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
    /// When execution started on the device.
    pub started: SimTime,
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
            seq,
            tier,
        } = self;
        requests.clone_from(&src.requests);
        *phase = src.phase;
        *was_hit = src.was_hit;
        *started = src.started;
        *seq = src.seq;
        *tier = src.tier;
    }
}

impl InFlight {
    /// A single-request invocation (the paper's per-request dispatch).
    /// The tier defaults to [`Tier::HBM`] — the hit path; miss paths set
    /// the serving tier explicitly from the store's answer.
    pub fn solo(request: Request, phase: Phase, was_hit: bool, started: SimTime, seq: u64) -> Self {
        InFlight {
            requests: vec![request],
            phase,
            was_hit,
            started,
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
    /// keeps at virtual time `now`: the device is consistent
    /// ([`GpuDevice::check_state`]); local-queue work is resident;
    /// in-flight work is a non-empty single-model batch in the device's
    /// phase, on the device's model, started by `now`; a held batch is
    /// not also in flight, is a non-empty single-model batch, and was a
    /// hit exactly when its model is resident; an offline unit is empty.
    pub fn check_state(&self, now: SimTime) -> Result<(), SnapError> {
        let d = &self.device;
        let corrupt = |what| Err(SnapError::Corrupt(what));
        d.check_state(now)?;
        let one_model = |rs: &[Request]| rs.iter().all(|r| r.model == rs[0].model);
        if !self.local_queue.iter().all(|r| d.has_model(r.model)) {
            return corrupt("local-queue request without its model resident");
        }
        let in_flight_ok = match (&self.in_flight, d.state()) {
            (None, DeviceState::Idle) => true,
            (Some(f), DeviceState::Loading { model, .. } | DeviceState::Running { model, .. }) => {
                let loading = matches!(d.state(), DeviceState::Loading { .. });
                !f.requests.is_empty()
                    && one_model(&f.requests)
                    && f.model() == model
                    && (f.phase == Phase::Loading) == loading
                    && f.started <= now
            }
            _ => false,
        };
        if !in_flight_ok {
            return corrupt("in-flight work disagrees with the device");
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
    /// GPU (the *device* may briefly report idle between load completion
    /// and inference start; the unit is the authority).
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_none() && self.holding.is_none()
    }

    /// Estimated time from `now` until this GPU has drained its current
    /// request and local queue (paper: "the time to wait for the busy GPU
    /// to finish its current request and requests already queued in its
    /// local queue"). If the in-flight request is still uploading its
    /// model, its own inference is still ahead and counts too.
    ///
    /// Local-queue entries are charged their inference time plus — for any
    /// queued request whose model is *not* resident on this device — one
    /// model upload (`load_time`), counted once per distinct missing
    /// model. Algorithm 2 only queues residents locally, so under the
    /// paper's scheduler the load term is zero and the estimate is
    /// unchanged; the term matters for custom policies (and crash/drain
    /// races) that leave non-resident work queued, where the old
    /// infer-only sum biased the wait-vs-load comparison toward waiting.
    /// `infer_time` maps (model, batch) to latency; `load_time` maps a
    /// model to its upload time on this GPU.
    ///
    /// With `coalesced` set (a [`crate::batching::BatchPolicy`] other
    /// than `none` is active), same-model local-queue entries are charged
    /// as *one* invocation over their combined inputs — the affine
    /// latency model's batch time, not a per-request sum — since that is
    /// how the driver will actually run them. Per-request dispatch keeps
    /// the paper's per-request sum, byte-identically.
    pub fn estimated_wait(
        &self,
        now: SimTime,
        coalesced: bool,
        infer_time: impl Fn(ModelId, usize) -> SimDuration,
        load_time: impl Fn(ModelId) -> SimDuration,
    ) -> SimDuration {
        let mut wait = self
            .device
            .busy_until()
            .map(|t| t.duration_since(now))
            .unwrap_or(SimDuration::ZERO);
        if let Some(f) = &self.in_flight {
            if f.phase == Phase::Loading {
                // A coalesced invocation is charged its whole batch, not
                // one request's worth.
                wait += infer_time(f.model(), f.items());
            }
        }
        if let Some(h) = &self.holding {
            // A held batch still has its hold remainder, its upload when
            // the model is not resident, and its coalesced inference
            // ahead of it.
            wait += h.release_at.duration_since(now.min(h.release_at));
            if !self.device.has_model(h.model()) {
                wait += load_time(h.model());
            }
            wait += infer_time(h.model(), h.items());
        }
        if coalesced {
            // Same-model entries will run as one coalesced invocation:
            // charge each distinct model one upload (when missing) and
            // one affine inference over the group's combined inputs.
            let mut groups: Vec<(ModelId, usize)> = Vec::new();
            for r in &self.local_queue {
                match groups.iter_mut().find(|(m, _)| *m == r.model) {
                    Some(g) => g.1 += r.batch,
                    None => groups.push((r.model, r.batch)),
                }
            }
            for (model, items) in groups {
                if !self.device.has_model(model) {
                    wait += load_time(model);
                }
                wait += infer_time(model, items);
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

    /// Estimated time from `now` until a request for `model` joining this
    /// GPU's local queue would *start being served* under coalescing: it
    /// rides the in-flight invocation if that is still uploading `model`,
    /// joins a held batch of `model`, or shares its model's local-queue
    /// group's invocation — so preceding work is charged, but never the
    /// group it merges into. With no same-model work queued, this is the
    /// full coalesced drain ([`GpuUnit::estimated_wait`] with
    /// `coalesced`). Algorithm 2's wait-vs-load comparison uses this
    /// under batching: joining a busy holder is cheaper than the
    /// per-request drain suggests, which is what makes waiting beat
    /// replicating the model.
    pub fn estimated_join_wait(
        &self,
        now: SimTime,
        model: ModelId,
        infer_time: impl Fn(ModelId, usize) -> SimDuration,
        load_time: impl Fn(ModelId) -> SimDuration,
    ) -> SimDuration {
        let mut wait = self
            .device
            .busy_until()
            .map(|t| t.duration_since(now))
            .unwrap_or(SimDuration::ZERO);
        if let Some(f) = &self.in_flight {
            if f.phase == Phase::Loading {
                if f.model() == model {
                    // Joins the forming invocation when the upload ends.
                    return wait;
                }
                wait += infer_time(f.model(), f.items());
            }
        }
        if let Some(h) = &self.holding {
            wait += h.release_at.duration_since(now.min(h.release_at));
            if h.model() == model {
                return wait; // joins the held batch at its release
            }
            if !self.device.has_model(h.model()) {
                wait += load_time(h.model());
            }
            wait += infer_time(h.model(), h.items());
        }
        // Local-queue groups run in first-entry order; the request shares
        // its own model's group, so later groups never count.
        let mut groups: Vec<(ModelId, usize)> = Vec::new();
        for r in &self.local_queue {
            match groups.iter_mut().find(|(m, _)| *m == r.model) {
                Some(g) => g.1 += r.batch,
                None => groups.push((r.model, r.batch)),
            }
        }
        for (m, items) in groups {
            if m == model {
                return wait;
            }
            if !self.device.has_model(m) {
                wait += load_time(m);
            }
            wait += infer_time(m, items);
        }
        wait
    }

    /// Estimated finish time of a *new* request appended after the queue:
    /// the drain estimate, plus the request's own upload when its model is
    /// not yet resident (and not already charged by a queued request),
    /// plus its inference. With `coalesced` set, a request whose model
    /// already has queued (or held) work joins that invocation and is
    /// charged only the *marginal* affine cost of its inputs.
    pub fn estimated_finish(
        &self,
        now: SimTime,
        coalesced: bool,
        request: &Request,
        infer_time: impl Fn(ModelId, usize) -> SimDuration,
        load_time: impl Fn(ModelId) -> SimDuration,
    ) -> SimDuration {
        let mut finish = self.estimated_wait(now, coalesced, &infer_time, &load_time);
        let group_items: usize = self
            .local_queue
            .iter()
            .filter(|r| r.model == request.model)
            .map(|r| r.batch)
            .sum::<usize>()
            + self
                .holding
                .as_ref()
                .filter(|h| h.model() == request.model)
                .map_or(0, |h| h.items());
        if !self.device.has_model(request.model) && group_items == 0 {
            finish += load_time(request.model);
        }
        if coalesced && group_items > 0 {
            // Marginal cost of joining the group's invocation: the base
            // term is already charged by the drain estimate.
            finish
                + infer_time(request.model, group_items + request.batch)
                    .saturating_sub(infer_time(request.model, group_items))
        } else {
            finish + infer_time(request.model, request.batch)
        }
    }
}

/// Status string the GPU Manager publishes to the Datastore (paper: the
/// Scheduler reads GPU busy/idle status and estimated finish times from
/// etcd).
pub fn status_key(gpu: GpuId) -> String {
    format!("/gpu/{}/status", gpu.0)
}

/// Datastore key for a GPU's LRU list.
pub fn lru_key(gpu: GpuId) -> String {
    format!("/gpu/{}/lru", gpu.0)
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

    #[test]
    fn idle_unit_has_zero_wait() {
        let u = unit();
        assert!(u.is_idle());
        assert_eq!(
            u.estimated_wait(t(0), false, |_, _| d(1), no_load),
            SimDuration::ZERO
        );
    }

    #[test]
    fn wait_includes_current_work_and_local_queue() {
        let mut u = unit();
        // Occupy the device until t=10.
        let (_, ready) = u.device.start_load(t(0), ModelId(0), 100 * MIB).unwrap();
        u.device.complete_load(ready, ModelId(0)).unwrap();
        u.device.start_inference(ready, ModelId(0), d(10)).unwrap();
        u.in_flight = Some(InFlight::solo(req(1, 0), Phase::Running, true, ready, 0));
        u.local_queue.push_back(req(2, 0));
        u.local_queue.push_back(req(3, 0));
        let wait = u.estimated_wait(ready, false, |_, _| d(2), no_load);
        // Remaining inference (10 s) + 2 resident local hits × 2 s.
        assert_eq!(wait, d(14));
        let finish = u.estimated_finish(ready, false, &req(4, 0), |_, _| d(2), no_load);
        assert_eq!(finish, d(16));
        assert!(!u.is_idle());
    }

    #[test]
    fn wait_shrinks_as_time_passes() {
        let mut u = unit();
        let (_, ready) = u.device.start_load(t(0), ModelId(0), 100 * MIB).unwrap();
        u.device.complete_load(ready, ModelId(0)).unwrap();
        u.device.start_inference(ready, ModelId(0), d(10)).unwrap();
        let early = u.estimated_wait(ready, false, |_, _| d(0), no_load);
        let late = u.estimated_wait(ready + d(6), false, |_, _| d(0), no_load);
        assert_eq!(early, d(10));
        assert_eq!(late, d(4));
    }

    #[test]
    fn wait_charges_one_load_per_distinct_missing_model() {
        let mut u = unit();
        // Device busy running model 0 until t=10; the local queue holds
        // two requests for missing model 7, one for missing model 8, and
        // one resident hit for model 0.
        let (_, ready) = u.device.start_load(t(0), ModelId(0), 100 * MIB).unwrap();
        u.device.complete_load(ready, ModelId(0)).unwrap();
        u.device.start_inference(ready, ModelId(0), d(10)).unwrap();
        u.in_flight = Some(InFlight::solo(req(1, 0), Phase::Running, true, ready, 0));
        u.local_queue.push_back(req(2, 7));
        u.local_queue.push_back(req(3, 7));
        u.local_queue.push_back(req(4, 8));
        u.local_queue.push_back(req(5, 0));
        let wait = u.estimated_wait(ready, false, |_, _| d(2), |_| d(3));
        // 10 (in flight) + 4 × 2 (inferences) + 2 × 3 (loads of 7 and 8,
        // each charged once).
        assert_eq!(wait, d(24));
    }

    #[test]
    fn finish_charges_the_new_request_load_only_when_missing_and_uncharged() {
        let mut u = unit();
        let (_, ready) = u.device.start_load(t(0), ModelId(0), 100 * MIB).unwrap();
        u.device.complete_load(ready, ModelId(0)).unwrap();
        u.device.start_inference(ready, ModelId(0), d(10)).unwrap();
        u.in_flight = Some(InFlight::solo(req(1, 0), Phase::Running, true, ready, 0));
        // Missing model, nothing queued for it: wait 10 + load 3 + infer 2.
        let cold = u.estimated_finish(ready, false, &req(2, 7), |_, _| d(2), |_| d(3));
        assert_eq!(cold, d(15));
        // Resident model: no load term.
        let hit = u.estimated_finish(ready, false, &req(3, 0), |_, _| d(2), |_| d(3));
        assert_eq!(hit, d(12));
        // Missing model already charged by a queued request: the new
        // request rides the same upload (wait 10 + load 3 + infer 2,
        // plus its own infer 2).
        u.local_queue.push_back(req(4, 7));
        let shared = u.estimated_finish(ready, false, &req(5, 7), |_, _| d(2), |_| d(3));
        assert_eq!(shared, d(17));
    }

    #[test]
    fn estimate_matches_actual_drain_replayed_on_the_device() {
        // Accuracy check against real device transitions: the unit runs
        // m0 until t=10 with a local queue of [m0 hit, m7 (not resident)].
        // The estimator must predict exactly the drain time the device
        // realises when the schedule is replayed: 10 (in flight) + 2 (m0
        // hit) + 3 (m7 load) + 2 (m7 infer) = 17.
        let infer = |_: ModelId, _: usize| d(2);
        let load = |_: ModelId| d(3);
        let mut u = unit();
        let (_, ready) = u.device.start_load(t(0), ModelId(0), 100 * MIB).unwrap();
        u.device.complete_load(ready, ModelId(0)).unwrap();
        u.device.start_inference(ready, ModelId(0), d(10)).unwrap();
        u.in_flight = Some(InFlight::solo(req(1, 0), Phase::Running, true, ready, 0));
        u.local_queue.push_back(req(2, 0));
        u.local_queue.push_back(req(3, 7));
        let estimate = u.estimated_wait(ready, false, infer, load);

        // Replay the actual schedule.
        let end_inflight = ready + d(10);
        u.device
            .complete_inference(end_inflight, ModelId(0))
            .unwrap();
        let hit_done = u
            .device
            .start_inference(end_inflight, ModelId(0), infer(ModelId(0), 32))
            .unwrap();
        u.device.complete_inference(hit_done, ModelId(0)).unwrap();
        let (_, m7_ready) = u
            .device
            .start_load_timed(hit_done, ModelId(7), 100 * MIB, load(ModelId(7)))
            .unwrap();
        u.device.complete_load(m7_ready, ModelId(7)).unwrap();
        let drained = u
            .device
            .start_inference(m7_ready, ModelId(7), infer(ModelId(7), 32))
            .unwrap();
        assert_eq!(drained.duration_since(ready), estimate);
        assert_eq!(estimate, d(17));
    }

    #[test]
    fn datastore_keys_are_stable() {
        assert_eq!(status_key(GpuId(7)), "/gpu/7/status");
        assert_eq!(lru_key(GpuId(0)), "/gpu/0/lru");
    }
}
