//! Request batching: holds, same-model coalescing and load top-ups.
//! The policies that plan batches live in [`crate::batching`].

use gfaas_gpu::ModelId;
use gfaas_obs::ObsEvent;
use gfaas_sim::event::EventQueue;
use gfaas_sim::time::SimTime;

use super::{Cluster, Event};
use crate::batching::BatchView;
use crate::gpu_manager::{HoldSlot, UnitState};
use crate::request::Request;

impl Cluster {
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
    pub(super) fn collect_same_model(
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
        if self.global_queue.len() != global_before {
            self.queue_depth_changed();
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
            now: self.scalars.now,
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
    pub(super) fn dispatch_batched(
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
            self.scalars.idle_online -= 1;
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
                let seq = self.scalars.dispatch_seq;
                self.scalars.dispatch_seq += 1;
                let release_at = self.scalars.now + hold;
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
                self.scalars.holding_units += 1;
                self.report_status(g, "busy");
                events.schedule(release_at, Event::BatchHold(g, seq));
                return;
            }
        }
        self.launch_batch(gi, requests, hit, events);
    }

    /// Tops `gi`'s held batch up with same-model requests that arrived
    /// since the hold began, and launches it once full or, with
    /// `expired`, because its timer fired. Returns true iff the batch
    /// launched.
    pub(super) fn fill_hold(
        &mut self,
        gi: usize,
        expired: bool,
        events: &mut EventQueue<Event>,
    ) -> bool {
        let mut slot = self.units.write(gi).holding.take().expect("a held batch");
        self.collect_same_model(gi, slot.model(), slot.max_requests, &mut slot.requests);
        if expired || slot.requests.len() >= slot.max_requests {
            // An early launch leaves the pending BatchHold timer stale
            // (its token no longer matches a held slot).
            self.scalars.holding_units -= 1;
            self.launch_batch(gi, slot.requests, slot.hit, events);
            true
        } else {
            self.units.write(gi).holding = Some(slot);
            false
        }
    }

    /// Grows a just-loaded invocation's batch with same-model requests
    /// that queued up during the upload, re-consulting the batch policy
    /// (as a hit view: the model is resident now). The upload itself was
    /// the gathering window, so any `hold` in the new plan is ignored —
    /// the inference launches immediately.
    pub(super) fn topup_loaded_batch(&mut self, gi: usize) {
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
    pub(super) fn launch_batch(
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
}
