//! Elastic capacity: scale-up, scale-down and drain, plus the
//! [`ScaleView`] an [`Autoscaler`](crate::autoscale::Autoscaler)
//! observes. The policy itself lives in [`crate::autoscale`].

use gfaas_gpu::{GpuId, ModelId};
use gfaas_obs::ObsEvent;
use gfaas_sim::event::EventQueue;
use gfaas_sim::time::SimTime;

use super::{Cluster, Event};
use crate::gpu_manager::UnitState;

impl Cluster {
    /// Brings up to `want` offline devices online, cold (empty caches,
    /// reset frequency counters), then runs a scheduling pass so queued
    /// work can flow onto them immediately.
    pub(super) fn scale_up(&mut self, want: usize, events: &mut EventQueue<Event>) {
        let mut provisioned: Vec<GpuId> = Vec::new();
        for gi in 0..self.units.len() {
            if provisioned.len() == want {
                break;
            }
            if self.units[gi].state == UnitState::Offline {
                let unit = self.units.write(gi);
                unit.state = UnitState::Online;
                unit.online_since = self.scalars.now;
                unit.idle_since = self.scalars.now;
                // A cold device has no cache; its old hit frequency (from
                // a previous online interval) would skew Algorithm 1's
                // idle ordering.
                unit.hits = 0;
                debug_assert!(unit.is_idle(), "offline units carry no work");
                self.scalars.idle_online += 1;
                provisioned.push(unit.id());
            }
        }
        if provisioned.is_empty() {
            return;
        }
        self.scalars.scale_ups += provisioned.len() as u64;
        self.scalars.online_high = self.scalars.online_high.max(self.online_gpus());
        // Cold devices mean a burst of compulsory misses is coming: let a
        // tiered store stage its hottest absent models toward the host
        // cache before the cold-start storm hits the origin link.
        self.store.note_scale_up(self.scalars.now);
        for g in provisioned {
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
    pub(super) fn scale_down(&mut self, want: usize) {
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
                self.scalars.idle_online -= 1;
            }
            self.units.write(gi).state = UnitState::Draining;
            self.scalars.draining_units += 1;
            self.scalars.scale_downs += 1;
            self.emit_with(|c| ObsEvent::DrainStart {
                gpu: c.units[gi].id(),
            });
            self.maybe_finish_drain(gi);
        }
        self.scalars.online_low = self.scalars.online_low.min(self.online_gpus());
    }

    /// Completes a drain if the unit has nothing left to run: evicts its
    /// resident models (no request is lost — residency only speeds up
    /// future dispatches), closes its provisioned interval, and takes it
    /// offline.
    pub(super) fn maybe_finish_drain(&mut self, gi: usize) {
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
            self.cache.remove(g, model);
            self.evict_resident(gi, model);
        }
        let unit = self.units.write(gi);
        unit.provisioned += self.scalars.now.duration_since(unit.online_since);
        unit.state = UnitState::Offline;
        self.scalars.draining_units -= 1;
        if self.recorder.is_some() {
            let resident = self.cache.resident(g);
            self.emit_with(|_| ObsEvent::Offline {
                gpu: g,
                resident: &resident,
            });
        }
    }
}

/// The borrowed, read-only cluster view an [`Autoscaler`](crate::autoscale::Autoscaler) observes on
/// each step: global queue depth, fleet composition, and per-GPU
/// utilisation and residency signals.
pub struct ScaleView<'a> {
    pub(crate) cluster: &'a Cluster,
}

impl ScaleView<'_> {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.cluster.scalars.now
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
        self.cluster.scalars.draining_units
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
        (unit.state == UnitState::Online && unit.is_idle())
            .then(|| self.now().duration_since(unit.idle_since).as_secs_f64())
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
