//! Runtime invariant sanitizer, compiled in with `--features simcheck`.
//!
//! The static rules in `gfaas-analyze` catch *patterns* that can break
//! determinism; this module checks the *state* the simulator actually
//! produces. [`SimChecker`] threads through the cluster event loop and
//! asserts, while the run is in progress:
//!
//! * **timeline monotonicity** — arrivals and popped events never move
//!   virtual time backwards;
//! * **request conservation** — at every audit point, requests that
//!   arrived but have not completed are all accounted for in the global
//!   queue, a local queue, an in-flight invocation, or a held batch;
//! * **capacity conservation** — per GPU, the registry sizes of the
//!   resident models sum exactly to the device's used bytes, which never
//!   exceed the device's HBM; the store's host tier never exceeds its
//!   capacity;
//! * **queue-integral consistency** — an independent mirror of the
//!   metrics queue-depth integral must reproduce `avg_queue_depth`
//!   *bit-for-bit* at the end of the run.
//!
//! The checker observes and asserts but never mutates simulation state,
//! and the feature gates every call site, so a `simcheck` build's
//! [`RunMetrics`] are byte-identical to a default build's — CI enforces
//! this by diffing a smoke run under both builds. Violations panic with
//! the failing quantity; a sanitizer that logs-and-continues would just
//! move the confusing failure downstream.
//!
//! Audits that walk the fleet run on every `ScaleTick`, at end of run,
//! and on every 1024th popped event — frequent enough to localise a
//! violation, cheap enough (fleet-sized, not trace-sized) to keep
//! `simcheck` test runs fast.

use gfaas_models::ModelRegistry;
use gfaas_obs::ledger::Ledger;
use gfaas_sim::time::SimTime;
use gfaas_store::ModelStore;

use crate::gpu_manager::GpuUnit;
use crate::metrics::{MetricsCollector, RunMetrics};

/// How many popped events between fleet audits.
const AUDIT_EVERY: u64 = 1024;

/// The invariant checker. One per [`crate::Cluster`], alive for the
/// whole run; every hook is called from the event loop under
/// `cfg(feature = "simcheck")`. `Clone` so the snapshot machinery can
/// journal the checker alongside the state it audits — a rollback must
/// rewind the arrival/event counters too, or conservation would fail
/// spuriously after the replayed events re-arrive.
#[derive(Debug, Default, Clone)]
pub struct SimChecker {
    /// Arrivals seen (the conservation left-hand side).
    arrivals: u64,
    /// Latest virtual time seen on the main timeline.
    last_t: SimTime,
    /// Popped runtime events, for the audit cadence.
    events: u64,
    /// Fleet audits performed (so `finish` can prove audits ran at all).
    audits: u64,
    /// Mirror of the metrics queue-depth integral: last observation time,
    /// last observed length, accumulated micros·depth ticks. Must use
    /// *exactly* the arithmetic of `MetricsCollector::observe_queue_depth`
    /// or the bit-for-bit comparison in [`SimChecker::finish`] is
    /// meaningless.
    q_last_t: SimTime,
    q_last_len: usize,
    q_ticks: u128,
}

impl SimChecker {
    /// A fresh checker; all hooks assume time starts at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::default()
    }

    /// A trace request entered the global queue at time `t`.
    pub fn on_arrival(&mut self, t: SimTime) {
        assert!(
            t >= self.last_t,
            "simcheck: arrival at {t:?} moves time backwards (last {:?})",
            self.last_t
        );
        self.last_t = t;
        self.arrivals += 1;
    }

    /// A runtime event popped at time `t`. Returns true when a periodic
    /// fleet audit is due.
    pub fn on_event(&mut self, t: SimTime) -> bool {
        assert!(
            t >= self.last_t,
            "simcheck: event at {t:?} moves time backwards (last {:?})",
            self.last_t
        );
        self.last_t = t;
        self.events += 1;
        self.events.is_multiple_of(AUDIT_EVERY)
    }

    /// Mirrors one `MetricsCollector::observe_queue_depth` call.
    pub fn observe_queue_depth(&mut self, t: SimTime, len: usize) {
        if t > self.q_last_t {
            self.q_ticks +=
                (t.as_micros() - self.q_last_t.as_micros()) as u128 * self.q_last_len as u128;
            self.q_last_t = t;
        }
        self.q_last_len = len;
    }

    /// Fleet audit: request conservation plus residency/host-tier
    /// capacity conservation. `completed` is the metrics completion
    /// count; `global_queue` the current global-queue depth.
    pub fn audit(
        &mut self,
        completed: u64,
        global_queue: usize,
        units: &[GpuUnit],
        registry: &ModelRegistry,
        store: &dyn ModelStore,
    ) {
        self.audits += 1;
        let mut held = 0u64;
        for u in units {
            held += u.local_queue.len() as u64;
            held += u.in_flight.as_ref().map_or(0, |f| f.requests.len()) as u64;
            held += u.holding.as_ref().map_or(0, |h| h.requests.len()) as u64;
        }
        let outstanding = global_queue as u64 + held;
        assert!(
            self.arrivals == completed + outstanding,
            "simcheck: request conservation violated: {} arrivals != {} completed + {} \
             outstanding ({} global + {} on GPUs)",
            self.arrivals,
            completed,
            outstanding,
            global_queue,
            held
        );
        for u in units {
            let accounted: u64 = u
                .device
                .resident_models()
                .map(|m| registry.occupancy_bytes(m))
                .sum();
            let used = u.device.used_bytes();
            assert!(
                accounted == used,
                "simcheck: GPU {:?} residency bytes diverged: registry accounts {} for {} \
                 resident models, device reports {} used",
                u.id(),
                accounted,
                u.device.resident_models().count(),
                used
            );
            let hbm = u.device.spec().memory_bytes;
            assert!(
                used <= hbm,
                "simcheck: GPU {:?} over capacity: {} used > {} HBM bytes",
                u.id(),
                used,
                hbm
            );
        }
        let s = store.stats();
        assert!(
            s.host_bytes_used <= s.host_capacity,
            "simcheck: host tier over capacity: {} used > {} bytes",
            s.host_bytes_used,
            s.host_capacity
        );
    }

    /// End-of-run checks, called after the event queue drained and the
    /// metrics were finalised: every arrival completed, at least one
    /// audit ran, and the independent queue integral reproduces
    /// `avg_queue_depth` bit-for-bit.
    pub fn finish(
        &mut self,
        end: SimTime,
        metrics: &RunMetrics,
        units: &[GpuUnit],
        registry: &ModelRegistry,
        store: &dyn ModelStore,
    ) {
        // Drained run: nothing outstanding anywhere.
        self.audit(metrics.completed, 0, units, registry, store);
        assert!(
            self.arrivals == metrics.completed,
            "simcheck: run drained with {} arrivals but {} completions",
            self.arrivals,
            metrics.completed
        );
        assert!(self.audits > 0, "simcheck: no fleet audit ever ran");
        // Mirror of `MetricsCollector::finish`: integrate the final
        // stretch to the makespan, divide by it. Same inputs, same
        // arithmetic, so the f64s must agree in every bit.
        let ticks = self.q_ticks
            + end.as_micros().saturating_sub(self.q_last_t.as_micros()) as u128
                * self.q_last_len as u128;
        let expect = if end == SimTime::ZERO {
            0.0
        } else {
            ticks as f64 / end.as_micros() as f64
        };
        assert!(
            expect.to_bits() == metrics.avg_queue_depth.to_bits(),
            "simcheck: queue-depth integral diverged: sanitizer mirror {} vs metrics {} \
             (bitwise {:#x} vs {:#x})",
            expect,
            metrics.avg_queue_depth,
            expect.to_bits(),
            metrics.avg_queue_depth.to_bits()
        );
    }

    /// Serialises the checker for an on-disk checkpoint, so a
    /// warm-started `simcheck` build resumes with consistent conservation
    /// counters instead of asserting spuriously on the first audit.
    pub fn save_state(&self, enc: &mut gfaas_snap::Enc) {
        enc.put_u64(self.arrivals);
        enc.put_time(self.last_t);
        enc.put_u64(self.events);
        enc.put_u64(self.audits);
        enc.put_time(self.q_last_t);
        enc.put_usize(self.q_last_len);
        enc.put_u128(self.q_ticks);
    }

    /// Restores state written by [`SimChecker::save_state`].
    pub fn load_state(
        &mut self,
        dec: &mut gfaas_snap::Dec<'_>,
    ) -> Result<(), gfaas_snap::SnapError> {
        self.arrivals = dec.u64()?;
        self.last_t = dec.time()?;
        self.events = dec.u64()?;
        self.audits = dec.u64()?;
        self.q_last_t = dec.time()?;
        self.q_last_len = dec.usize()?;
        self.q_ticks = dec.u128()?;
        Ok(())
    }

    /// Whether restored sanitizer state agrees with the restored run:
    /// it has seen exactly the `arrivals` admitted so far, no time after
    /// `now`, and mirrors `metrics`' queue-depth integral exactly. A
    /// checkpoint restore rejects state that would trip the sanitizer
    /// for a reason the run itself does not have.
    pub fn agrees_with(&self, arrivals: u64, now: SimTime, metrics: &MetricsCollector) -> bool {
        self.arrivals == arrivals
            && self.last_t <= now
            && (self.q_last_t, self.q_last_len, self.q_ticks) == metrics.queue_integral()
    }

    /// Cross-checks the observability ledger against the metrics
    /// pipeline — the two independent accountings of every request's
    /// latency. Asserts, for a drained run:
    ///
    /// * every completed row's four lifecycle segments sum *exactly*
    ///   (integer ticks) to its recorded latency;
    /// * the ledger completed exactly as many rows as the metrics
    ///   pipeline counted completions;
    /// * the sum of ledger latencies equals, tick for tick, the sum of
    ///   the latency histogram's samples (`latency_tick_sum`, captured
    ///   from the collector before `finish` consumed it). Histogram
    ///   samples are seconds as `f64`; whole microsecond counts below
    ///   2^53 round-trip through that representation exactly, so the
    ///   comparison is exact, not approximate.
    pub fn check_ledger(&self, ledger: &Ledger, completed: u64, latency_tick_sum: u64) {
        let mut rows_completed = 0u64;
        let mut ledger_ticks = 0u64;
        for row in ledger.rows() {
            if !row.completed {
                continue;
            }
            rows_completed += 1;
            ledger_ticks += row.latency.as_micros();
            assert!(
                row.segments_sum() == row.latency,
                "simcheck: ledger row {} segments sum to {:?} but latency is {:?}",
                row.req,
                row.segments_sum(),
                row.latency
            );
        }
        assert!(
            rows_completed == completed && rows_completed == ledger.completed() as u64,
            "simcheck: ledger completed {} rows (counter {}) but metrics counted {}",
            rows_completed,
            ledger.completed(),
            completed
        );
        assert!(
            ledger_ticks == latency_tick_sum,
            "simcheck: ledger latencies sum to {ledger_ticks} µs but the metrics histogram \
             holds {latency_tick_sum} µs"
        );
    }
}
