//! Per-request lifecycle ledger.
//!
//! Decomposes every completed request's end-to-end latency into four
//! contiguous segments — time **queued** (global or local queue), time
//! the batch was **held** open gathering joiners, time spent in the
//! model **load**, and **inference** time — alongside the serving GPU,
//! the invocation (batch) sequence number, and the Algorithm-2 arm the
//! scheduler took. Segments are integer tick durations and sum
//! *exactly* to the recorded latency (pinned by tests), including for
//! requests that were requeued by a GPU crash: the retried attempt's
//! pre-crash wait is folded into the queued segment.

use std::fmt;
use std::sync::{Arc, Mutex};

use gfaas_gpu::{GpuId, ModelId, Tier};
use gfaas_sim::time::{SimDuration, SimTime};

use crate::{Arm, ObsEvent, Recorder};

/// One completed (or still in-flight) request's ledger row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedgerRow {
    /// Sequential request id.
    pub req: u64,
    /// Model requested.
    pub model: ModelId,
    /// Arrival time.
    pub arrival: SimTime,
    /// Serving GPU (once joined).
    pub gpu: Option<GpuId>,
    /// Invocation sequence number that served it.
    pub batch: u64,
    /// Algorithm-2 arm taken on the final (post-crash) attempt.
    pub arm: Option<Arm>,
    /// Whether the serving invocation was a cache hit.
    pub hit: bool,
    /// Crash-requeue count before the serving attempt.
    pub retries: u32,
    /// Time spent queued (arrival → joining an invocation).
    pub queued: SimDuration,
    /// Time the forming batch was held open after this request joined.
    pub hold: SimDuration,
    /// Model-load time this request waited through.
    pub load: SimDuration,
    /// Inference time.
    pub infer: SimDuration,
    /// End-to-end latency as reported by the metrics pipeline.
    pub latency: SimDuration,
    /// Whether the request completed.
    pub completed: bool,
    /// Whether it blew the configured SLO (always false without one).
    pub slo_miss: bool,
    /// Storage tier the serving invocation's load was fed from; `None`
    /// for cache hits (no load happened).
    pub tier: Option<Tier>,
    /// When this request joined its serving invocation.
    join: Option<SimTime>,
}

impl LedgerRow {
    fn new(req: u64, model: ModelId, arrival: SimTime) -> Self {
        LedgerRow {
            req,
            model,
            arrival,
            gpu: None,
            batch: 0,
            arm: None,
            hit: false,
            retries: 0,
            queued: SimDuration::ZERO,
            hold: SimDuration::ZERO,
            load: SimDuration::ZERO,
            infer: SimDuration::ZERO,
            latency: SimDuration::ZERO,
            completed: false,
            slo_miss: false,
            tier: None,
            join: None,
        }
    }

    /// Sum of the four lifecycle segments; equals `latency` once completed.
    pub fn segments_sum(&self) -> SimDuration {
        SimDuration::from_micros(
            self.queued.as_micros()
                + self.hold.as_micros()
                + self.load.as_micros()
                + self.infer.as_micros(),
        )
    }
}

/// Open invocation state tracked per GPU while it forms and executes.
#[derive(Debug, Clone, Copy, Default)]
struct GpuSpan {
    hold_start: Option<SimTime>,
    load_start: Option<SimTime>,
    load_end: Option<SimTime>,
    infer_start: Option<SimTime>,
    batch: u64,
    hit: bool,
    tier: Option<Tier>,
}

/// Average segment decomposition over completed rows.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SegmentSummary {
    /// Completed rows aggregated.
    pub count: usize,
    /// Mean queued seconds.
    pub avg_queued: f64,
    /// Mean hold seconds.
    pub avg_hold: f64,
    /// Mean load seconds.
    pub avg_load: f64,
    /// Mean inference seconds.
    pub avg_infer: f64,
    /// Mean end-to-end latency seconds.
    pub avg_latency: f64,
}

impl fmt::Display for SegmentSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "queued={:.3} hold={:.3} load={:.3} infer={:.3} latency={:.3}",
            self.avg_queued, self.avg_hold, self.avg_load, self.avg_infer, self.avg_latency
        )
    }
}

/// The queryable post-run ledger.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    rows: Vec<LedgerRow>,
    gpus: Vec<GpuSpan>,
    slo: Option<SimDuration>,
    completed: usize,
}

impl Ledger {
    fn span_mut(&mut self, gpu: GpuId) -> &mut GpuSpan {
        let idx = gpu.0 as usize;
        if idx >= self.gpus.len() {
            self.gpus.resize_with(idx + 1, GpuSpan::default);
        }
        &mut self.gpus[idx]
    }

    fn row_mut(&mut self, req: u64) -> Option<&mut LedgerRow> {
        self.rows.get_mut(req as usize)
    }

    fn observe(&mut self, t: SimTime, ev: &ObsEvent<'_>) {
        match *ev {
            ObsEvent::Arrival { req, model, .. } => {
                debug_assert_eq!(self.rows.len() as u64, req, "non-sequential request ids");
                self.rows.push(LedgerRow::new(req, model, t));
            }
            ObsEvent::SchedArm { req, arm } => {
                if let Some(row) = self.row_mut(req) {
                    row.arm = Some(arm);
                }
            }
            ObsEvent::LocalEnqueue { req, .. } => {
                if let Some(row) = self.row_mut(req) {
                    row.arm = Some(Arm::WaitBusy);
                }
            }
            ObsEvent::Join { req, gpu } => {
                if let Some(row) = self.row_mut(req) {
                    row.join = Some(t);
                    row.gpu = Some(gpu);
                    if row.arm.is_none() {
                        row.arm = Some(Arm::Rider);
                    }
                }
            }
            ObsEvent::HoldStart { gpu, .. } => {
                self.span_mut(gpu).hold_start = Some(t);
            }
            ObsEvent::Dispatch { gpu, hit, .. } => {
                self.span_mut(gpu).hit = hit;
            }
            ObsEvent::LoadStart {
                gpu, batch, tier, ..
            } => {
                let span = self.span_mut(gpu);
                span.load_start = Some(t);
                span.batch = batch;
                span.tier = Some(tier);
            }
            ObsEvent::LoadComplete { gpu, .. } => {
                self.span_mut(gpu).load_end = Some(t);
            }
            ObsEvent::InferStart { gpu, batch, .. } => {
                let span = self.span_mut(gpu);
                span.infer_start = Some(t);
                span.batch = batch;
            }
            ObsEvent::Completion {
                req, gpu, latency, ..
            } => {
                let span = *self.span_mut(gpu);
                let slo_miss = self.slo.is_some_and(|slo| latency > slo);
                if let Some(row) = self.row_mut(req) {
                    let join = row.join.unwrap_or(row.arrival);
                    let infer_start = span.infer_start.unwrap_or(t);
                    // Hold runs from hold_start until the batch launched:
                    // into a load if one happened, else straight to infer.
                    let hold_end = span.load_start.unwrap_or(infer_start);
                    let load_end = span.load_end.unwrap_or(infer_start);
                    row.queued = join.duration_since(row.arrival);
                    row.hold = match span.hold_start {
                        Some(h0) => hold_end.duration_since(h0.max(join)),
                        None => SimDuration::ZERO,
                    };
                    row.load = match span.load_start {
                        Some(l0) => load_end.duration_since(l0.max(join)),
                        None => SimDuration::ZERO,
                    };
                    row.infer = t.duration_since(infer_start.max(join));
                    row.latency = latency;
                    row.batch = span.batch;
                    row.hit = span.hit;
                    row.tier = span.tier;
                    row.slo_miss = slo_miss;
                    row.completed = true;
                    self.completed += 1;
                }
            }
            ObsEvent::InvocationDone { gpu, .. } | ObsEvent::Crash { gpu, .. } => {
                *self.span_mut(gpu) = GpuSpan::default();
            }
            ObsEvent::Requeued { req } => {
                if let Some(row) = self.row_mut(req) {
                    row.join = None;
                    row.arm = None;
                    row.gpu = None;
                    row.retries += 1;
                }
            }
            _ => {}
        }
    }

    /// All rows, indexed by request id.
    pub fn rows(&self) -> &[LedgerRow] {
        &self.rows
    }

    /// Number of completed rows.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// The SLO the ledger was configured with, if any.
    pub fn slo(&self) -> Option<SimDuration> {
        self.slo
    }

    /// Completed rows that missed the SLO.
    pub fn slo_misses(&self) -> usize {
        self.rows.iter().filter(|r| r.slo_miss).count()
    }

    /// Mean segment decomposition over completed rows.
    pub fn segment_summary(&self) -> SegmentSummary {
        let mut s = SegmentSummary::default();
        for row in self.rows.iter().filter(|r| r.completed) {
            s.count += 1;
            s.avg_queued += row.queued.as_secs_f64();
            s.avg_hold += row.hold.as_secs_f64();
            s.avg_load += row.load.as_secs_f64();
            s.avg_infer += row.infer.as_secs_f64();
            s.avg_latency += row.latency.as_secs_f64();
        }
        if s.count > 0 {
            let n = s.count as f64;
            s.avg_queued /= n;
            s.avg_hold /= n;
            s.avg_load /= n;
            s.avg_infer /= n;
            s.avg_latency /= n;
        }
        s
    }

    /// Completed-request count per Algorithm-2 arm, in [`Arm::ALL`] order.
    pub fn arm_counts(&self) -> [(Arm, usize); 5] {
        let mut out = Arm::ALL.map(|a| (a, 0usize));
        for row in self.rows.iter().filter(|r| r.completed) {
            if let Some(arm) = row.arm {
                let slot = Arm::ALL.iter().position(|a| *a == arm).unwrap();
                out[slot].1 += 1;
            }
        }
        out
    }

    /// Dump all rows as CSV (header + one line per request).
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(64 + self.rows.len() * 96);
        out.push_str(
            "request,model,gpu,batch,arm,hit,retries,completed,slo_miss,\
             arrival_s,queued_s,hold_s,load_s,infer_s,latency_s,tier\n",
        );
        for r in &self.rows {
            let gpu = r.gpu.map(|g| g.0 as i64).unwrap_or(-1);
            let arm = r.arm.map(|a| a.as_str()).unwrap_or("-");
            let tier = r.tier.map(|t| t.label()).unwrap_or("-".into());
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{}\n",
                r.req,
                r.model.0,
                gpu,
                r.batch,
                arm,
                r.hit,
                r.retries,
                r.completed,
                r.slo_miss,
                r.arrival.as_secs_f64(),
                r.queued.as_secs_f64(),
                r.hold.as_secs_f64(),
                r.load.as_secs_f64(),
                r.infer.as_secs_f64(),
                r.latency.as_secs_f64(),
                tier,
            ));
        }
        out
    }
}

/// Shared handle for querying the ledger after (or during) a run.
#[derive(Debug, Clone)]
pub struct LedgerHandle(Arc<Mutex<Ledger>>);

impl LedgerHandle {
    /// Clone the current ledger state out of the recorder.
    pub fn snapshot(&self) -> Ledger {
        self.0.lock().expect("ledger lock poisoned").clone()
    }
}

/// [`Recorder`] feeding a [`Ledger`].
#[derive(Debug)]
pub struct LedgerRecorder {
    ledger: Arc<Mutex<Ledger>>,
}

impl LedgerRecorder {
    /// Create a recorder/handle pair. `slo` flags completions slower
    /// than the given duration (and is kept for post-run reporting).
    pub fn new(slo: Option<SimDuration>) -> (Self, LedgerHandle) {
        let ledger = Arc::new(Mutex::new(Ledger {
            slo,
            ..Ledger::default()
        }));
        (
            LedgerRecorder {
                ledger: Arc::clone(&ledger),
            },
            LedgerHandle(ledger),
        )
    }
}

impl Recorder for LedgerRecorder {
    fn record(&mut self, t: SimTime, ev: &ObsEvent<'_>) {
        self.ledger
            .lock()
            .expect("ledger lock poisoned")
            .observe(t, ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ledger: &mut Ledger, t_us: u64, ev: ObsEvent<'_>) {
        ledger.observe(SimTime::from_micros(t_us), &ev);
    }

    #[test]
    fn miss_with_hold_decomposes_and_sums() {
        let mut l = Ledger::default();
        let m = ModelId(3);
        let g = GpuId(0);
        // Request 0 arrives at t=100, is dispatched (miss) at t=250 with a
        // hold to t=400, load to t=900, infer to t=1500.
        ev(
            &mut l,
            100,
            ObsEvent::Arrival {
                req: 0,
                model: m,
                queue_len: 1,
            },
        );
        ev(
            &mut l,
            250,
            ObsEvent::SchedArm {
                req: 0,
                arm: Arm::Miss,
            },
        );
        ev(&mut l, 250, ObsEvent::Join { req: 0, gpu: g });
        ev(
            &mut l,
            250,
            ObsEvent::Dispatch {
                gpu: g,
                lead: 0,
                model: m,
                hit: false,
                false_miss: false,
                coalesced: 1,
            },
        );
        ev(
            &mut l,
            250,
            ObsEvent::HoldStart {
                gpu: g,
                model: m,
                gathered: 1,
                release_at: SimTime::from_micros(400),
            },
        );
        // Rider joins mid-hold at t=300.
        ev(
            &mut l,
            300,
            ObsEvent::Arrival {
                req: 1,
                model: m,
                queue_len: 1,
            },
        );
        ev(&mut l, 320, ObsEvent::Join { req: 1, gpu: g });
        ev(
            &mut l,
            400,
            ObsEvent::LoadStart {
                gpu: g,
                model: m,
                batch: 7,
                tier: Tier::ORIGIN,
                resident: &[m],
            },
        );
        ev(
            &mut l,
            900,
            ObsEvent::LoadComplete {
                gpu: g,
                model: m,
                tier: Tier::ORIGIN,
            },
        );
        ev(
            &mut l,
            900,
            ObsEvent::InferStart {
                gpu: g,
                model: m,
                batch: 7,
                requests: 2,
                items: 2,
            },
        );
        ev(
            &mut l,
            1500,
            ObsEvent::Completion {
                req: 0,
                gpu: g,
                batch: 7,
                model: m,
                latency: SimDuration::from_micros(1400),
            },
        );
        ev(
            &mut l,
            1500,
            ObsEvent::Completion {
                req: 1,
                gpu: g,
                batch: 7,
                model: m,
                latency: SimDuration::from_micros(1200),
            },
        );
        ev(
            &mut l,
            1500,
            ObsEvent::InvocationDone {
                gpu: g,
                batch: 7,
                requests: 2,
            },
        );

        let lead = l.rows()[0];
        assert_eq!(lead.queued, SimDuration::from_micros(150));
        assert_eq!(lead.hold, SimDuration::from_micros(150));
        assert_eq!(lead.load, SimDuration::from_micros(500));
        assert_eq!(lead.infer, SimDuration::from_micros(600));
        assert_eq!(lead.segments_sum(), lead.latency);
        assert_eq!(lead.arm, Some(Arm::Miss));
        assert_eq!(lead.batch, 7);
        assert!(!lead.hit);
        assert_eq!(lead.tier, Some(Tier::ORIGIN));

        let rider = l.rows()[1];
        assert_eq!(rider.queued, SimDuration::from_micros(20));
        assert_eq!(rider.hold, SimDuration::from_micros(80));
        assert_eq!(rider.load, SimDuration::from_micros(500));
        assert_eq!(rider.segments_sum(), rider.latency);
        assert_eq!(rider.arm, Some(Arm::Rider));
        assert_eq!(l.completed(), 2);
    }

    #[test]
    fn hit_without_hold_is_queued_plus_infer() {
        let mut l = Ledger::default();
        let m = ModelId(0);
        let g = GpuId(2);
        ev(
            &mut l,
            0,
            ObsEvent::Arrival {
                req: 0,
                model: m,
                queue_len: 1,
            },
        );
        ev(
            &mut l,
            40,
            ObsEvent::SchedArm {
                req: 0,
                arm: Arm::HitRemote,
            },
        );
        ev(&mut l, 40, ObsEvent::Join { req: 0, gpu: g });
        ev(
            &mut l,
            40,
            ObsEvent::InferStart {
                gpu: g,
                model: m,
                batch: 1,
                requests: 1,
                items: 1,
            },
        );
        ev(
            &mut l,
            140,
            ObsEvent::Completion {
                req: 0,
                gpu: g,
                batch: 1,
                model: m,
                latency: SimDuration::from_micros(140),
            },
        );
        let row = l.rows()[0];
        assert_eq!(row.queued, SimDuration::from_micros(40));
        assert_eq!(row.hold, SimDuration::ZERO);
        assert_eq!(row.load, SimDuration::ZERO);
        assert_eq!(row.infer, SimDuration::from_micros(100));
        assert_eq!(row.segments_sum(), row.latency);
        assert_eq!(row.tier, None, "hits never loaded, so no tier");
    }

    #[test]
    fn crash_requeue_folds_wait_into_queued() {
        let mut l = Ledger::default();
        let m = ModelId(1);
        let g0 = GpuId(0);
        let g1 = GpuId(1);
        ev(
            &mut l,
            0,
            ObsEvent::Arrival {
                req: 0,
                model: m,
                queue_len: 1,
            },
        );
        ev(
            &mut l,
            10,
            ObsEvent::SchedArm {
                req: 0,
                arm: Arm::HitLocal,
            },
        );
        ev(&mut l, 10, ObsEvent::Join { req: 0, gpu: g0 });
        ev(
            &mut l,
            10,
            ObsEvent::InferStart {
                gpu: g0,
                model: m,
                batch: 1,
                requests: 1,
                items: 1,
            },
        );
        // GPU crashes mid-inference; request goes back to the queue.
        ev(
            &mut l,
            60,
            ObsEvent::Crash {
                gpu: g0,
                model: m,
                requeued: 1,
                resident: &[],
            },
        );
        ev(&mut l, 60, ObsEvent::Requeued { req: 0 });
        // Retried on another GPU.
        ev(
            &mut l,
            100,
            ObsEvent::SchedArm {
                req: 0,
                arm: Arm::HitRemote,
            },
        );
        ev(&mut l, 100, ObsEvent::Join { req: 0, gpu: g1 });
        ev(
            &mut l,
            100,
            ObsEvent::InferStart {
                gpu: g1,
                model: m,
                batch: 2,
                requests: 1,
                items: 1,
            },
        );
        ev(
            &mut l,
            200,
            ObsEvent::Completion {
                req: 0,
                gpu: g1,
                batch: 2,
                model: m,
                latency: SimDuration::from_micros(200),
            },
        );
        let row = l.rows()[0];
        assert_eq!(row.retries, 1);
        assert_eq!(row.queued, SimDuration::from_micros(100));
        assert_eq!(row.infer, SimDuration::from_micros(100));
        assert_eq!(row.segments_sum(), row.latency);
        assert_eq!(row.arm, Some(Arm::HitRemote));
        assert_eq!(row.gpu, Some(g1));
    }

    #[test]
    fn load_topup_rider_joining_after_load_start() {
        let mut l = Ledger::default();
        let m = ModelId(5);
        let g = GpuId(0);
        ev(
            &mut l,
            0,
            ObsEvent::Arrival {
                req: 0,
                model: m,
                queue_len: 1,
            },
        );
        ev(&mut l, 0, ObsEvent::Join { req: 0, gpu: g });
        ev(
            &mut l,
            0,
            ObsEvent::LoadStart {
                gpu: g,
                model: m,
                batch: 3,
                tier: Tier::HOST,
                resident: &[m],
            },
        );
        // Rider arrives and joins while the load is in flight.
        ev(
            &mut l,
            200,
            ObsEvent::Arrival {
                req: 1,
                model: m,
                queue_len: 1,
            },
        );
        ev(&mut l, 500, ObsEvent::Join { req: 1, gpu: g });
        ev(&mut l, 500, ObsEvent::LoadRiders { gpu: g, joined: 1 });
        ev(
            &mut l,
            1000,
            ObsEvent::LoadComplete {
                gpu: g,
                model: m,
                tier: Tier::HOST,
            },
        );
        ev(
            &mut l,
            1000,
            ObsEvent::InferStart {
                gpu: g,
                model: m,
                batch: 3,
                requests: 2,
                items: 2,
            },
        );
        ev(
            &mut l,
            1300,
            ObsEvent::Completion {
                req: 1,
                gpu: g,
                batch: 3,
                model: m,
                latency: SimDuration::from_micros(1100),
            },
        );
        let rider = l.rows()[1];
        assert_eq!(rider.queued, SimDuration::from_micros(300));
        assert_eq!(rider.load, SimDuration::from_micros(500));
        assert_eq!(rider.infer, SimDuration::from_micros(300));
        assert_eq!(rider.segments_sum(), rider.latency);
        assert_eq!(rider.tier, Some(Tier::HOST));
    }

    #[test]
    fn csv_has_header_and_row_per_request() {
        let mut l = Ledger::default();
        ev(
            &mut l,
            0,
            ObsEvent::Arrival {
                req: 0,
                model: ModelId(0),
                queue_len: 1,
            },
        );
        let csv = l.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("request,model,gpu,batch,arm"));
        assert!(lines[1].starts_with("0,0,-1,0,-,"));
    }
}
