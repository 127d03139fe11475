//! Event-tracing and telemetry subsystem for the GPU-FaaS simulator.
//!
//! The cluster event loop emits an [`ObsEvent`] at every request/GPU
//! lifecycle edge (arrival, scheduling decision, batch hold, load,
//! inference, completion, eviction, scaling, drain). A [`Recorder`]
//! consumes that stream; the loop holds an `Option<Box<dyn Recorder>>`
//! so that with recording disabled the only cost on the hot path is a
//! branch on `None` — no event is even constructed behind a `Some`
//! check, and report outputs stay byte-identical.
//!
//! Three concrete recorders ship with the crate:
//!
//! - [`ledger::LedgerRecorder`] — a per-request lifecycle ledger that
//!   decomposes each completed request's latency into
//!   queued/hold/load/inference segments (the segments sum exactly to
//!   the reported latency, in integer ticks) together with the GPU,
//!   batch id, and the Algorithm-2 arm the scheduler took.
//! - [`perfetto::PerfettoRecorder`] — a Chrome trace-event JSON
//!   exporter with one execution track and one occupancy track per
//!   GPU plus counter tracks (queue depth, hot replicas, provisioned
//!   GPUs), openable in `ui.perfetto.dev`.
//! - [`sampler::SamplerRecorder`] — a cadence-driven time-series
//!   sampler producing per-window CSV rows (queue depth, per-GPU
//!   busy/residency, effective batch size, miss-rate EWMA).
//!
//! [`MultiRecorder`] fans one event stream out to several recorders,
//! and [`RecordSpec`] is the parseable CLI/config axis (`--record
//! ledger,perfetto,sample=60`) that selects which of them run.

#![warn(missing_docs)]

pub mod json;
pub mod ledger;
pub mod perfetto;
pub mod sampler;

use std::fmt;
use std::str::FromStr;

use gfaas_gpu::{GpuId, ModelId, Tier};
use gfaas_sim::spec::token;
use gfaas_sim::time::{SimDuration, SimTime};

/// Which arm of the paper's Algorithm 2 a request was resolved by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Arm {
    /// The scanned idle GPU itself had the model resident (cache hit).
    HitLocal,
    /// Another idle GPU had the model resident; dispatched there.
    HitRemote,
    /// A busy GPU's estimated wait won; parked on its local queue.
    WaitBusy,
    /// No resident copy won; the model is (re)loaded on an idle GPU.
    Miss,
    /// Joined an existing batch of the same model (no arm scanned).
    Rider,
}

impl Arm {
    /// All arms in a fixed presentation order.
    pub const ALL: [Arm; 5] = [
        Arm::HitLocal,
        Arm::HitRemote,
        Arm::WaitBusy,
        Arm::Miss,
        Arm::Rider,
    ];

    /// Stable lower-case label used in CSV output.
    pub fn as_str(self) -> &'static str {
        match self {
            Arm::HitLocal => "hit_local",
            Arm::HitRemote => "hit_remote",
            Arm::WaitBusy => "wait_busy",
            Arm::Miss => "miss",
            Arm::Rider => "rider",
        }
    }
}

impl fmt::Display for Arm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.as_str())
    }
}

/// Point-in-time state of one GPU, captured by the cadence sampler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuSample {
    /// Device id.
    pub gpu: GpuId,
    /// Whether the unit is provisioned and online.
    pub online: bool,
    /// Whether the unit is draining toward scale-down.
    pub draining: bool,
    /// Whether an invocation (load or inference) is in flight.
    pub busy: bool,
    /// Number of models resident in device memory.
    pub resident: usize,
    /// Depth of the unit's local wait queue.
    pub local_depth: usize,
}

/// Cluster-wide snapshot handed to recorders on each sampling tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleView<'a> {
    /// Global queue depth at the tick.
    pub queue_len: usize,
    /// Online (provisioned, not yet offline) unit count.
    pub online: usize,
    /// Units with an invocation in flight.
    pub busy: usize,
    /// Units draining toward scale-down.
    pub draining: usize,
    /// Units parked holding a batch open.
    pub holding: usize,
    /// Per-GPU detail rows.
    pub gpus: &'a [GpuSample],
}

/// One lifecycle event emitted by the cluster event loop.
///
/// Timestamps are not part of the event: [`Recorder::record`] receives
/// the simulation time alongside each event. Identifiers are the
/// cluster's own: `req` is the sequential request id from the trace,
/// `batch` is the per-run invocation sequence number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ObsEvent<'a> {
    /// First event of a run: initial fleet shape.
    RunStart {
        /// Units online at t=0.
        online_gpus: usize,
        /// Total provisioned-or-provisionable units.
        total_gpus: usize,
    },
    /// A request entered the global queue.
    Arrival {
        /// Request id.
        req: u64,
        /// Model it targets.
        model: ModelId,
        /// Global queue depth after the push.
        queue_len: usize,
    },
    /// Global queue depth changed outside an arrival (pop, requeue).
    QueueDepth {
        /// New global queue depth.
        len: usize,
    },
    /// The scheduler resolved a request via an Algorithm-2 arm.
    SchedArm {
        /// Request id.
        req: u64,
        /// Arm taken.
        arm: Arm,
    },
    /// A request was parked on a busy GPU's local queue (wait-busy arm).
    LocalEnqueue {
        /// Request id.
        req: u64,
        /// GPU whose local queue holds it.
        gpu: GpuId,
        /// Model it targets.
        model: ModelId,
    },
    /// A request became part of the invocation forming on a GPU.
    Join {
        /// Request id.
        req: u64,
        /// Target GPU.
        gpu: GpuId,
    },
    /// A batch was parked open on a GPU awaiting more joiners.
    HoldStart {
        /// Holding GPU.
        gpu: GpuId,
        /// Model being gathered.
        model: ModelId,
        /// Requests gathered so far.
        gathered: usize,
        /// Deadline at which the hold releases.
        release_at: SimTime,
    },
    /// The scheduler committed a lead request to a GPU.
    Dispatch {
        /// Target GPU.
        gpu: GpuId,
        /// Lead request id.
        lead: u64,
        /// Model dispatched.
        model: ModelId,
        /// Whether the model was already resident (cache hit).
        hit: bool,
        /// Miss while some other GPU held the model (false miss).
        false_miss: bool,
        /// Requests coalesced into the invocation at dispatch time.
        coalesced: usize,
    },
    /// A model upload began on a GPU.
    LoadStart {
        /// Loading GPU.
        gpu: GpuId,
        /// Model being uploaded.
        model: ModelId,
        /// Invocation sequence number.
        batch: u64,
        /// Storage tier the bytes are served from ([`Tier::ORIGIN`]
        /// under the flat store, host or origin under a tiered one).
        tier: Tier,
        /// The GPU's resident models after the insert, coldest first.
        resident: &'a [ModelId],
    },
    /// A model upload finished.
    LoadComplete {
        /// GPU that finished loading.
        gpu: GpuId,
        /// Model now resident.
        model: ModelId,
        /// Storage tier the bytes were served from.
        tier: Tier,
    },
    /// Requests joined a batch while its model was still loading.
    LoadRiders {
        /// GPU whose loading batch was topped up.
        gpu: GpuId,
        /// Number of requests that joined.
        joined: usize,
    },
    /// Inference began on a GPU.
    InferStart {
        /// Executing GPU.
        gpu: GpuId,
        /// Model being served.
        model: ModelId,
        /// Invocation sequence number.
        batch: u64,
        /// Requests in the batch.
        requests: usize,
        /// Total items across the batch (>= requests).
        items: usize,
    },
    /// An invocation (load + inference) finished on a GPU.
    InvocationDone {
        /// GPU that finished.
        gpu: GpuId,
        /// Invocation sequence number.
        batch: u64,
        /// Requests completed by it.
        requests: usize,
    },
    /// A request completed.
    Completion {
        /// Request id.
        req: u64,
        /// Serving GPU.
        gpu: GpuId,
        /// Invocation sequence number.
        batch: u64,
        /// Model served.
        model: ModelId,
        /// End-to-end latency (completion − arrival).
        latency: SimDuration,
    },
    /// A resident model was evicted from a GPU.
    Eviction {
        /// GPU evicting.
        gpu: GpuId,
        /// Model evicted.
        model: ModelId,
    },
    /// A GPU crashed mid-invocation; device state was wiped.
    Crash {
        /// Crashed GPU.
        gpu: GpuId,
        /// Model that was in flight.
        model: ModelId,
        /// Requests pushed back to the global queue.
        requeued: usize,
        /// The GPU's resident models after the loss, coldest first.
        resident: &'a [ModelId],
    },
    /// A request went back to the global queue after a crash.
    Requeued {
        /// Request id.
        req: u64,
    },
    /// The autoscaler provisioned a GPU.
    ScaleUp {
        /// Newly online GPU.
        gpu: GpuId,
    },
    /// The autoscaler began draining a GPU toward scale-down.
    DrainStart {
        /// Draining GPU.
        gpu: GpuId,
    },
    /// A drained GPU went offline.
    Offline {
        /// Deprovisioned GPU.
        gpu: GpuId,
        /// Its resident models, coldest first (none once drained).
        resident: &'a [ModelId],
    },
    /// A GPU became (or started) idle and schedulable.
    UnitIdle {
        /// Idle GPU.
        gpu: GpuId,
    },
    /// The number of replicas of the hottest model changed.
    HotReplicas {
        /// Resident replica count of the hot model.
        replicas: usize,
    },
    /// Cadence sampling tick with a cluster-wide snapshot.
    Sample {
        /// The snapshot; borrowed, so recorders must copy what they keep.
        view: SampleView<'a>,
    },
}

/// Consumer of the cluster's lifecycle event stream.
///
/// Implementations must be cheap: `record` runs inline in the event
/// loop. Recorders that want periodic [`ObsEvent::Sample`] snapshots
/// return a cadence from [`Recorder::sample_cadence`].
pub trait Recorder: fmt::Debug + Send {
    /// Observe one event at simulation time `t`.
    fn record(&mut self, t: SimTime, ev: &ObsEvent<'_>);

    /// Cadence at which the cluster should emit [`ObsEvent::Sample`]
    /// snapshots, or `None` if this recorder does not need them.
    fn sample_cadence(&self) -> Option<SimDuration> {
        None
    }

    /// Called once after the last event, with the run's end time.
    fn finish(&mut self, end: SimTime) {
        let _ = end;
    }
}

/// A recorder that drops every event.
///
/// Useful as an explicit stand-in in tests; the cluster's genuinely
/// zero-cost path is holding no recorder at all (`None`), which skips
/// event construction entirely.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    #[inline]
    fn record(&mut self, _t: SimTime, _ev: &ObsEvent<'_>) {}
}

/// Fans one event stream out to several recorders in order.
#[derive(Debug, Default)]
pub struct MultiRecorder {
    inner: Vec<Box<dyn Recorder>>,
}

impl MultiRecorder {
    /// An empty fan-out.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a child recorder.
    pub fn push(&mut self, r: Box<dyn Recorder>) {
        self.inner.push(r);
    }

    /// Number of child recorders.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether there are no children.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Consume into the single child if exactly one, else keep as fan-out.
    pub fn into_recorder(mut self) -> Option<Box<dyn Recorder>> {
        match self.inner.len() {
            0 => None,
            1 => self.inner.pop(),
            _ => Some(Box::new(self)),
        }
    }
}

impl Recorder for MultiRecorder {
    fn record(&mut self, t: SimTime, ev: &ObsEvent<'_>) {
        for r in &mut self.inner {
            r.record(t, ev);
        }
    }

    fn sample_cadence(&self) -> Option<SimDuration> {
        self.inner.iter().filter_map(|r| r.sample_cadence()).min()
    }

    fn finish(&mut self, end: SimTime) {
        for r in &mut self.inner {
            r.finish(end);
        }
    }
}

/// Parse error for a [`RecordSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordSpecError(String);

impl fmt::Display for RecordSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad record spec: {}", self.0)
    }
}

impl std::error::Error for RecordSpecError {}

/// Which recorders a run should attach — the `--record` CLI axis.
///
/// Textual form is a comma-separated token list, each token split at its
/// first `=` by [`gfaas_sim::spec::token`]:
/// `ledger`, `perfetto`, `sample` (default 60 s cadence) or
/// `sample=SECS`, `slo=SECS` (mark SLO misses in the ledger), and
/// `all` (every recorder at defaults). `off` / empty means disabled.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RecordSpec {
    /// Attach the per-request lifecycle ledger.
    pub ledger: bool,
    /// Attach the Perfetto trace-event exporter.
    pub perfetto: bool,
    /// Attach the time-series sampler at this cadence (seconds).
    pub sample_secs: Option<f64>,
    /// Latency SLO (seconds): the attached ledger flags each completion
    /// slower than this (`slo_miss`).
    pub slo_secs: Option<f64>,
}

impl RecordSpec {
    /// Default sampling cadence when `sample` is given without a value.
    pub const DEFAULT_SAMPLE_SECS: f64 = 60.0;

    /// A spec with every recorder enabled at default settings.
    pub fn all() -> Self {
        Self {
            ledger: true,
            perfetto: true,
            sample_secs: Some(Self::DEFAULT_SAMPLE_SECS),
            slo_secs: None,
        }
    }

    /// Whether no recorder is requested.
    pub fn is_off(&self) -> bool {
        !self.ledger && !self.perfetto && self.sample_secs.is_none()
    }
}

impl FromStr for RecordSpec {
    type Err = RecordSpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut spec = RecordSpec::default();
        let s = s.trim();
        if s.is_empty() || s == "off" || s == "none" {
            return Ok(spec);
        }
        for (key, val) in s.split(',').map(|t| token(t.trim())) {
            match val {
                None => match key {
                    "ledger" => spec.ledger = true,
                    "perfetto" | "trace" => spec.perfetto = true,
                    "sample" => spec.sample_secs = Some(Self::DEFAULT_SAMPLE_SECS),
                    "all" => {
                        spec.ledger = true;
                        spec.perfetto = true;
                        spec.sample_secs.get_or_insert(Self::DEFAULT_SAMPLE_SECS);
                    }
                    other => {
                        return Err(RecordSpecError(format!(
                            "unknown token '{other}' (expected ledger|perfetto|sample[=secs]|slo=secs|all|off)"
                        )))
                    }
                },
                Some(val) => {
                    let secs: f64 = val.parse().map_err(|_| {
                        RecordSpecError(format!("'{key}={val}': value must be a number of seconds"))
                    })?;
                    if !secs.is_finite() || secs <= 0.0 {
                        return Err(RecordSpecError(format!(
                            "'{key}={val}': seconds must be finite and positive"
                        )));
                    }
                    match key {
                        "sample" => spec.sample_secs = Some(secs),
                        "slo" => spec.slo_secs = Some(secs),
                        other => {
                            return Err(RecordSpecError(format!(
                                "unknown token '{other}={val}' (expected sample=secs or slo=secs)"
                            )))
                        }
                    }
                }
            }
        }
        Ok(spec)
    }
}

impl fmt::Display for RecordSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_off() && self.slo_secs.is_none() {
            return f.write_str("off");
        }
        let mut sep = "";
        if self.ledger {
            write!(f, "{sep}ledger")?;
            sep = ",";
        }
        if self.perfetto {
            write!(f, "{sep}perfetto")?;
            sep = ",";
        }
        if let Some(secs) = self.sample_secs {
            write!(f, "{sep}sample={secs}")?;
            sep = ",";
        }
        if let Some(secs) = self.slo_secs {
            write!(f, "{sep}slo={secs}")?;
        }
        Ok(())
    }
}

/// Always-on cheap phase counters for the cluster's own event loop.
///
/// The cluster increments these unconditionally (plain integer adds, no
/// recorder required) and exposes them after a run through
/// `Cluster::self_profile`; the benchmark reads its per-request work
/// counters from them.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SelfProfile {
    /// Requests pulled from the arrival cursor.
    pub arrivals: u64,
    /// Events popped off the event heap.
    pub events_popped: u64,
    /// Schedule passes entered (post gating).
    pub schedule_passes: u64,
    /// Inner placement rounds across all schedule passes.
    pub pass_rounds: u64,
    /// Invocations launched (batches dispatched to a GPU).
    pub dispatches: u64,
    /// Wait-estimator evaluations.
    pub estimator_calls: u64,
    /// Batches parked to gather joiners.
    pub holds_parked: u64,
    /// Peak event-heap occupancy.
    pub heap_peak: usize,
}

impl fmt::Display for SelfProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "arrivals={} events={} passes={} rounds={} dispatches={} est_calls={} holds={} heap_peak={}",
            self.arrivals,
            self.events_popped,
            self.schedule_passes,
            self.pass_rounds,
            self.dispatches,
            self.estimator_calls,
            self.holds_parked,
            self.heap_peak
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_spec_parses_tokens() {
        let spec: RecordSpec = "ledger,perfetto,sample=30,slo=0.25".parse().unwrap();
        assert!(spec.ledger);
        assert!(spec.perfetto);
        assert_eq!(spec.sample_secs, Some(30.0));
        assert_eq!(spec.slo_secs, Some(0.25));

        let all: RecordSpec = "all".parse().unwrap();
        assert!(all.ledger && all.perfetto);
        assert_eq!(all.sample_secs, Some(RecordSpec::DEFAULT_SAMPLE_SECS));

        let off: RecordSpec = "off".parse().unwrap();
        assert!(off.is_off());
        assert_eq!("".parse::<RecordSpec>().unwrap(), RecordSpec::default());

        let bare_sample: RecordSpec = "sample".parse().unwrap();
        assert_eq!(bare_sample.sample_secs, Some(60.0));
    }

    #[test]
    fn record_spec_rejects_garbage() {
        assert!("bogus".parse::<RecordSpec>().is_err());
        assert!("sample=abc".parse::<RecordSpec>().is_err());
        assert!("sample=-5".parse::<RecordSpec>().is_err());
        assert!("slo=0".parse::<RecordSpec>().is_err());
        assert!("frobnicate=1".parse::<RecordSpec>().is_err());
    }

    #[test]
    fn record_spec_errors_print_exactly() {
        let error = |s: &str| s.parse::<RecordSpec>().unwrap_err().to_string();
        for (s, tok) in [("bogus", "bogus"), ("ledger, x ", "x")] {
            let want = "(expected ledger|perfetto|sample[=secs]|slo=secs|all|off)";
            assert_eq!(
                error(s),
                format!("bad record spec: unknown token '{tok}' {want}")
            );
        }
        for s in ["frobnicate=1", "=1"] {
            let want = "(expected sample=secs or slo=secs)";
            assert_eq!(
                error(s),
                format!("bad record spec: unknown token '{s}' {want}")
            );
        }
        for s in ["sample=abc", "sample=1=2"] {
            let want = "value must be a number of seconds";
            assert_eq!(error(s), format!("bad record spec: '{s}': {want}"));
        }
        for s in ["sample=-5", "slo=0", "slo=1e400"] {
            let want = "seconds must be finite and positive";
            assert_eq!(error(s), format!("bad record spec: '{s}': {want}"));
        }
    }

    #[test]
    fn record_spec_display_round_trips() {
        for text in [
            "off",
            "ledger",
            "perfetto,sample=30",
            "ledger,perfetto,sample=60,slo=0.5",
        ] {
            let spec: RecordSpec = text.parse().unwrap();
            let again: RecordSpec = spec.to_string().parse().unwrap();
            assert_eq!(spec, again, "round-trip failed for {text}");
        }
    }

    #[test]
    fn multi_recorder_cadence_is_min_of_children() {
        #[derive(Debug)]
        struct Fixed(Option<SimDuration>);
        impl Recorder for Fixed {
            fn record(&mut self, _t: SimTime, _ev: &ObsEvent<'_>) {}
            fn sample_cadence(&self) -> Option<SimDuration> {
                self.0
            }
        }
        let mut m = MultiRecorder::new();
        m.push(Box::new(Fixed(None)));
        m.push(Box::new(Fixed(Some(SimDuration::from_secs(60)))));
        m.push(Box::new(Fixed(Some(SimDuration::from_secs(15)))));
        assert_eq!(m.sample_cadence(), Some(SimDuration::from_secs(15)));
    }

    #[test]
    fn arm_labels_are_stable() {
        let labels: Vec<&str> = Arm::ALL.iter().map(|a| a.as_str()).collect();
        assert_eq!(
            labels,
            ["hit_local", "hit_remote", "wait_busy", "miss", "rider"]
        );
    }
}
