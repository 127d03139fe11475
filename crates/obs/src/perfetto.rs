//! Chrome trace-event JSON exporter (openable in `ui.perfetto.dev`).
//!
//! Each GPU gets two tracks: an **execution** track with
//! `hold`/`load`/`infer` duration slices (begin/end `B`/`E` events)
//! and eviction instants, and an **occupancy** track with
//! `idle`/`draining` slices. Cluster-wide counter tracks (`C` events)
//! carry queue depth, hot-model replica count, and provisioned GPUs.
//! Timestamps are simulation microseconds, which is exactly the
//! trace-event `ts` unit.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use gfaas_sim::time::SimTime;

use crate::json::{self, Value};
use crate::{ObsEvent, Recorder};

/// One raw trace event, kept compact until serialization.
#[derive(Debug, Clone)]
struct TraceEvent {
    ph: char,
    ts: u64,
    tid: u64,
    name: &'static str,
    /// Small numeric payload: model id for slices, value for counters.
    arg: Option<f64>,
}

const COUNTER_QUEUE: &str = "queue_depth";
const COUNTER_HOT: &str = "hot_replicas";
const COUNTER_PROVISIONED: &str = "provisioned_gpus";

/// Execution-track thread id for a GPU.
fn exec_tid(gpu: u16) -> u64 {
    2 * gpu as u64
}

/// Occupancy-track thread id for a GPU.
fn state_tid(gpu: u16) -> u64 {
    2 * gpu as u64 + 1
}

#[derive(Debug, Default)]
struct TraceBuilder {
    events: Vec<TraceEvent>,
    /// Open execution-slice name per GPU (exec track), if any.
    open_exec: Vec<Option<&'static str>>,
    /// Open occupancy-slice name per GPU (state track), if any.
    open_state: Vec<Option<&'static str>>,
    provisioned: i64,
    last_ts: u64,
}

impl TraceBuilder {
    fn ensure_gpu(&mut self, gpu: u16) {
        let idx = gpu as usize;
        if idx >= self.open_exec.len() {
            self.open_exec.resize(idx + 1, None);
            self.open_state.resize(idx + 1, None);
        }
    }

    fn push(&mut self, ph: char, ts: u64, tid: u64, name: &'static str, arg: Option<f64>) {
        debug_assert!(ts >= self.last_ts, "trace timestamps must be monotonic");
        self.last_ts = ts;
        self.events.push(TraceEvent {
            ph,
            ts,
            tid,
            name,
            arg,
        });
    }

    fn begin_exec(&mut self, t: SimTime, gpu: u16, name: &'static str, model: Option<u32>) {
        self.ensure_gpu(gpu);
        self.end_exec(t, gpu);
        self.open_exec[gpu as usize] = Some(name);
        self.push(
            'B',
            t.as_micros(),
            exec_tid(gpu),
            name,
            model.map(f64::from),
        );
    }

    fn end_exec(&mut self, t: SimTime, gpu: u16) {
        self.ensure_gpu(gpu);
        if let Some(name) = self.open_exec[gpu as usize].take() {
            self.push('E', t.as_micros(), exec_tid(gpu), name, None);
        }
    }

    fn begin_state(&mut self, t: SimTime, gpu: u16, name: &'static str) {
        self.ensure_gpu(gpu);
        if self.open_state[gpu as usize] == Some(name) {
            return;
        }
        self.end_state(t, gpu);
        self.open_state[gpu as usize] = Some(name);
        self.push('B', t.as_micros(), state_tid(gpu), name, None);
    }

    fn end_state(&mut self, t: SimTime, gpu: u16) {
        self.ensure_gpu(gpu);
        if let Some(name) = self.open_state[gpu as usize].take() {
            self.push('E', t.as_micros(), state_tid(gpu), name, None);
        }
    }

    fn counter(&mut self, t: SimTime, name: &'static str, value: f64) {
        self.push('C', t.as_micros(), 0, name, Some(value));
    }

    fn observe(&mut self, t: SimTime, ev: &ObsEvent<'_>) {
        match *ev {
            ObsEvent::RunStart { online_gpus, .. } => {
                self.provisioned = online_gpus as i64;
                self.counter(t, COUNTER_QUEUE, 0.0);
                self.counter(t, COUNTER_PROVISIONED, self.provisioned as f64);
            }
            ObsEvent::Arrival { queue_len, .. } => {
                self.counter(t, COUNTER_QUEUE, queue_len as f64);
            }
            ObsEvent::QueueDepth { len } => {
                self.counter(t, COUNTER_QUEUE, len as f64);
            }
            ObsEvent::HotReplicas { replicas } => {
                self.counter(t, COUNTER_HOT, replicas as f64);
            }
            ObsEvent::Join { gpu, .. } => {
                // The GPU is gathering/serving work: it is no longer idle.
                self.ensure_gpu(gpu.0);
                if self.open_state[gpu.0 as usize] == Some("idle") {
                    self.end_state(t, gpu.0);
                }
            }
            ObsEvent::HoldStart { gpu, model, .. } => {
                self.begin_exec(t, gpu.0, "hold", Some(model.0));
            }
            ObsEvent::LoadStart { gpu, model, .. } => {
                self.begin_exec(t, gpu.0, "load", Some(model.0));
            }
            ObsEvent::LoadComplete { gpu, .. } => {
                self.end_exec(t, gpu.0);
            }
            ObsEvent::InferStart { gpu, model, .. } => {
                self.begin_exec(t, gpu.0, "infer", Some(model.0));
            }
            ObsEvent::InvocationDone { gpu, .. } => {
                self.end_exec(t, gpu.0);
            }
            ObsEvent::Eviction { gpu, model } => {
                self.ensure_gpu(gpu.0);
                self.push(
                    'i',
                    t.as_micros(),
                    exec_tid(gpu.0),
                    "evict",
                    Some(f64::from(model.0)),
                );
            }
            ObsEvent::Crash { gpu, .. } => {
                self.ensure_gpu(gpu.0);
                self.end_exec(t, gpu.0);
                self.push('i', t.as_micros(), exec_tid(gpu.0), "crash", None);
            }
            ObsEvent::UnitIdle { gpu } => {
                self.begin_state(t, gpu.0, "idle");
            }
            ObsEvent::ScaleUp { gpu } => {
                self.ensure_gpu(gpu.0);
                self.provisioned += 1;
                self.counter(t, COUNTER_PROVISIONED, self.provisioned as f64);
            }
            ObsEvent::DrainStart { gpu } => {
                self.begin_state(t, gpu.0, "draining");
            }
            ObsEvent::Offline { gpu, .. } => {
                self.end_state(t, gpu.0);
                self.provisioned -= 1;
                self.counter(t, COUNTER_PROVISIONED, self.provisioned as f64);
            }
            _ => {}
        }
    }

    fn finish(&mut self, end: SimTime) {
        for gpu in 0..self.open_exec.len() as u16 {
            self.end_exec(end, gpu);
            self.end_state(end, gpu);
        }
        self.counter(end, COUNTER_PROVISIONED, self.provisioned as f64);
    }

    fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.events.len() * 80);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        // Thread-name metadata first, so tracks are labelled even for
        // traces truncated by hand.
        for gpu in 0..self.open_exec.len() {
            for (tid, label) in [
                (exec_tid(gpu as u16), format!("GPU {gpu} exec")),
                (state_tid(gpu as u16), format!("GPU {gpu} occupancy")),
            ] {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{tid},\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    json::escape(&label)
                );
            }
        }
        for ev in &self.events {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"ph\":\"{}\",\"ts\":{},\"pid\":1,\"tid\":{},\"name\":\"{}\"",
                ev.ph,
                ev.ts,
                ev.tid,
                json::escape(ev.name)
            );
            match (ev.ph, ev.arg) {
                ('C', Some(v)) => {
                    let _ = write!(out, ",\"args\":{{\"value\":{v}}}");
                }
                ('i', _) => {
                    out.push_str(",\"s\":\"t\"");
                    if let Some(v) = ev.arg {
                        let _ = write!(out, ",\"args\":{{\"model\":{v}}}");
                    }
                }
                (_, Some(v)) => {
                    let _ = write!(out, ",\"args\":{{\"model\":{v}}}");
                }
                _ => {}
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Shared handle for extracting the trace after a run.
#[derive(Debug, Clone)]
pub struct PerfettoHandle(Arc<Mutex<TraceBuilder>>);

impl PerfettoHandle {
    /// Serialize the trace collected so far to Chrome trace-event JSON.
    pub fn to_json(&self) -> String {
        self.0.lock().expect("trace lock poisoned").to_json()
    }

    /// Number of raw events collected (excluding metadata).
    pub fn event_count(&self) -> usize {
        self.0.lock().expect("trace lock poisoned").events.len()
    }
}

/// [`Recorder`] that builds a Chrome trace-event JSON document.
#[derive(Debug)]
pub struct PerfettoRecorder {
    trace: Arc<Mutex<TraceBuilder>>,
}

impl PerfettoRecorder {
    /// Create a recorder/handle pair.
    pub fn new() -> (Self, PerfettoHandle) {
        let trace = Arc::new(Mutex::new(TraceBuilder::default()));
        (
            PerfettoRecorder {
                trace: Arc::clone(&trace),
            },
            PerfettoHandle(trace),
        )
    }
}

impl Recorder for PerfettoRecorder {
    fn record(&mut self, t: SimTime, ev: &ObsEvent<'_>) {
        self.trace
            .lock()
            .expect("trace lock poisoned")
            .observe(t, ev);
    }

    fn finish(&mut self, end: SimTime) {
        self.trace.lock().expect("trace lock poisoned").finish(end);
    }
}

/// Summary statistics from a validated trace document.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total events in `traceEvents` (including metadata).
    pub events: usize,
    /// `B` (slice begin) events.
    pub begins: usize,
    /// `E` (slice end) events.
    pub ends: usize,
    /// `C` (counter) events.
    pub counters: usize,
    /// Distinct non-counter thread ids (tracks).
    pub tracks: usize,
}

/// Validate a Chrome trace-event JSON document.
///
/// Checks that the document parses as JSON, has a `traceEvents` array,
/// every event carries `ph`/`ts`/`tid`/`name`, timestamps are
/// monotonically non-decreasing in emission order, and every `B` is
/// balanced by an `E` on the same thread (with matching names at each
/// nesting level).
pub fn validate_chrome_trace(text: &str) -> Result<TraceCheck, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut check = TraceCheck {
        events: events.len(),
        ..TraceCheck::default()
    };
    let mut last_ts = f64::NEG_INFINITY;
    let mut stacks: Vec<(f64, Vec<String>)> = Vec::new(); // (tid, open slice names)
    let mut tracks: Vec<f64> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let name = ev
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        if ph == "M" {
            continue;
        }
        let ts = ev
            .get("ts")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        let tid = ev
            .get("tid")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        if ts < last_ts {
            return Err(format!(
                "event {i}: timestamp {ts} precedes previous {last_ts}"
            ));
        }
        last_ts = ts;
        match ph {
            "B" => {
                check.begins += 1;
                if !tracks.contains(&tid) {
                    tracks.push(tid);
                }
                match stacks.iter_mut().find(|(t, _)| *t == tid) {
                    Some((_, stack)) => stack.push(name.to_string()),
                    None => stacks.push((tid, vec![name.to_string()])),
                }
            }
            "E" => {
                check.ends += 1;
                let stack = stacks
                    .iter_mut()
                    .find(|(t, _)| *t == tid)
                    .map(|(_, s)| s)
                    .ok_or_else(|| format!("event {i}: E with no open slice on tid {tid}"))?;
                let open = stack
                    .pop()
                    .ok_or_else(|| format!("event {i}: E with no open slice on tid {tid}"))?;
                if open != name {
                    return Err(format!(
                        "event {i}: E '{name}' does not match open slice '{open}' on tid {tid}"
                    ));
                }
            }
            "C" => check.counters += 1,
            "i" | "I" => {
                if !tracks.contains(&tid) {
                    tracks.push(tid);
                }
            }
            other => return Err(format!("event {i}: unexpected ph '{other}'")),
        }
    }
    for (tid, stack) in &stacks {
        if !stack.is_empty() {
            return Err(format!(
                "unbalanced trace: {} slice(s) left open on tid {tid}: {stack:?}",
                stack.len()
            ));
        }
    }
    check.tracks = tracks.len();
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfaas_gpu::{GpuId, ModelId};

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn synthetic_run_produces_valid_balanced_trace() {
        let (mut rec, handle) = PerfettoRecorder::new();
        let g = GpuId(0);
        let m = ModelId(4);
        rec.record(
            t(0),
            &ObsEvent::RunStart {
                online_gpus: 1,
                total_gpus: 2,
            },
        );
        rec.record(t(0), &ObsEvent::UnitIdle { gpu: g });
        rec.record(
            t(10),
            &ObsEvent::Arrival {
                req: 0,
                model: m,
                queue_len: 1,
            },
        );
        rec.record(t(10), &ObsEvent::Join { req: 0, gpu: g });
        rec.record(
            t(10),
            &ObsEvent::LoadStart {
                gpu: g,
                model: m,
                batch: 1,
                tier: gfaas_gpu::Tier::ORIGIN,
                resident: &[m],
            },
        );
        rec.record(
            t(500),
            &ObsEvent::LoadComplete {
                gpu: g,
                model: m,
                tier: gfaas_gpu::Tier::ORIGIN,
            },
        );
        rec.record(
            t(500),
            &ObsEvent::InferStart {
                gpu: g,
                model: m,
                batch: 1,
                requests: 1,
                items: 1,
            },
        );
        rec.record(
            t(900),
            &ObsEvent::InvocationDone {
                gpu: g,
                batch: 1,
                requests: 1,
            },
        );
        rec.record(t(900), &ObsEvent::UnitIdle { gpu: g });
        rec.record(t(1000), &ObsEvent::ScaleUp { gpu: GpuId(1) });
        rec.record(t(1000), &ObsEvent::UnitIdle { gpu: GpuId(1) });
        rec.record(t(2000), &ObsEvent::DrainStart { gpu: GpuId(1) });
        rec.record(
            t(2500),
            &ObsEvent::Offline {
                gpu: GpuId(1),
                resident: &[],
            },
        );
        rec.record(
            t(2500),
            &ObsEvent::Eviction {
                gpu: GpuId(1),
                model: m,
            },
        );
        rec.finish(t(3000));

        let json_text = handle.to_json();
        let check = validate_chrome_trace(&json_text).expect("trace should validate");
        assert_eq!(check.begins, check.ends);
        assert!(
            check.begins >= 4,
            "expected load/infer/idle slices, got {check:?}"
        );
        assert!(check.counters >= 4);
        assert!(check.tracks >= 3);
    }

    #[test]
    fn validator_rejects_unbalanced_and_nonmonotonic() {
        let unbalanced = r#"{"traceEvents":[
            {"ph":"B","ts":1,"pid":1,"tid":0,"name":"x"}
        ]}"#;
        assert!(validate_chrome_trace(unbalanced).is_err());

        let nonmono = r#"{"traceEvents":[
            {"ph":"C","ts":10,"pid":1,"tid":0,"name":"q","args":{"value":1}},
            {"ph":"C","ts":5,"pid":1,"tid":0,"name":"q","args":{"value":2}}
        ]}"#;
        assert!(validate_chrome_trace(nonmono).is_err());

        let mismatch = r#"{"traceEvents":[
            {"ph":"B","ts":1,"pid":1,"tid":0,"name":"a"},
            {"ph":"E","ts":2,"pid":1,"tid":0,"name":"b"}
        ]}"#;
        assert!(validate_chrome_trace(mismatch).is_err());

        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"foo\":1}").is_err());
    }

    #[test]
    fn crash_closes_open_slice() {
        let (mut rec, handle) = PerfettoRecorder::new();
        let g = GpuId(0);
        let m = ModelId(0);
        rec.record(
            t(0),
            &ObsEvent::RunStart {
                online_gpus: 1,
                total_gpus: 1,
            },
        );
        rec.record(
            t(5),
            &ObsEvent::InferStart {
                gpu: g,
                model: m,
                batch: 1,
                requests: 1,
                items: 1,
            },
        );
        rec.record(
            t(50),
            &ObsEvent::Crash {
                gpu: g,
                model: m,
                requeued: 1,
                resident: &[],
            },
        );
        rec.finish(t(100));
        let check = validate_chrome_trace(&handle.to_json()).expect("valid");
        assert_eq!(check.begins, check.ends);
    }
}
