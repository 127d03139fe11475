//! The simulated GPU device: a checked state machine over memory, PCIe, and
//! SM accounting.
//!
//! A device executes **one request at a time** (the paper's GPU Manager rule,
//! §III-C): it is either idle, uploading a model (cache miss path), or
//! running an inference. All transitions take explicit timestamps from the
//! discrete-event driver and are validated, so scheduler bugs surface as
//! [`GpuError`]s instead of silently corrupt metrics.

use gfaas_sim::time::{SimDuration, SimTime};

use crate::memory::{MemoryPool, OomError};
use crate::pcie::PcieModel;
use crate::process::{GpuProcess, ProcId, ProcState};
use crate::sm::SmTracker;
use crate::{GpuId, ModelId, MIB};

/// Static description of one GPU.
///
/// The scale factors support the paper's §VI heterogeneous-GPU extension:
/// the profiling procedure runs once per GPU *type*, and the scheduler uses
/// per-type load/inference times. A type's times are its reference
/// (RTX 2080) times multiplied by these factors.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, for reports.
    pub name: String,
    /// Device memory capacity in bytes.
    pub memory_bytes: u64,
    /// Number of streaming multiprocessors (informational).
    pub sm_count: u32,
    /// Host→device transfer model.
    pub pcie: PcieModel,
    /// Inference-time multiplier vs the RTX 2080 profile (lower = faster).
    pub compute_scale: f64,
    /// Model-load-time multiplier vs the RTX 2080 profile.
    pub load_scale: f64,
}

impl GpuSpec {
    /// The paper's testbed GPU: GeForce RTX 2080 (8 GiB, 46 SMs) behind the
    /// Table I-calibrated PCIe model.
    pub fn rtx2080() -> Self {
        GpuSpec {
            name: "GeForce RTX 2080".to_string(),
            memory_bytes: 8 * 1024 * MIB,
            sm_count: 46,
            pcie: PcieModel::table1(),
            compute_scale: 1.0,
            load_scale: 1.0,
        }
    }

    /// A hypothetical faster/bigger GPU for the §VI heterogeneity
    /// experiments: 11 GiB, ~35% faster inference, slightly faster loads
    /// (RTX 2080 Ti-class).
    pub fn rtx2080ti() -> Self {
        GpuSpec {
            name: "GeForce RTX 2080 Ti".to_string(),
            memory_bytes: 11 * 1024 * MIB,
            sm_count: 68,
            pcie: PcieModel::table1(),
            compute_scale: 0.74,
            load_scale: 0.9,
        }
    }

    /// A small test GPU with the given capacity in MiB and instant PCIe.
    pub fn test(mem_mib: u64) -> Self {
        GpuSpec {
            name: format!("test-gpu-{mem_mib}MiB"),
            memory_bytes: mem_mib * MIB,
            sm_count: 1,
            pcie: PcieModel::pcie3_x16(),
            compute_scale: 1.0,
            load_scale: 1.0,
        }
    }

    /// Returns a copy with the given scale factors (heterogeneity tests).
    pub fn with_scales(mut self, compute_scale: f64, load_scale: f64) -> Self {
        assert!(
            compute_scale > 0.0 && load_scale > 0.0,
            "scales must be positive"
        );
        self.compute_scale = compute_scale;
        self.load_scale = load_scale;
        self
    }
}

/// What the device is doing right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceState {
    /// No request in flight.
    Idle,
    /// Uploading `model`; finishes at `until`.
    Loading {
        /// Model being uploaded.
        model: ModelId,
        /// Upload completion time.
        until: SimTime,
    },
    /// Running an inference on `model`; finishes at `until`.
    Running {
        /// Model executing.
        model: ModelId,
        /// Inference completion time.
        until: SimTime,
    },
}

/// Errors raised by illegal device operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpuError {
    /// Operation requires an idle device.
    Busy(DeviceState),
    /// The model has no resident process.
    NotResident(ModelId),
    /// A process for this model already exists.
    AlreadyResident(ModelId),
    /// Device memory exhausted; the caller must evict first.
    Oom(OomError),
    /// The resident process is not in the state the operation needs.
    ProcessBusy(ModelId),
    /// A completion arrived that does not match in-flight work.
    BadCompletion(&'static str),
}

impl std::fmt::Display for GpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpuError::Busy(s) => write!(f, "device busy: {s:?}"),
            GpuError::NotResident(m) => write!(f, "{m} is not resident"),
            GpuError::AlreadyResident(m) => write!(f, "{m} is already resident"),
            GpuError::Oom(e) => write!(f, "{e}"),
            GpuError::ProcessBusy(m) => write!(f, "process for {m} is busy"),
            GpuError::BadCompletion(what) => write!(f, "mismatched completion: {what}"),
        }
    }
}

impl std::error::Error for GpuError {}

impl From<OomError> for GpuError {
    fn from(e: OomError) -> Self {
        GpuError::Oom(e)
    }
}

/// One simulated GPU.
#[derive(Debug, Clone)]
pub struct GpuDevice {
    id: GpuId,
    spec: GpuSpec,
    mem: MemoryPool,
    sm: SmTracker,
    /// Resident processes, sorted by model id. Residency is bounded by
    /// device memory (a handful of models), so a flat sorted array with
    /// binary search beats a tree map on every hot lookup while keeping
    /// the same stable iteration order.
    procs: Vec<(ModelId, GpuProcess)>,
    state: DeviceState,
    next_pid: u64,
    loads_started: u64,
    evictions: u64,
    inferences_completed: u64,
}

impl GpuDevice {
    /// Creates an idle, empty device.
    pub fn new(id: GpuId, spec: GpuSpec) -> Self {
        let mem = MemoryPool::new(spec.memory_bytes);
        GpuDevice {
            id,
            spec,
            mem,
            sm: SmTracker::new(),
            procs: Vec::new(),
            state: DeviceState::Idle,
            next_pid: 0,
            loads_started: 0,
            evictions: 0,
            inferences_completed: 0,
        }
    }

    /// This device's id.
    pub fn id(&self) -> GpuId {
        self.id
    }

    /// The static spec.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Current state.
    pub fn state(&self) -> DeviceState {
        self.state
    }

    /// True iff no request is in flight.
    pub fn is_idle(&self) -> bool {
        matches!(self.state, DeviceState::Idle)
    }

    /// When in-flight work completes; `None` when idle.
    pub fn busy_until(&self) -> Option<SimTime> {
        match self.state {
            DeviceState::Idle => None,
            DeviceState::Loading { until, .. } | DeviceState::Running { until, .. } => Some(until),
        }
    }

    /// Position of `model` in the sorted process array.
    fn proc_idx(&self, model: ModelId) -> Result<usize, usize> {
        self.procs.binary_search_by_key(&model, |&(m, _)| m)
    }

    /// Models with a resident process, in stable (id) order.
    pub fn resident_models(&self) -> impl Iterator<Item = ModelId> + '_ {
        self.procs.iter().map(|&(m, _)| m)
    }

    /// Number of resident models.
    pub fn resident_count(&self) -> usize {
        self.procs.len()
    }

    /// True iff the model has a resident process (loading counts: the memory
    /// is already claimed and the cache manager treats it as present).
    pub fn has_model(&self, model: ModelId) -> bool {
        self.proc_idx(model).is_ok()
    }

    /// The resident process for a model, if any.
    pub fn process(&self, model: ModelId) -> Option<&GpuProcess> {
        self.proc_idx(model).ok().map(|i| &self.procs[i].1)
    }

    /// Free device memory in bytes.
    pub fn free_bytes(&self) -> u64 {
        self.mem.free()
    }

    /// Used device memory in bytes.
    pub fn used_bytes(&self) -> u64 {
        self.mem.used()
    }

    /// Memory-pool utilisation in `[0, 1]`.
    pub fn memory_utilization(&self) -> f64 {
        self.mem.utilization()
    }

    /// The time the PCIe link needs to upload `bytes` (used when no
    /// profiled load time is available).
    pub fn load_time(&self, bytes: u64) -> SimDuration {
        self.spec.pcie.transfer_time(bytes)
    }

    /// Starts uploading `model` (`bytes` of weights) at time `t`, taking
    /// `load_time` for the transfer. The scheduler passes the *profiled*
    /// per-model load time (paper §IV-A); [`GpuDevice::start_load`] is the
    /// convenience variant that derives it from the PCIe model instead.
    ///
    /// Requires an idle device, a non-resident model, and enough free
    /// memory — the cache manager must have evicted victims already.
    /// Returns the new process id and the upload completion time, which the
    /// caller must deliver back via [`GpuDevice::complete_load`].
    pub fn start_load_timed(
        &mut self,
        t: SimTime,
        model: ModelId,
        bytes: u64,
        load_time: SimDuration,
    ) -> Result<(ProcId, SimTime), GpuError> {
        if !self.is_idle() {
            return Err(GpuError::Busy(self.state));
        }
        if self.has_model(model) {
            return Err(GpuError::AlreadyResident(model));
        }
        let alloc = self.mem.try_alloc(bytes)?;
        let ready_at = t + load_time;
        let pid = ProcId(self.next_pid);
        self.next_pid += 1;
        let pos = self.proc_idx(model).unwrap_err();
        self.procs.insert(
            pos,
            (model, GpuProcess::spawn(pid, model, alloc, t, ready_at)),
        );
        self.state = DeviceState::Loading {
            model,
            until: ready_at,
        };
        self.loads_started += 1;
        Ok((pid, ready_at))
    }

    /// [`GpuDevice::start_load_timed`] with the load time derived from the
    /// device's PCIe transfer model.
    pub fn start_load(
        &mut self,
        t: SimTime,
        model: ModelId,
        bytes: u64,
    ) -> Result<(ProcId, SimTime), GpuError> {
        let load_time = self.load_time(bytes);
        self.start_load_timed(t, model, bytes, load_time)
    }

    /// Completes the in-flight upload at time `t`; the process becomes ready
    /// and the device idle (typically the driver immediately starts the
    /// inference that triggered the load).
    pub fn complete_load(&mut self, t: SimTime, model: ModelId) -> Result<(), GpuError> {
        match self.state {
            DeviceState::Loading { model: m, until } if m == model => {
                if t < until {
                    return Err(GpuError::BadCompletion("load completion arrived early"));
                }
                let i = self.proc_idx(model).expect("loading proc exists");
                self.procs[i].1.state = ProcState::Ready;
                self.state = DeviceState::Idle;
                Ok(())
            }
            _ => Err(GpuError::BadCompletion("no matching load in flight")),
        }
    }

    /// Starts an inference on a resident, ready model at time `t` with the
    /// given duration. Returns the completion time, which the caller must
    /// deliver back via [`GpuDevice::complete_inference`].
    pub fn start_inference(
        &mut self,
        t: SimTime,
        model: ModelId,
        duration: SimDuration,
    ) -> Result<SimTime, GpuError> {
        if !self.is_idle() {
            return Err(GpuError::Busy(self.state));
        }
        let i = self
            .proc_idx(model)
            .map_err(|_| GpuError::NotResident(model))?;
        let proc = &mut self.procs[i].1;
        if !matches!(proc.state, ProcState::Ready) {
            return Err(GpuError::ProcessBusy(model));
        }
        let done_at = t + duration;
        proc.state = ProcState::Running { until: done_at };
        self.state = DeviceState::Running {
            model,
            until: done_at,
        };
        self.sm.begin(t);
        Ok(done_at)
    }

    /// Completes the in-flight inference at time `t`; the device becomes
    /// idle and the SM busy interval closes.
    pub fn complete_inference(&mut self, t: SimTime, model: ModelId) -> Result<(), GpuError> {
        match self.state {
            DeviceState::Running { model: m, until } if m == model => {
                if t < until {
                    return Err(GpuError::BadCompletion(
                        "inference completion arrived early",
                    ));
                }
                self.sm.end(t);
                let i = self.proc_idx(model).expect("running proc exists");
                let proc = &mut self.procs[i].1;
                proc.state = ProcState::Ready;
                proc.inferences += 1;
                self.state = DeviceState::Idle;
                self.inferences_completed += 1;
                Ok(())
            }
            _ => Err(GpuError::BadCompletion("no matching inference in flight")),
        }
    }

    /// Evicts a resident, *ready* model: kills its process and frees its
    /// memory. Returns the freed byte count. Loading or running processes
    /// cannot be evicted through this path — the scheduler only dispatches
    /// misses to idle devices, so legal evictions always target ready procs.
    pub fn evict(&mut self, model: ModelId) -> Result<u64, GpuError> {
        let i = self
            .proc_idx(model)
            .map_err(|_| GpuError::NotResident(model))?;
        if !self.procs[i].1.is_ready() {
            return Err(GpuError::ProcessBusy(model));
        }
        let (_, proc) = self.procs.remove(i);
        let freed = self
            .mem
            .free_alloc(proc.alloc)
            .expect("process allocation is live");
        self.evictions += 1;
        Ok(freed)
    }

    /// Kills a process regardless of state (failure injection / crash
    /// simulation). If the killed process was the in-flight work, the device
    /// drops to idle; an open SM interval is closed at `t`. Returns the
    /// freed bytes.
    pub fn force_kill(&mut self, t: SimTime, model: ModelId) -> Result<u64, GpuError> {
        let i = self
            .proc_idx(model)
            .map_err(|_| GpuError::NotResident(model))?;
        let (_, proc) = self.procs.remove(i);
        match self.state {
            DeviceState::Loading { model: m, .. } if m == model => {
                self.state = DeviceState::Idle;
            }
            DeviceState::Running { model: m, .. } if m == model => {
                self.sm.end(t);
                self.state = DeviceState::Idle;
            }
            _ => {}
        }
        let freed = self
            .mem
            .free_alloc(proc.alloc)
            .expect("process allocation is live");
        self.evictions += 1;
        Ok(freed)
    }

    /// SM utilisation over `[start, end]` (Fig 4c's metric).
    pub fn sm_utilization(&self, start: SimTime, end: SimTime) -> f64 {
        self.sm.utilization(start, end)
    }

    /// Total uploads started (cache misses served by this device).
    pub fn loads_started(&self) -> u64 {
        self.loads_started
    }

    /// Total processes killed (evictions plus force-kills).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Total inferences completed.
    pub fn inferences_completed(&self) -> u64 {
        self.inferences_completed
    }

    /// Overwrites this device's mutable state with `src`'s, reusing this
    /// device's buffers: the allocation-free copy behind a snapshot
    /// pre-image. The id and the static [`GpuSpec`] are not copied — the
    /// target is always an earlier image of the same device.
    pub fn copy_state_from(&mut self, src: &GpuDevice) {
        debug_assert_eq!(self.id, src.id, "pre-images belong to one device");
        let GpuDevice {
            id: _,
            spec: _,
            mem,
            sm,
            procs,
            state,
            next_pid,
            loads_started,
            evictions,
            inferences_completed,
        } = self;
        mem.clone_from(&src.mem);
        *sm = src.sm;
        procs.clone_from(&src.procs);
        *state = src.state;
        *next_pid = src.next_pid;
        *loads_started = src.loads_started;
        *evictions = src.evictions;
        *inferences_completed = src.inferences_completed;
    }

    /// Checks a decoded state against the invariants every live device
    /// keeps, at virtual time `now`: the memory pool accounts for exactly
    /// the resident processes' allocations; only the in-flight model's
    /// process is busy, in the device's phase and until the device's
    /// completion time (not before `now`); and the SM interval is open
    /// exactly while an inference runs, since at most `now`.
    pub fn check_state(&self, now: SimTime) -> Result<(), gfaas_snap::SnapError> {
        let corrupt = |what| Err(gfaas_snap::SnapError::Corrupt(what));
        let mut owned: Vec<_> = self.procs.iter().map(|(_, p)| p.alloc).collect();
        owned.sort_unstable();
        if !self.mem.accounts_for(&owned) {
            return corrupt("device memory disagrees with its processes");
        }
        let busy = match self.state {
            DeviceState::Idle => None,
            DeviceState::Loading { model, until } => Some((model, ProcState::Loading { until })),
            DeviceState::Running { model, until } => Some((model, ProcState::Running { until })),
        };
        if let Some((m, _)) = busy {
            if !self.has_model(m) || self.busy_until() < Some(now) {
                return corrupt("device busy without a live process");
            }
        }
        for (m, p) in &self.procs {
            let want = busy
                .filter(|&(bm, _)| bm == *m)
                .map_or(ProcState::Ready, |(_, st)| st);
            if p.state != want {
                return corrupt("process state disagrees with the device");
            }
        }
        let running = matches!(self.state, DeviceState::Running { .. });
        let sm_ok = match self.sm.open_since() {
            Some(t) => running && t <= now,
            None => !running,
        };
        if !sm_ok {
            return corrupt("SM interval disagrees with the device");
        }
        Ok(())
    }

    /// Serialises the device's mutable state for a checkpoint image. The
    /// id and spec are configuration — a restore target is built from the
    /// same cluster config (the checkpoint envelope's config digest
    /// guards this) — so only the dynamic state travels.
    pub fn save_state(&self, enc: &mut gfaas_snap::Enc) {
        self.mem.save_state(enc);
        self.sm.save_state(enc);
        enc.put_usize(self.procs.len());
        for (model, p) in &self.procs {
            enc.put_u32(model.0);
            enc.put_u64(p.pid.0);
            enc.put_u64(p.alloc.0);
            match p.state {
                ProcState::Loading { until } => {
                    enc.put_u8(0);
                    enc.put_time(until);
                }
                ProcState::Ready => enc.put_u8(1),
                ProcState::Running { until } => {
                    enc.put_u8(2);
                    enc.put_time(until);
                }
            }
            enc.put_time(p.spawned_at);
            enc.put_u64(p.inferences);
        }
        match self.state {
            DeviceState::Idle => enc.put_u8(0),
            DeviceState::Loading { model, until } => {
                enc.put_u8(1);
                enc.put_u32(model.0);
                enc.put_time(until);
            }
            DeviceState::Running { model, until } => {
                enc.put_u8(2);
                enc.put_u32(model.0);
                enc.put_time(until);
            }
        }
        enc.put_u64(self.next_pid);
        enc.put_u64(self.loads_started);
        enc.put_u64(self.evictions);
        enc.put_u64(self.inferences_completed);
    }

    /// Restores the state written by [`GpuDevice::save_state`].
    pub fn load_state(
        &mut self,
        dec: &mut gfaas_snap::Dec<'_>,
    ) -> Result<(), gfaas_snap::SnapError> {
        use gfaas_snap::SnapError;
        self.mem.load_state(dec)?;
        self.sm.load_state(dec)?;
        let n = dec.usize()?;
        self.procs.clear();
        for _ in 0..n {
            let model = ModelId(dec.u32()?);
            let pid = ProcId(dec.u64()?);
            let alloc = crate::memory::AllocId(dec.u64()?);
            let state = match dec.u8()? {
                0 => ProcState::Loading { until: dec.time()? },
                1 => ProcState::Ready,
                2 => ProcState::Running { until: dec.time()? },
                _ => return Err(SnapError::Corrupt("process state tag out of range")),
            };
            let spawned_at = dec.time()?;
            let inferences = dec.u64()?;
            self.procs.push((
                model,
                GpuProcess {
                    pid,
                    model,
                    alloc,
                    state,
                    spawned_at,
                    inferences,
                },
            ));
        }
        if !self.procs.is_sorted_by_key(|&(m, _)| m) {
            return Err(SnapError::Corrupt("process table is not sorted"));
        }
        self.state = match dec.u8()? {
            0 => DeviceState::Idle,
            1 => DeviceState::Loading {
                model: ModelId(dec.u32()?),
                until: dec.time()?,
            },
            2 => DeviceState::Running {
                model: ModelId(dec.u32()?),
                until: dec.time()?,
            },
            _ => return Err(SnapError::Corrupt("device state tag out of range")),
        };
        self.next_pid = dec.u64()?;
        self.loads_started = dec.u64()?;
        self.evictions = dec.u64()?;
        self.inferences_completed = dec.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn dev(mem_mib: u64) -> GpuDevice {
        GpuDevice::new(GpuId(0), GpuSpec::test(mem_mib))
    }

    const M1: ModelId = ModelId(1);
    const M2: ModelId = ModelId(2);

    #[test]
    fn full_miss_cycle() {
        let mut d = dev(4096);
        let (_pid, ready_at) = d.start_load(t(0), M1, 1000 * MIB).unwrap();
        assert!(!d.is_idle());
        assert!(d.has_model(M1));
        d.complete_load(ready_at, M1).unwrap();
        assert!(d.is_idle());
        let done = d
            .start_inference(ready_at, M1, SimDuration::from_millis(1300))
            .unwrap();
        d.complete_inference(done, M1).unwrap();
        assert!(d.is_idle());
        assert_eq!(d.inferences_completed(), 1);
        assert_eq!(d.process(M1).unwrap().inferences, 1);
        // SM was busy only during the inference, not the load.
        let util = d.sm_utilization(t(0), done);
        let expect = 1.3 / done.as_secs_f64();
        assert!((util - expect).abs() < 1e-9, "util {util} expect {expect}");
    }

    #[test]
    fn hit_skips_load() {
        let mut d = dev(4096);
        let (_, r) = d.start_load(t(0), M1, 100 * MIB).unwrap();
        d.complete_load(r, M1).unwrap();
        // Second request for M1 is a hit: straight to inference.
        let done = d.start_inference(r, M1, SimDuration::from_secs(1)).unwrap();
        d.complete_inference(done, M1).unwrap();
        assert_eq!(d.loads_started(), 1);
        assert_eq!(d.inferences_completed(), 1);
    }

    #[test]
    fn busy_device_rejects_work() {
        let mut d = dev(4096);
        d.start_load(t(0), M1, 100 * MIB).unwrap();
        assert!(matches!(
            d.start_load(t(0), M2, 100 * MIB),
            Err(GpuError::Busy(_))
        ));
        assert!(matches!(
            d.start_inference(t(0), M1, SimDuration::from_secs(1)),
            Err(GpuError::Busy(_))
        ));
    }

    #[test]
    fn oom_requires_eviction_first() {
        let mut d = dev(1000);
        let (_, r) = d.start_load(t(0), M1, 800 * MIB).unwrap();
        d.complete_load(r, M1).unwrap();
        let err = d.start_load(r, M2, 400 * MIB).unwrap_err();
        assert!(matches!(err, GpuError::Oom(_)));
        // Evict, then the load fits.
        let freed = d.evict(M1).unwrap();
        assert_eq!(freed, 800 * MIB);
        assert!(!d.has_model(M1));
        d.start_load(r, M2, 400 * MIB).unwrap();
    }

    #[test]
    fn cannot_evict_inflight_process() {
        let mut d = dev(4096);
        let (_, r) = d.start_load(t(0), M1, 100 * MIB).unwrap();
        assert!(matches!(d.evict(M1), Err(GpuError::ProcessBusy(_))));
        d.complete_load(r, M1).unwrap();
        d.start_inference(r, M1, SimDuration::from_secs(5)).unwrap();
        assert!(matches!(d.evict(M1), Err(GpuError::ProcessBusy(_))));
    }

    #[test]
    fn force_kill_running_process_frees_device() {
        let mut d = dev(4096);
        let (_, r) = d.start_load(t(0), M1, 100 * MIB).unwrap();
        d.complete_load(r, M1).unwrap();
        d.start_inference(r, M1, SimDuration::from_secs(5)).unwrap();
        let freed = d.force_kill(r + SimDuration::from_secs(1), M1).unwrap();
        assert_eq!(freed, 100 * MIB);
        assert!(d.is_idle());
        assert!(!d.has_model(M1));
        assert_eq!(d.used_bytes(), 0);
        // Device is reusable afterwards.
        d.start_load(r + SimDuration::from_secs(1), M2, 50 * MIB)
            .unwrap();
    }

    #[test]
    fn early_completion_rejected() {
        let mut d = dev(4096);
        let (_, ready_at) = d.start_load(t(0), M1, 1000 * MIB).unwrap();
        let early = SimTime::from_micros(ready_at.as_micros() - 1);
        assert!(matches!(
            d.complete_load(early, M1),
            Err(GpuError::BadCompletion(_))
        ));
        d.complete_load(ready_at, M1).unwrap();
    }

    #[test]
    fn mismatched_completion_rejected() {
        let mut d = dev(4096);
        let (_, r) = d.start_load(t(0), M1, 100 * MIB).unwrap();
        assert!(matches!(
            d.complete_load(r, M2),
            Err(GpuError::BadCompletion(_))
        ));
        d.complete_load(r, M1).unwrap();
        assert!(matches!(
            d.complete_inference(r, M1),
            Err(GpuError::BadCompletion(_))
        ));
    }

    #[test]
    fn duplicate_load_rejected() {
        let mut d = dev(4096);
        let (_, r) = d.start_load(t(0), M1, 100 * MIB).unwrap();
        d.complete_load(r, M1).unwrap();
        assert!(matches!(
            d.start_load(r, M1, 100 * MIB),
            Err(GpuError::AlreadyResident(M1))
        ));
    }

    #[test]
    fn inference_on_missing_model_rejected() {
        let mut d = dev(4096);
        assert!(matches!(
            d.start_inference(t(0), M1, SimDuration::from_secs(1)),
            Err(GpuError::NotResident(M1))
        ));
    }

    #[test]
    fn resident_models_iterate_in_stable_order() {
        let mut d = dev(8192);
        for (i, m) in [ModelId(5), ModelId(1), ModelId(3)].into_iter().enumerate() {
            let (_, r) = d.start_load(t(i as u64 * 10), m, 10 * MIB).unwrap();
            d.complete_load(r, m).unwrap();
        }
        let order: Vec<ModelId> = d.resident_models().collect();
        assert_eq!(order, vec![ModelId(1), ModelId(3), ModelId(5)]);
        assert_eq!(d.resident_count(), 3);
    }

    #[test]
    fn memory_accounting_through_evictions() {
        let mut d = dev(1000);
        let (_, r1) = d.start_load(t(0), M1, 300 * MIB).unwrap();
        d.complete_load(r1, M1).unwrap();
        let (_, r2) = d.start_load(r1, M2, 400 * MIB).unwrap();
        d.complete_load(r2, M2).unwrap();
        assert_eq!(d.used_bytes(), 700 * MIB);
        assert_eq!(d.free_bytes(), 300 * MIB);
        d.evict(M1).unwrap();
        assert_eq!(d.used_bytes(), 400 * MIB);
        assert_eq!(d.evictions(), 1);
    }

    #[test]
    fn save_load_round_trips_mid_flight_state() {
        let mut d = dev(4096);
        let (_, r1) = d.start_load(t(0), M1, 300 * MIB).unwrap();
        d.complete_load(r1, M1).unwrap();
        let done = d
            .start_inference(r1, M1, SimDuration::from_secs(2))
            .unwrap();
        d.complete_inference(done, M1).unwrap();
        // Leave a load in flight so the non-idle path is exercised.
        d.start_load(done, M2, 200 * MIB).unwrap();

        let mut enc = gfaas_snap::Enc::new();
        d.save_state(&mut enc);
        let bytes = enc.into_bytes();

        let mut fresh = dev(4096);
        let mut dec = gfaas_snap::Dec::new(&bytes);
        fresh.load_state(&mut dec).unwrap();
        dec.finish().unwrap();

        assert_eq!(format!("{fresh:?}"), format!("{d:?}"));
        // The restored device keeps operating identically.
        let until = match fresh.state() {
            DeviceState::Loading { until, .. } => until,
            s => panic!("expected loading, got {s:?}"),
        };
        fresh.complete_load(until, M2).unwrap();
        d.complete_load(until, M2).unwrap();
        assert_eq!(format!("{fresh:?}"), format!("{d:?}"));
    }

    #[test]
    fn load_state_rejects_corrupt_tags() {
        let mut d = dev(64);
        let mut enc = gfaas_snap::Enc::new();
        d.save_state(&mut enc);
        let mut bytes = enc.into_bytes();
        *bytes.last_mut().unwrap() = 0xff; // trample the trailing counter
        bytes.pop(); // ...and truncate it
        let mut dec = gfaas_snap::Dec::new(&bytes);
        assert!(d.load_state(&mut dec).is_err());
    }

    #[test]
    fn check_state_holds_through_a_miss_cycle_and_catches_corruption() {
        let mut d = dev(4096);
        d.check_state(t(0)).unwrap();
        let (_, ready) = d.start_load(t(0), M1, 100 * MIB).unwrap();
        d.check_state(t(0)).unwrap();
        assert!(
            d.check_state(ready + SimDuration::from_secs(1)).is_err(),
            "load overdue"
        );
        d.complete_load(ready, M1).unwrap();
        let done = d
            .start_inference(ready, M1, SimDuration::from_secs(1))
            .unwrap();
        d.check_state(ready).unwrap();
        let mut bad = d.clone();
        bad.sm = SmTracker::new();
        assert!(
            bad.check_state(ready).is_err(),
            "running without an SM interval"
        );
        let mut bad = d.clone();
        bad.procs[0].1.state = ProcState::Ready;
        assert!(
            bad.check_state(ready).is_err(),
            "running device, ready process"
        );
        let mut bad = d.clone();
        bad.procs.clear();
        assert!(bad.check_state(ready).is_err(), "memory held by no process");
        d.complete_inference(done, M1).unwrap();
        d.check_state(done).unwrap();
    }

    #[test]
    fn rtx2080_spec_matches_testbed() {
        let s = GpuSpec::rtx2080();
        assert_eq!(s.memory_bytes, 8 * 1024 * MIB);
        assert_eq!(s.sm_count, 46);
    }
}
