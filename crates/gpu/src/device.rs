//! The simulated GPU device: which models are resident, and how many
//! bytes they take.
//!
//! The paper's GPU Manager keeps one process per cached model (§III-C),
//! so "model resident" and "process alive" are one fact, and its Cache
//! Manager reasons only about occupancy (Table I's "occupation size").
//! [`GpuDevice`] records exactly that: a sorted list of resident models
//! with their bytes, bounded by device memory — a load that does not fit
//! is an explicit error, as CUDA's `cudaErrorMemoryAllocation` is — plus
//! the SM busy intervals Fig 4c plots. What runs on the device, and
//! until when, is the cluster's record (`gfaas-core`'s `GpuUnit`), not
//! the device's.

use gfaas_sim::time::SimTime;
use gfaas_snap::{Dec, Enc, SnapError};

use crate::pcie::PcieModel;
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

/// Errors raised by illegal device operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuError {
    /// The model is not resident.
    NotResident(ModelId),
    /// The model is already resident.
    AlreadyResident(ModelId),
    /// Device memory exhausted; the caller must evict first.
    Oom {
        /// Bytes requested.
        requested: u64,
        /// Bytes free at the time.
        free: u64,
        /// Total device capacity in bytes.
        capacity: u64,
    },
}

impl std::fmt::Display for GpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpuError::NotResident(m) => write!(f, "{m} is not resident"),
            GpuError::AlreadyResident(m) => write!(f, "{m} is already resident"),
            GpuError::Oom {
                requested,
                free,
                capacity,
            } => write!(
                f,
                "out of GPU memory: requested {requested} B, {free} B free of {capacity} B"
            ),
        }
    }
}

impl std::error::Error for GpuError {}

/// One simulated GPU.
#[derive(Debug, Clone)]
pub struct GpuDevice {
    id: GpuId,
    spec: GpuSpec,
    /// Resident models and their bytes, sorted by model id. Residency is
    /// bounded by device memory (a handful of models), so a flat sorted
    /// array with binary search beats a tree map on every hot lookup, and
    /// copying it into a reused buffer (a snapshot pre-image) allocates
    /// nothing.
    residents: Vec<(ModelId, u64)>,
    /// Sum of the residents' bytes, never above `spec.memory_bytes`.
    used: u64,
    sm: SmTracker,
}

impl GpuDevice {
    /// Creates an empty device.
    pub fn new(id: GpuId, spec: GpuSpec) -> Self {
        GpuDevice {
            id,
            spec,
            residents: Vec::new(),
            used: 0,
            sm: SmTracker::new(),
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

    /// Position of `model` in the sorted resident list.
    fn idx(&self, model: ModelId) -> Result<usize, usize> {
        self.residents.binary_search_by_key(&model, |&(m, _)| m)
    }

    /// Resident models, in stable (id) order.
    pub fn resident_models(&self) -> impl Iterator<Item = ModelId> + '_ {
        self.residents.iter().map(|&(m, _)| m)
    }

    /// Number of resident models.
    pub fn resident_count(&self) -> usize {
        self.residents.len()
    }

    /// True iff the model is resident (an upload in progress counts: its
    /// memory is already claimed).
    pub fn has_model(&self, model: ModelId) -> bool {
        self.idx(model).is_ok()
    }

    /// Free device memory in bytes.
    pub fn free_bytes(&self) -> u64 {
        self.spec.memory_bytes - self.used
    }

    /// Used device memory in bytes.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Makes `model` resident, claiming `bytes` of device memory. Fails
    /// with [`GpuError::AlreadyResident`] or [`GpuError::Oom`] — the cache
    /// manager must have evicted victims first — and then leaves the
    /// device unchanged.
    pub fn load(&mut self, model: ModelId, bytes: u64) -> Result<(), GpuError> {
        let pos = match self.idx(model) {
            Ok(_) => return Err(GpuError::AlreadyResident(model)),
            Err(pos) => pos,
        };
        if bytes > self.free_bytes() {
            return Err(GpuError::Oom {
                requested: bytes,
                free: self.free_bytes(),
                capacity: self.spec.memory_bytes,
            });
        }
        self.residents.insert(pos, (model, bytes));
        self.used += bytes;
        Ok(())
    }

    /// Drops a resident model, returning the bytes it freed.
    pub fn evict(&mut self, model: ModelId) -> Result<u64, GpuError> {
        let i = self.idx(model).map_err(|_| GpuError::NotResident(model))?;
        let (_, bytes) = self.residents.remove(i);
        self.used -= bytes;
        Ok(bytes)
    }

    /// Marks the SMs busy from `t` (an inference kernel started). Panics
    /// if an interval is already open: the GPU runs one request at a time.
    pub fn sm_begin(&mut self, t: SimTime) {
        self.sm.begin(t);
    }

    /// Marks the SMs idle at `t` (the kernel finished or its process
    /// died). Panics if no interval is open.
    pub fn sm_end(&mut self, t: SimTime) {
        self.sm.end(t);
    }

    /// When the open SM interval began; `None` while the SMs are idle.
    pub fn sm_open_since(&self) -> Option<SimTime> {
        self.sm.open_since()
    }

    /// SM utilisation over `[start, end]` (Fig 4c's metric).
    pub fn sm_utilization(&self, start: SimTime, end: SimTime) -> f64 {
        self.sm.utilization(start, end)
    }

    /// Overwrites this device's mutable state with `src`'s, reusing this
    /// device's buffers: the allocation-free copy behind a snapshot
    /// pre-image. The id and the static [`GpuSpec`] are not copied — the
    /// target is always an earlier image of the same device.
    pub fn copy_state_from(&mut self, src: &GpuDevice) {
        debug_assert_eq!(self.id, src.id, "pre-images belong to one device");
        self.residents.clone_from(&src.residents);
        self.used = src.used;
        self.sm = src.sm;
    }

    /// Serialises the device's mutable state for a checkpoint image. The
    /// id and spec are configuration — a restore target is built from the
    /// same cluster config (the checkpoint envelope's config digest
    /// guards this) — and the used bytes are the residents' sum, so only
    /// the SM intervals and the resident list travel.
    pub fn save_state(&self, enc: &mut Enc) {
        self.sm.save_state(enc);
        enc.put_usize(self.residents.len());
        for &(model, bytes) in &self.residents {
            enc.put_u32(model.0);
            enc.put_u64(bytes);
        }
    }

    /// Restores the state written by [`GpuDevice::save_state`], refusing
    /// a resident list that is not strictly sorted by model or does not
    /// fit device memory.
    pub fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapError> {
        self.sm.load_state(dec)?;
        let n = dec.usize()?;
        self.residents.clear();
        self.used = 0;
        for _ in 0..n {
            let (model, bytes) = (ModelId(dec.u32()?), dec.u64()?);
            if self
                .residents
                .last()
                .is_some_and(|&(last, _)| last >= model)
            {
                return Err(SnapError::Corrupt("resident list is not strictly sorted"));
            }
            self.used = self.used.saturating_add(bytes);
            if self.used > self.spec.memory_bytes {
                return Err(SnapError::Corrupt("residents exceed device memory"));
            }
            self.residents.push((model, bytes));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev(mem_mib: u64) -> GpuDevice {
        GpuDevice::new(GpuId(0), GpuSpec::test(mem_mib))
    }

    const M1: ModelId = ModelId(1);
    const M2: ModelId = ModelId(2);

    #[test]
    fn full_miss_cycle() {
        let mut d = dev(4096);
        d.load(M1, 1000 * MIB).unwrap();
        // The upload takes the first second; the inference the next 1.3 s.
        let (ready, done) = (SimTime::from_secs(1), SimTime::from_micros(2_300_000));
        d.sm_begin(ready);
        assert_eq!(d.sm_open_since(), Some(ready));
        d.sm_end(done);
        assert_eq!(d.sm_open_since(), None);
        let util = d.sm_utilization(SimTime::ZERO, done);
        let expect = 1.3 / done.as_secs_f64();
        assert!((util - expect).abs() < 1e-9, "util {util} expect {expect}");
    }

    #[test]
    fn oom_requires_eviction_first() {
        let mut d = dev(1000);
        d.load(M1, 800 * MIB).unwrap();
        let err = d.load(M2, 400 * MIB).unwrap_err();
        assert_eq!(
            err,
            GpuError::Oom {
                requested: 400 * MIB,
                free: 200 * MIB,
                capacity: 1000 * MIB
            }
        );
        assert_eq!(d.used_bytes(), 800 * MIB, "a refused load changes nothing");
        // Evict, then the load fits.
        assert_eq!(d.evict(M1), Ok(800 * MIB));
        assert!(!d.has_model(M1));
        d.load(M2, 400 * MIB).unwrap();
        assert_eq!(d.evict(M1), Err(GpuError::NotResident(M1)));
    }

    #[test]
    fn exact_fit_and_zero_byte_loads_succeed() {
        let mut d = dev(100);
        d.load(M1, 100 * MIB).unwrap();
        assert_eq!(d.free_bytes(), 0);
        d.load(M2, 0).unwrap();
        assert_eq!(d.resident_count(), 2);
    }

    #[test]
    fn duplicate_load_rejected() {
        let mut d = dev(4096);
        d.load(M1, 100 * MIB).unwrap();
        assert_eq!(d.load(M1, 100 * MIB), Err(GpuError::AlreadyResident(M1)));
        assert_eq!(d.used_bytes(), 100 * MIB);
    }

    #[test]
    fn resident_models_iterate_in_stable_order() {
        let mut d = dev(8192);
        for m in [ModelId(5), ModelId(1), ModelId(3)] {
            d.load(m, 10 * MIB).unwrap();
        }
        let order: Vec<ModelId> = d.resident_models().collect();
        assert_eq!(order, vec![ModelId(1), ModelId(3), ModelId(5)]);
        assert_eq!(d.resident_count(), 3);
    }

    #[test]
    fn memory_accounting_through_evictions() {
        let mut d = dev(1000);
        d.load(M1, 300 * MIB).unwrap();
        d.load(M2, 400 * MIB).unwrap();
        assert_eq!(d.used_bytes(), 700 * MIB);
        assert_eq!(d.free_bytes(), 300 * MIB);
        d.evict(M1).unwrap();
        assert_eq!(d.used_bytes(), 400 * MIB);
    }

    #[test]
    fn save_load_round_trips_mid_flight_state() {
        let mut d = dev(4096);
        d.load(M2, 200 * MIB).unwrap();
        d.load(M1, 300 * MIB).unwrap();
        d.sm_begin(SimTime::from_secs(1));
        d.sm_end(SimTime::from_secs(3));
        // Leave an interval open so it travels too.
        d.sm_begin(SimTime::from_secs(4));

        let mut enc = Enc::new();
        d.save_state(&mut enc);
        let bytes = enc.into_bytes();
        let mut fresh = dev(4096);
        let mut dec = Dec::new(&bytes);
        fresh.load_state(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(format!("{fresh:?}"), format!("{d:?}"));

        let mut copy = dev(4096);
        copy.copy_state_from(&d);
        assert_eq!(format!("{copy:?}"), format!("{d:?}"));
    }

    /// Encodes an SM-idle device image listing `residents` verbatim.
    fn image(residents: &[(u32, u64)]) -> Vec<u8> {
        let mut enc = Enc::new();
        SmTracker::new().save_state(&mut enc);
        enc.put_usize(residents.len());
        for &(m, bytes) in residents {
            enc.put_u32(m);
            enc.put_u64(bytes);
        }
        enc.into_bytes()
    }

    #[test]
    fn load_state_refuses_lists_a_device_never_holds() {
        let cases: [(&[(u32, u64)], &str); 4] = [
            (
                &[(2, MIB), (1, MIB)],
                "resident list is not strictly sorted",
            ),
            (
                &[(1, MIB), (1, MIB)],
                "resident list is not strictly sorted",
            ),
            (
                &[(1, 60 * MIB), (2, 5 * MIB)],
                "residents exceed device memory",
            ),
            (&[(1, u64::MAX), (2, 2)], "residents exceed device memory"),
        ];
        for (residents, why) in cases {
            let bytes = image(residents);
            let mut d = dev(64);
            assert_eq!(
                d.load_state(&mut Dec::new(&bytes)),
                Err(SnapError::Corrupt(why)),
                "{residents:?}"
            );
        }
        let bytes = image(&[(1, 60 * MIB), (2, 4 * MIB)]);
        let mut d = dev(64);
        d.load_state(&mut Dec::new(&bytes)).unwrap();
        assert_eq!((d.used_bytes(), d.free_bytes()), (64 * MIB, 0));
    }

    #[test]
    fn load_state_rejects_corrupt_tags() {
        let mut bytes = image(&[(1, MIB)]);
        let mut d = dev(64);
        let truncated = &bytes[..bytes.len() - 1];
        assert_eq!(
            d.load_state(&mut Dec::new(truncated)),
            Err(SnapError::Truncated)
        );
        // The SM tracker's open-interval flag follows its busy time and
        // interval count.
        bytes[16] = 2;
        assert_eq!(
            d.load_state(&mut Dec::new(&bytes)),
            Err(SnapError::Corrupt("bool tag out of range"))
        );
    }

    #[test]
    fn rtx2080_spec_matches_testbed() {
        let s = GpuSpec::rtx2080();
        assert_eq!(s.memory_bytes, 8 * 1024 * MIB);
        assert_eq!(s.sm_count, 46);
    }
}
