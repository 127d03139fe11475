//! The global Cache Manager (paper §III-D) and the open [`Evictor`] API.
//!
//! Models uploaded to GPU memory are cache items. The manager keeps one
//! replacement-policy bookkeeping list per GPU plus a global model→GPUs
//! residency index. On a miss it asks its [`Evictor`] for victims from the
//! target GPU's list until the incoming model fits; the paper's GPU Manager
//! then kills the victims' processes.
//!
//! The residency index is the §VI scalability structure: "the Cache
//! Manager maintains the lists of GPUs where each model is cached", which
//! bounds the scheduler's per-request search by the number of replicas
//! rather than the cluster size.
//!
//! # Replacement as an open trait
//!
//! Eviction behaviour is pluggable: anything implementing [`Evictor`] can
//! drive replacement. The paper's three policies ship as
//! [`LruEvictor`] (default), [`FifoEvictor`], and [`RandomEvictor`]; the
//! frequency-decay policy lives in [`crate::tinylfu::TinyLfuEvictor`].
//! String specs (`"lru"`, `"tinylfu:0.9"`) resolve to evictors through
//! [`crate::policy::PolicyRegistry`].

use std::collections::VecDeque;

use gfaas_gpu::{GpuId, ModelId};
use gfaas_sim::rng::DetRng;
use gfaas_snap::{Dec, Enc, SnapError};

/// A cache replacement policy: per-GPU victim selection with full view of
/// insert/hit/remove events.
///
/// The [`CacheManager`] owns the residency index and the greedy
/// make-room loop; the evictor owns per-GPU ordering state and answers
/// one question — *which resident model dies next* ([`Evictor::pick_victim`],
/// called repeatedly until enough bytes are reclaimed).
///
/// Implementations must be deterministic for a given construction (any
/// randomness must come from an owned, seeded generator) so simulation
/// runs stay reproducible.
pub trait Evictor: std::fmt::Debug + Send {
    /// Registry-style key for reports (`"lru"`, `"tinylfu"`, …).
    fn name(&self) -> &'static str;

    /// Called once per GPU before any traffic, so per-GPU state exists.
    fn attach_gpu(&mut self, gpu: GpuId);

    /// `model` was uploaded to `gpu` (it enters the GPU's list hottest).
    fn on_insert(&mut self, gpu: GpuId, model: ModelId);

    /// `model` served a cache hit on `gpu`.
    fn on_hit(&mut self, gpu: GpuId, model: ModelId);

    /// `model` left `gpu` (evicted, or its process died).
    fn on_remove(&mut self, gpu: GpuId, model: ModelId);

    /// The models resident on `gpu` in this policy's bookkeeping order
    /// (coldest first for the recency/insertion-list policies). This is
    /// the candidate list [`CacheManager::select_victims`] offers to
    /// [`Evictor::pick_victim`] and what [`CacheManager::resident`]
    /// reports; only for prefix-picking policies (LRU/FIFO) is it also
    /// the exact eviction order.
    fn order(&self, gpu: GpuId) -> Vec<ModelId>;

    /// Chooses the next victim among `candidates` (a subset of
    /// [`Evictor::order`], pinned models already removed). Returns `None`
    /// when no candidate may be evicted. Called repeatedly by
    /// [`CacheManager::select_victims`] with already-picked victims
    /// removed from `candidates`.
    fn pick_victim(&mut self, gpu: GpuId, candidates: &[ModelId]) -> Option<ModelId>;

    /// Serialises the evictor's mutable state (bookkeeping lists, RNG
    /// streams, frequency sketches) for a snapshot or checkpoint. The
    /// default writes nothing — correct only for genuinely stateless
    /// evictors; every builtin overrides it.
    fn save_state(&self, enc: &mut Enc) {
        let _ = enc;
    }

    /// Restores state written by [`Evictor::save_state`] into an evictor
    /// freshly built from the same spec and attached to the same GPUs.
    fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapError> {
        let _ = dec;
        Ok(())
    }
}

/// Per-GPU ordered model lists — the bookkeeping every builtin evictor
/// shares. Front = next victim, back = most recently inserted/used.
#[derive(Debug, Clone, Default)]
pub(crate) struct OrderLists {
    /// Indexed by `GpuId`; `None` until [`OrderLists::attach`] — a flat
    /// array, since every hot-path caller holds a dense GPU id.
    per_gpu: Vec<Option<VecDeque<ModelId>>>,
}

impl OrderLists {
    pub(crate) fn attach(&mut self, gpu: GpuId) {
        let gi = gpu.0 as usize;
        if gi >= self.per_gpu.len() {
            self.per_gpu.resize(gi + 1, None);
        }
        self.per_gpu[gi].get_or_insert_with(VecDeque::new);
    }

    pub(crate) fn push_hot(&mut self, gpu: GpuId, model: ModelId) {
        self.per_gpu
            .get_mut(gpu.0 as usize)
            .and_then(Option::as_mut)
            .expect("unknown GPU")
            .push_back(model);
    }

    /// Moves `model` to the hot end (LRU touch).
    pub(crate) fn touch(&mut self, gpu: GpuId, model: ModelId) {
        let order = self
            .per_gpu
            .get_mut(gpu.0 as usize)
            .and_then(Option::as_mut)
            .expect("unknown GPU");
        if order.back() == Some(&model) {
            return; // already hottest — the common case for coalesced hits
        }
        if let Some(pos) = order.iter().position(|&m| m == model) {
            order.remove(pos);
            order.push_back(model);
        }
    }

    pub(crate) fn remove(&mut self, gpu: GpuId, model: ModelId) {
        if let Some(Some(order)) = self.per_gpu.get_mut(gpu.0 as usize) {
            if let Some(pos) = order.iter().position(|&m| m == model) {
                order.remove(pos);
            }
        }
    }

    pub(crate) fn order(&self, gpu: GpuId) -> Vec<ModelId> {
        self.per_gpu
            .get(gpu.0 as usize)
            .and_then(Option::as_ref)
            .map(|o| o.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Serialises every per-GPU list (presence tag + model ids in order).
    pub(crate) fn save_state(&self, enc: &mut Enc) {
        enc.put_usize(self.per_gpu.len());
        for slot in &self.per_gpu {
            match slot {
                None => enc.put_u8(0),
                Some(order) => {
                    enc.put_u8(1);
                    enc.put_usize(order.len());
                    for &m in order {
                        enc.put_u32(m.0);
                    }
                }
            }
        }
    }

    /// Rebuilds the lists from [`OrderLists::save_state`] bytes.
    pub(crate) fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapError> {
        let ngpus = dec.usize()?;
        let mut per_gpu = Vec::with_capacity(ngpus.min(dec.remaining()));
        for _ in 0..ngpus {
            per_gpu.push(match dec.u8()? {
                0 => None,
                1 => {
                    let len = dec.usize()?;
                    let mut order = VecDeque::with_capacity(len.min(dec.remaining() / 4));
                    for _ in 0..len {
                        order.push_back(ModelId(dec.u32()?));
                    }
                    Some(order)
                }
                _ => return Err(SnapError::Corrupt("bad order-list tag")),
            });
        }
        self.per_gpu = per_gpu;
        Ok(())
    }
}

/// Least-recently-used eviction (the paper's default).
#[derive(Debug, Clone, Default)]
pub struct LruEvictor {
    lists: OrderLists,
}

impl Evictor for LruEvictor {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn attach_gpu(&mut self, gpu: GpuId) {
        self.lists.attach(gpu);
    }

    fn on_insert(&mut self, gpu: GpuId, model: ModelId) {
        self.lists.push_hot(gpu, model);
    }

    fn on_hit(&mut self, gpu: GpuId, model: ModelId) {
        self.lists.touch(gpu, model);
    }

    fn on_remove(&mut self, gpu: GpuId, model: ModelId) {
        self.lists.remove(gpu, model);
    }

    fn order(&self, gpu: GpuId) -> Vec<ModelId> {
        self.lists.order(gpu)
    }

    fn pick_victim(&mut self, _gpu: GpuId, candidates: &[ModelId]) -> Option<ModelId> {
        candidates.first().copied() // coldest first
    }

    fn save_state(&self, enc: &mut Enc) {
        self.lists.save_state(enc);
    }

    fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapError> {
        self.lists.load_state(dec)
    }
}

/// First-in-first-out eviction: insertion order, use ignored.
#[derive(Debug, Clone, Default)]
pub struct FifoEvictor {
    lists: OrderLists,
}

impl Evictor for FifoEvictor {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn attach_gpu(&mut self, gpu: GpuId) {
        self.lists.attach(gpu);
    }

    fn on_insert(&mut self, gpu: GpuId, model: ModelId) {
        self.lists.push_hot(gpu, model);
    }

    fn on_hit(&mut self, _gpu: GpuId, _model: ModelId) {}

    fn on_remove(&mut self, gpu: GpuId, model: ModelId) {
        self.lists.remove(gpu, model);
    }

    fn order(&self, gpu: GpuId) -> Vec<ModelId> {
        self.lists.order(gpu)
    }

    fn pick_victim(&mut self, _gpu: GpuId, candidates: &[ModelId]) -> Option<ModelId> {
        candidates.first().copied() // oldest insertion first
    }

    fn save_state(&self, enc: &mut Enc) {
        self.lists.save_state(enc);
    }

    fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapError> {
        self.lists.load_state(dec)
    }
}

/// Uniformly random eviction (the §VI ablation baseline). Deterministic
/// per seed.
#[derive(Debug, Clone)]
pub struct RandomEvictor {
    lists: OrderLists,
    rng: DetRng,
}

impl RandomEvictor {
    /// A random evictor drawing from a deterministic stream.
    pub fn new(seed: u64) -> Self {
        RandomEvictor {
            lists: OrderLists::default(),
            rng: DetRng::new(seed),
        }
    }
}

impl Evictor for RandomEvictor {
    fn name(&self) -> &'static str {
        "random"
    }

    fn attach_gpu(&mut self, gpu: GpuId) {
        self.lists.attach(gpu);
    }

    fn on_insert(&mut self, gpu: GpuId, model: ModelId) {
        self.lists.push_hot(gpu, model);
    }

    fn on_hit(&mut self, _gpu: GpuId, _model: ModelId) {}

    fn on_remove(&mut self, gpu: GpuId, model: ModelId) {
        self.lists.remove(gpu, model);
    }

    fn order(&self, gpu: GpuId) -> Vec<ModelId> {
        self.lists.order(gpu)
    }

    fn pick_victim(&mut self, _gpu: GpuId, candidates: &[ModelId]) -> Option<ModelId> {
        self.rng.choose(candidates).copied()
    }

    fn save_state(&self, enc: &mut Enc) {
        self.lists.save_state(enc);
        for w in self.rng.state() {
            enc.put_u64(w);
        }
    }

    fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapError> {
        self.lists.load_state(dec)?;
        let mut state = [0u64; 4];
        for w in &mut state {
            *w = dec.u64()?;
        }
        if state == [0; 4] {
            return Err(SnapError::Corrupt("all-zero RNG state"));
        }
        self.rng = DetRng::from_state(state);
        Ok(())
    }
}

/// The global cache manager.
#[derive(Debug)]
pub struct CacheManager {
    evictor: Box<dyn Evictor>,
    /// The §VI residency index as a flat per-model array: replica lists
    /// indexed by `ModelId`, each kept sorted by `GpuId` — O(1) to reach
    /// a model's holders, O(replicas) to scan them.
    residency: Vec<Vec<GpuId>>,
    evictions: u64,
}

impl CacheManager {
    /// A manager over `gpus` driven by `evictor`; string specs resolve
    /// to evictors via [`crate::policy::PolicyRegistry::evictor`].
    pub fn with_evictor(
        gpus: impl IntoIterator<Item = GpuId>,
        mut evictor: Box<dyn Evictor>,
    ) -> Self {
        for gpu in gpus {
            evictor.attach_gpu(gpu);
        }
        CacheManager {
            evictor,
            residency: Vec::new(),
            evictions: 0,
        }
    }

    /// The active evictor's registry key (`"lru"`, `"tinylfu"`, …).
    pub fn evictor_name(&self) -> &'static str {
        self.evictor.name()
    }

    /// True iff `model` is resident on `gpu`.
    pub fn is_cached(&self, gpu: GpuId, model: ModelId) -> bool {
        self.holders(model).contains(&gpu)
    }

    /// GPUs currently holding `model` (the §VI replica list), in id
    /// order, as a borrowed slice — the allocation-free hot-path lookup.
    pub fn holders(&self, model: ModelId) -> &[GpuId] {
        self.residency
            .get(model.0 as usize)
            .map_or(&[], |gpus| gpus.as_slice())
    }

    /// GPUs currently holding `model` (the §VI replica list), in id order.
    pub fn gpus_with(&self, model: ModelId) -> Vec<GpuId> {
        self.holders(model).to_vec()
    }

    /// Number of GPUs holding `model` (Fig 6's duplicates count).
    pub fn replica_count(&self, model: ModelId) -> usize {
        self.holders(model).len()
    }

    /// True iff `model` is resident on at least one GPU.
    pub fn cached_anywhere(&self, model: ModelId) -> bool {
        self.replica_count(model) > 0
    }

    /// The models resident on `gpu` in the evictor's bookkeeping order
    /// (coldest first under LRU — and for LRU/FIFO that is exactly the
    /// eviction order; frequency/random evictors pick victims out of this
    /// order).
    pub fn resident(&self, gpu: GpuId) -> Vec<ModelId> {
        self.evictor.order(gpu)
    }

    /// Records that `model` was uploaded to `gpu` (inserted hottest).
    pub fn insert(&mut self, gpu: GpuId, model: ModelId) {
        debug_assert!(
            !self.is_cached(gpu, model),
            "{model} already cached on {gpu}"
        );
        self.evictor.on_insert(gpu, model);
        let mi = model.0 as usize;
        if mi >= self.residency.len() {
            self.residency.resize_with(mi + 1, Vec::new);
        }
        let gpus = &mut self.residency[mi];
        if let Err(pos) = gpus.binary_search(&gpu) {
            gpus.insert(pos, gpu);
        }
    }

    /// Records a use of `model` on `gpu`. Under LRU this moves the model to
    /// the hot end; TinyLFU bumps its frequency; FIFO/random ignore it.
    pub fn touch(&mut self, gpu: GpuId, model: ModelId) {
        self.evictor.on_hit(gpu, model);
    }

    /// Removes `model` from `gpu`'s cache state (after its process died).
    pub fn remove(&mut self, gpu: GpuId, model: ModelId) {
        self.evictor.on_remove(gpu, model);
        if let Some(gpus) = self.residency.get_mut(model.0 as usize) {
            if let Ok(pos) = gpus.binary_search(&gpu) {
                gpus.remove(pos);
            }
        }
    }

    /// Chooses victims on `gpu` to make room for `need` more bytes given
    /// `free` bytes currently free. Victims are removed from the cache
    /// state and returned in eviction order; the caller must kill their
    /// processes. `size_of` maps a model to its occupancy.
    ///
    /// `pinned` models (e.g. the one a queued local request needs) are
    /// never offered to the evictor. Returns `None` if the space cannot be
    /// assembled; failure leaves residency untouched (the evictor may have
    /// advanced an internal RNG).
    pub fn select_victims(
        &mut self,
        gpu: GpuId,
        need: u64,
        free: u64,
        size_of: impl Fn(ModelId) -> u64,
        pinned: &[ModelId],
    ) -> Option<Vec<ModelId>> {
        if free >= need {
            return Some(Vec::new());
        }
        // Pick into a working copy so failure leaves the state untouched.
        let mut candidates: Vec<ModelId> = self
            .evictor
            .order(gpu)
            .into_iter()
            .filter(|m| !pinned.contains(m))
            .collect();
        let mut reclaimed = free;
        let mut victims = Vec::new();
        while reclaimed < need {
            let m = self.evictor.pick_victim(gpu, &candidates)?;
            let pos = candidates
                .iter()
                .position(|&c| c == m)
                .expect("evictor picked a non-candidate");
            candidates.remove(pos);
            reclaimed += size_of(m);
            victims.push(m);
        }
        for &m in &victims {
            self.remove(gpu, m);
            self.evictions += 1;
        }
        Some(victims)
    }

    /// Total victims selected so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Serialises the full cache state — residency index, eviction
    /// counter, and the evictor's own blob — for a snapshot or
    /// checkpoint. The evictor is a trait object and cannot be cloned, so
    /// the in-memory snapshot journal stores these bytes too.
    pub fn save_state(&self, enc: &mut Enc) {
        enc.put_usize(self.residency.len());
        for gpus in &self.residency {
            enc.put_usize(gpus.len());
            for &g in gpus {
                enc.put_u16(g.0);
            }
        }
        enc.put_u64(self.evictions);
        self.evictor.save_state(enc);
    }

    /// Restores state written by [`CacheManager::save_state`] into a
    /// manager whose evictor was built from the same spec and attached to
    /// the same GPUs.
    pub fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapError> {
        let nmodels = dec.usize()?;
        let mut residency = Vec::with_capacity(nmodels.min(dec.remaining()));
        for _ in 0..nmodels {
            let nreplicas = dec.usize()?;
            let mut gpus = Vec::with_capacity(nreplicas.min(dec.remaining() / 2));
            for _ in 0..nreplicas {
                gpus.push(GpuId(dec.u16()?));
            }
            if !gpus.is_sorted() {
                return Err(SnapError::Corrupt("replica list not sorted"));
            }
            residency.push(gpus);
        }
        self.residency = residency;
        self.evictions = dec.u64()?;
        self.evictor.load_state(dec)
    }

    /// Total resident (gpu, model) pairs across the cluster.
    pub fn total_resident(&self) -> usize {
        self.residency.iter().map(|gpus| gpus.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const G0: GpuId = GpuId(0);
    const G1: GpuId = GpuId(1);
    const A: ModelId = ModelId(0);
    const B: ModelId = ModelId(1);
    const C: ModelId = ModelId(2);

    /// A manager over `gpus` with the builtin evictor `key` names.
    fn with_spec(gpus: &[GpuId], key: &str, seed: u64) -> CacheManager {
        let reg = crate::policy::PolicyRegistry::builtin();
        let ev = reg
            .evictor(&crate::policy::PolicySpec::bare(key), seed)
            .expect("builtin evictor");
        CacheManager::with_evictor(gpus.iter().copied(), ev)
    }

    fn mgr(key: &str) -> CacheManager {
        with_spec(&[G0, G1], key, 42)
    }

    #[test]
    fn insert_and_residency_index() {
        let mut m = mgr("lru");
        m.insert(G0, A);
        m.insert(G1, A);
        m.insert(G0, B);
        assert!(m.is_cached(G0, A));
        assert!(m.is_cached(G1, A));
        assert!(!m.is_cached(G1, B));
        assert_eq!(m.gpus_with(A), vec![G0, G1]);
        assert_eq!(m.replica_count(A), 2);
        assert!(m.cached_anywhere(B));
        assert!(!m.cached_anywhere(C));
        assert_eq!(m.total_resident(), 3);
    }

    #[test]
    fn lru_touch_reorders() {
        let mut m = mgr("lru");
        m.insert(G0, A);
        m.insert(G0, B);
        m.insert(G0, C);
        assert_eq!(m.resident(G0), vec![A, B, C]);
        m.touch(G0, A); // A becomes hottest
        assert_eq!(m.resident(G0), vec![B, C, A]);
    }

    #[test]
    fn fifo_touch_is_noop() {
        let mut m = mgr("fifo");
        m.insert(G0, A);
        m.insert(G0, B);
        m.touch(G0, A);
        assert_eq!(m.resident(G0), vec![A, B]);
    }

    #[test]
    fn lru_victim_is_coldest() {
        let mut m = mgr("lru");
        m.insert(G0, A);
        m.insert(G0, B);
        m.touch(G0, A); // order: B, A
        let victims = m
            .select_victims(G0, 100, 0, |_| 100, &[])
            .expect("evictable");
        assert_eq!(victims, vec![B]);
        assert!(!m.is_cached(G0, B));
        assert!(m.is_cached(G0, A));
        assert_eq!(m.evictions(), 1);
    }

    #[test]
    fn multiple_victims_until_fit() {
        let mut m = mgr("lru");
        m.insert(G0, A);
        m.insert(G0, B);
        m.insert(G0, C);
        // need 250, free 0, each model worth 100 → evict A, B, C? 3×100=300≥250.
        let victims = m
            .select_victims(G0, 250, 0, |_| 100, &[])
            .expect("evictable");
        assert_eq!(victims, vec![A, B, C]);
        assert_eq!(m.resident(G0), Vec::<ModelId>::new());
    }

    #[test]
    fn no_eviction_needed_when_space_free() {
        let mut m = mgr("lru");
        m.insert(G0, A);
        let victims = m.select_victims(G0, 100, 150, |_| 100, &[]).unwrap();
        assert!(victims.is_empty());
        assert!(m.is_cached(G0, A));
    }

    #[test]
    fn pinned_models_survive() {
        let mut m = mgr("lru");
        m.insert(G0, A);
        m.insert(G0, B);
        let victims = m.select_victims(G0, 100, 0, |_| 100, &[A]).unwrap();
        assert_eq!(victims, vec![B]);
        assert!(m.is_cached(G0, A));
    }

    #[test]
    fn impossible_request_returns_none_and_keeps_state() {
        let mut m = mgr("lru");
        m.insert(G0, A);
        let got = m.select_victims(G0, 1000, 0, |_| 100, &[]);
        assert!(got.is_none());
        assert!(m.is_cached(G0, A), "failed selection must not evict");
        assert_eq!(m.evictions(), 0);
    }

    #[test]
    fn remove_clears_residency() {
        let mut m = mgr("lru");
        m.insert(G0, A);
        m.insert(G1, A);
        m.remove(G0, A);
        assert_eq!(m.gpus_with(A), vec![G1]);
        m.remove(G1, A);
        assert!(!m.cached_anywhere(A));
        // Double remove is harmless.
        m.remove(G1, A);
    }

    #[test]
    fn random_policy_is_deterministic_per_seed() {
        let pick = |seed: u64| {
            let mut m = with_spec(&[G0], "random", seed);
            for i in 0..12 {
                m.insert(G0, ModelId(i));
            }
            // Evict half the cache: an ordered 6-victim sequence collides
            // across seeds with negligible probability.
            m.select_victims(G0, 600, 0, |_| 100, &[]).unwrap()
        };
        assert_eq!(pick(1), pick(1));
        assert_ne!(pick(1), pick(2));
    }

    #[test]
    fn per_gpu_lists_are_independent() {
        let mut m = mgr("lru");
        m.insert(G0, A);
        m.insert(G1, B);
        let v = m.select_victims(G0, 100, 0, |_| 100, &[]).unwrap();
        assert_eq!(v, vec![A]);
        assert!(m.is_cached(G1, B));
    }

    #[test]
    fn spec_evictor_matches_direct_evictor_injection() {
        // The spec path (`"lru"` through the registry) and a directly
        // injected evictor must drive identical state.
        let mut a = with_spec(&[G0], "lru", 9);
        let mut b = CacheManager::with_evictor([G0], Box::new(LruEvictor::default()));
        for m in [&mut a, &mut b] {
            m.insert(G0, A);
            m.insert(G0, B);
            m.touch(G0, A);
        }
        assert_eq!(a.resident(G0), b.resident(G0));
        assert_eq!(
            a.select_victims(G0, 100, 0, |_| 100, &[]),
            b.select_victims(G0, 100, 0, |_| 100, &[])
        );
        assert_eq!(a.evictor_name(), "lru");
    }

    #[test]
    fn save_load_round_trips_every_builtin_policy() {
        for policy in ["lru", "fifo", "random"] {
            let mut m = mgr(policy);
            m.insert(G0, A);
            m.insert(G0, B);
            m.insert(G1, A);
            m.touch(G0, A);
            m.select_victims(G0, 100, 0, |_| 100, &[]).unwrap();

            let mut enc = Enc::new();
            m.save_state(&mut enc);
            let bytes = enc.into_bytes();
            let mut fresh = mgr(policy);
            let mut dec = Dec::new(&bytes);
            fresh.load_state(&mut dec).expect("load");
            dec.finish().expect("no trailing bytes");

            assert_eq!(fresh.resident(G0), m.resident(G0), "{policy}");
            assert_eq!(fresh.resident(G1), m.resident(G1), "{policy}");
            assert_eq!(fresh.gpus_with(A), m.gpus_with(A), "{policy}");
            assert_eq!(fresh.evictions(), m.evictions(), "{policy}");
            // Continued operation is identical — for Random this proves
            // the RNG stream resumed mid-sequence.
            assert_eq!(
                fresh.select_victims(G1, 100, 0, |_| 100, &[]),
                m.select_victims(G1, 100, 0, |_| 100, &[]),
                "{policy}"
            );
        }
    }

    #[test]
    fn load_state_rejects_unsorted_replica_lists() {
        let mut enc = Enc::new();
        enc.put_usize(1); // one model
        enc.put_usize(2); // two replicas, out of order
        enc.put_u16(1);
        enc.put_u16(0);
        enc.put_u64(0);
        let bytes = enc.into_bytes();
        let mut m = mgr("lru");
        assert!(matches!(
            m.load_state(&mut Dec::new(&bytes)),
            Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn custom_evictor_plugs_in() {
        /// Evicts the *largest* model id first — trivially not a builtin.
        #[derive(Debug, Default)]
        struct BiggestIdFirst {
            lists: OrderLists,
        }
        impl Evictor for BiggestIdFirst {
            fn name(&self) -> &'static str {
                "biggest-id"
            }
            fn attach_gpu(&mut self, gpu: GpuId) {
                self.lists.attach(gpu);
            }
            fn on_insert(&mut self, gpu: GpuId, model: ModelId) {
                self.lists.push_hot(gpu, model);
            }
            fn on_hit(&mut self, _gpu: GpuId, _model: ModelId) {}
            fn on_remove(&mut self, gpu: GpuId, model: ModelId) {
                self.lists.remove(gpu, model);
            }
            fn order(&self, gpu: GpuId) -> Vec<ModelId> {
                self.lists.order(gpu)
            }
            fn pick_victim(&mut self, _gpu: GpuId, candidates: &[ModelId]) -> Option<ModelId> {
                candidates.iter().copied().max()
            }
        }

        let mut m = CacheManager::with_evictor([G0], Box::new(BiggestIdFirst::default()));
        m.insert(G0, A);
        m.insert(G0, B);
        m.insert(G0, C);
        let victims = m.select_victims(G0, 200, 0, |_| 100, &[]).unwrap();
        assert_eq!(victims, vec![C, B], "largest ids evicted first");
        assert_eq!(m.evictor_name(), "biggest-id");
    }
}
