//! GPU device-memory accounting.
//!
//! A real GPU gives a process raw allocations and fails with OOM when the
//! device is full; there is no swapping. [`MemoryPool`] reproduces exactly
//! that: explicit allocation/free with a hard capacity, no overcommit.
//! Fragmentation is not modelled — CUDA's virtual addressing makes model
//! weights effectively relocatable at this granularity, and the paper's
//! cache manager reasons purely in terms of total occupancy (Table I's
//! per-model "occupation size").

/// Handle to one live allocation in a [`MemoryPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AllocId(pub u64);

/// Returned when an allocation would exceed device capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OomError {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes currently free.
    pub free: u64,
    /// Total device capacity in bytes.
    pub capacity: u64,
}

impl std::fmt::Display for OomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of GPU memory: requested {} B, {} B free of {} B",
            self.requested, self.free, self.capacity
        )
    }
}

impl std::error::Error for OomError {}

/// A fixed-capacity device-memory pool with per-allocation bookkeeping.
#[derive(Debug)]
pub struct MemoryPool {
    capacity: u64,
    used: u64,
    next_id: u64,
    /// Live allocations sorted by id. Ids only grow, so an allocation
    /// appends; a device holds a handful of models, so a flat array with
    /// binary search beats a tree map, and copying it into a reused
    /// buffer (a snapshot pre-image) allocates nothing.
    allocs: Vec<(AllocId, u64)>,
}

impl Clone for MemoryPool {
    fn clone(&self) -> Self {
        MemoryPool {
            capacity: self.capacity,
            used: self.used,
            next_id: self.next_id,
            allocs: self.allocs.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        let MemoryPool {
            capacity,
            used,
            next_id,
            allocs,
        } = self;
        *capacity = src.capacity;
        *used = src.used;
        *next_id = src.next_id;
        allocs.clone_from(&src.allocs);
    }
}

impl MemoryPool {
    /// Creates a pool of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        MemoryPool {
            capacity,
            used: 0,
            next_id: 0,
            allocs: Vec::new(),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes currently free.
    pub fn free(&self) -> u64 {
        self.capacity - self.used
    }

    /// Fraction of capacity in use, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.used as f64 / self.capacity as f64
        }
    }

    /// Number of live allocations.
    pub fn alloc_count(&self) -> usize {
        self.allocs.len()
    }

    /// True iff `size` bytes could be allocated right now.
    pub fn can_fit(&self, size: u64) -> bool {
        size <= self.free()
    }

    /// Allocates `size` bytes, or fails with [`OomError`]. Zero-byte
    /// allocations are legal (CUDA permits them) and consume only an id.
    pub fn try_alloc(&mut self, size: u64) -> Result<AllocId, OomError> {
        if !self.can_fit(size) {
            return Err(OomError {
                requested: size,
                free: self.free(),
                capacity: self.capacity,
            });
        }
        let id = AllocId(self.next_id);
        self.next_id += 1;
        self.used += size;
        self.allocs.push((id, size));
        Ok(id)
    }

    /// Frees a live allocation, returning its size. Double-free returns
    /// `None` and leaves the pool untouched.
    pub fn free_alloc(&mut self, id: AllocId) -> Option<u64> {
        let i = self.alloc_idx(id).ok()?;
        let (_, size) = self.allocs.remove(i);
        self.used -= size;
        Some(size)
    }

    /// Size of a live allocation, if it exists.
    pub fn size_of(&self, id: AllocId) -> Option<u64> {
        self.alloc_idx(id).ok().map(|i| self.allocs[i].1)
    }

    /// True iff the accounting is whole: the live allocations are
    /// exactly `owned` (sorted by id), their sizes sum to the used bytes,
    /// and those fit the capacity. A decoded pool is checked against the
    /// allocations its owners claim.
    pub fn accounts_for(&self, owned: &[AllocId]) -> bool {
        let sum: u128 = self.allocs.iter().map(|&(_, size)| u128::from(size)).sum();
        self.used <= self.capacity
            && sum == u128::from(self.used)
            && self
                .allocs
                .iter()
                .map(|&(id, _)| id)
                .eq(owned.iter().copied())
    }

    /// Position of `id` in the sorted allocation table.
    fn alloc_idx(&self, id: AllocId) -> Result<usize, usize> {
        self.allocs.binary_search_by_key(&id, |&(a, _)| a)
    }

    /// Serialises the pool's mutable state (capacity is configuration and
    /// is not written — a restore target is built from the same config).
    pub fn save_state(&self, enc: &mut gfaas_snap::Enc) {
        enc.put_u64(self.used);
        enc.put_u64(self.next_id);
        enc.put_usize(self.allocs.len());
        for (id, size) in &self.allocs {
            enc.put_u64(id.0);
            enc.put_u64(*size);
        }
    }

    /// Restores the state written by [`MemoryPool::save_state`].
    pub fn load_state(
        &mut self,
        dec: &mut gfaas_snap::Dec<'_>,
    ) -> Result<(), gfaas_snap::SnapError> {
        self.used = dec.u64()?;
        self.next_id = dec.u64()?;
        let n = dec.usize()?;
        self.allocs.clear();
        self.allocs.reserve(n.min(dec.remaining() / 16));
        for _ in 0..n {
            let id = AllocId(dec.u64()?);
            let size = dec.u64()?;
            if self.allocs.last().is_some_and(|&(last, _)| last >= id) {
                return Err(gfaas_snap::SnapError::Corrupt(
                    "allocation table not sorted",
                ));
            }
            self.allocs.push((id, size));
        }
        if self
            .allocs
            .last()
            .is_some_and(|&(last, _)| last.0 >= self.next_id)
        {
            return Err(gfaas_snap::SnapError::Corrupt(
                "allocation id at or past the id counter",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_free_balance() {
        let mut p = MemoryPool::new(1000);
        let a = p.try_alloc(400).unwrap();
        let b = p.try_alloc(600).unwrap();
        assert_eq!(p.free(), 0);
        assert_eq!(p.alloc_count(), 2);
        assert_eq!(p.free_alloc(a), Some(400));
        assert_eq!(p.free(), 400);
        assert_eq!(p.free_alloc(b), Some(600));
        assert_eq!(p.used(), 0);
    }

    #[test]
    fn oom_is_explicit_and_harmless() {
        let mut p = MemoryPool::new(100);
        p.try_alloc(80).unwrap();
        let err = p.try_alloc(30).unwrap_err();
        assert_eq!(err.requested, 30);
        assert_eq!(err.free, 20);
        assert_eq!(err.capacity, 100);
        // Failed alloc must not perturb accounting.
        assert_eq!(p.used(), 80);
        assert_eq!(p.alloc_count(), 1);
    }

    #[test]
    fn double_free_is_none() {
        let mut p = MemoryPool::new(10);
        let a = p.try_alloc(5).unwrap();
        assert!(p.free_alloc(a).is_some());
        assert!(p.free_alloc(a).is_none());
        assert_eq!(p.used(), 0);
    }

    #[test]
    fn zero_byte_alloc_is_legal() {
        let mut p = MemoryPool::new(0);
        let a = p.try_alloc(0).unwrap();
        assert_eq!(p.size_of(a), Some(0));
        assert_eq!(p.utilization(), 0.0);
    }

    #[test]
    fn exact_fit_succeeds() {
        let mut p = MemoryPool::new(100);
        assert!(p.can_fit(100));
        p.try_alloc(100).unwrap();
        assert!(!p.can_fit(1));
        assert_eq!(p.utilization(), 1.0);
    }

    #[test]
    fn accounts_for_exactly_the_owned_allocations() {
        let mut p = MemoryPool::new(100);
        let a = p.try_alloc(30).unwrap();
        let b = p.try_alloc(50).unwrap();
        assert!(p.accounts_for(&[a, b]));
        assert!(!p.accounts_for(&[a]), "an unowned allocation");
        assert!(!p.accounts_for(&[a, b, AllocId(9)]), "a claim on nothing");
        p.used = 70;
        assert!(
            !p.accounts_for(&[a, b]),
            "used bytes disagree with the sizes"
        );
    }

    #[test]
    fn ids_are_never_reused() {
        let mut p = MemoryPool::new(100);
        let a = p.try_alloc(10).unwrap();
        p.free_alloc(a);
        let b = p.try_alloc(10).unwrap();
        assert_ne!(a, b);
    }
}
