//! Inference requests as the scheduler sees them.

use gfaas_gpu::ModelId;
use gfaas_sim::time::SimTime;
use gfaas_snap::Weighted;

/// One queued inference request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Unique, monotone request id (assignment order = arrival order).
    pub id: u64,
    /// The function rank that issued the request (for reporting).
    pub function: u32,
    /// The model the request needs.
    pub model: ModelId,
    /// Inference batch size.
    pub batch: usize,
    /// Arrival time at the scheduler's global queue.
    pub arrival: SimTime,
    /// How many times the out-of-order dispatcher has skipped this request
    /// (Algorithm 1's visit counter; compared against the starvation limit).
    pub visits: u32,
    /// Owning tenant (§VI multi-tenancy; 0 when tenancy is disabled).
    pub tenant: u16,
}

impl Request {
    /// Builds a fresh request with a zero visit counter, owned by tenant 0.
    pub fn new(id: u64, function: u32, model: ModelId, batch: usize, arrival: SimTime) -> Self {
        Request {
            id,
            function,
            model,
            batch,
            arrival,
            visits: 0,
            tenant: 0,
        }
    }

    /// Assigns the owning tenant (builder style).
    pub fn with_tenant(mut self, tenant: u16) -> Self {
        self.tenant = tenant;
        self
    }
}

/// A queued request weighs its arrival tick count, so the global queue
/// keeps Σ arrival and a lookahead fork bills the queue's total age as
/// `len · now − Σ arrival` instead of walking it.
impl Weighted for Request {
    fn weight(&self) -> u128 {
        u128::from(self.arrival.as_micros())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_request_has_no_visits() {
        let r = Request::new(1, 0, ModelId(3), 32, SimTime::from_secs(5));
        assert_eq!(r.visits, 0);
        assert_eq!(r.model, ModelId(3));
        assert_eq!(r.batch, 32);
    }
}
