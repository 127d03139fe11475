//! Streaming-multiprocessor (SM) busy-time accounting.
//!
//! Fig 4c of the paper plots average SM utilisation per scheduler. The
//! defining property (§V-C) is that *the SMs are idle while a model is being
//! uploaded*: a cache miss stalls compute until the PCIe transfer finishes.
//! [`SmTracker`] therefore integrates only inference-compute intervals;
//! upload intervals contribute nothing. Utilisation over a horizon is then
//! `busy_time / horizon`.

use gfaas_sim::time::{SimDuration, SimTime};

/// Accumulates SM-busy intervals and reports utilisation over a horizon.
#[derive(Debug, Clone, Copy, Default)]
pub struct SmTracker {
    busy: SimDuration,
    intervals: u64,
    open_since: Option<SimTime>,
}

impl SmTracker {
    /// A tracker with no recorded compute.
    pub fn new() -> Self {
        SmTracker::default()
    }

    /// Marks the SMs busy from `t` (a kernel started). Panics if already
    /// open — the device runs one request at a time.
    pub fn begin(&mut self, t: SimTime) {
        assert!(
            self.open_since.is_none(),
            "SM interval already open; GPU executes one request at a time"
        );
        self.open_since = Some(t);
    }

    /// Marks the SMs idle at `t` (the kernel finished), accumulating the
    /// closed interval. Panics if no interval is open or time runs backwards.
    pub fn end(&mut self, t: SimTime) {
        let start = self.open_since.take().expect("no SM interval open");
        assert!(t >= start, "SM interval ends before it starts");
        self.busy += t.duration_since(start);
        self.intervals += 1;
    }

    /// Records a closed `[from, to]` busy interval directly.
    pub fn record(&mut self, from: SimTime, to: SimTime) {
        assert!(to >= from, "negative SM interval");
        self.busy += to.duration_since(from);
        self.intervals += 1;
    }

    /// Total accumulated busy time, including an open interval up to `now`.
    pub fn busy_until(&self, now: SimTime) -> SimDuration {
        match self.open_since {
            Some(start) if now > start => self.busy + now.duration_since(start),
            _ => self.busy,
        }
    }

    /// Total accumulated busy time of *closed* intervals.
    pub fn busy(&self) -> SimDuration {
        self.busy
    }

    /// Number of closed intervals (completed kernels).
    pub fn intervals(&self) -> u64 {
        self.intervals
    }

    /// Utilisation in `[0, 1]` over `[start, end]`, counting any open
    /// interval up to `end`.
    pub fn utilization(&self, start: SimTime, end: SimTime) -> f64 {
        let span = end.duration_since(start).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        (self.busy_until(end).as_secs_f64() / span).clamp(0.0, 1.0)
    }

    /// When the open interval began; `None` while the SMs are idle.
    pub fn open_since(&self) -> Option<SimTime> {
        self.open_since
    }

    /// True iff an interval is currently open.
    pub fn is_busy(&self) -> bool {
        self.open_since.is_some()
    }

    /// Serialises the tracker.
    pub fn save_state(&self, enc: &mut gfaas_snap::Enc) {
        enc.put_dur(self.busy);
        enc.put_u64(self.intervals);
        enc.put_bool(self.open_since.is_some());
        if let Some(t) = self.open_since {
            enc.put_time(t);
        }
    }

    /// Restores the state written by [`SmTracker::save_state`].
    pub fn load_state(
        &mut self,
        dec: &mut gfaas_snap::Dec<'_>,
    ) -> Result<(), gfaas_snap::SnapError> {
        self.busy = dec.dur()?;
        self.intervals = dec.u64()?;
        self.open_since = if dec.bool()? { Some(dec.time()?) } else { None };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn accumulates_closed_intervals() {
        let mut sm = SmTracker::new();
        sm.begin(t(0));
        sm.end(t(2));
        sm.begin(t(5));
        sm.end(t(6));
        assert_eq!(sm.busy(), SimDuration::from_secs(3));
        assert_eq!(sm.intervals(), 2);
        assert!((sm.utilization(t(0), t(10)) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn open_interval_counts_toward_now() {
        let mut sm = SmTracker::new();
        sm.begin(t(4));
        assert_eq!(sm.busy_until(t(9)), SimDuration::from_secs(5));
        assert!(sm.is_busy());
        assert!((sm.utilization(t(0), t(8)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn record_shortcut_matches_begin_end() {
        let mut a = SmTracker::new();
        a.begin(t(1));
        a.end(t(3));
        let mut b = SmTracker::new();
        b.record(t(1), t(3));
        assert_eq!(a.busy(), b.busy());
    }

    #[test]
    #[should_panic(expected = "one request at a time")]
    fn double_begin_panics() {
        let mut sm = SmTracker::new();
        sm.begin(t(0));
        sm.begin(t(1));
    }

    #[test]
    #[should_panic(expected = "no SM interval open")]
    fn end_without_begin_panics() {
        let mut sm = SmTracker::new();
        sm.end(t(1));
    }

    #[test]
    fn utilization_clamps_and_handles_empty_span() {
        let sm = SmTracker::new();
        assert_eq!(sm.utilization(t(5), t(5)), 0.0);
        assert_eq!(sm.utilization(t(9), t(3)), 0.0);
    }
}
