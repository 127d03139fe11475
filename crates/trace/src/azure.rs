//! Synthetic Azure-like workload generation.
//!
//! The generator reproduces the paper's published trace statistics without
//! the (non-redistributable) raw trace:
//!
//! * Popularity follows Zipf(α) over the full 46,413-function population.
//!   α = 1.2176 is calibrated so the top-15 functions carry ≈56% of the
//!   per-minute invocations, matching §V-A1 exactly (α = 1.0 would give
//!   ~29%, α = 1.3 ~66%).
//! * The working set keeps only the `working_set` most popular functions
//!   and renormalises each minute to exactly `requests_per_min` requests
//!   (the paper's 325, sized for its 12-GPU testbed).
//! * Function rank *r* maps to Table I model `r mod num_models` with the
//!   models in size order, which spreads the size classes evenly across
//!   popularity ranks (the paper's "models with different sizes are
//!   distributed evenly in the workload").
//! * Within each minute, invocations are placed uniformly at random
//!   (deterministically, per seed), as in the paper's per-minute shuffle.

use gfaas_sim::rng::DetRng;
use gfaas_sim::time::SimTime;

use crate::trace::{Trace, TraceRequest};

/// Number of unique functions in the real Azure trace.
pub const AZURE_TOTAL_FUNCTIONS: usize = 46_413;
/// Zipf exponent calibrated to the paper's 56% top-15 share: solving
/// `H_15(α) / H_46413(α) = 0.56` numerically gives α ≈ 1.2176.
pub const AZURE_ZIPF_ALPHA: f64 = 1.2176;
/// The paper's normalised request rate.
pub const PAPER_REQUESTS_PER_MIN: usize = 325;
/// The paper's trace horizon in minutes.
pub const PAPER_MINUTES: usize = 6;
/// Default per-minute burstiness (see [`AzureTraceConfig::burstiness`]).
pub const PAPER_BURSTINESS: f64 = 1.0;
/// Largest burstiness [`AzureTraceConfig::generate`] accepts. Its
/// `Exp(1)` draws are 0 or lie in about `[1.1e-16, 36.7]`; raised to any
/// power up to 16 every nonzero draw stays a normal, finite `f64`, so no
/// minute's modulated total overflows or underflows.
pub const MAX_BURSTINESS: f64 = 16.0;

/// Configuration for one synthetic trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AzureTraceConfig {
    /// Working-set size (the paper sweeps 15 / 25 / 35).
    pub working_set: usize,
    /// Requests per minute after normalisation.
    pub requests_per_min: usize,
    /// Trace length in minutes.
    pub minutes: usize,
    /// Number of models the functions map onto (22 for Table I).
    pub num_models: usize,
    /// Population size the popularity law is defined over.
    pub total_functions: usize,
    /// Zipf exponent.
    pub alpha: f64,
    /// Per-minute burstiness of each function's demand. The real Azure
    /// trace's per-minute composition varies heavily (Shahrad et al. report
    /// highly bursty, timer-driven invocation patterns); the paper keeps
    /// that variation and only rescales each minute's total to 325. We
    /// model it by multiplying each function's weight, per minute, by an
    /// `Exp(1)` sample raised to this power before renormalising:
    /// 0.0 = perfectly steady composition, 1.0 = CV≈1 per-minute demand.
    /// At most [`MAX_BURSTINESS`].
    pub burstiness: f64,
    /// RNG seed; same seed → identical trace.
    pub seed: u64,
}

impl AzureTraceConfig {
    /// The paper's configuration for a given working-set size.
    pub fn paper(working_set: usize, seed: u64) -> Self {
        AzureTraceConfig {
            working_set,
            requests_per_min: PAPER_REQUESTS_PER_MIN,
            minutes: PAPER_MINUTES,
            num_models: 22,
            total_functions: AZURE_TOTAL_FUNCTIONS,
            alpha: AZURE_ZIPF_ALPHA,
            burstiness: PAPER_BURSTINESS,
            seed,
        }
    }

    /// Popularity weights of the working set: the head of the Zipf law over
    /// the full population, renormalised to sum to 1.
    pub fn working_set_weights(&self) -> Vec<f64> {
        assert!(self.working_set > 0, "working set must be nonempty");
        assert!(
            self.working_set <= self.total_functions,
            "working set exceeds population"
        );
        let head: Vec<f64> = (1..=self.working_set)
            .map(|k| 1.0 / (k as f64).powf(self.alpha))
            .collect();
        let sum: f64 = head.iter().sum();
        head.into_iter().map(|w| w / sum).collect()
    }

    /// The model a function rank maps to.
    ///
    /// Table I's models are size-ordered, so a plain `rank % n` would give
    /// the most popular working set exclusively the *smallest* models. The
    /// paper instead "ensures models with different sizes are distributed
    /// evenly in the workload": we interleave the size order
    /// (smallest, largest, 2nd smallest, 2nd largest, …) so that every
    /// working-set prefix spans the full size spectrum.
    pub fn model_of(&self, function: u32) -> u32 {
        interleaved_model_of(function, self.num_models as u32)
    }

    /// Generates the trace. Panics if `burstiness` exceeds
    /// [`MAX_BURSTINESS`] or is NaN.
    pub fn generate(&self) -> Trace {
        assert!(
            self.burstiness <= MAX_BURSTINESS,
            "burstiness {} must be at most {MAX_BURSTINESS}",
            self.burstiness
        );
        let weights = self.working_set_weights();
        let mut rng = DetRng::new(self.seed);
        let mut requests = Vec::with_capacity(self.requests_per_min * self.minutes);
        for minute in 0..self.minutes {
            let minute_weights = if self.burstiness > 0.0 {
                // Modulate each function's demand for this minute, then
                // renormalise; apportion() rescales to exactly 325.
                let modulated: Vec<f64> = weights
                    .iter()
                    .map(|&w| w * rng.exponential(1.0).powf(self.burstiness))
                    .collect();
                let total: f64 = modulated.iter().sum();
                modulated.into_iter().map(|w| w / total).collect()
            } else {
                weights.clone()
            };
            let counts = apportion(&minute_weights, self.requests_per_min);
            let minute_start = 60.0 * minute as f64;
            for (rank, &count) in counts.iter().enumerate() {
                for _ in 0..count {
                    let offset = rng.range_f64(0.0, 60.0);
                    requests.push(TraceRequest {
                        at: SimTime::from_secs_f64(minute_start + offset),
                        function: rank as u32,
                        model: self.model_of(rank as u32),
                    });
                }
            }
        }
        Trace::new(requests)
    }

    /// The top-15 share implied by this configuration over the *full*
    /// population (before working-set truncation) — the statistic the
    /// paper quotes for the raw Azure trace.
    pub fn population_top15_share(&self) -> f64 {
        let mut head = 0.0;
        let mut total = 0.0;
        for k in 1..=self.total_functions {
            let w = 1.0 / (k as f64).powf(self.alpha);
            total += w;
            if k <= 15 {
                head += w;
            }
        }
        head / total
    }
}

/// The size-interleaved function-rank → model mapping shared by every
/// workload generator (see [`AzureTraceConfig::model_of`]): slots
/// alternate between the small end and the large end of the size-ordered
/// model list, so any popularity prefix spans the full size spectrum.
/// `num_models` must be nonzero.
pub fn interleaved_model_of(function: u32, num_models: u32) -> u32 {
    assert!(num_models > 0, "need at least one model");
    let slot = function % num_models;
    if slot.is_multiple_of(2) {
        slot / 2 // 0, 1, 2, … from the small end
    } else {
        num_models - 1 - slot / 2 // n-1, n-2, … from the large end
    }
}

/// Largest-remainder apportionment: integer counts proportional to
/// `weights` summing exactly to `total`.
fn apportion(weights: &[f64], total: usize) -> Vec<usize> {
    let mut counts: Vec<usize> = Vec::with_capacity(weights.len());
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(weights.len());
    let mut assigned = 0usize;
    for (i, &w) in weights.iter().enumerate() {
        let exact = w * total as f64;
        let floor = exact.floor() as usize;
        counts.push(floor);
        assigned += floor;
        remainders.push((i, exact - floor as f64));
    }
    // Hand out the leftover requests to the largest remainders
    // (deterministic tie-break by rank).
    remainders.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut leftover = total - assigned;
    for &(i, _) in &remainders {
        if leftover == 0 {
            break;
        }
        counts[i] += 1;
        leftover -= 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfaas_sim::rng::Zipf;

    #[test]
    fn calibrated_alpha_gives_paper_top15_share() {
        let cfg = AzureTraceConfig::paper(15, 1);
        let share = cfg.population_top15_share();
        assert!(
            (share - 0.56).abs() < 0.03,
            "top-15 share {share:.3}, paper reports 0.56"
        );
    }

    #[test]
    fn trace_has_exact_volume_and_horizon() {
        for ws in [15, 25, 35] {
            let t = AzureTraceConfig::paper(ws, 7).generate();
            assert_eq!(t.len(), 325 * 6);
            let s = t.stats();
            assert_eq!(s.working_set, ws, "ws {ws}");
            assert!(s.span_secs < 360.0);
            // Each minute holds exactly 325 requests.
            for m in 0..6 {
                let lo = SimTime::from_secs(60 * m);
                let hi = SimTime::from_secs(60 * (m + 1));
                let n = t
                    .requests()
                    .iter()
                    .filter(|r| r.at >= lo && r.at < hi)
                    .count();
                assert_eq!(n, 325, "minute {m} of ws {ws}");
            }
        }
    }

    #[test]
    fn popularity_is_monotone_in_rank_without_burstiness() {
        let mut cfg = AzureTraceConfig::paper(35, 3);
        cfg.burstiness = 0.0;
        let t = cfg.generate();
        let counts = t.function_counts();
        let by_rank: Vec<usize> = (0..35u32).map(|r| counts[&r]).collect();
        for w in by_rank.windows(2) {
            assert!(w[0] >= w[1], "rank counts not monotone: {by_rank:?}");
        }
        // The head dominates: rank 0 well above the tail.
        assert!(by_rank[0] > 10 * by_rank[34]);
    }

    #[test]
    fn burstiness_up_to_the_bound_keeps_every_minute_whole() {
        let mut cfg = AzureTraceConfig::paper(35, 7);
        cfg.burstiness = MAX_BURSTINESS;
        assert_eq!(cfg.generate().len(), cfg.requests_per_min * cfg.minutes);
        for bad in [MAX_BURSTINESS + 1.0, 1e300, f64::NAN] {
            cfg.burstiness = bad;
            let refused = std::panic::catch_unwind(|| cfg.generate());
            assert!(refused.is_err(), "burstiness {bad} was accepted");
        }
    }

    #[test]
    fn burstiness_modulates_minutes_but_preserves_skew() {
        // Default burstiness. Per-minute counts of rank 0 should vary
        // across minutes.
        let t = AzureTraceConfig::paper(35, 3).generate();
        let mut per_min = [0usize; 6];
        for r in t.requests().iter().filter(|r| r.function == 0) {
            per_min[(r.at.as_secs_f64() / 60.0) as usize] += 1;
        }
        let min = per_min.iter().min().unwrap();
        let max = per_min.iter().max().unwrap();
        assert!(
            max > min,
            "burstiness must vary per-minute demand: {per_min:?}"
        );
        // Aggregate skew survives: the top-3 ranks dominate the tail-3.
        let counts = t.function_counts();
        let head: usize = (0..3u32).map(|r| counts[&r]).sum();
        let tail: usize = (32..35u32).map(|r| counts[&r]).sum();
        assert!(head > 5 * tail, "head {head} vs tail {tail}");
    }

    #[test]
    fn model_mapping_spreads_sizes() {
        let cfg = AzureTraceConfig::paper(35, 1);
        // 35 functions over 22 models: models 0..12 are used twice.
        let mut used = [0; 22];
        for f in 0..35u32 {
            used[cfg.model_of(f) as usize] += 1;
        }
        assert!(used.iter().all(|&u| u == 1 || u == 2));
        assert_eq!(used.iter().sum::<i32>(), 35);
        // WS 15 uses 15 distinct models.
        let t = AzureTraceConfig::paper(15, 1).generate();
        assert_eq!(t.stats().distinct_models, 15);
    }

    #[test]
    fn same_seed_same_trace_different_seed_differs() {
        let a = AzureTraceConfig::paper(25, 11).generate();
        let b = AzureTraceConfig::paper(25, 11).generate();
        assert_eq!(a.requests(), b.requests());
        let c = AzureTraceConfig::paper(25, 12).generate();
        assert_ne!(a.requests(), c.requests());
    }

    #[test]
    fn apportion_sums_exactly() {
        let w = [0.5, 0.3, 0.2];
        assert_eq!(apportion(&w, 10), vec![5, 3, 2]);
        let counts = apportion(&[0.334, 0.333, 0.333], 100);
        assert_eq!(counts.iter().sum::<usize>(), 100);
        // Pathological remainders still sum exactly.
        let thirds = apportion(&[1.0 / 3.0; 3], 1);
        assert_eq!(thirds.iter().sum::<usize>(), 1);
    }

    #[test]
    fn weights_sum_to_one_and_decrease() {
        let w = AzureTraceConfig::paper(25, 0).working_set_weights();
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for pair in w.windows(2) {
            assert!(pair[0] > pair[1]);
        }
    }

    #[test]
    fn zipf_sampler_consistent_with_weights() {
        // Sanity link between the shared Zipf sampler and our weights.
        let z = Zipf::new(15, AZURE_ZIPF_ALPHA);
        let w = AzureTraceConfig::paper(15, 0).working_set_weights();
        assert_eq!(w.len(), 15);
        for (k, wk) in w.iter().enumerate() {
            assert!((z.pmf(k) - wk).abs() < 1e-9);
        }
    }
}
