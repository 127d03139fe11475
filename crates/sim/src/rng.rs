//! Deterministic random numbers for workload generation.
//!
//! [`DetRng`] is xoshiro256** seeded through SplitMix64 — the standard
//! construction recommended by the xoshiro authors. It is implemented here
//! directly (rather than through the `rand` crate) so the exact stream is
//! pinned by this crate and cannot shift under a dependency upgrade; every
//! experiment in EXPERIMENTS.md quotes numbers produced by this generator.

/// A small, fast, seedable PRNG (xoshiro256**).
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed 0: a valid placeholder for state that is overwritten before use
/// (an all-zero xoshiro state would emit only zeros).
impl Default for DetRng {
    fn default() -> Self {
        DetRng::new(0)
    }
}

impl DetRng {
    /// Creates a generator from a 64-bit seed. Distinct seeds give
    /// independent-looking streams; the same seed always gives the same
    /// stream.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// The raw xoshiro256** state, for checkpointing. Restoring via
    /// [`DetRng::from_state`] resumes the identical stream.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a captured [`DetRng::state`]. The state
    /// must come from a live generator — the all-zero state is a fixed
    /// point of xoshiro and is rejected.
    pub fn from_state(s: [u64; 4]) -> DetRng {
        assert!(
            s.iter().any(|&w| w != 0),
            "the all-zero state is not a valid xoshiro256** state"
        );
        DetRng { s }
    }

    /// Derives a child generator; useful for giving each subsystem its own
    /// stream so adding draws in one place does not perturb another.
    pub fn fork(&mut self, label: u64) -> DetRng {
        DetRng::new(self.next_u64() ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, n)`. `n` must be nonzero.
    ///
    /// Uses Lemire's multiply-shift with rejection for exact uniformity.
    pub fn gen_range(&mut self, n: u64) -> u64 {
        assert!(n > 0, "gen_range upper bound must be positive");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniform usize in `[lo, hi)`. `hi` must exceed `lo`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(hi > lo, "empty range");
        lo + self.gen_range((hi - lo) as u64) as usize
    }

    /// A uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }

    /// An exponentially distributed sample with the given rate (λ).
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "rate must be positive");
        // Inverse CDF; 1-U avoids ln(0).
        -(1.0 - self.next_f64()).ln() / rate
    }

    /// True with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle, in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Uniformly chooses one element by reference; `None` when empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.gen_range(slice.len() as u64) as usize])
        }
    }

    /// Samples an index in `[0, weights.len())` proportionally to `weights`.
    /// All weights must be nonnegative with a positive sum.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut target = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            debug_assert!(w >= 0.0, "negative weight");
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1 // float round-off fallback
    }
}

/// Zipf(α) sampler over ranks `0..n` using a precomputed inverse CDF.
///
/// The Azure trace the paper evaluates on is heavily skewed (the top 15 of
/// 46k functions carry 56% of invocations); the trace generator uses this
/// sampler to reproduce that shape synthetically.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler over `n` ranks with exponent `alpha` (> 0 skews
    /// toward low ranks; `alpha == 0` degenerates to uniform).
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True iff the sampler has exactly zero ranks (never: constructor
    /// forbids it), present for API completeness.
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// The probability mass of rank `k` (0-based).
    pub fn pmf(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }

    /// Draws a rank in `[0, n)`.
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.next_f64();
        match self
            .cdf
            // gfaas-lint: allow(float-ord, CDF entries are cumulative probabilities built from finite weights; expect() panics rather than reorders)
            .binary_search_by(|p| p.partial_cmp(&u).expect("CDF is finite"))
        {
            Ok(i) => (i + 1).min(self.cdf.len() - 1),
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = DetRng::new(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_bounds_and_coverage() {
        let mut rng = DetRng::new(9);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = rng.gen_range(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut rng = DetRng::new(11);
        let n = 8u64;
        let trials = 80_000;
        let mut counts = [0u32; 8];
        for _ in 0..trials {
            counts[rng.gen_range(n) as usize] += 1;
        }
        let expected = trials as f64 / n as f64;
        for &c in &counts {
            assert!((c as f64 - expected).abs() < expected * 0.1);
        }
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = DetRng::new(13);
        let rate = 2.0;
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(rate)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DetRng::new(17);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffle left input sorted");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = DetRng::new(19);
        let w = [0.0, 3.0, 1.0];
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[rng.weighted_index(&w)] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[1] as f64 / counts[2] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn zipf_skews_toward_head() {
        let z = Zipf::new(100, 1.0);
        let mut rng = DetRng::new(23);
        let mut counts = vec![0u32; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
        // Rank 0 should carry roughly 1/H(100) ≈ 19% of the mass.
        let p0 = counts[0] as f64 / 100_000.0;
        assert!((p0 - 0.192).abs() < 0.02, "p0 {p0}");
    }

    #[test]
    fn zipf_alpha_zero_is_uniform() {
        let z = Zipf::new(4, 0.0);
        for k in 0..4 {
            assert!((z.pmf(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(37, 0.8);
        let total: f64 = (0..z.len()).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut root = DetRng::new(5);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn state_round_trip_resumes_the_identical_stream() {
        let mut rng = DetRng::new(31);
        for _ in 0..100 {
            rng.next_u64();
        }
        let saved = rng.state();
        let tail: Vec<u64> = (0..32).map(|_| rng.next_u64()).collect();
        let mut resumed = DetRng::from_state(saved);
        let resumed_tail: Vec<u64> = (0..32).map(|_| resumed.next_u64()).collect();
        assert_eq!(tail, resumed_tail);
    }

    #[test]
    #[should_panic(expected = "all-zero state")]
    fn from_state_rejects_the_zero_fixed_point() {
        DetRng::from_state([0; 4]);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::new(29);
        assert!(!(0..1000).any(|_| rng.chance(0.0)));
        assert!((0..1000).all(|_| rng.chance(1.0)));
    }
}
