//! A small, fast, deterministic pseudo-random generator.
//!
//! Repeatability (the tutorial's fourth chapter) demands that synthetic data
//! sets regenerate *bit-identically* from a seed recorded in the experiment
//! configuration. SplitMix64 is tiny, passes BigCrush-level smoke tests for
//! this use, and its entire state is one `u64` that fits in a config file.

/// SplitMix64 generator (Steele, Lea & Flood 2014).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

/// The SplitMix64 finalizer: a high-quality 64-bit mixing function (also
/// the core of `fmix64` / Stafford's Mix13 family).
///
/// This is the **one** hash mixer shared across the workspace — minidb's
/// join/group-by hashing, `net`'s connection→shard placement, and the
/// splittable stream derivation below all call it, so a hash-quality fix
/// lands everywhere at once and kernels can vectorize the identical
/// arithmetic without changing results.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline]
fn mix(z: u64) -> u64 {
    mix64(z)
}

impl SplitMix64 {
    /// Creates a generator from a seed. Identical seeds produce identical
    /// streams on every platform.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derives an independent stream as a **pure function** of
    /// `(root, stream)` — no generator state is consumed, so any stream can
    /// be derived in any order (or on any thread) and always yields the
    /// same values. This is the splittable derivation parallel data
    /// generation and parallel experiment scheduling rely on: stream `k`
    /// is identical whether streams `0..k` were derived before it or not.
    pub fn split(root: u64, stream: u64) -> SplitMix64 {
        SplitMix64::new(mix(
            mix(root).wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        ))
    }

    /// Derives a child stream from this generator's *current state* without
    /// advancing it — the two-level analogue of [`SplitMix64::split`]
    /// (e.g. per-table stream, then per-chunk substreams).
    pub fn substream(&self, stream: u64) -> SplitMix64 {
        SplitMix64::split(self.state, stream)
    }

    /// The generator's entire state (one `u64`) — recordable in a config
    /// file, restorable with [`SplitMix64::new`].
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift method with rejection to avoid modulo
    /// bias.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below requires bound > 0");
        // Lemire's method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn next_range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "next_range_i64 requires lo <= hi");
        let span = (hi as i128 - lo as i128 + 1) as u64;
        lo.wrapping_add(self.next_below(span) as i64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn next_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }

    /// Bernoulli draw with probability `p`.
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Derives an independent child generator; the usual way to give each
    /// table / column / experiment its own stream while recording only one
    /// root seed.
    pub fn fork(&mut self, stream: u64) -> SplitMix64 {
        // Mix the stream id into a fresh state drawn from this generator.
        let base = self.next_u64();
        SplitMix64::new(base ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, data: &mut [T]) {
        for i in (1..data.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            data.swap(i, j);
        }
    }

    /// Picks a uniformly random element reference.
    pub fn choose<'a, T>(&mut self, data: &'a [T]) -> Option<&'a T> {
        if data.is_empty() {
            None
        } else {
            Some(&data[self.next_below(data.len() as u64) as usize])
        }
    }
}

/// The workspace's one retry backoff, in ms, before retry `attempt`
/// (2-based: attempt 2 is the first retry): `base` doubles per retry with
/// the exponent capped at 6, plus up to one `base` of jitter drawn from
/// `SplitMix64::split(seed, attempt)`, never more than `cap`; `0` for a
/// non-positive `base`. A pure function of its arguments, so the same
/// caller retrying the same attempt always waits the same time.
pub fn backoff_ms(base: f64, cap: f64, seed: u64, attempt: u32) -> f64 {
    if base <= 0.0 {
        return 0.0;
    }
    let exponent = attempt.saturating_sub(2).min(6);
    let jitter = SplitMix64::split(seed, attempt as u64).next_f64() * base;
    (base * (1u64 << exponent) as f64 + jitter).min(cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn known_first_value() {
        // Reference value of SplitMix64 with seed 0 (from the public-domain
        // reference implementation).
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn f64_mean_is_near_half() {
        let mut r = SplitMix64::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean={mean}");
    }

    #[test]
    fn next_below_is_unbiased_enough() {
        let mut r = SplitMix64::new(13);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[r.next_below(3) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as i64 - 10_000).abs() < 500, "counts={counts:?}");
        }
    }

    #[test]
    fn next_range_covers_bounds() {
        let mut r = SplitMix64::new(17);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let v = r.next_range_i64(-2, 2);
            assert!((-2..=2).contains(&v));
            seen_lo |= v == -2;
            seen_hi |= v == 2;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn next_range_single_value() {
        let mut r = SplitMix64::new(19);
        assert_eq!(r.next_range_i64(5, 5), 5);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SplitMix64::new(23);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(v, (0..100).collect::<Vec<u32>>(), "astronomically unlikely");
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut root = SplitMix64::new(99);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn split_is_order_independent() {
        // The whole point of split over fork: stream k does not depend on
        // which (or how many) other streams were derived first.
        let mut direct = SplitMix64::split(42, 7);
        let _ = SplitMix64::split(42, 1);
        let _ = SplitMix64::split(42, 2);
        let mut after_others = SplitMix64::split(42, 7);
        for _ in 0..32 {
            assert_eq!(direct.next_u64(), after_others.next_u64());
        }
    }

    #[test]
    fn split_streams_diverge() {
        let mut a = SplitMix64::split(42, 0);
        let mut b = SplitMix64::split(42, 1);
        let mut c = SplitMix64::split(43, 0);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_ne!(x, y, "streams of one root must differ");
        assert_ne!(x, z, "same stream of different roots must differ");
    }

    #[test]
    fn substream_does_not_advance_parent() {
        let parent = SplitMix64::split(7, 3);
        let before = parent.state();
        let mut s1 = parent.substream(0);
        let mut s2 = parent.substream(1);
        assert_eq!(parent.state(), before, "substream must not mutate");
        assert_ne!(s1.next_u64(), s2.next_u64());
        // Re-derivable at any time.
        let mut again = parent.substream(0);
        assert_eq!(
            SplitMix64::split(7, 3).substream(0).next_u64(),
            again.next_u64()
        );
    }

    #[test]
    fn choose_from_empty_is_none() {
        let mut r = SplitMix64::new(3);
        let empty: [u8; 0] = [];
        assert!(r.choose(&empty).is_none());
        assert_eq!(r.choose(&[42]), Some(&42));
    }

    #[test]
    #[should_panic(expected = "next_below requires bound > 0")]
    fn next_below_zero_panics() {
        SplitMix64::new(0).next_below(0);
    }

    #[test]
    fn mix64_matches_generator_output() {
        // next_u64 is exactly mix64 over the advanced state; pinning that
        // equivalence guards the shared mixer against drift.
        let mut r = SplitMix64::new(1234);
        let state = r.state().wrapping_add(0x9E37_79B9_7F4A_7C15);
        assert_eq!(r.next_u64(), mix64(state));
    }

    #[test]
    fn mix64_bucket_distribution_is_uniform() {
        // Distribution smoke test for the shared mixer: sequential keys
        // (the worst realistic input — dense foreign keys, conn ids) must
        // land uniformly across a small bucket count.
        const BUCKETS: usize = 16;
        const N: usize = 64_000;
        let mut counts = [0usize; BUCKETS];
        for k in 0..N as u64 {
            counts[(mix64(k) % BUCKETS as u64) as usize] += 1;
        }
        let expected = (N / BUCKETS) as i64;
        for (b, &c) in counts.iter().enumerate() {
            let dev = (c as i64 - expected).abs();
            assert!(
                dev < expected / 10,
                "bucket {b} has {c}, expected ~{expected} (counts={counts:?})"
            );
        }
    }

    #[test]
    fn mix64_flips_about_half_the_bits() {
        // Avalanche smoke: flipping one input bit should flip ~32 of 64
        // output bits on average.
        let mut total = 0u64;
        let trials = 1_000u64;
        for k in 0..trials {
            let base = mix64(k);
            total += (base ^ mix64(k ^ 1)).count_ones() as u64;
        }
        let avg = total as f64 / trials as f64;
        assert!((avg - 32.0).abs() < 2.0, "avalanche avg={avg}");
    }

    #[test]
    fn backoff_pins_the_formula_both_retry_loops_ran() {
        // Reference bits from an independent transcription of the formula:
        // first retry, a doubled one, the cap, and the exponent's ceiling.
        for (base, cap, seed, attempt, bits) in [
            (1.0, 250.0, 7, 2, 0x3ffc_705a_1c7e_1894u64),
            (2.0, 250.0, 42 ^ 7, 5, 0x4030_723d_18f2_f6dd),
            (10.0, 250.0, 3, 9, 0x406f_4000_0000_0000),
            (1.0, 1e9, 1, 30, 0x4050_2fe4_5add_d3be),
        ] {
            assert_eq!(backoff_ms(base, cap, seed, attempt).to_bits(), bits);
        }
        assert_eq!(backoff_ms(0.0, 250.0, 7, 2), 0.0);
    }
}
