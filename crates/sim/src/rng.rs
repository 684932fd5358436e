//! Deterministic random number generation.

/// A deterministic pseudo-random number generator (xoshiro256++ seeded via
/// SplitMix64).
///
/// All randomness in the simulator flows through `DetRng` so that a run is a
/// pure function of its seed — the determinism integration test depends on
/// this. The generator can be [`fork`](Self::fork)ed into statistically
/// independent child streams (one per node, per workload, ...) so that adding
/// a consumer does not perturb the draws seen by existing consumers.
///
/// Not cryptographically secure; this is a simulation RNG.
///
/// ```
/// use mcn_sim::DetRng;
/// let mut a = DetRng::new(7);
/// let mut b = DetRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        DetRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives an independent child stream identified by `stream`.
    ///
    /// Forking with distinct `stream` values from the same parent state
    /// yields streams that do not overlap in practice; forking twice with the
    /// same value yields identical children (useful for replay).
    pub fn fork(&self, stream: u64) -> DetRng {
        let mut sm = self.s[0] ^ self.s[3] ^ stream.wrapping_mul(0xD1342543DE82EF95);
        DetRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)` using Lemire's method.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be positive");
        // Widening multiply rejection sampling (Lemire 2019).
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range lo must not exceed hi");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_below(hi - lo + 1)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Exponentially distributed sample with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        // Inverse CDF; 1 - next_f64() avoids ln(0).
        -mean * (1.0 - self.next_f64()).ln()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// FNV-1a over `bytes`, folded into `state` (`0` starts from the offset
/// basis). The one stable name → number map of the workspace: fault and
/// outage plans fork their streams from a component's name with it, the
/// sweep derives cell seeds and marker hashes, and the datacenter picks
/// ECMP paths by flow. Stable across platforms and releases.
pub fn fnv1a64(state: u64, bytes: &[u8]) -> u64 {
    let mut h = if state == 0 {
        0xcbf2_9ce4_8422_2325
    } else {
        state
    };
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = DetRng::new(123);
        let mut b = DetRng::new(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = DetRng::new(124);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn forked_streams_differ_and_replay() {
        let root = DetRng::new(1);
        let mut x = root.fork(0);
        let mut y = root.fork(1);
        let mut x2 = root.fork(0);
        assert_ne!(x.next_u64(), y.next_u64());
        x = root.fork(0);
        assert_eq!(x.next_u64(), x2.next_u64());
    }

    #[test]
    fn next_below_in_bounds_and_roughly_uniform() {
        let mut rng = DetRng::new(42);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            let v = rng.next_below(10);
            assert!(v < 10);
            counts[v as usize] += 1;
        }
        for &c in &counts {
            // Each bucket should get ~10_000; allow +-10%.
            assert!((9_000..=11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn range_endpoints_reachable() {
        let mut rng = DetRng::new(7);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            match rng.range(3, 5) {
                3 => saw_lo = true,
                5 => saw_hi = true,
                4 => {}
                v => panic!("out of range {v}"),
            }
        }
        assert!(saw_lo && saw_hi);
        assert_eq!(rng.range(9, 9), 9);
    }

    #[test]
    fn f64_in_unit_interval_with_sane_mean() {
        let mut rng = DetRng::new(11);
        let mut sum = 0.0;
        for _ in 0..100_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 100_000.0;
        assert!((0.49..0.51).contains(&mean), "mean {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::new(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2_200..2_800).contains(&hits), "hits {hits}");
    }

    #[test]
    fn exp_mean() {
        let mut rng = DetRng::new(9);
        let n = 200_000;
        let mean = (0..n).map(|_| rng.exp(3.0)).sum::<f64>() / n as f64;
        assert!((2.9..3.1).contains(&mean), "mean {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = DetRng::new(3);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "astronomically unlikely to be identity");
    }
}
