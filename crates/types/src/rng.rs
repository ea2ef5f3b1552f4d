//! The workspace's two deterministic generators.
//!
//! [`splitmix64`] steps a bare `u64` state in place. The cut-mesh
//! topology selects which links to sever with it, and the fault-campaign
//! engine samples thousands of randomized link-fault scenarios whose
//! results must be bit-identical across machines and thread counts. They
//! all draw from this one splitmix64 so a `(seed, index)` pair names the
//! same number everywhere.
//!
//! [`Rng`] is xoshiro256** (Blackman & Vigna), seeded by four
//! `splitmix64` steps. Synthetic and application traffic, the fault
//! plans and the Monte-Carlo reliability estimates draw from it. Its
//! stream is defined here and nowhere else, so every seeded test,
//! checkpoint and experiment stays reproducible.

/// One step of the splitmix64 sequence: advances `state` and returns
/// the next 64-bit output. Passes BigCrush; more than good enough for
/// picking links and onset cycles deterministically.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A bounded draw: `splitmix64` reduced to `0..n` (`n > 0`). Uses the
/// high-quality upper bits via 128-bit multiply so small ranges stay
/// unbiased enough for scenario sampling.
#[inline]
pub fn splitmix64_below(state: &mut u64, n: u64) -> u64 {
    debug_assert!(n > 0, "splitmix64_below needs a positive bound");
    ((splitmix64(state) as u128 * n as u128) >> 64) as u64
}

/// The xoshiro256** generator: 256 bits of state, 64-bit outputs, and
/// unbiased bounded draws. Not cryptographic; fast and statistically
/// sound for simulation.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// A generator whose stream is fully determined by `seed`: four
    /// [`splitmix64`] steps from `seed` fill the state words, which
    /// decorrelates them even for adjacent or zero seeds.
    pub fn seeded(mut seed: u64) -> Self {
        let mut next = || splitmix64(&mut seed);
        let s = [next(), next(), next(), next()];
        Rng { s }
    }

    /// The four state words, for checkpointing: a generator rebuilt from
    /// them by [`Rng::from_state`] continues the exact same stream.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuild a generator from words captured by [`Rng::state`]. `None`
    /// on the all-zero state: it is the one fixed point of the
    /// transition, no seeded generator reaches it, and it would yield
    /// only zeros.
    pub fn from_state(s: [u64; 4]) -> Option<Self> {
        (s != [0; 4]).then_some(Rng { s })
    }

    /// The next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`: the top 53 bits of a draw, scaled by 2⁻⁵³.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n`, unbiased by Lemire's multiply-and-reject.
    /// Panics when `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        let threshold = n.wrapping_neg() % n;
        loop {
            let m = u128::from(self.next_u64()) * u128::from(n);
            if m as u64 >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform in `0..=hi`; the full range `0..=u64::MAX` is one raw draw.
    #[inline]
    pub fn at_most(&mut self, hi: u64) -> u64 {
        match hi.checked_add(1) {
            Some(n) => self.below(n),
            None => self.next_u64(),
        }
    }

    /// A uniform index into a collection of `len` elements; panics when
    /// `len == 0`.
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Fisher–Yates shuffle: from the last slot down, swap each with a
    /// uniformly chosen slot at or before it.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.index(i + 1));
        }
    }

    /// A uniformly chosen element, or `None` (without drawing) when `xs`
    /// is empty.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        (!xs.is_empty()).then(|| &xs[self.index(xs.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_is_deterministic_and_distinct() {
        let mut a = 42u64;
        let mut b = 42u64;
        let xs: Vec<u64> = (0..8).map(|_| splitmix64(&mut a)).collect();
        let ys: Vec<u64> = (0..8).map(|_| splitmix64(&mut b)).collect();
        assert_eq!(xs, ys);
        let mut c = 43u64;
        let zs: Vec<u64> = (0..8).map(|_| splitmix64(&mut c)).collect();
        assert_ne!(xs, zs);
        // Known first output for seed 0 (reference splitmix64 vector).
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220A8397B1DCDAF);
    }

    #[test]
    fn bounded_draws_stay_in_range() {
        let mut s = 7u64;
        for n in [1u64, 2, 3, 10, 1000] {
            for _ in 0..100 {
                assert!(splitmix64_below(&mut s, n) < n);
            }
        }
    }

    /// Known-answer vectors: every stream in the workspace (traffic, fault
    /// plans, the Monte-Carlo estimates, checkpointed generator words)
    /// reads these bits, so any change to them is a change to every
    /// seeded result.
    #[test]
    fn xoshiro_known_answers() {
        let first8 = |seed| {
            let mut r = Rng::seeded(seed);
            [(); 8].map(|()| r.next_u64())
        };
        assert_eq!(
            first8(0),
            [
                0x99EC5F36CB75F2B4,
                0xBF6E1F784956452A,
                0x1A5F849D4933E6E0,
                0x6AA594F1262D2D2C,
                0xBBA5AD4A1F842E59,
                0xFFEF8375D9EBCACA,
                0x6C160DEED2F54C98,
                0x8920AD648FC30A3F,
            ]
        );
        assert_eq!(
            first8(42),
            [
                0x15780B2E0C2EC716,
                0x6104D9866D113A7E,
                0xAE17533239E499A1,
                0xECB8AD4703B360A1,
                0xFDE6DC7FE2EC5E64,
                0xC50DA53101795238,
                0xB82154855A65DDB2,
                0xD99A2743EBE60087,
            ]
        );
        assert_eq!(
            first8(u64::MAX),
            [
                0x8F5520D52A7EAD08,
                0xC476A018CAA1802D,
                0x81DE31C0D260469E,
                0xBF658D7E065F3C2F,
                0x913593FDA1BCA32A,
                0xBB535E93941BA525,
                0x5ECDA415C3C6DFDE,
                0xC487398FC9DE9AE2,
            ]
        );

        let mut r = Rng::seeded(7);
        assert_eq!(
            [(); 4].map(|()| r.next_f64().to_bits()),
            [
                0x3FE66B1F5EE9DF2E,
                0x3FD1D70F6593D20A,
                0x3FEADE3A6932A58F,
                0x3FEF65270E63D00E,
            ]
        );

        // One stream through every bounded draw, so the draw count of
        // each (including Lemire's rejections) is pinned too.
        let mut r = Rng::seeded(9);
        let mut four = |n| [(); 4].map(|()| r.below(n));
        assert_eq!(four(1), [0; 4]);
        assert_eq!(four(3), [2, 2, 2, 1]);
        assert_eq!(four(1000), [149, 453, 752, 989]);
        assert_eq!(
            four((1 << 63) + 1),
            [
                8741889694517089338,
                3945609101756614034,
                8418242009808110753,
                1702726476561839931,
            ]
        );
        assert_eq!(
            [r.at_most(u64::MAX), r.at_most(u64::MAX)],
            [0x525FAA86060B2FAF, 0x3B16F4DA8A5E235B]
        );

        let mut r = Rng::seeded(1);
        let mut v: Vec<u32> = (0..10).collect();
        r.shuffle(&mut v);
        assert_eq!(v, [3, 6, 1, 5, 0, 9, 2, 8, 4, 7]);

        let mut r = Rng::seeded(2);
        let c = ["a", "b", "c", "d", "e"];
        assert_eq!(
            [(); 4].map(|()| *r.choose(&c).unwrap()),
            ["a", "d", "a", "d"]
        );
    }

    #[test]
    fn seeding_is_deterministic() {
        let mut a = Rng::seeded(42);
        let mut b = Rng::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seeded(43);
        assert_ne!(Rng::seeded(42).next_u64(), c.next_u64());
    }

    #[test]
    fn state_round_trips_and_rejects_all_zero() {
        let mut a = Rng::seeded(5);
        a.next_u64();
        let mut b = Rng::from_state(a.state()).unwrap();
        assert_eq!(a.next_u64(), b.next_u64());
        assert!(Rng::from_state([0; 4]).is_none());
    }

    #[test]
    fn f64_is_uniform_unit_interval() {
        let mut rng = Rng::seeded(7);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn range_covers_all_values_without_bias() {
        let mut rng = Rng::seeded(11);
        let mut counts = [0u32; 5];
        let n = 50_000;
        for _ in 0..n {
            counts[rng.index(5)] += 1;
        }
        for c in counts {
            let expected = n as f64 / 5.0;
            assert!(
                (f64::from(c) - expected).abs() < expected * 0.1,
                "{counts:?}"
            );
        }
    }

    #[test]
    fn inclusive_range_hits_both_ends() {
        let mut rng = Rng::seeded(3);
        let mut lo = false;
        let mut hi = false;
        for _ in 0..1_000 {
            match rng.at_most(3) {
                0 => lo = true,
                3 => hi = true,
                _ => {}
            }
        }
        assert!(lo && hi);
    }

    #[test]
    fn full_u64_range_is_accepted() {
        let mut rng = Rng::seeded(5);
        let _ = rng.at_most(u64::MAX);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seeded(1);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements almost surely move");
    }

    #[test]
    fn choose_covers_every_element() {
        let mut rng = Rng::seeded(2);
        let v = [10, 20, 30];
        let mut seen = [false; 3];
        for _ in 0..200 {
            let x = *rng.choose(&v).unwrap();
            seen[(x / 10 - 1) as usize] = true;
        }
        assert_eq!(seen, [true; 3]);
        assert!(rng.choose(&Vec::<u8>::new()).is_none());
    }
}
