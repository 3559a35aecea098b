//! Deterministic pseudo-random number generation.
//!
//! Experiments must be exactly reproducible from a seed, and independent
//! components must be able to draw randomness without perturbing each
//! other's streams. [`DetRng`] is a small, fast **splittable** generator
//! built on SplitMix64: calling [`DetRng::split`] derives an independent
//! child stream, so each node/component gets its own generator derived
//! from the experiment seed.
//!
//! Every random draw the simulator makes, the fault model's included,
//! comes from a `DetRng`; no source file uses `rand`.

/// A splittable SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct DetRng {
    state: u64,
    gamma: u64,
}

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline]
fn mix_gamma(z: u64) -> u64 {
    // Ensure the gamma is odd and has reasonably balanced bits.
    let z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    let z = (z ^ (z >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    let z = (z ^ (z >> 33)) | 1;
    if (z ^ (z >> 1)).count_ones() < 24 {
        z ^ 0xAAAA_AAAA_AAAA_AAAA
    } else {
        z
    }
}

impl DetRng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        DetRng {
            state: mix64(seed),
            gamma: GOLDEN_GAMMA,
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(self.gamma);
        mix64(self.state)
    }

    /// Next 32-bit value.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    ///
    /// Uses Lemire's multiply-shift rejection method for unbiased output.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        loop {
            let x = self.next_u64();
            let m = x as u128 * bound as u128;
            let lo = m as u64;
            if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi);
        if lo == hi {
            return lo;
        }
        lo + self.below(hi - lo + 1)
    }

    /// Derive an independent child generator.
    ///
    /// The child's stream is (statistically) independent of the parent's
    /// subsequent output, per the SplitMix64 split construction.
    pub fn split(&mut self) -> DetRng {
        let seed = self.next_u64();
        self.state = self.state.wrapping_add(self.gamma);
        let gamma = mix_gamma(self.state);
        DetRng {
            state: mix64(seed),
            gamma,
        }
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Pick a uniformly random element of a nonempty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty());
        &xs[self.below(xs.len() as u64) as usize]
    }
}

// Checkpointing captures the raw generator words, not the seed: a
// restored stream continues exactly where the original left off.
crate::checkpointed! {
    struct DetRng {
        state,
        gamma,
    }
    validate: DetRng::gamma_is_odd
}

impl DetRng {
    /// Every legal gamma is odd (see `mix_gamma`); an even one is a
    /// corrupted stream, and would degrade the generator.
    fn gamma_is_odd(&self) -> bool {
        self.gamma % 2 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = DetRng::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn snapshot_resumes_mid_stream() {
        let mut a = DetRng::new(0xC0FFEE);
        for _ in 0..13 {
            a.next_u64();
        }
        let mut child = a.split(); // non-default gamma too
        let mut b = crate::ckpt::roundtrip(&a).unwrap();
        let mut c = crate::ckpt::roundtrip(&child).unwrap();
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
            assert_eq!(child.next_u64(), c.next_u64());
        }
    }

    #[test]
    fn range_inclusive() {
        let mut r = DetRng::new(9);
        for _ in 0..100 {
            let v = r.range(5, 7);
            assert!((5..=7).contains(&v));
        }
        assert_eq!(r.range(3, 3), 3);
    }

    #[test]
    fn split_streams_are_distinct() {
        let mut parent = DetRng::new(5);
        let mut child = parent.split();
        let collisions = (0..256)
            .filter(|_| parent.next_u64() == child.next_u64())
            .count();
        assert_eq!(collisions, 0);
    }

    #[test]
    fn split_is_deterministic() {
        let mut p1 = DetRng::new(13);
        let mut p2 = DetRng::new(13);
        let mut c1 = p1.split();
        let mut c2 = p2.split();
        for _ in 0..32 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::new(17);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, sorted, "a 50-element shuffle should move something");
    }

    #[test]
    fn choose_returns_member() {
        let mut r = DetRng::new(19);
        let xs = [10, 20, 30];
        for _ in 0..20 {
            assert!(xs.contains(r.choose(&xs)));
        }
    }
}
