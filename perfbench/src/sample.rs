//! Seeded input generation: the seeds the co-design requests run with.

/// The seed that reproduces the `table3` matrix exactly: every request
/// runs with seed 3.
pub const DEFAULT_SEED: u64 = 3;

/// The seed of each of `n` requests. The default seed gives every
/// request seed 3, as `table3` does; any other seed gives each request
/// its own seed, so a pass averages over `n` independent optimizer
/// trajectories instead of repeating one.
pub fn request_seeds(seed: u64, n: usize) -> Vec<u64> {
    if seed == DEFAULT_SEED {
        return vec![seed; n];
    }
    let mut rng = SplitMix64(seed);
    (0..n).map(|_| rng.next()).collect()
}

/// SplitMix64 (Steele et al.): a tiny, well-mixed deterministic stream.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_seeds_are_fixed_by_the_seed() {
        assert_eq!(request_seeds(DEFAULT_SEED, 3), vec![3, 3, 3]);
        let a = request_seeds(7, 12);
        assert_eq!(a, request_seeds(7, 12));
        assert_ne!(a, request_seeds(8, 12));
        assert!(a.windows(2).all(|p| p[0] != p[1]));
    }
}
