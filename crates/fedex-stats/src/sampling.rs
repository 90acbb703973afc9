//! Uniform row sampling — the FEDEX-Sampling optimization (§3.7).
//!
//! Interestingness scores are computed on a uniform sample of the input
//! rows (default 5K in the paper); contribution is still computed over all
//! rows. Sampling is seeded for reproducible experiments.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draw `k` distinct row indices uniformly at random from `0..n`.
///
/// When `k >= n` all indices are returned (in order). Uses a partial
/// Fisher–Yates shuffle: O(k) memory beyond the index vector, O(n) setup.
pub fn uniform_sample_indices(n: usize, k: usize, seed: u64) -> Vec<usize> {
    if k >= n {
        return (0..n).collect();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn sample_is_distinct_and_in_range() {
        let s = uniform_sample_indices(1000, 100, 42);
        assert_eq!(s.len(), 100);
        let set: HashSet<usize> = s.iter().copied().collect();
        assert_eq!(set.len(), 100);
        assert!(s.iter().all(|&i| i < 1000));
    }

    #[test]
    fn oversized_sample_returns_all() {
        let s = uniform_sample_indices(10, 50, 0);
        assert_eq!(s, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            uniform_sample_indices(500, 50, 7),
            uniform_sample_indices(500, 50, 7)
        );
        assert_ne!(
            uniform_sample_indices(500, 50, 7),
            uniform_sample_indices(500, 50, 8)
        );
    }

    #[test]
    fn roughly_uniform() {
        // Sample 5000 of 10000 many times; each index should appear ~half
        // the time. Check a loose bound on a few fixed indices.
        let trials = 200;
        let mut hits = [0usize; 3];
        for t in 0..trials {
            let s: HashSet<usize> = uniform_sample_indices(10_000, 5_000, t as u64)
                .into_iter()
                .collect();
            for (j, &idx) in [0usize, 5_000, 9_999].iter().enumerate() {
                if s.contains(&idx) {
                    hits[j] += 1;
                }
            }
        }
        for &h in &hits {
            let rate = h as f64 / trials as f64;
            assert!((rate - 0.5).abs() < 0.15, "rate {rate} too far from 0.5");
        }
    }

    #[test]
    fn zero_k() {
        assert!(uniform_sample_indices(10, 0, 1).is_empty());
    }
}
