//! The skyline operator (§3.6) over (interestingness, standardized
//! contribution) pairs, plus the optional weighted top-k post-ranking.
//!
//! Two evaluation strategies produce the same skyline:
//!
//! * [`skyline_indices`] — the batch O(n²) reference over a finished
//!   candidate list;
//! * [`StreamingSkyline`] — an incremental accumulator the fused
//!   Contribute→Skyline pipeline path feeds as each `(partition, column)`
//!   work unit completes, so dominance checks overlap contribution
//!   computation instead of waiting on a full-stage barrier. Strict
//!   dominance is transitive, so the surviving set is a pure function of
//!   the inserted point multiset — insertion (i.e. work-unit completion)
//!   order cannot change it.

use std::collections::HashSet;
use std::hash::Hash;

/// Indices of the skyline (Pareto-maximal) points of `points`, where each
/// point is `(interestingness, standardized contribution)`.
///
/// Following the paper's definition, a point is kept unless some other
/// point is *strictly* greater in **both** coordinates; the result is the
/// maximal such subset. Indices are returned in input order.
pub fn skyline_indices(points: &[(f64, f64)]) -> Vec<usize> {
    let n = points.len();
    let mut keep = Vec::with_capacity(n);
    'outer: for i in 0..n {
        let (xi, yi) = points[i];
        for (j, &(xj, yj)) in points.iter().enumerate() {
            if j != i && xj > xi && yj > yi {
                continue 'outer; // dominated
            }
        }
        keep.push(i);
    }
    keep
}

/// Incrementally-maintained skyline over keyed points.
///
/// `insert` drops the new point if some resident point strictly dominates
/// it, and evicts resident points the new point strictly dominates;
/// `ties` in either coordinate keep both, matching [`skyline_indices`]'s
/// strict-domination semantics exactly. The final key set equals the
/// batch skyline of every inserted point, for **any** insertion order.
#[derive(Debug, Default)]
pub struct StreamingSkyline<K> {
    points: Vec<(K, (f64, f64))>,
}

impl<K: Eq + Hash + Copy> StreamingSkyline<K> {
    /// An empty accumulator.
    pub fn new() -> Self {
        StreamingSkyline { points: Vec::new() }
    }

    /// True when some resident point is strictly greater than `point` in
    /// both coordinates, so [`Self::insert`] would drop it. Since strict
    /// dominance is transitive, such a point can never reach the final
    /// skyline, whatever is inserted later.
    pub fn dominates(&self, point: (f64, f64)) -> bool {
        self.points
            .iter()
            .any(|&(_, q)| q.0 > point.0 && q.1 > point.1)
    }

    /// Offer one keyed point; dominated points (incoming or resident) are
    /// dropped immediately.
    pub fn insert(&mut self, key: K, point: (f64, f64)) {
        if self.dominates(point) {
            return;
        }
        self.points
            .retain(|&(_, q)| !(point.0 > q.0 && point.1 > q.1));
        self.points.push((key, point));
    }

    /// Number of currently non-dominated points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when nothing survived (or nothing was inserted).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The surviving keys — the skyline of everything inserted.
    pub fn into_keys(self) -> HashSet<K> {
        self.points.into_iter().map(|(k, _)| k).collect()
    }
}

/// Weighted score `(W_I · I + W_C · C̄) / (W_I + W_C)` used to rank skyline
/// explanations when the caller asks for a top-k cut (§3.7).
pub fn weighted_score(interestingness: f64, std_contribution: f64, w_i: f64, w_c: f64) -> f64 {
    if w_i + w_c == 0.0 {
        return 0.0;
    }
    (w_i * interestingness + w_c * std_contribution) / (w_i + w_c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_point_is_skyline() {
        assert_eq!(skyline_indices(&[(0.5, 1.0)]), vec![0]);
    }

    #[test]
    fn dominated_points_removed() {
        // (0.9, 2.0) dominates (0.5, 1.0); (0.1, 3.0) survives on y.
        let pts = [(0.9, 2.0), (0.5, 1.0), (0.1, 3.0)];
        assert_eq!(skyline_indices(&pts), vec![0, 2]);
    }

    #[test]
    fn ties_are_kept() {
        // Domination is strict in *both* coordinates, so a point tied with
        // its better in one coordinate survives.
        let pts = [(0.5, 1.0), (0.5, 2.0), (0.6, 1.0)];
        let sky = skyline_indices(&pts);
        assert_eq!(sky, vec![0, 1, 2]);
        // Identical points both survive (neither strictly dominates).
        let pts = [(0.5, 1.0), (0.5, 1.0)];
        assert_eq!(skyline_indices(&pts), vec![0, 1]);
        // But a point strictly below in both goes away.
        let pts = [(0.5, 1.0), (0.6, 2.0)];
        assert_eq!(skyline_indices(&pts), vec![1]);
    }

    #[test]
    fn skyline_is_non_dominated_and_maximal() {
        let pts: Vec<(f64, f64)> = (0..50)
            .map(|i| {
                let x = (i as f64 * 37.0) % 10.0;
                let y = (i as f64 * 53.0) % 7.0;
                (x, y)
            })
            .collect();
        let sky = skyline_indices(&pts);
        // Non-dominated:
        for &i in &sky {
            for (j, &(xj, yj)) in pts.iter().enumerate() {
                if j != i {
                    assert!(!(xj > pts[i].0 && yj > pts[i].1));
                }
            }
        }
        // Maximal: every excluded point is dominated by someone.
        for i in 0..pts.len() {
            if !sky.contains(&i) {
                assert!(pts
                    .iter()
                    .enumerate()
                    .any(|(j, &(xj, yj))| j != i && xj > pts[i].0 && yj > pts[i].1));
            }
        }
    }

    #[test]
    fn empty_input() {
        assert!(skyline_indices(&[]).is_empty());
        assert!(StreamingSkyline::<usize>::new().is_empty());
    }

    /// The streaming accumulator agrees with the batch operator for every
    /// insertion order tried — forward, reverse, and strided permutations
    /// of an adversarial point set with duplicates and ties.
    #[test]
    fn streaming_skyline_is_order_independent_and_matches_batch() {
        let pts: Vec<(f64, f64)> = (0..60)
            .map(|i| {
                let x = ((i * 37) % 10) as f64 / 2.0;
                let y = ((i * 53) % 7) as f64;
                (x, y)
            })
            .chain([(4.5, 6.0), (4.5, 6.0), (0.0, 0.0)]) // dups + a floor
            .collect();
        let batch: std::collections::HashSet<usize> = skyline_indices(&pts).into_iter().collect();
        for stride in [1usize, 2, 7, 13, 62] {
            let n = pts.len();
            let order: Vec<usize> = (0..n).map(|k| (k * stride) % n).collect();
            // A stride coprime with n is a permutation; others just test
            // repeated insertion of the same points, which must also be
            // stable.
            let mut sky = StreamingSkyline::new();
            for &i in &order {
                sky.insert(i, pts[i]);
            }
            let got = sky.into_keys();
            let want: std::collections::HashSet<usize> = order
                .iter()
                .copied()
                .filter(|&i| {
                    !order
                        .iter()
                        .any(|&j| pts[j].0 > pts[i].0 && pts[j].1 > pts[i].1)
                })
                .collect();
            assert_eq!(got, want, "stride {stride}");
            if stride == 1 {
                assert_eq!(got, batch);
            }
        }
    }

    #[test]
    fn dominates_needs_strictly_greater_in_both() {
        let mut sky = StreamingSkyline::new();
        sky.insert(0usize, (0.5, 1.0));
        // A tie in I never prunes.
        assert!(!sky.dominates((0.5, 0.2)));
        // A tie in C̄ never prunes.
        assert!(!sky.dominates((0.1, 1.0)));
        // Strictly below in both does.
        assert!(sky.dominates((0.4, 0.9)));
        assert!(!sky.dominates((f64::NAN, 0.0)));
    }

    #[test]
    fn weighted_score_balances() {
        assert!((weighted_score(1.0, 0.0, 1.0, 1.0) - 0.5).abs() < 1e-12);
        assert!((weighted_score(0.4, 2.0, 3.0, 1.0) - (0.4 * 3.0 + 2.0) / 4.0).abs() < 1e-12);
        assert_eq!(weighted_score(1.0, 1.0, 0.0, 0.0), 0.0);
    }
}
