//! # fedex-stats
//!
//! Statistics substrate for the FEDEX explainability framework (VLDB 2022):
//!
//! * descriptive statistics — mean, variance, standard deviation, the
//!   coefficient of variation used by the *diversity* interestingness
//!   measure (Eq. 2), and the Fisher–Pearson standardized moment
//!   coefficient used in §4.1 to characterize dataset skew;
//! * the two-sample Kolmogorov–Smirnov statistic over value-frequency
//!   distributions, the *exceptionality* measure (Eq. 1);
//! * equal-frequency binning (the numeric row-partition of §3.5);
//! * uniform row sampling (the FEDEX-Sampling optimization of §3.7);
//! * rank-quality metrics — precision@k, Kendall-Tau distance, nDCG — used
//!   by the accuracy experiments of §4.3 (Figs. 7–8).

pub mod binning;
pub mod descriptive;
pub mod ks;
pub mod ranking;
pub mod sampling;

pub use binning::{equal_frequency_bins, Bin};
pub use descriptive::{coefficient_of_variation, mean, skewness, std_dev, variance};
pub use ks::{ks_from_counts, ks_statistic, ValueDistribution};
pub use ranking::{kendall_tau_distance, ndcg, precision_at_k};
pub use sampling::uniform_sample_indices;
