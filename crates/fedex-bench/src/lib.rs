//! # fedex-bench
//!
//! The experiment harness: one runnable target per table and figure of the
//! FEDEX paper's evaluation (§4), plus Criterion micro-benchmarks.
//!
//! | Paper artifact | Module / target |
//! |---|---|
//! | Tables 2–3 (30-query workload) | [`tables`] — `experiments tables` |
//! | Fig. 3 (user study, 3 datasets) | [`quality`] — `experiments fig3` |
//! | Fig. 4 (generation time vs expert) | [`quality`] — `experiments fig4` |
//! | Fig. 5 (assisted vs unassisted) | [`quality`] — `experiments fig5` |
//! | Fig. 6 (augmented baselines) | [`quality`] — `experiments fig6` |
//! | Fig. 7 (accuracy vs sample size) | [`accuracy`] — `experiments fig7` |
//! | Fig. 8 (accuracy vs rows) | [`accuracy`] — `experiments fig8` |
//! | Fig. 9 (runtime vs columns) | [`runtime`] — `experiments fig9` |
//! | Fig. 10 (runtime vs rows) | [`runtime`] — `experiments fig10` |
//! | Fig. 11 (contribution vs sets) | [`sets`] — `experiments fig11` |
//!
//! The human user studies (Figs. 3–6) are reproduced with the
//! deterministic oracle grader of `fedex-data` — see DESIGN.md §3 for the
//! substitution rationale.

pub mod accuracy;
pub mod quality;
pub mod runtime;
pub mod sets;
pub mod systems;
pub mod tables;
pub mod util;
pub mod workload;
