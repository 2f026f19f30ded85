//! # cornet-stats
//!
//! Statistical substrate for CORNET's change-impact verifier (§3.5.2).
//!
//! The paper relies on a small set of robust, nonparametric techniques:
//!
//! * a **robust rank-order test of medians** (Fligner–Policello) to compare
//!   the predicted post-change study series with the measured one;
//! * the classical **Wilcoxon–Mann–Whitney** test as a baseline comparator;
//! * a **robust regression** `S = βC` between study and control series
//!   (implemented as a Theil–Sen-style median-of-ratios estimator);
//! * **time-series aggregation** across granularities and location
//!   attributes, and **time alignment/normalization** for staggered
//!   roll-outs (Mercury-style);
//! * **CUSUM level-shift detection** used to demonstrate per-carrier KPI
//!   level changes (Fig. 2).
//!
//! Everything is implemented from scratch over `f64` slices so the verifier
//! can compose these primitives without external numeric dependencies.

#![forbid(unsafe_code)]
pub mod changepoint;
pub mod descriptive;
#[cfg(test)]
mod equivalence;
pub mod normal;
pub mod online;
pub mod rank;
pub mod regression;
pub mod series;

pub use changepoint::{detect_level_shifts, LevelShift};
pub use descriptive::{
    mad, mad_in_place, mean, median, median_in_place, quantile, std_dev, weighted_mean,
};
pub use normal::{normal_cdf, two_sided_p};
pub use online::{
    replay_level_shifts, DetectorPush, MultiTimescaleDetector, OnlineLevelShiftDetector,
    TimescaleShift,
};
pub use rank::{mann_whitney_u, robust_rank_order, RankTestResult};
pub use regression::{
    ratio_regression, theil_sen, theil_sen_seeded, RobustFit, THEIL_SEN_PAIR_CAP,
};
pub use series::TimeSeries;
