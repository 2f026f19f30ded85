//! # cornet-verifier
//!
//! The change impact verifier (§3.5): composable verification rules over
//! KPI time-series, study/control comparison with robust statistics, and
//! multi-timescale detection of unexpected impacts, time-aligned across
//! staggered roll-outs.
//!
//! * [`adapter`] — data adapters abstracting the KPI feeds;
//! * [`control`] — control-group derivation from topology and inventory
//!   (1st/2nd-tier neighbors, same-hardware, Fig. 14's criteria);
//! * [`rules`] — verification-rule composition: KPI sets, expected
//!   impacts, location-aggregation attributes, timescales;
//! * [`analysis`] — the §3.5.2 statistical core: per-node alignment and
//!   normalization, robust regression `S = βC`, prediction, and the
//!   robust rank-order test;
//! * [`verify`] — the verifier facade producing per-KPI, per-location
//!   verdicts and a go/no-go summary;
//! * [`stream`] — the streaming engine: backpressure-aware ingest,
//!   per-sample multi-timescale detection, and verdict polls that share
//!   the batch fan (bit-identical results on a full replay).

#![forbid(unsafe_code)]
pub mod adapter;
pub mod analysis;
pub mod control;
pub mod equation;
pub mod integrity;
pub mod rulecheck;
pub mod rules;
pub mod stream;
pub mod verify;

pub use adapter::{ClosureAdapter, DataAdapter, SeriesCache};
pub use analysis::{
    analyze_kpi, Aligned, AnalysisOptions, ChangeScope, ImpactVerdict, KpiAnalysis,
};
pub use control::{derive_control_group, ControlSelection};
pub use equation::Equation;
pub use integrity::{monitor_feeds, FeedAlert, IntegrityConfig};
pub use rulecheck::analyze_rules;
pub use rules::{Expectation, KpiQuery, VerificationRule};
pub use stream::{
    IngestOutcome, IngestStats, PumpStats, SampleRouter, SeriesStore, StreamConfig,
    StreamDetection, StreamSample, StreamingVerifier,
};
pub use verify::{
    verify_rule, verify_rule_sequential, verify_rule_traced, verify_rules, verify_rules_traced,
    GoNoGo, VerificationReport,
};
