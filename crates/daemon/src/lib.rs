//! # cornet-daemon
//!
//! CORNET's long-lived service mode. A persistent daemon (`cornetd`)
//! exposes campaign management over a dependency-free HTTP/1.1 JSON API;
//! this crate holds every layer behind that binary:
//!
//! * [`scenario`] — the deterministic journaled-upgrade campaign shape
//!   shared by the CLI, the daemon, and the recovery tests;
//! * [`quota`] — per-tenant admission quotas feeding the dispatcher's
//!   execution slots, with fair FIFO queuing and high-water accounting;
//! * [`manager`] — the `CampaignManager`: submission (behind the `cornet
//!   check` gate), per-campaign journaling, pause/resume/cancel, and
//!   crash recovery of every interrupted campaign on restart;
//! * [`http`] — a hand-rolled HTTP/1.1 server over `std::net` (the
//!   workspace vendors no async runtime and no HTTP stack);
//! * [`api`] — request routing and the `/v1` endpoint handlers;
//! * [`stream`] — per-tenant `/v1/ingest` sessions feeding the streaming
//!   verification engine (live detections + go/no-go verdicts);
//! * [`client`] — a blocking HTTP client for the `cornet submit/status/
//!   watch` subcommands and the end-to-end tests.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]
#![warn(missing_docs)]

pub mod api;
pub mod client;
pub mod http;
pub mod manager;
pub mod quota;
pub mod scenario;
pub mod stream;

pub use api::ApiServer;
pub use client::{ClientResponse, DaemonClient};
pub use cornet_orchestrator::{report_fingerprint, CampaignResult};
pub use http::{Handler, HttpServer, Reply, Request, Response};
pub use manager::{
    ApiError, CampaignManager, CampaignPhase, CampaignSnapshot, ManagerConfig, SubmitOutcome,
};
pub use quota::{QuotaBook, QuotaSnapshot, TenantSlots};
pub use scenario::{ExecutionWitness, JournalScenario};
pub use stream::{IngestReceipt, StreamHub, StreamSpec};
