//! # cornet-journal — durable campaign journal
//!
//! A write-ahead log for change-management campaigns. The orchestrator
//! appends one record per lifecycle event — campaign opened, instance
//! admitted, block completed (including retries, timeouts, and backout
//! steps), breaker trips, campaign closed — so that a process crash at
//! any byte loses at most the `write` in flight. On reopen the reader
//! scans the length-prefixed, checksummed frames, truncates the torn
//! tail, and hands the surviving event stream to
//! `Dispatcher::resume_from_journal`, which skips every block the log
//! proves complete and re-runs only the interrupted remainder.
//!
//! The crate deliberately knows nothing about orchestrator types: records
//! carry primitive fields (status labels, node/slot integers, a
//! type-tagged parameter tree for state snapshots), so the log can be
//! decoded, inspected, and replayed without dragging execution machinery
//! into the dependency graph.
//!
//! Crash testing is first-class: a [`CrashSwitch`] shared between the
//! fault-injecting executor and the journal simulates `kill -9` (appends
//! silently dropped) and torn writes (the next `write` cut in half), and
//! the frame scanner's [`frame::boundaries`] lets tests cut a journal at
//! every byte offset and assert recovery behaves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod frame;
pub mod store;
pub mod writer;

pub use event::{BlockRecord, Halt, JournalEvent, Recovery, StateMap};
pub use frame::{boundaries, encode_record, scan, ScanOutcome};
pub use store::{CampaignStore, Manifest, Submission};
pub use writer::{CrashMode, CrashSwitch, EventListener, FsyncPolicy, Journal, RecordListener};
