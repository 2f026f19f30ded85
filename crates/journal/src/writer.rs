//! The append-only journal writer and its crash/recovery entry points.

use crate::event::{JournalEvent, Recovery};
use crate::frame::{encode_record, scan};
use cornet_obs::Tracer;
use cornet_types::{CornetError, Result};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

/// When the journal pushes appended records to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every append — strongest durability, slowest.
    Always,
    /// `fsync` after every N appends (and on [`Journal::sync`]).
    EveryN(u32),
    /// Never `fsync` explicitly; the OS flushes on its own schedule.
    Never,
}

impl FsyncPolicy {
    /// Parse the CLI spelling: `always`, `never`, or `every-n=N`.
    pub fn parse(text: &str) -> Result<FsyncPolicy> {
        match text {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            other => {
                let n = other
                    .strip_prefix("every-n=")
                    .and_then(|n| n.parse::<u32>().ok())
                    .filter(|n| *n > 0);
                match n {
                    Some(n) => Ok(FsyncPolicy::EveryN(n)),
                    None => Err(CornetError::InvalidInput(format!(
                        "bad fsync policy {other:?}: expected always, never, or every-n=N"
                    ))),
                }
            }
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::EveryN(n) => write!(f, "every-n={n}"),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// Callback invoked after each record durably reaches the journal file.
/// The campaign manager uses it to fan appended events out to progress
/// tracking and live event streams without re-reading the log.
pub type EventListener = Arc<dyn Fn(&JournalEvent) + Send + Sync>;

/// How an injected crash lands relative to the journal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashMode {
    /// The process dies mid-block: the block's completion record is never
    /// appended at all.
    MidBlock,
    /// The process dies mid-append: the next record is torn in half on
    /// disk (framing broken, checksum wrong).
    MidAppend,
}

const LIVE: u8 = 0;
const TEAR_NEXT: u8 = 1;
const DEAD: u8 = 2;

/// Shared kill switch for crash simulation. Once dead, the journal
/// silently drops every append — exactly what `kill -9` looks like from
/// the filesystem's point of view: the process may keep running in the
/// test harness, but nothing it does reaches the log.
#[derive(Clone, Debug, Default)]
pub struct CrashSwitch {
    state: Arc<AtomicU8>,
}

impl CrashSwitch {
    /// A live switch (no crash armed).
    pub fn new() -> Self {
        CrashSwitch {
            state: Arc::new(AtomicU8::new(LIVE)),
        }
    }

    /// Die now: all subsequent appends are dropped.
    pub fn kill(&self) {
        self.state.store(DEAD, Ordering::SeqCst);
    }

    /// Tear the next appended record in half, then die.
    pub fn tear_next(&self) {
        self.state.store(TEAR_NEXT, Ordering::SeqCst);
    }

    /// Has the simulated process died?
    pub fn is_dead(&self) -> bool {
        self.state.load(Ordering::SeqCst) == DEAD
    }

    fn take(&self) -> u8 {
        let s = self.state.load(Ordering::SeqCst);
        if s == TEAR_NEXT {
            self.state.store(DEAD, Ordering::SeqCst);
        }
        s
    }
}

struct Inner {
    file: File,
    policy: FsyncPolicy,
    since_sync: u32,
}

/// Append-only campaign journal. Clone-cheap and thread-safe: the
/// dispatcher's worker pool appends from many threads, and the frame
/// layer guarantees each record lands contiguously because every append
/// is a single `write_all` under one lock.
#[derive(Clone)]
pub struct Journal {
    inner: Arc<Mutex<Inner>>,
    path: Arc<PathBuf>,
    tracer: Tracer,
    crash: CrashSwitch,
    listener: Option<EventListener>,
}

impl Journal {
    /// Create a fresh journal, truncating anything already at `path`.
    pub fn create(path: impl AsRef<Path>, policy: FsyncPolicy) -> Result<Journal> {
        let path = path.as_ref();
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err("create", path, &e))?;
        Ok(Journal::from_file(file, path, policy))
    }

    /// Open an existing journal for resume: scan it, drop any torn tail
    /// (physically truncating the file), and return the surviving events
    /// together with the writer positioned to append after them.
    pub fn recover(
        path: impl AsRef<Path>,
        policy: FsyncPolicy,
    ) -> Result<(Journal, Vec<JournalEvent>, Recovery)> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| io_err("read", path, &e))?;
        let (events, recovery) = decode_scan(&bytes)?;
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err("open", path, &e))?;
        file.set_len(recovery.valid_len)
            .map_err(|e| io_err("truncate", path, &e))?;
        let journal = Journal::from_file(file, path, policy);
        // Position after the valid prefix (set_len does not move the
        // cursor of a fresh handle — it starts at 0, so seek explicitly).
        use std::io::Seek;
        journal
            .inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .file
            .seek(std::io::SeekFrom::Start(recovery.valid_len))
            .map_err(|e| io_err("seek", path, &e))?;
        Ok((journal, events, recovery))
    }

    /// Read a journal without taking the write handle or truncating
    /// anything — for inspection (`cornet resume` peeks at the metadata
    /// before committing to a resume).
    pub fn read(path: impl AsRef<Path>) -> Result<(Vec<JournalEvent>, Recovery)> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| io_err("read", path, &e))?;
        decode_scan(&bytes)
    }

    fn from_file(file: File, path: &Path, policy: FsyncPolicy) -> Journal {
        Journal {
            inner: Arc::new(Mutex::new(Inner {
                file,
                policy,
                since_sync: 0,
            })),
            path: Arc::new(path.to_owned()),
            tracer: Tracer::noop(),
            crash: CrashSwitch::new(),
            listener: None,
        }
    }

    /// Attach a tracer: appends and fsyncs become spans and counters.
    pub fn with_tracer(mut self, tracer: Tracer) -> Journal {
        self.tracer = tracer;
        self
    }

    /// Attach a crash switch for fault-injection tests.
    pub fn with_crash_switch(mut self, crash: CrashSwitch) -> Journal {
        self.crash = crash;
        self
    }

    /// Attach a listener called after each record reaches the file.
    /// Dropped appends (dead crash switch, torn writes) never notify:
    /// the listener sees exactly what a recovery scan would.
    pub fn with_listener(mut self, listener: EventListener) -> Journal {
        self.listener = Some(listener);
        self
    }

    /// The switch controlling this journal's simulated crash state.
    pub fn crash_switch(&self) -> CrashSwitch {
        self.crash.clone()
    }

    /// The file this journal writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one event. A dead crash switch silently drops the record —
    /// only what reached the file before the crash matters for recovery.
    pub fn append(&self, event: &JournalEvent) -> Result<()> {
        match self.crash.take() {
            DEAD => return Ok(()),
            TEAR_NEXT => {
                let record = encode_record(&event.encode());
                let torn = &record.as_bytes()[..record.len() / 2];
                let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
                inner
                    .file
                    .write_all(torn)
                    .map_err(|e| io_err("append", &self.path, &e))?;
                return Ok(());
            }
            _ => {}
        }
        let mut span = self.tracer.span("journal.append");
        span.attr("event", event.kind());
        let record = encode_record(&event.encode());
        let bytes = record.as_bytes();
        span.attr("bytes", bytes.len() as i64);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner
            .file
            .write_all(bytes)
            .map_err(|e| io_err("append", &self.path, &e))?;
        self.tracer
            .incr("journal.bytes_written", bytes.len() as u64);
        inner.since_sync += 1;
        let due = match inner.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => inner.since_sync >= n.max(1),
            FsyncPolicy::Never => false,
        };
        if due {
            self.fsync_locked(&mut inner, Some(span.id()))?;
        }
        drop(inner);
        span.finish();
        if let Some(listener) = &self.listener {
            listener(event);
        }
        Ok(())
    }

    /// Force everything appended so far to stable storage.
    pub fn sync(&self) -> Result<()> {
        if self.crash.is_dead() {
            return Ok(());
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.since_sync == 0 {
            return Ok(());
        }
        self.fsync_locked(&mut inner, None)
    }

    fn fsync_locked(&self, inner: &mut Inner, parent: Option<cornet_obs::SpanId>) -> Result<()> {
        let span = self.tracer.span_with_parent("journal.fsync", parent);
        inner
            .file
            .sync_data()
            .map_err(|e| io_err("fsync", &self.path, &e))?;
        inner.since_sync = 0;
        self.tracer.incr("journal.fsyncs", 1);
        span.finish();
        Ok(())
    }
}

fn io_err(op: &str, path: &Path, e: &std::io::Error) -> CornetError {
    CornetError::ExecutionFailed(format!("journal {op} {}: {e}", path.display()))
}

/// Scan raw journal bytes and decode the valid prefix. A record that
/// frames correctly but fails to decode counts as corruption: the scan
/// stops there and everything after it is treated as torn.
fn decode_scan(bytes: &[u8]) -> Result<(Vec<JournalEvent>, Recovery)> {
    let outcome = scan(bytes);
    let mut events = Vec::with_capacity(outcome.payloads.len());
    let mut valid_len = 0usize;
    let mut pos = 0usize;
    let mut decode_torn = false;
    for payload in &outcome.payloads {
        // Reconstruct each record's end offset from the frame shape.
        pos += encode_record(payload).len();
        match JournalEvent::decode(payload) {
            Ok(ev) => {
                events.push(ev);
                valid_len = pos;
            }
            Err(_) => {
                decode_torn = true;
                break;
            }
        }
    }
    let recovery = Recovery {
        events: events.len(),
        valid_len: valid_len as u64,
        dropped_bytes: (bytes.len() - valid_len) as u64,
        torn: outcome.torn || decode_torn,
    };
    Ok((events, recovery))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornet_obs::ManualClock;
    use std::collections::BTreeMap;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("cornet-journal-{name}-{}.log", std::process::id()))
    }

    fn opened() -> JournalEvent {
        JournalEvent::CampaignOpened {
            meta: BTreeMap::new(),
            assignments: vec![(0, 1), (1, 1)],
            concurrency: 2,
        }
    }

    #[test]
    fn append_recover_round_trips_and_is_idempotent() {
        let path = tmp("round-trip");
        let journal = Journal::create(&path, FsyncPolicy::Always).unwrap();
        journal.append(&opened()).unwrap();
        journal
            .append(&JournalEvent::InstanceAdmitted { node: 0, slot: 1 })
            .unwrap();
        journal.append(&JournalEvent::CampaignClosed).unwrap();
        drop(journal);

        let (journal, events, rec) = Journal::recover(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(rec.events, 3);
        assert_eq!(rec.dropped_bytes, 0);
        assert!(!rec.torn);
        // Appending after recovery extends, not overwrites.
        journal
            .append(&JournalEvent::InstanceAdmitted { node: 1, slot: 1 })
            .unwrap();
        drop(journal);
        let (events, rec) = Journal::read(&path).unwrap();
        assert_eq!(events.len(), 4);
        assert!(!rec.torn);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recover_truncates_a_torn_tail() {
        let path = tmp("torn");
        let journal = Journal::create(&path, FsyncPolicy::Never).unwrap();
        journal.append(&opened()).unwrap();
        journal
            .append(&JournalEvent::InstanceAdmitted { node: 0, slot: 1 })
            .unwrap();
        drop(journal);
        // Tear the last record by hand.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let (journal, events, rec) = Journal::recover(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(events.len(), 1, "torn admitted record dropped");
        assert!(rec.torn);
        assert!(rec.dropped_bytes > 0);
        journal.append(&JournalEvent::CampaignClosed).unwrap();
        drop(journal);
        let (events, rec) = Journal::read(&path).unwrap();
        assert!(!rec.torn, "file is clean again after recovery");
        assert_eq!(events.len(), 2);
        assert!(matches!(events[1], JournalEvent::CampaignClosed));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crash_switch_kill_drops_appends_and_tear_halves_a_record() {
        let path = tmp("crash");
        let journal = Journal::create(&path, FsyncPolicy::Never).unwrap();
        journal.append(&opened()).unwrap();
        let switch = journal.crash_switch();
        switch.tear_next();
        journal.append(&JournalEvent::CampaignClosed).unwrap();
        assert!(switch.is_dead(), "tear is one-shot, then dead");
        journal
            .append(&JournalEvent::InstanceAdmitted { node: 9, slot: 9 })
            .unwrap();
        drop(journal);

        let (events, rec) = Journal::read(&path).unwrap();
        assert_eq!(events.len(), 1, "only the pre-crash record survives");
        assert!(rec.torn, "the half-written record is a torn tail");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fsync_policies_batch_as_configured() {
        for (policy, appends, expect_fsyncs) in [
            (FsyncPolicy::Always, 4u32, 4u64),
            (FsyncPolicy::EveryN(3), 7, 2),
            (FsyncPolicy::Never, 5, 0),
        ] {
            let path = tmp(&format!("fsync-{appends}"));
            let tracer = Tracer::with_clock(ManualClock::ticking(1));
            let journal = Journal::create(&path, policy)
                .unwrap()
                .with_tracer(tracer.clone());
            for _ in 0..appends {
                journal.append(&JournalEvent::CampaignClosed).unwrap();
            }
            let snap = tracer.metrics().unwrap().snapshot();
            assert_eq!(snap.counter("journal.fsyncs"), expect_fsyncs, "{policy:?}");
            assert!(snap.counter("journal.bytes_written") > 0);
            let trace = tracer.take();
            assert_eq!(
                trace.spans_named("journal.append").count(),
                appends as usize
            );
            assert_eq!(
                trace.spans_named("journal.fsync").count(),
                expect_fsyncs as usize
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn explicit_sync_flushes_pending_appends_once() {
        let path = tmp("explicit-sync");
        let tracer = Tracer::with_clock(ManualClock::ticking(1));
        let journal = Journal::create(&path, FsyncPolicy::Never)
            .unwrap()
            .with_tracer(tracer.clone());
        journal.append(&opened()).unwrap();
        journal.sync().unwrap();
        journal.sync().unwrap();
        let snap = tracer.metrics().unwrap().snapshot();
        assert_eq!(snap.counter("journal.fsyncs"), 1, "second sync is a no-op");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn decode_corruption_in_a_framed_record_truncates_there() {
        let path = tmp("decode-corrupt");
        // A record that frames perfectly but is not a journal event.
        let mut log = crate::frame::encode_record(&opened().encode());
        log.push_str(&crate::frame::encode_record("{\"ev\":\"nonsense\"}"));
        std::fs::write(&path, &log).unwrap();
        let (journal, events, rec) = Journal::recover(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(events.len(), 1);
        assert!(rec.torn);
        drop(journal);
        assert!(std::fs::metadata(&path).unwrap().len() < log.len() as u64);
        std::fs::remove_file(&path).ok();
    }
}
