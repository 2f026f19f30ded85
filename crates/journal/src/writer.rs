//! The append-only journal writer and its crash/recovery entry points.

use crate::event::{JournalEvent, Recovery};
use crate::frame::{encode_record, records};
use cornet_obs::{SpanId, Tracer};
use cornet_types::{CornetError, Result};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// When the journal pushes appended records to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// An append returns only once an `fsync` that started after its
    /// `write` has finished — strongest durability, slowest. Concurrent
    /// appenders share syncs (see [`Journal::append`]).
    Always,
    /// `fsync` after every N appends (and on [`Journal::sync`]).
    EveryN(u32),
    /// Appends never `fsync`; the OS flushes on its own schedule. An
    /// explicit [`Journal::sync`] still does — the dispatcher calls it when
    /// it closes a campaign, so a finished campaign costs one `fsync`
    /// under every policy.
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

/// Callback invoked for each record that reached the journal file, in
/// file order. The campaign manager uses it to fan appended events out to
/// progress tracking and live event streams without re-reading the log.
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

    /// The state before this call; of appends racing on an armed tear
    /// exactly one is told to tear, the rest see the death.
    fn take(&self) -> u8 {
        let swap = self
            .state
            .compare_exchange(TEAR_NEXT, DEAD, Ordering::SeqCst, Ordering::SeqCst);
        match swap {
            Ok(before) | Err(before) => before,
        }
    }
}

struct Inner {
    file: File,
    policy: FsyncPolicy,
    /// The append lock: it orders the `write`s, and holds how many records
    /// have been written.
    written: Mutex<u64>,
    /// Records known to be on stable storage. Held across the `fsync`
    /// that advances it, so concurrent syncs queue here, never on the
    /// append lock.
    synced: Mutex<u64>,
}

/// Append-only campaign journal. Clone-cheap and thread-safe: the
/// dispatcher's workers append from many threads, and the frame layer
/// guarantees each record lands contiguously because every append is a
/// single `write_all` under the append lock. Syncing happens outside that
/// lock (group commit, see [`Journal::append`]).
#[derive(Clone)]
pub struct Journal {
    inner: Arc<Inner>,
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
        let mut file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err("open", path, &e))?;
        file.set_len(recovery.valid_len)
            .map_err(|e| io_err("truncate", path, &e))?;
        // Position after the valid prefix (set_len does not move the
        // cursor of a fresh handle — it starts at 0, so seek explicitly).
        file.seek(SeekFrom::Start(recovery.valid_len))
            .map_err(|e| io_err("seek", path, &e))?;
        Ok((Journal::from_file(file, path, policy), events, recovery))
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
            inner: Arc::new(Inner {
                file,
                policy,
                written: Mutex::default(),
                synced: Mutex::default(),
            }),
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
    /// Dropped appends (dead crash switch, torn writes) never notify, and
    /// the call is made under the append lock, before the policy's sync:
    /// the listener sees exactly what a recovery scan after a process
    /// crash would, in the same order. It must be short and must not
    /// append to this journal.
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
    ///
    /// The record is encoded outside the append lock and written with one
    /// `write` under it, so it is in the page cache (safe from a process
    /// crash) before this returns. When the policy wants it on stable
    /// storage the sync runs with the append lock *released*: other
    /// threads keep appending meanwhile, and one `fsync` covers every
    /// record written before it started (group commit).
    ///
    /// The `journal.append` span opens before the lock wait, which it
    /// measures, and the crash switch is consulted under the lock: an
    /// append that queued while the journal was alive and is then dropped
    /// or torn still records its span, with `bytes` what reached the file
    /// (0, or the torn half).
    pub fn append(&self, event: &JournalEvent) -> Result<()> {
        if self.crash.is_dead() {
            return Ok(());
        }
        let mut span = self.tracer.span("journal.append");
        span.attr("event", event.kind());
        let record = encode_record(&event.encode());
        let mut bytes = record.as_bytes();
        let mut written = self.written();
        // The switch is read under the lock: nothing lands after a tear.
        let torn = match self.crash.take() {
            DEAD => {
                span.attr("bytes", 0i64);
                return Ok(());
            }
            state => state == TEAR_NEXT,
        };
        if torn {
            bytes = &bytes[..bytes.len() / 2];
        }
        span.attr("bytes", bytes.len() as i64);
        (&self.inner.file)
            .write_all(bytes)
            .map_err(|e| io_err("append", &self.path, &e))?;
        if torn {
            return Ok(());
        }
        *written += 1;
        let record = *written;
        // Still under the append lock: listeners hear records in the
        // order a recovery scan will read them.
        if let Some(listener) = &self.listener {
            listener(event);
        }
        drop(written);
        let due = match self.inner.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => record.is_multiple_of(u64::from(n.max(1))),
            FsyncPolicy::Never => false,
        };
        self.tracer
            .incr("journal.bytes_written", bytes.len() as u64);
        if due {
            self.make_durable(record, Some(span.id()))?;
        }
        span.finish();
        Ok(())
    }

    /// Force everything appended so far to stable storage.
    pub fn sync(&self) -> Result<()> {
        if self.crash.is_dead() {
            return Ok(());
        }
        let written = *self.written();
        self.make_durable(written, None)
    }

    /// Return once records `1..=record` are on stable storage. Whoever
    /// holds the sync lock is the leader: it reads how many records have
    /// been written, syncs, and publishes that count. A follower that
    /// finds its record already covered — by a sync that read the count,
    /// and therefore started, after the record's `write` — returns without
    /// a system call.
    fn make_durable(&self, record: u64, parent: Option<SpanId>) -> Result<()> {
        let mut synced = self.inner.synced.lock().unwrap_or_else(|e| e.into_inner());
        if *synced >= record {
            return Ok(());
        }
        let covers = *self.written();
        let span = self.tracer.span_with_parent("journal.fsync", parent);
        self.inner
            .file
            .sync_data()
            .map_err(|e| io_err("fsync", &self.path, &e))?;
        *synced = covers;
        self.tracer.incr("journal.fsyncs", 1);
        span.finish();
        Ok(())
    }

    /// The append lock. The one update under it cannot panic half-way, so
    /// a poisoned guard is still consistent.
    fn written(&self) -> MutexGuard<'_, u64> {
        self.inner.written.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records known to be on stable storage (waits out a sync in flight).
    #[cfg(test)]
    fn synced(&self) -> u64 {
        *self.inner.synced.lock().unwrap_or_else(|e| e.into_inner())
    }
}

fn io_err(op: &str, path: &Path, e: &std::io::Error) -> CornetError {
    CornetError::ExecutionFailed(format!("journal {op} {}: {e}", path.display()))
}

/// Walk raw journal bytes once and decode the valid prefix. A record that
/// frames correctly but fails to decode counts as corruption: the walk
/// stops there and everything after it is treated as torn.
fn decode_scan(bytes: &[u8]) -> Result<(Vec<JournalEvent>, Recovery)> {
    let mut events = Vec::new();
    let mut valid_len = 0usize;
    for (payload, end) in records(bytes) {
        let Ok(event) = JournalEvent::decode(payload) else {
            break;
        };
        events.push(event);
        valid_len = end;
    }
    let recovery = Recovery {
        events: events.len(),
        valid_len: valid_len as u64,
        dropped_bytes: (bytes.len() - valid_len) as u64,
        torn: valid_len != bytes.len(),
    };
    Ok((events, recovery))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornet_obs::{AttrValue, ManualClock};
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
        let tracer = Tracer::with_clock(ManualClock::ticking(1));
        let journal = Journal::create(&path, FsyncPolicy::Never)
            .unwrap()
            .with_tracer(tracer.clone());
        journal.append(&opened()).unwrap();
        let switch = journal.crash_switch();
        switch.tear_next();
        journal.append(&JournalEvent::CampaignClosed).unwrap();
        assert!(switch.is_dead(), "tear is one-shot, then dead");
        journal
            .append(&JournalEvent::InstanceAdmitted { node: 9, slot: 9 })
            .unwrap();
        drop(journal);

        // The torn append's span says what reached the file; an append
        // that finds the journal dead on entry records none.
        let trace = tracer.snapshot();
        let bytes: Vec<_> = trace
            .spans_named("journal.append")
            .map(|s| s.attr("bytes").cloned())
            .collect();
        let half = encode_record(&JournalEvent::CampaignClosed.encode()).len() as i64 / 2;
        let whole = encode_record(&opened().encode()).len() as i64;
        assert_eq!(
            bytes,
            [Some(AttrValue::Int(whole)), Some(AttrValue::Int(half))]
        );

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

    const THREADS: u32 = 8;
    const APPENDS: u32 = 500;

    /// `THREADS` threads append `APPENDS` records each, all released by one
    /// barrier; thread `t` calls `sync()` after those of its appends (by
    /// 0-based index) that `syncs_after` picks. Checks that the file scans
    /// clean, holds every record and keeps each thread's own order, and
    /// returns, per record number (1-based file order), what `synced()`
    /// read right after that append (and its `sync()`, if any) returned —
    /// plus the tracer's `journal.fsyncs`.
    fn hammer(
        name: &str,
        policy: FsyncPolicy,
        syncs_after: fn(u32) -> bool,
    ) -> (Vec<(u32, u64)>, u64) {
        let path = tmp(name);
        let tracer = Tracer::with_clock(ManualClock::ticking(1));
        let journal = Journal::create(&path, policy)
            .unwrap()
            .with_tracer(tracer.clone());
        let barrier = std::sync::Barrier::new(THREADS as usize);
        let observed: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (journal, barrier) = (&journal, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        (0..APPENDS)
                            .map(|i| {
                                let event = JournalEvent::InstanceAdmitted { node: t, slot: i };
                                journal.append(&event).unwrap();
                                if syncs_after(i) {
                                    journal.sync().unwrap();
                                }
                                journal.synced()
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        journal.sync().unwrap();
        assert_eq!(journal.synced(), u64::from(THREADS * APPENDS));
        let (events, rec) = Journal::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(!rec.torn, "{policy:?}: the file scans clean");
        assert_eq!(events.len() as u32, THREADS * APPENDS, "{policy:?}");
        let mut next = [0u32; THREADS as usize];
        let by_record = events
            .iter()
            .map(|event| {
                let JournalEvent::InstanceAdmitted { node, slot } = *event else {
                    panic!("unexpected {event:?}");
                };
                assert_eq!(slot, next[node as usize], "thread {node} keeps its order");
                next[node as usize] += 1;
                (slot, observed[node as usize][slot as usize])
            })
            .collect();
        let fsyncs = tracer
            .metrics()
            .unwrap()
            .snapshot()
            .counter("journal.fsyncs");
        (by_record, fsyncs)
    }

    #[test]
    fn always_returns_only_once_a_sync_covers_the_record() {
        let (by_record, fsyncs) = hammer("contend-always", FsyncPolicy::Always, |_| false);
        for (k, (_, synced)) in by_record.iter().enumerate() {
            assert!(*synced > k as u64, "record {} returned at {synced}", k + 1);
        }
        // One sync may cover many appenders; none covers less than one.
        assert!((1..=by_record.len() as u64).contains(&fsyncs), "{fsyncs}");
    }

    #[test]
    fn every_n_crossings_are_covered_and_leaders_absorb_followers() {
        let (by_record, fsyncs) = hammer("contend-every7", FsyncPolicy::EveryN(7), |_| false);
        // No explicit sync until the end, so the crossings are the appends
        // that wrote records 7, 14, 21, ...
        for (k, (_, synced)) in by_record.iter().enumerate() {
            let record = k as u64 + 1;
            if record.is_multiple_of(7) {
                assert!(*synced >= record, "crossing {record} returned at {synced}");
            }
        }
        // A leader's sync may cover a later crossing (which then issues
        // none); the closing `sync()` adds at most one.
        let crossings = by_record.len() as u64 / 7;
        assert!((1..=crossings + 1).contains(&fsyncs), "{fsyncs} fsyncs");
    }

    #[test]
    fn sync_racing_appends_covers_what_preceded_it() {
        let (by_record, fsyncs) = hammer("contend-never", FsyncPolicy::Never, |i| i % 100 == 99);
        let mut explicit = 0;
        for (k, (slot, synced)) in by_record.iter().enumerate() {
            if slot % 100 == 99 {
                explicit += 1;
                assert!(
                    *synced > k as u64,
                    "sync() after record {} read {synced}",
                    k + 1
                );
            }
        }
        // Appends never sync under `Never`; racing `sync()`s may share one.
        assert!(
            (1..=explicit + 1).contains(&fsyncs),
            "{fsyncs} of {explicit}"
        );
    }

    #[test]
    fn an_armed_tear_under_contention_tears_exactly_one_record() {
        let path = tmp("contend-tear");
        let journal = Journal::create(&path, FsyncPolicy::Never).unwrap();
        journal.append(&opened()).unwrap();
        let clean_len = std::fs::metadata(&path).unwrap().len();
        journal.crash_switch().tear_next();
        let barrier = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    barrier.wait();
                    for _ in 0..50 {
                        journal.append(&JournalEvent::CampaignClosed).unwrap();
                    }
                });
            }
        });
        assert!(journal.crash_switch().is_dead());
        drop(journal);
        let (events, rec) = Journal::read(&path).unwrap();
        assert_eq!(events.len(), 1, "nothing written after the death survives");
        assert!(rec.torn);
        assert_eq!(rec.valid_len, clean_len);
        // Every racing append carried the same record: exactly one half of
        // it follows the clean prefix, and nothing follows that.
        let record = encode_record(&JournalEvent::CampaignClosed.encode());
        assert_eq!(rec.dropped_bytes, record.len() as u64 / 2);
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
