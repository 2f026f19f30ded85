//! The append-only journal writer and its crash/recovery entry points.

use crate::event::{JournalEvent, Recovery};
use crate::frame::{frame_in_place, is_torn_tail, records, Framed};
use cornet_obs::{ActiveSpan, SpanId, Tracer};
use cornet_types::{CornetError, Result};
use std::cell::Cell;
use std::fs::{File, OpenOptions};
use std::io::Read;
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
#[cfg(test)]
use std::sync::atomic::AtomicBool;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};

/// When the journal pushes appended records to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// An append returns only once an `fsync` that started after its
    /// `write` has finished — strongest durability, slowest. Concurrent
    /// appenders share syncs (see [`Journal::append_all`]).
    Always,
    /// `fsync` once every N records (and on [`Journal::sync`]).
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

/// Hears each record that reached the journal file, in file order. The
/// campaign manager uses it to fan appended events out to progress
/// tracking and live event streams without re-reading the log.
pub trait RecordListener: Send + Sync {
    /// One record: the event, and `payload`, the JSON document the file
    /// holds for it — the bytes a recovery scan will read.
    fn record(&self, event: &JournalEvent, payload: &str);
}

/// A closure over the event alone is a listener.
impl<F: Fn(&JournalEvent) + Send + Sync> RecordListener for F {
    fn record(&self, event: &JournalEvent, _payload: &str) {
        self(event)
    }
}

/// The listener a journal notifies; see [`Journal::with_listener`].
pub type EventListener = Arc<dyn RecordListener>;

/// Retained capacity of a thread's record buffer: one outsized record must
/// not pin its size to the thread for good.
const KEPT_RECORD_BUFFER: usize = 64 << 10;

/// A batch framed for one `write`: the records' bytes, contiguous, and
/// where each record lies in them.
#[derive(Default)]
struct Batch {
    text: String,
    records: Vec<Framed>,
}

thread_local! {
    /// The buffer each thread frames its batches in, reused across appends.
    static RECORD_BUFFER: Cell<Batch> = const {
        Cell::new(Batch {
            text: String::new(),
            records: Vec::new(),
        })
    };
}

/// The first step a journal that syncs grows its file by ahead of its
/// records; each later step doubles, up to [`LAST_GROWTH`].
const FIRST_GROWTH: u64 = 64 << 10;
/// The largest growth step.
const LAST_GROWTH: u64 = 1 << 20;
/// What a file grows by: one static block of zeros, written as many times
/// as a step needs, so growing allocates nothing. It sits behind a lock
/// nothing writes through because a static that can be written lands in
/// the zero-filled `.bss`, whose untouched pages read as the kernel's
/// shared zero page and cost no resident memory; a plain array static
/// would sit in the executable's read-only data, 64 KiB of file pages
/// resident once read.
static ZEROS: RwLock<[u8; FIRST_GROWTH as usize]> = RwLock::new([0; FIRST_GROWTH as usize]);

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

/// Where the records end, and how far the file reaches past them. What
/// the append lock guards.
struct Tail {
    /// Records written.
    records: u64,
    /// Byte offset just past the last record written.
    end: u64,
    /// Length of the file: `end`, plus the zeros grown ahead of it.
    len: u64,
    /// The next growth step.
    step: u64,
}

struct Inner {
    file: File,
    policy: FsyncPolicy,
    /// The append lock: it orders the `write`s, and holds how many records
    /// have been written and where they end.
    written: Mutex<Tail>,
    /// Records known to be on stable storage. Held across the `fsync`
    /// that advances it, so concurrent syncs queue here, never on the
    /// append lock.
    synced: Mutex<u64>,
    /// The first failed `fsync`. A failed sync may have dropped dirty
    /// pages and cleared the error, so a retry could succeed over records
    /// that never reached the disk: from then on the journal writes and
    /// syncs nothing.
    poisoned: OnceLock<String>,
    /// Fail the next `fsync`.
    #[cfg(test)]
    fail_next_sync: AtomicBool,
    /// The records a reopened journal was read with, until a run takes
    /// them.
    carried: Mutex<Option<(Vec<JournalEvent>, Recovery)>>,
}

/// Append-only campaign journal. Clone-cheap and thread-safe: the
/// dispatcher's workers append from many threads, and the frame layer
/// guarantees each record lands contiguously because every append is a
/// single `write_all` under the append lock. Syncing happens outside that
/// lock (group commit, see [`Journal::append_all`]).
///
/// Under the policies that sync as they go, `EveryN` and `Always`, the
/// file is kept grown ahead of its records with zeros (64 KiB at first,
/// each step twice the last, up to 1 MiB), so a record's `write` never
/// changes the file's size and the sync after it flushes data, not the
/// size. Recovery reads a tail of zeros as unused space;
/// [`Journal::sync`] trims it.
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
        Ok(Journal::from_file(file, path, policy, 0))
    }

    /// Read a journal without taking the write handle or truncating
    /// anything — for inspection (`cornet resume` checks what it holds
    /// before committing to a resume).
    pub fn read(path: impl AsRef<Path>) -> Result<(Vec<JournalEvent>, Recovery)> {
        let (bytes, len) = read_journal(path.as_ref())?;
        decode_scan(&bytes, len)
    }

    /// Take the write handle of the journal that [`Journal::read`]
    /// returned `read` for, dropping its torn tail, positioned to append
    /// after its records. A read whose first record is not
    /// `campaign_opened` is refused before the file is touched. The
    /// journal carries the records until a run takes them
    /// ([`Journal::take_records`]): handed to a dispatcher, it resumes
    /// that campaign.
    pub fn reopen(
        path: impl AsRef<Path>,
        policy: FsyncPolicy,
        read: (Vec<JournalEvent>, Recovery),
    ) -> Result<Journal> {
        let path = path.as_ref();
        if !matches!(read.0.first(), Some(JournalEvent::CampaignOpened { .. })) {
            return Err(CornetError::DataIntegrity(format!(
                "{}: no campaign_opened record first; left as it is",
                path.display()
            )));
        }
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err("open", path, &e))?;
        file.set_len(read.1.valid_len)
            .map_err(|e| io_err("truncate", path, &e))?;
        let journal = Journal::from_file(file, path, policy, read.1.valid_len);
        *journal
            .inner
            .carried
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(read);
        Ok(journal)
    }

    /// The records [`Journal::reopen`] was given, once: the first call
    /// takes them, and a journal [`Journal::create`] made has none.
    pub fn take_records(&self) -> Option<(Vec<JournalEvent>, Recovery)> {
        self.inner
            .carried
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
    }

    /// A writer appending at `end`, the length of `file`.
    fn from_file(file: File, path: &Path, policy: FsyncPolicy, end: u64) -> Journal {
        Journal {
            inner: Arc::new(Inner {
                file,
                policy,
                carried: Mutex::default(),
                written: Mutex::new(Tail {
                    records: 0,
                    end,
                    len: end,
                    step: FIRST_GROWTH,
                }),
                synced: Mutex::default(),
                poisoned: OnceLock::new(),
                #[cfg(test)]
                fail_next_sync: AtomicBool::new(false),
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

    /// Attach a listener called after each record reaches the file, with
    /// the event and the payload the file holds for it. Records a crash
    /// drops or tears never notify, and the call is made under the append
    /// lock, before the policy's sync: the listener sees
    /// exactly what a recovery scan after a process crash would, in the
    /// same order. It must be short and must not append to this journal.
    /// A closure `Fn(&JournalEvent)` is a listener.
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

    /// Append one event: [`Journal::append_all`] of one record.
    pub fn append(&self, event: &JournalEvent) -> Result<()> {
        self.append_all(std::slice::from_ref(event))
    }

    /// Append `events` as consecutive records with one `write`. A dead
    /// crash switch silently drops them — only what reached the file
    /// before the crash matters for recovery. After a failed `fsync` they
    /// are refused with an error naming that failure.
    ///
    /// The events are encoded outside the append lock, straight into this
    /// thread's record buffer, and framed in place one after another with
    /// nothing between them (`frame::frame_in_place`). Under the lock the
    /// file is grown if the batch would reach past its end (policies that
    /// sync only), the batch is written with one `write` at the end of the
    /// records, and the listener hears each record in file order. So every
    /// record is in the page cache (safe from a process crash) before this
    /// returns. When the policy wants them on stable storage the sync runs
    /// with the append lock *released*: other threads keep appending
    /// meanwhile, and one `fsync` covers every record written before it
    /// started (group commit). Under `EveryN(n)` a batch that takes the
    /// record count past one or more multiples of `n` leads one sync, or
    /// is covered by one.
    ///
    /// The crash switch is read once a batch, under the lock. Dead, nothing
    /// lands. A tear writes the first half of the batch's bytes, as a torn
    /// `write` would: the whole records before the cut land, then one torn
    /// record, then nothing. The `journal.append` span opens after that
    /// verdict, one span a `write`, and its `records` and `bytes` — like
    /// the `journal.bytes_written` counter — count the whole records that
    /// landed.
    pub fn append_all(&self, events: &[JournalEvent]) -> Result<()> {
        if events.is_empty() || self.crash.is_dead() {
            return Ok(());
        }
        let mut batch = RECORD_BUFFER.take();
        let landed = self.write_batch(events, &mut batch);
        if batch.text.capacity() <= KEPT_RECORD_BUFFER {
            RECORD_BUFFER.set(batch);
        }
        let Some((span, landed)) = landed? else {
            return Ok(());
        };
        self.tracer.incr("journal.writes", 1);
        self.tracer.incr("journal.bytes_written", landed.bytes);
        let due = !landed.torn
            && match self.inner.policy {
                FsyncPolicy::Always => true,
                FsyncPolicy::EveryN(n) => {
                    let n = u64::from(n.max(1));
                    landed.records.end / n > landed.records.start / n
                }
                FsyncPolicy::Never => false,
            };
        if due {
            self.make_durable(landed.records.end, Some(span.id()))?;
        }
        span.finish();
        Ok(())
    }

    /// Frame `events` in `batch` and write them under the append lock.
    /// Returns the `write`'s span and what landed; `None` when the crash
    /// switch was dead.
    fn write_batch(
        &self,
        events: &[JournalEvent],
        batch: &mut Batch,
    ) -> Result<Option<(ActiveSpan, Landed)>> {
        batch.text.clear();
        batch.records.clear();
        for event in events {
            let framed = frame_in_place(&mut batch.text, |out| event.encode_into(out));
            batch.records.push(framed);
        }
        let start = batch.records[0].start;
        let all = &batch.text.as_bytes()[start..];
        // The end of each record, counted from the batch's first byte.
        let end_of = |r: &Framed| r.payload.end + 1 - start;
        let mut tail = self.written();
        self.check_poisoned()?;
        // The switch is read under the lock: nothing lands after a tear.
        let (bytes, whole) = match self.crash.take() {
            DEAD => return Ok(None),
            TEAR_NEXT => {
                let cut = &all[..all.len() / 2];
                let whole = batch.records.iter().take_while(|r| end_of(r) <= cut.len());
                (cut, whole.count())
            }
            _ => (all, events.len()),
        };
        let landed_bytes = batch.records[..whole].last().map_or(0, end_of);
        let mut span = self.tracer.span("journal.append");
        span.attr("event", events[0].kind());
        span.attr("records", whole);
        span.attr("bytes", landed_bytes);
        let at = tail.end;
        if self.inner.policy != FsyncPolicy::Never {
            self.grow(&mut tail, at + bytes.len() as u64)?;
        }
        self.inner
            .file
            .write_all_at(bytes, at)
            .map_err(|e| io_err("append", &self.path, &e))?;
        tail.end += bytes.len() as u64;
        tail.len = tail.len.max(tail.end);
        let before = tail.records;
        tail.records += whole as u64;
        // Still under the append lock: listeners hear records in the
        // order a recovery scan will read them, with the bytes it will.
        if let Some(listener) = &self.listener {
            for (event, framed) in events.iter().zip(&batch.records).take(whole) {
                listener.record(event, &batch.text[framed.payload.clone()]);
            }
        }
        let landed = Landed {
            records: before..tail.records,
            bytes: landed_bytes as u64,
            torn: whole < events.len(),
        };
        Ok(Some((span, landed)))
    }

    /// Grow the file with zeros until it reaches `need`, by whole steps.
    /// Called under the append lock, before a `write` that would pass the
    /// file's end.
    fn grow(&self, tail: &mut Tail, need: u64) -> Result<()> {
        // Nothing writes through the lock, so it is never poisoned.
        let zeros = ZEROS.read().unwrap_or_else(|e| e.into_inner());
        while tail.len < need {
            let to = tail.len + tail.step;
            while tail.len < to {
                let n = (to - tail.len).min(zeros.len() as u64);
                self.inner
                    .file
                    .write_all_at(&zeros[..n as usize], tail.len)
                    .map_err(|e| io_err("grow", &self.path, &e))?;
                tail.len += n;
            }
            tail.step = (tail.step * 2).min(LAST_GROWTH);
        }
        Ok(())
    }

    /// Trim the file to its last record, then force everything appended
    /// so far to stable storage. Its caller closes a campaign with it:
    /// the dispatcher after `campaign_closed`, also for a queued campaign
    /// the daemon runs cancelled. A closed journal
    /// is therefore exactly its records, with no space grown ahead of
    /// them; an append after this grows the file again. The trim takes no
    /// sync of its own: zeros a crash leaves behind read as unused space.
    /// After a failed `fsync` it trims and syncs nothing and returns an
    /// error naming that failure.
    pub fn sync(&self) -> Result<()> {
        if self.crash.is_dead() {
            return Ok(());
        }
        let written = {
            let mut tail = self.written();
            self.check_poisoned()?;
            if tail.len > tail.end {
                self.inner
                    .file
                    .set_len(tail.end)
                    .map_err(|e| io_err("trim", &self.path, &e))?;
                tail.len = tail.end;
            }
            tail.records
        };
        self.make_durable(written, None)
    }

    /// Return once records `1..=record` are on stable storage. Whoever
    /// holds the sync lock is the leader: it reads how many records have
    /// been written, syncs, and publishes that count. A follower that
    /// finds its record already covered — by a sync that read the count,
    /// and therefore started, after the record's `write` — returns without
    /// a system call. The first sync that fails poisons the journal: no
    /// leader syncs again.
    fn make_durable(&self, record: u64, parent: Option<SpanId>) -> Result<()> {
        let mut synced = self.inner.synced.lock().unwrap_or_else(|e| e.into_inner());
        if *synced >= record {
            return Ok(());
        }
        self.check_poisoned()?;
        let covers = self.written().records;
        let span = self.tracer.span_with_parent("journal.fsync", parent);
        #[allow(
            clippy::disallowed_methods,
            reason = "the journal's one sync, taken with the append lock released"
        )]
        let result = self.inner.file.sync_data();
        #[cfg(test)]
        let result = match self.inner.fail_next_sync.swap(false, Ordering::SeqCst) {
            true => Err(std::io::Error::other("injected fsync failure")),
            false => result,
        };
        if let Err(e) = result {
            let failure = io_err("fsync", &self.path, &e);
            let _ = self.inner.poisoned.set(failure.to_string());
            return Err(failure);
        }
        *synced = covers;
        self.tracer.incr("journal.fsyncs", 1);
        span.finish();
        Ok(())
    }

    /// Refuse with the first failed `fsync`, once there has been one.
    fn check_poisoned(&self) -> Result<()> {
        match self.inner.poisoned.get() {
            Some(first) => Err(CornetError::ExecutionFailed(format!(
                "journal {} refuses writes after a failed sync: {first}",
                self.path.display()
            ))),
            None => Ok(()),
        }
    }

    /// The append lock. Each update under it follows the `write` it
    /// describes, and the listener — the one call there that can panic —
    /// runs after all of them, so a poisoned guard is still consistent.
    fn written(&self) -> MutexGuard<'_, Tail> {
        self.inner.written.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records known to be on stable storage (waits out a sync in flight).
    #[cfg(test)]
    fn synced(&self) -> u64 {
        *self.inner.synced.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// What one `write` put in the file.
struct Landed {
    /// Numbers of the whole records written (0-based, end exclusive).
    records: Range<u64>,
    /// Their bytes.
    bytes: u64,
    /// Whether a tear cut the `write` short.
    torn: bool,
}

fn io_err(op: &str, path: &Path, e: &std::io::Error) -> CornetError {
    CornetError::ExecutionFailed(format!("journal {op} {}: {e}", path.display()))
}

/// A journal file's bytes up to its last non-zero byte, and the file's
/// length. The zeros after that byte are space a journal that syncs grew
/// ahead of its records, never a record, so a scan need not hold them in
/// memory: the file is searched for its last non-zero byte from the end,
/// one block at a time, and read only up to there.
fn read_journal(path: &Path) -> Result<(Vec<u8>, u64)> {
    let err = |op, e: std::io::Error| io_err(op, path, &e);
    let file = File::open(path).map_err(|e| err("open", e))?;
    let len = file.metadata().map_err(|e| err("stat", e))?.len();
    let mut end = len;
    let mut block = [0u8; 16 << 10];
    while end > 0 {
        let n = end.min(block.len() as u64);
        let from = end - n;
        let block = &mut block[..n as usize];
        file.read_exact_at(block, from)
            .map_err(|e| err("read", e))?;
        if let Some(last) = block.iter().rposition(|&b| b != 0) {
            end = from + last as u64 + 1;
            break;
        }
        end = from;
    }
    let mut bytes = Vec::with_capacity(usize::try_from(end).unwrap_or(0));
    (&file)
        .take(end)
        .read_to_end(&mut bytes)
        .map_err(|e| err("read", e))?;
    Ok((bytes, len))
}

/// Walk a journal's bytes once and decode the valid prefix. A record that
/// frames correctly but fails to decode counts as corruption: the walk
/// stops there and everything after it, up to the file's `len`, is torn —
/// unless it is all zeros, the space a journal that syncs grows ahead of
/// its records, which is neither torn nor dropped.
fn decode_scan(bytes: &[u8], len: u64) -> Result<(Vec<JournalEvent>, Recovery)> {
    let mut events = Vec::new();
    let mut valid_len = 0usize;
    for (payload, end) in records(bytes) {
        let Ok(event) = JournalEvent::decode(payload) else {
            break;
        };
        events.push(event);
        valid_len = end;
    }
    let torn = is_torn_tail(&bytes[valid_len..]);
    let recovery = Recovery {
        events: events.len(),
        valid_len: valid_len as u64,
        dropped_bytes: if torn { len - valid_len as u64 } else { 0 },
        torn,
    };
    Ok((events, recovery))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_record, scan};
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

    /// Every kind of record, one with an escaped, nested state.
    fn every_kind() -> Vec<JournalEvent> {
        let state = crate::StateMap::from([
            ("k\"ey\n".to_string(), cornet_types::ParamValue::from("v\\")),
            (
                "list".to_string(),
                cornet_types::ParamValue::List(vec![cornet_types::ParamValue::Float(f64::NAN)]),
            ),
        ]);
        vec![
            opened(),
            JournalEvent::CampaignResumed {
                meta: BTreeMap::from([("seed".to_string(), "7".to_string())]),
            },
            JournalEvent::InstanceAdmitted { node: 0, slot: 1 },
            JournalEvent::BlockCompleted(crate::BlockRecord {
                node: 0,
                slot: 1,
                block: "software_upgrade".into(),
                status: "failed".into(),
                attempts: 2,
                duration_ns: u64::MAX,
                backoff_ns: 5,
                error: Some("injected \"fault\"".into()),
                backout: true,
                state,
            }),
            JournalEvent::InstanceFinished {
                node: 0,
                slot: 1,
                status: "rolled_back".into(),
                detail: Some("software_upgrade".into()),
            },
            JournalEvent::BreakerTripped {
                block: "software_upgrade".into(),
                failure_rate: 0.5,
                samples: 4,
            },
            JournalEvent::CampaignClosed(None),
        ]
    }

    #[test]
    fn append_writes_what_encode_record_frames_and_hands_the_listener_its_payload() {
        let path = tmp("one-framer");
        let side = tmp("one-framer-side");
        // The listener appends to another journal from the appending
        // thread: the thread's record buffer is not held across the call.
        let side_journal = Journal::create(&side, FsyncPolicy::Never).unwrap();
        let heard = Arc::new(Mutex::new(Vec::new()));
        struct Tap(Arc<Mutex<Vec<String>>>, Journal);
        impl RecordListener for Tap {
            fn record(&self, event: &JournalEvent, payload: &str) {
                self.0.lock().unwrap().push(payload.to_owned());
                self.1.append(event).unwrap();
            }
        }
        let journal = Journal::create(&path, FsyncPolicy::Never)
            .unwrap()
            .with_listener(Arc::new(Tap(Arc::clone(&heard), side_journal)));
        let mut expected = String::new();
        for event in every_kind() {
            journal.append(&event).unwrap();
            expected.push_str(&encode_record(&event.encode()));
        }
        drop(journal);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(String::from_utf8(bytes.clone()).unwrap(), expected);
        assert_eq!(*heard.lock().unwrap(), scan(&bytes).payloads);
        assert_eq!(std::fs::read(&side).unwrap(), bytes);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&side).ok();
    }

    #[test]
    fn append_reopen_round_trips_and_is_idempotent() {
        let path = tmp("round-trip");
        let journal = Journal::create(&path, FsyncPolicy::Always).unwrap();
        journal.append(&opened()).unwrap();
        journal
            .append(&JournalEvent::InstanceAdmitted { node: 0, slot: 1 })
            .unwrap();
        journal.append(&JournalEvent::CampaignClosed(None)).unwrap();
        drop(journal);

        let (events, rec) = Journal::read(&path).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(rec.events, 3);
        assert_eq!(rec.dropped_bytes, 0);
        assert!(!rec.torn);
        let journal = Journal::reopen(&path, FsyncPolicy::Never, (events.clone(), rec)).unwrap();
        // The records ride with the journal until one run takes them.
        assert_eq!(journal.clone().take_records(), Some((events, rec)));
        assert_eq!(journal.take_records(), None);
        // Appending after a reopen extends, not overwrites.
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
    fn reopen_truncates_a_torn_tail() {
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

        let (events, rec) = Journal::read(&path).unwrap();
        assert_eq!(events.len(), 1, "torn admitted record dropped");
        assert!(rec.torn);
        assert!(rec.dropped_bytes > 0);
        let journal = Journal::reopen(&path, FsyncPolicy::Always, (events, rec)).unwrap();
        journal.append(&JournalEvent::CampaignClosed(None)).unwrap();
        drop(journal);
        let (events, rec) = Journal::read(&path).unwrap();
        assert!(!rec.torn, "file is clean again after recovery");
        assert_eq!(events.len(), 2);
        assert!(matches!(events[1], JournalEvent::CampaignClosed(None)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_refuses_what_does_not_open_a_campaign_and_leaves_it_as_it_is() {
        let path = tmp("not-opened");
        let closed = encode_record(&JournalEvent::CampaignClosed(None).encode());
        let torn = [closed.as_bytes(), b"half a rec"].concat();
        for bytes in [b"deploy notes\n".as_slice(), &torn, b""] {
            std::fs::write(&path, bytes).unwrap();
            let read = Journal::read(&path).unwrap();
            let err = Journal::reopen(&path, FsyncPolicy::Never, read).err();
            assert!(
                matches!(err, Some(CornetError::DataIntegrity(_))),
                "{err:?}"
            );
            assert_eq!(std::fs::read(&path).unwrap(), bytes);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_zero_tail_is_neither_torn_nor_dropped_and_zeros_after_a_torn_one_are_dropped() {
        let path = tmp("zero-tail");
        let good = encode_record(&opened().encode());
        let torn = encode_record(&JournalEvent::CampaignClosed(None).encode());
        let zeros = vec![0u8; 100 << 10];
        std::fs::write(&path, [good.as_bytes(), &zeros].concat()).unwrap();
        let (events, rec) = Journal::read(&path).unwrap();
        assert_eq!(events, [opened()]);
        assert_eq!(
            (rec.valid_len, rec.dropped_bytes, rec.torn),
            (good.len() as u64, 0, false)
        );
        // A reopen still cuts the zeros: the writer appends after them.
        let journal = Journal::reopen(&path, FsyncPolicy::Never, (events, rec)).unwrap();
        journal.append(&JournalEvent::CampaignClosed(None)).unwrap();
        drop(journal);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            [good.as_bytes(), torn.as_bytes()].concat()
        );

        let half = &torn.as_bytes()[..torn.len() / 2];
        let file = [good.as_bytes(), half, &zeros].concat();
        std::fs::write(&path, &file).unwrap();
        let (events, rec) = Journal::read(&path).unwrap();
        assert_eq!(events.len(), 1);
        assert!(rec.torn, "half a record followed by zeros is torn");
        assert_eq!(rec.dropped_bytes, (file.len() - good.len()) as u64);
        let empty = tmp("all-zero");
        std::fs::write(&empty, &zeros).unwrap();
        let (events, rec) = Journal::read(&empty).unwrap();
        assert!(events.is_empty() && !rec.torn && rec.valid_len == 0);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&empty).ok();
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
        journal.append(&JournalEvent::CampaignClosed(None)).unwrap();
        assert!(switch.is_dead(), "tear is one-shot, then dead");
        journal
            .append(&JournalEvent::InstanceAdmitted { node: 9, slot: 9 })
            .unwrap();
        drop(journal);

        // A span counts the whole records its `write` landed: the torn
        // append's none. An append that finds the journal dead on entry
        // records no span.
        let trace = tracer.snapshot();
        let landed: Vec<_> = trace
            .spans_named("journal.append")
            .map(|s| (s.attr("records").cloned(), s.attr("bytes").cloned()))
            .collect();
        let whole = encode_record(&opened().encode()).len() as i64;
        let int = |n| Some(AttrValue::Int(n));
        assert_eq!(landed, [(int(1), int(whole)), (int(0), int(0))]);
        let snap = trace.metrics;
        assert_eq!(snap.counter("journal.bytes_written"), whole as u64);
        assert_eq!(snap.counter("journal.writes"), 2);

        let (events, rec) = Journal::read(&path).unwrap();
        assert_eq!(events.len(), 1, "only the pre-crash record survives");
        assert!(rec.torn, "the half-written record is a torn tail");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_all_is_one_write_of_contiguous_records_heard_in_order() {
        let path = tmp("batch");
        let tracer = Tracer::with_clock(ManualClock::ticking(1));
        let heard = Arc::new(Mutex::new(Vec::new()));
        let tap = Arc::clone(&heard);
        let journal = Journal::create(&path, FsyncPolicy::Never)
            .unwrap()
            .with_tracer(tracer.clone())
            .with_listener(Arc::new(move |event: &JournalEvent| {
                tap.lock().unwrap().push(event.kind());
            }));
        let events = every_kind();
        journal.append(&events[0]).unwrap();
        journal.append_all(&events[1..]).unwrap();
        journal.append_all(&[]).unwrap();
        drop(journal);
        let bytes = std::fs::read(&path).unwrap();
        let expected: String = events.iter().map(|e| encode_record(&e.encode())).collect();
        assert_eq!(String::from_utf8(bytes).unwrap(), expected);
        let kinds: Vec<_> = events.iter().map(JournalEvent::kind).collect();
        assert_eq!(*heard.lock().unwrap(), kinds);
        let trace = tracer.take();
        assert_eq!(trace.metrics.counter("journal.writes"), 2);
        assert_eq!(
            trace.metrics.counter("journal.bytes_written"),
            expected.len() as u64
        );
        let records: Vec<_> = trace
            .spans_named("journal.append")
            .map(|s| s.attr("records").cloned())
            .collect();
        let n = events.len() as i64 - 1;
        assert_eq!(records, [Some(AttrValue::Int(1)), Some(AttrValue::Int(n))]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_torn_batch_keeps_the_whole_records_before_its_cut() {
        let path = tmp("torn-batch");
        let heard = Arc::new(Mutex::new(0usize));
        let tap = Arc::clone(&heard);
        let journal = Journal::create(&path, FsyncPolicy::EveryN(64))
            .unwrap()
            .with_listener(Arc::new(move |_: &JournalEvent| *tap.lock().unwrap() += 1));
        // Two short records, then a block record longer than both: half
        // the batch's bytes ends inside the third.
        let events = every_kind();
        let batch = [events[2].clone(), events[4].clone(), events[3].clone()];
        let lens: Vec<usize> = batch
            .iter()
            .map(|e| encode_record(&e.encode()).len())
            .collect();
        assert!(lens[0] + lens[1] <= lens.iter().sum::<usize>() / 2);
        journal.crash_switch().tear_next();
        journal.append_all(&batch).unwrap();
        journal.append(&opened()).unwrap();
        drop(journal);
        let (events, rec) = Journal::read(&path).unwrap();
        assert_eq!(events, batch[..2]);
        assert_eq!(*heard.lock().unwrap(), 2, "the listener hears what landed");
        assert!(rec.torn, "the cut record is a torn tail");
        assert_eq!(rec.valid_len, (lens[0] + lens[1]) as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_n_takes_one_sync_for_a_batch_past_several_crossings() {
        let path = tmp("every-n-batch");
        let tracer = Tracer::with_clock(ManualClock::ticking(1));
        let journal = Journal::create(&path, FsyncPolicy::EveryN(2))
            .unwrap()
            .with_tracer(tracer.clone());
        let closed = JournalEvent::CampaignClosed(None);
        journal.append(&closed).unwrap();
        let fsyncs = || {
            tracer
                .metrics()
                .unwrap()
                .snapshot()
                .counter("journal.fsyncs")
        };
        assert_eq!(fsyncs(), 0);
        // Records 2..=6 cross 2, 4 and 6: one sync covers them all.
        journal.append_all(&vec![closed.clone(); 5]).unwrap();
        assert_eq!((fsyncs(), journal.synced()), (1, 6));
        // Record 7 crosses nothing.
        journal.append_all(&[closed]).unwrap();
        assert_eq!(fsyncs(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_journal_that_syncs_grows_ahead_and_a_sync_trims_it_to_its_records() {
        let block = every_kind().swap_remove(3);
        let record = encode_record(&block.encode()).len() as u64;
        for policy in [
            FsyncPolicy::Always,
            FsyncPolicy::EveryN(64),
            FsyncPolicy::Never,
        ] {
            let path = tmp(&format!("grow-{policy}"));
            let journal = Journal::create(&path, policy).unwrap();
            let len = || std::fs::metadata(&path).unwrap().len();
            let grows = policy != FsyncPolicy::Never;
            journal.append(&block).unwrap();
            assert_eq!(len(), if grows { 64 << 10 } else { record }, "{policy}");
            // Past the first step the file grows by twice as much.
            let records = (64 << 10) / record + 1;
            for _ in 1..records {
                journal.append(&block).unwrap();
            }
            let want = if grows { 192 << 10 } else { records * record };
            assert_eq!(len(), want, "{policy}");
            let (events, rec) = Journal::read(&path).unwrap();
            assert_eq!(events.len() as u64, records);
            assert!(!rec.torn && rec.dropped_bytes == 0, "{policy}: {rec:?}");
            journal.sync().unwrap();
            assert_eq!(len(), records * record, "{policy}: a sync trims");
            // An append after a sync grows the file again.
            journal.append(&block).unwrap();
            let records = (records + 1) * record;
            assert_eq!(len() > records, grows, "{policy}");
            assert!(len() >= records);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn growth_steps_double_up_to_a_mebibyte() {
        let path = tmp("grow-steps");
        let journal = Journal::create(&path, FsyncPolicy::EveryN(1 << 20)).unwrap();
        let big = JournalEvent::CampaignResumed {
            meta: BTreeMap::from([("pad".to_string(), "x".repeat(4000))]),
        };
        let record = encode_record(&big.encode()).len() as u64;
        let mut lens = Vec::new();
        for _ in 0..(4 << 20) / record {
            journal.append(&big).unwrap();
            let len = std::fs::metadata(&path).unwrap().len();
            if lens.last() != Some(&len) {
                lens.push(len);
            }
        }
        let kib = |k: u64| k << 10;
        assert_eq!(
            lens[..6],
            [kib(64), kib(192), kib(448), kib(960), kib(1984), kib(3008)]
        );
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
                journal.append(&JournalEvent::CampaignClosed(None)).unwrap();
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
    fn a_failed_sync_poisons_the_journal_and_nothing_lands_after_it() {
        let path = tmp("poisoned");
        let journal = Journal::create(&path, FsyncPolicy::Always).unwrap();
        journal.append(&opened()).unwrap();
        journal.inner.fail_next_sync.store(true, Ordering::SeqCst);
        let failed = journal.append(&opened()).unwrap_err().to_string();
        assert!(failed.contains("injected fsync failure"), "{failed}");
        let bytes = std::fs::read(&path).unwrap();
        // A retried sync could succeed over pages the failed one dropped:
        // every later call is refused, names the failure, writes nothing.
        let refused = [
            journal.append(&opened()),
            journal.append_all(&[opened(), opened()]),
            journal.sync(),
        ];
        for result in refused {
            let e = result.unwrap_err().to_string();
            assert!(e.contains(&failed), "{e} does not name {failed}");
        }
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "the file moved");
        std::fs::remove_file(&path).ok();
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
                        journal.append(&JournalEvent::CampaignClosed(None)).unwrap();
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
        let record = encode_record(&JournalEvent::CampaignClosed(None).encode());
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
        let (events, rec) = Journal::read(&path).unwrap();
        assert_eq!(events.len(), 1);
        assert!(rec.torn);
        drop(Journal::reopen(&path, FsyncPolicy::Never, (events, rec)).unwrap());
        assert!(std::fs::metadata(&path).unwrap().len() < log.len() as u64);
        std::fs::remove_file(&path).ok();
    }
}
