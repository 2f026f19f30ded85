//! A daemon's campaign store: one append-only submissions log, and one
//! journal per campaign that has run.
//!
//! ```text
//! <state_dir>/
//!   submissions.log   # one record per accepted campaign (frame.rs format):
//!                     # {"manifest": <Manifest::encode()>, "spec": "<body>"}
//!   campaigns/
//!     c000001.wal     # the campaign's write-ahead log (frame.rs format)
//! ```
//!
//! A submit appends one record through the handle [`CampaignStore::open`]
//! opened: one `write`, no file created. The record is never rewritten and
//! holds what a re-run needs (identity, the scenario meta, the spec
//! verbatim); the journal holds what happened. Nothing here is synced: a
//! process crash loses no `write` that returned.
//!
//! Opening cuts a torn tail, and refuses untouched a log that is not empty
//! yet holds no valid record, or a directory with files in it (the layout
//! of older builds, `campaigns/<id>/manifest.json`). Ids are never reused:
//! every `cNNNNNN…` name under `campaigns/` counts with the log's, so a
//! journal whose record was lost, or an empty directory, holds its number.

use crate::event::write_string_map;
use crate::frame::{encode_record, scan};
use cornet_types::json::{parse, JsonValue, JsonWriter};
use cornet_types::{CornetError, Result};
use std::collections::{BTreeMap, BTreeSet};
use std::fs::{self, File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Identity record of one campaign.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Campaign id (`c000001`, `c000002`, …) — also its journal's name.
    pub id: String,
    /// Owning tenant; every API request must present a matching tenant id.
    pub tenant: String,
    /// Human-readable campaign name (from the submitted spec).
    pub name: String,
    /// Free-form metadata (scenario parameters, fsync policy, …).
    pub meta: BTreeMap<String, String>,
}

impl Manifest {
    /// Render as a single-line JSON object.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        let mut w = JsonWriter::compact(&mut out);
        w.begin_object();
        w.key("id").str(&self.id);
        w.key("tenant").str(&self.tenant);
        w.key("name").str(&self.name);
        write_string_map(w.key("meta"), &self.meta);
        w.end_object();
        out
    }
}

/// One accepted campaign as the submissions log holds it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Submission {
    /// The campaign's identity.
    pub manifest: Manifest,
    /// The submitted spec, verbatim.
    pub spec: String,
}

/// The state directory: the submissions log and the campaigns' journals.
pub struct CampaignStore {
    /// The log's append handle, and every id the store holds.
    log: Mutex<(File, BTreeSet<String>)>,
}

const LOG: &str = "submissions.log";

impl CampaignStore {
    /// Open (creating if needed) the store at `state_dir`, with the log's records in order.
    pub fn open(state_dir: impl AsRef<Path>) -> Result<(CampaignStore, Vec<Submission>)> {
        let campaigns = state_dir.as_ref().join("campaigns");
        fs::create_dir_all(&campaigns).map_err(|e| io_err("create", &campaigns, &e))?;
        let log_path = state_dir.as_ref().join(LOG);
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&log_path)
            .map_err(|e| io_err("open", &log_path, &e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| io_err("read", &log_path, &e))?;
        let scanned = scan(&bytes);
        if scanned.payloads.is_empty() && !bytes.is_empty() {
            let what = format!(
                "{}: no submission record; left as it is",
                log_path.display()
            );
            return Err(CornetError::DataIntegrity(what));
        }
        let submissions = scanned
            .payloads
            .iter()
            .map(|payload| decode_submission(payload))
            .collect::<Result<Vec<_>>>()?;
        // Cut a torn or zero tail: the next record follows the last valid one.
        if scanned.valid_len < bytes.len() {
            file.set_len(scanned.valid_len as u64)
                .map_err(|e| io_err("truncate", &log_path, &e))?;
        }
        let mut ids: BTreeSet<String> = submissions.iter().map(|s| s.manifest.id.clone()).collect();
        for entry in fs::read_dir(&campaigns).map_err(|e| io_err("scan", &campaigns, &e))? {
            let path = entry.map_err(|e| io_err("scan", &campaigns, &e))?.path();
            if fs::read_dir(&path).is_ok_and(|mut files| files.next().is_some()) {
                let old = "the layout of older builds, campaigns/<id>/manifest.json";
                let what = format!("{}: {old}", path.display());
                return Err(CornetError::InvalidState(what));
            }
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            ids.insert(name.strip_suffix(".wal").unwrap_or(&name).to_owned());
        }
        let log = Mutex::new((file, ids));
        Ok((CampaignStore { log }, submissions))
    }

    /// The highest number among the ids the store holds — the log's, and
    /// every `cNNNNNN…` name under `campaigns/` — or 0 if none, for an id
    /// allocator to count on from.
    pub fn highest_id(&self) -> u64 {
        let log = self.log.lock().unwrap_or_else(|e| e.into_inner());
        log.1.iter().filter_map(|id| number(id)).max().unwrap_or(0)
    }

    /// The id of campaign number `n` (`c000001`, …).
    pub fn id_for(n: u64) -> String {
        format!("c{n:06}")
    }

    /// Where campaign `id`'s journal lives under `state_dir`. Ids are
    /// allocated by the daemon ([`CampaignStore::id_for`]), but path
    /// separators are refused defensively so a hostile id cannot escape
    /// the state directory.
    pub fn journal_path(state_dir: impl AsRef<Path>, id: &str) -> Result<PathBuf> {
        let plain = |c: char| c.is_ascii_alphanumeric() || c == '-' || c == '_';
        if id.is_empty() || !id.chars().all(plain) {
            return Err(CornetError::InvalidInput(format!("bad campaign id {id:?}")));
        }
        Ok(state_dir.as_ref().join(format!("campaigns/{id}.wal")))
    }

    /// Record an accepted campaign: one append to the submissions log.
    /// An id the store already holds is refused.
    pub fn create(&self, manifest: &Manifest, spec: &str) -> Result<()> {
        Self::journal_path("", &manifest.id)?;
        let mut payload = String::new();
        let mut w = JsonWriter::compact(&mut payload);
        w.begin_object();
        w.key("manifest").raw(&manifest.encode());
        w.key("spec").str(spec);
        w.end_object();
        let record = encode_record(&payload);
        let mut log = self.log.lock().unwrap_or_else(|e| e.into_inner());
        if !log.1.insert(manifest.id.clone()) {
            let taken = format!("campaign {} already exists", manifest.id);
            return Err(CornetError::InvalidInput(taken));
        }
        log.0
            .write_all(record.as_bytes())
            .map_err(|e| io_err("append", Path::new(LOG), &e))
    }
}

fn decode_submission(payload: &str) -> Result<Submission> {
    let value = parse(payload)?;
    let manifest = value.get("manifest");
    let string = |v: Option<&JsonValue>, key: &str| {
        v.and_then(|v| v.get(key))
            .and_then(JsonValue::as_str)
            .map(str::to_owned)
            .ok_or_else(|| corrupt(key))
    };
    let mut meta = BTreeMap::new();
    if let Some(JsonValue::Object(pairs)) = manifest.and_then(|m| m.get("meta")) {
        for (k, v) in pairs {
            meta.insert(k.clone(), v.as_str().ok_or_else(|| corrupt(k))?.to_owned());
        }
    }
    Ok(Submission {
        manifest: Manifest {
            id: string(manifest, "id")?,
            tenant: string(manifest, "tenant")?,
            name: string(manifest, "name")?,
            meta,
        },
        spec: string(Some(&value), "spec")?,
    })
}

fn corrupt(key: &str) -> CornetError {
    CornetError::DataIntegrity(format!("{LOG}: a record without a string {key:?}"))
}

/// The number of a `cNNNNNN…` name: the digits after the `c`.
fn number(id: &str) -> Option<u64> {
    let mut digits = id.strip_prefix('c')?.split(|c: char| !c.is_ascii_digit());
    digits.next()?.parse().ok()
}

fn io_err(op: &str, path: &Path, e: &std::io::Error) -> CornetError {
    CornetError::ExecutionFailed(format!("store {op} {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cornet-store-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn manifest(id: &str, tenant: &str) -> Manifest {
        let mut meta = BTreeMap::new();
        meta.insert("seed".into(), "42".into());
        Manifest {
            id: id.into(),
            tenant: tenant.into(),
            name: format!("campaign {id}"),
            meta,
        }
    }

    #[test]
    fn create_reopen_and_id_allocation() {
        let dir = tmp_dir("alloc");
        let (store, stored) = CampaignStore::open(&dir).unwrap();
        assert!(stored.is_empty());
        assert_eq!(store.highest_id(), 0);
        let spec = "{\"name\": \"x\",\n \"quote\": \"\\\"\"}";
        store
            .create(&manifest("c000001", "acme \"co\""), spec)
            .unwrap();
        store
            .create(&manifest(&CampaignStore::id_for(3), "b"), "{}")
            .unwrap();
        let err = store.create(&manifest("c000001", "a"), "{}").unwrap_err();
        assert!(err.to_string().contains("already exists"), "{err}");
        drop(store);
        // A journal without a record, and an empty directory, hold their
        // numbers; other names hold none.
        let campaigns = dir.join("campaigns");
        std::fs::write(campaigns.join("c000009.wal"), "").unwrap();
        std::fs::create_dir(campaigns.join("c000005")).unwrap();
        std::fs::create_dir(campaigns.join("not-a-campaign")).unwrap();
        let (store, stored) = CampaignStore::open(&dir).unwrap();
        assert_eq!(store.highest_id(), 9);
        let ids: Vec<_> = stored.iter().map(|s| &s.manifest.id).collect();
        assert_eq!(ids, ["c000001", "c000003"]);
        assert_eq!(stored[0].spec, spec, "the spec is verbatim");
        assert_eq!(stored[0].manifest, manifest("c000001", "acme \"co\""));
        for id in ["c000003", "c000009", "c000005"] {
            assert!(store.create(&manifest(id, "a"), "{}").is_err(), "{id}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_torn_tail_is_cut_and_garbage_is_refused_untouched() {
        let dir = tmp_dir("torn");
        let (store, _) = CampaignStore::open(&dir).unwrap();
        store.create(&manifest("c000001", "a"), "{}").unwrap();
        drop(store);
        let log = dir.join(LOG);
        let whole = std::fs::read(&log).unwrap();
        let mut torn = whole.clone();
        torn.extend_from_slice(&whole[..whole.len() / 2]);
        std::fs::write(&log, &torn).unwrap();
        let (store, stored) = CampaignStore::open(&dir).unwrap();
        assert_eq!(stored.len(), 1);
        assert_eq!(std::fs::read(&log).unwrap(), whole, "the torn tail is cut");
        store.create(&manifest("c000002", "a"), "{}").unwrap();
        drop(store);
        assert_eq!(CampaignStore::open(&dir).unwrap().1.len(), 2);

        std::fs::write(&log, "not a log\n").unwrap();
        let err = CampaignStore::open(&dir).err().expect("refused");
        assert!(matches!(err, CornetError::DataIntegrity(_)), "{err}");
        assert_eq!(std::fs::read(&log).unwrap(), b"not a log\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_older_directory_layout_is_refused_by_name() {
        let dir = tmp_dir("old-layout");
        let old = dir.join("campaigns/c000001");
        std::fs::create_dir_all(&old).unwrap();
        std::fs::write(old.join("manifest.json"), manifest("c000001", "a").encode()).unwrap();
        let err = CampaignStore::open(&dir).err().expect("refused");
        assert!(matches!(err, CornetError::InvalidState(_)), "{err}");
        assert!(err.to_string().contains("manifest.json"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_ids_are_refused() {
        for id in ["../escape", "a/b", "", "c 1"] {
            assert!(
                CampaignStore::journal_path("state", id).is_err(),
                "{id:?} should be refused"
            );
        }
    }
}
