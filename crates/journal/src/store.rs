//! Per-campaign WAL directory layout under a daemon state directory.
//!
//! The daemon journals every campaign it drives into its own directory so
//! campaigns can be created, resumed, and garbage-collected independently:
//!
//! ```text
//! <state_dir>/
//!   campaigns/
//!     c000001/
//!       manifest.json   # identity: id, tenant, display name, meta map
//!       journal.wal     # the campaign's write-ahead log (frame.rs format)
//!       spec.json       # submitted campaign spec, verbatim (owned by the
//!                       # daemon; the store only names the path)
//! ```
//!
//! The manifest is written once at submit time, before the first journal
//! append, and never again. It is deliberately tiny: everything needed to
//! *re-run* the campaign lives in the journal's `campaign_opened` meta and
//! the spec file, and everything that happened to it lives in the
//! journal. Recovery scans `campaigns/*/manifest.json`; a directory without a
//! readable manifest is skipped (a crash between `mkdir` and the manifest
//! write leaves an empty shell that never held journal records).

use crate::event::write_string_map;
use cornet_types::json::{parse, JsonValue, JsonWriter};
use cornet_types::{CornetError, Result};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Identity record for one campaign directory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Campaign id — also the directory name (`c000001`, `c000002`, …).
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

    /// Parse a manifest from its JSON text.
    pub fn decode(text: &str) -> Result<Manifest> {
        let value = parse(text)?;
        if value.entries().is_none() {
            return Err(CornetError::Parse("manifest: not an object".into()));
        }
        let field = |name: &str| -> Result<String> {
            value
                .get(name)
                .and_then(|v| v.as_str())
                .map(str::to_owned)
                .ok_or_else(|| CornetError::Parse(format!("manifest: missing string {name:?}")))
        };
        let mut meta = BTreeMap::new();
        if let Some(JsonValue::Object(pairs)) = value.get("meta") {
            for (k, v) in pairs {
                let v = v.as_str().ok_or_else(|| {
                    CornetError::Parse(format!("manifest: meta {k:?} is not a string"))
                })?;
                meta.insert(k.clone(), v.to_owned());
            }
        }
        Ok(Manifest {
            id: field("id")?,
            tenant: field("tenant")?,
            name: field("name")?,
            meta,
        })
    }
}

/// Filesystem paths of one campaign directory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignPaths {
    /// The campaign's directory.
    pub dir: PathBuf,
    /// `manifest.json` inside it.
    pub manifest: PathBuf,
    /// `journal.wal` inside it.
    pub journal: PathBuf,
    /// `spec.json` inside it (the submitted body, stored by the daemon).
    pub spec: PathBuf,
}

/// The state directory holding one WAL directory per campaign.
#[derive(Clone, Debug)]
pub struct CampaignStore {
    campaigns: PathBuf,
}

impl CampaignStore {
    /// Open (creating if needed) the store rooted at `state_dir`.
    pub fn open(state_dir: impl AsRef<Path>) -> Result<CampaignStore> {
        let campaigns = state_dir.as_ref().join("campaigns");
        fs::create_dir_all(&campaigns).map_err(|e| io_err("create", &campaigns, &e))?;
        Ok(CampaignStore { campaigns })
    }

    /// Directory holding the campaign subdirectories.
    pub fn campaigns_dir(&self) -> &Path {
        &self.campaigns
    }

    /// The id of campaign number `n` (`c000001`, …).
    pub fn id_for(n: u64) -> String {
        format!("c{n:06}")
    }

    /// The highest number among the `cNNNNNN` directory names (0 if none),
    /// for an id allocator to count on from. It opens no file: a directory
    /// counts with or without a manifest, so no id is ever reused.
    pub fn highest_id(&self) -> Result<u64> {
        let mut max = 0u64;
        let entries =
            fs::read_dir(&self.campaigns).map_err(|e| io_err("scan", &self.campaigns, &e))?;
        for entry in entries {
            let name = entry
                .map_err(|e| io_err("scan", &self.campaigns, &e))?
                .file_name();
            let number = name
                .to_str()
                .and_then(|name| name.strip_prefix('c'))
                .and_then(|n| n.parse::<u64>().ok());
            max = max.max(number.unwrap_or(0));
        }
        Ok(max)
    }

    /// Paths for campaign `id`. Ids are allocated by the daemon
    /// ([`CampaignStore::id_for`]), but reject path separators defensively
    /// so a hostile id cannot escape the state directory.
    pub fn paths(&self, id: &str) -> Result<CampaignPaths> {
        if id.is_empty()
            || !id
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(CornetError::InvalidInput(format!("bad campaign id {id:?}")));
        }
        let dir = self.campaigns.join(id);
        Ok(CampaignPaths {
            manifest: dir.join("manifest.json"),
            journal: dir.join("journal.wal"),
            spec: dir.join("spec.json"),
            dir,
        })
    }

    /// Create the campaign directory and persist its manifest. The
    /// manifest lands before any journal append, so a directory with a
    /// journal always has its identity on disk.
    pub fn create(&self, manifest: &Manifest) -> Result<CampaignPaths> {
        let paths = self.paths(&manifest.id)?;
        if paths.dir.exists() {
            return Err(CornetError::InvalidInput(format!(
                "campaign {} already exists",
                manifest.id
            )));
        }
        fs::create_dir_all(&paths.dir).map_err(|e| io_err("create", &paths.dir, &e))?;
        write_atomic(&paths.manifest, &manifest.encode())?;
        Ok(paths)
    }

    /// All campaigns with a readable manifest, sorted by id. Directories
    /// without one (crash between mkdir and manifest write) are skipped.
    pub fn scan(&self) -> Result<Vec<Manifest>> {
        let mut out = Vec::new();
        let entries =
            fs::read_dir(&self.campaigns).map_err(|e| io_err("scan", &self.campaigns, &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("scan", &self.campaigns, &e))?;
            let manifest_path = entry.path().join("manifest.json");
            let Ok(text) = fs::read_to_string(&manifest_path) else {
                continue;
            };
            if let Ok(manifest) = Manifest::decode(&text) {
                out.push(manifest);
            }
        }
        out.sort_by(|a, b| a.id.cmp(&b.id));
        Ok(out)
    }
}

fn write_atomic(path: &Path, text: &str) -> Result<()> {
    let tmp = path.with_extension("json.tmp");
    fs::write(&tmp, text).map_err(|e| io_err("write", &tmp, &e))?;
    fs::rename(&tmp, path).map_err(|e| io_err("rename", path, &e))?;
    Ok(())
}

fn io_err(op: &str, path: &Path, e: &std::io::Error) -> CornetError {
    CornetError::ExecutionFailed(format!("store {op} {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(name: &str) -> (PathBuf, CampaignStore) {
        let dir = std::env::temp_dir().join(format!("cornet-store-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = CampaignStore::open(&dir).unwrap();
        (dir, store)
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
    fn manifest_round_trips_through_json() {
        let m = manifest("c000007", "acme \"co\"");
        let decoded = Manifest::decode(&m.encode()).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn create_scan_and_id_allocation() {
        let (dir, store) = tmp_store("alloc");
        assert_eq!(store.highest_id().unwrap(), 0);
        store.create(&manifest("c000001", "a")).unwrap();
        store
            .create(&manifest(&CampaignStore::id_for(3), "b"))
            .unwrap();
        assert_eq!(store.highest_id().unwrap(), 3);
        // A directory without a manifest still holds its number.
        std::fs::create_dir(store.campaigns_dir().join("c000009")).unwrap();
        std::fs::create_dir(store.campaigns_dir().join("not-a-campaign")).unwrap();
        assert_eq!(store.highest_id().unwrap(), 9);
        let ids: Vec<_> = store.scan().unwrap().into_iter().map(|m| m.id).collect();
        assert_eq!(ids, ["c000001", "c000003"]);
        let err = store.create(&manifest("c000001", "a")).unwrap_err();
        assert!(err.to_string().contains("already exists"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_ids_are_refused() {
        let (dir, store) = tmp_store("hostile");
        for id in ["../escape", "a/b", "", "c 1"] {
            assert!(store.paths(id).is_err(), "{id:?} should be refused");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
