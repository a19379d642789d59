//! The persistent characterization store: a checksummed append-only log
//! of macromodel tables (and liberty sweep tables), so characterization
//! is paid once per `(corner, library)` ever, not once per analyzer
//! build.
//!
//! The solve store (`serve::store`) amortizes *solves*; this store
//! amortizes the **characterization sweep** that builds the macromodel
//! fast path (DESIGN.md D12). An analyzer build replays the store into
//! the process-global model store before prewarming, so a store-warm
//! build performs zero characterization Newton solves; whatever the
//! build does characterize is appended back, so the next process starts
//! warm. `xtalk liberty` keeps its (differently sampled) cell sweep
//! tables here too, as a second record kind.
//!
//! # Format
//!
//! A record log (crate module `recordlog`, DESIGN.md D16) under the magic
//! `"XTALKCHARSTORE1\n"`: the log owns the framing, the corruption policy
//! and the generation rewrites. Each payload is one record, first byte
//! the kind.
//!
//! Kind 1 — one characterized arc model:
//!
//! ```text
//! u8 kind = 1
//! u64 key        — macromodel::arc_key (GRID_VERSION + corner-sig keyed)
//! u64 reserved   — written as zero, ignored on read
//! model bytes    — ArcModel::to_bytes (fixed-length, format v2)
//! ```
//!
//! Kind 2 — one cell's liberty characterization tables:
//!
//! ```text
//! u8 kind = 2
//! u64 key        — process_sig + cell + grid signature (see xtalk CLI)
//! table bytes    — encode_cell_tables below
//! ```
//!
//! # Staleness and versioning
//!
//! Arc records are keyed by [`xtalk_wave::macromodel::arc_key`], which
//! folds in the table format/grid revision (`GRID_VERSION`) and the PVT
//! corner signature. A record characterized under an older grid, another
//! corner or another process replays into the model store under a key no
//! analysis ever looks up — stale records are dead weight, never served,
//! and the live arcs are simply re-characterized and appended under
//! their current keys. Nothing crosses corners: each corner replays and
//! characterizes under its own keys.
//!
//! The reserved slot of a kind-1 record is ignored on read, so stores
//! whose slot is nonzero (earlier writers kept a corner-agnostic arc
//! identity there) replay unchanged.
//!
//! # Corruption and durability
//!
//! Replay follows the log's corruption policy, and a payload that fails
//! structural decoding (wrong kind, wrong model length, non-finite
//! values) is skipped like a checksum mismatch. A damaged record
//! therefore costs a re-characterization, never a wrong table. Every
//! append is fsynced.
//!
//! The store never compacts: records are deduplicated by `(kind, key)`
//! and the population is bounded by the library's arc count times the
//! corners ever analyzed, so the log cannot grow past a small multiple of
//! its live content. It shares the log's torn-tail repair, though: after
//! a crash tears the last record, the next append first cuts the file
//! back to its last whole record, so what later runs append replays.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use xtalk_wave::characterize::{ArcTable, CellTables};
use xtalk_wave::macromodel::ArcModel;

use crate::recordlog::{lock, Format, Reader, RecordLog, SyncPolicy, MAX_RECORD};
#[cfg(test)]
use {crate::recordlog::next_record, xtalk_wave::signature::StableHasher};

/// Leading magic of a characterization store file (version-bumped on
/// format changes; arc-model payloads additionally carry the grid
/// revision inside their keys).
pub const MAGIC: &[u8] = b"XTALKCHARSTORE1\n";

/// Record kind byte of an arc-model record.
const KIND_ARC: u8 = 1;
/// Record kind byte of a liberty cell-tables record.
const KIND_LIBERTY: u8 = 2;

/// The characterization store's log: a record's dedup identity is its
/// `(kind, key)`.
static FORMAT: Format<(u8, u64)> = Format {
    name: "characterization store",
    magic: MAGIC,
    retired: None,
    identity: record_key,
};

/// What one [`CharStore::load`] call recovered.
#[derive(Debug, Clone, Default)]
pub struct Replayed {
    /// Arc models replayed by this call.
    pub models: u64,
    /// Corrupt records skipped by this call.
    pub corrupt: u64,
}

/// The append-only on-disk characterization store. All methods take
/// `&self`; the log and the liberty map are internally locked, so
/// executors and daemon sessions share one instance per path (see
/// [`open_shared`]).
pub struct CharStore {
    log: RecordLog<(u8, u64)>,
    /// Liberty table bodies replayed by [`load`](Self::load) or appended
    /// through this handle, by key.
    liberty: Mutex<HashMap<u64, Vec<u8>>>,
}

impl std::fmt::Debug for CharStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CharStore")
            .field("path", &self.path())
            .finish_non_exhaustive()
    }
}

/// Opens the store at `path`, sharing one handle per canonical path
/// within this process: two executors (or daemon sessions) pointed at
/// the same file must share one writer lock, or their appended records
/// could interleave mid-frame.
///
/// # Errors
///
/// I/O errors from open/create; `InvalidData` when an existing file does
/// not start with the store magic.
pub fn open_shared(path: &Path) -> std::io::Result<Arc<CharStore>> {
    static REGISTRY: OnceLock<Mutex<HashMap<PathBuf, Arc<CharStore>>>> = OnceLock::new();
    let registry = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
    let mut guard = registry
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // Canonicalize after ensuring the file exists (open creates it), so
    // equivalent spellings of one path share one handle.
    if let Some(store) = path
        .canonicalize()
        .ok()
        .and_then(|canon| guard.get(&canon).cloned())
    {
        return Ok(store);
    }
    let store = Arc::new(CharStore::open(path)?);
    let canon = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    Ok(guard.entry(canon).or_insert(store).clone())
}

impl CharStore {
    /// Opens (creating if absent) the store file at `path`. Prefer
    /// [`open_shared`] anywhere two handles could point at one file.
    ///
    /// # Errors
    ///
    /// I/O errors from open/create; `InvalidData` when an existing file
    /// does not start with the store magic (wrong file — refusing to
    /// append records to it).
    pub fn open(path: &Path) -> std::io::Result<CharStore> {
        let (log, _) = RecordLog::open(path, &FORMAT, SyncPolicy::Always)?;
        Ok(CharStore {
            log,
            liberty: Mutex::new(HashMap::new()),
        })
    }

    /// The store file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Replays every intact record: arc models land in the process-global
    /// model store (first-wins, via
    /// [`xtalk_wave::macromodel::insert_model`]) and liberty tables in
    /// this handle's map. Corrupt records are skipped per the module
    /// policy. Returns this call's counts.
    ///
    /// # Errors
    ///
    /// Only on failing to read the file itself; corruption inside the
    /// file is never an error.
    pub fn load(&self) -> std::io::Result<Replayed> {
        let bytes = self.log.read()?;
        let mut out = Replayed::default();
        for entry in self.log.walk(&bytes) {
            match entry.payload().and_then(decode_record) {
                Some(Record::Arc { key, model }) => {
                    let _ = xtalk_wave::macromodel::insert_model(key, *model);
                    out.models += 1;
                }
                Some(Record::Liberty { key, body }) => {
                    lock(&self.liberty).insert(key, body);
                }
                None => out.corrupt += 1,
            }
        }
        Ok(out)
    }

    /// Appends freshly characterized arc models as `(key,
    /// ArcModel::to_bytes)` pairs, deduplicating by key against everything
    /// already on disk, then flushes and syncs. Returns how many records
    /// were written.
    ///
    /// # Errors
    ///
    /// I/O errors from the underlying file.
    pub fn append_models(&self, models: &[(u64, Vec<u8>)]) -> std::io::Result<u64> {
        let payloads: Vec<Vec<u8>> = models
            .iter()
            .map(|(key, model)| {
                let mut payload = Vec::with_capacity(17 + model.len());
                payload.push(KIND_ARC);
                payload.extend_from_slice(&key.to_le_bytes());
                payload.extend_from_slice(&[0; 8]); // reserved slot
                payload.extend_from_slice(model);
                payload
            })
            .collect();
        Ok(self.log.append(&payloads)?.0)
    }

    /// The replayed liberty tables under `key`, if [`load`](Self::load)
    /// recovered an intact record for it.
    #[must_use]
    pub fn liberty_tables(&self, key: u64) -> Option<CellTables> {
        let guard = lock(&self.liberty);
        let body = guard.get(&key)?;
        decode_cell_tables(body)
    }

    /// Appends one cell's liberty characterization tables under `key`
    /// (first write per key wins; later appends of the same key are
    /// dropped). Returns whether a record was written.
    ///
    /// # Errors
    ///
    /// I/O errors from the underlying file.
    pub fn append_liberty(&self, key: u64, tables: &CellTables) -> std::io::Result<bool> {
        let body = encode_cell_tables(tables);
        let mut payload = Vec::with_capacity(9 + body.len());
        payload.push(KIND_LIBERTY);
        payload.extend_from_slice(&key.to_le_bytes());
        payload.extend_from_slice(&body);
        let (written, _) = self.log.append(&[payload])?;
        if written > 0 {
            lock(&self.liberty).insert(key, body);
        }
        Ok(written > 0)
    }
}

/// One decoded store record.
enum Record {
    Arc { key: u64, model: Box<ArcModel> },
    Liberty { key: u64, body: Vec<u8> },
}

/// The `(kind, key)` prefix of an intact payload: its dedup identity.
fn record_key(payload: &[u8]) -> Option<(u8, u64)> {
    let mut r = Reader(payload);
    Some((r.u8()?, r.u64()?))
}

/// Decodes one payload. `None` on any structural violation — a checksum
/// collision over a damaged record must not replay garbage.
fn decode_record(payload: &[u8]) -> Option<Record> {
    let (kind, key) = record_key(payload)?;
    match kind {
        KIND_ARC => {
            // Bytes 9..17 are the reserved slot, skipped.
            let model = Box::new(ArcModel::from_bytes(payload.get(17..)?)?);
            Some(Record::Arc { key, model })
        }
        KIND_LIBERTY => {
            let body = payload.get(9..)?.to_vec();
            // Validate structure now so replay counts corruption here,
            // not at lookup time.
            decode_cell_tables(&body)?;
            Some(Record::Liberty { key, body })
        }
        _ => None,
    }
}

fn push_f64s(out: &mut Vec<u8>, xs: &[f64]) {
    out.extend_from_slice(&(xs.len() as u32).to_le_bytes());
    for &x in xs {
        out.extend_from_slice(&x.to_bits().to_le_bytes());
    }
}

/// Serializes one cell's liberty sweep tables (bit-exact doubles, so a
/// replayed sweep formats into a byte-identical `.lib`).
fn encode_cell_tables(tables: &CellTables) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(tables.cell.len() as u16).to_le_bytes());
    out.extend_from_slice(tables.cell.as_bytes());
    out.extend_from_slice(&(tables.arcs.len() as u32).to_le_bytes());
    for arc in &tables.arcs {
        out.extend_from_slice(&(arc.pin as u32).to_le_bytes());
        out.push(arc.output_rising as u8);
        push_f64s(&mut out, &arc.slews);
        push_f64s(&mut out, &arc.loads);
        push_f64s(&mut out, &arc.ratios);
        for row in arc.delay.iter().chain(&arc.out_slew) {
            push_f64s(&mut out, row);
        }
        for plane in arc.coupled_delay.iter().chain(&arc.coupled_out_slew) {
            for row in plane {
                push_f64s(&mut out, row);
            }
        }
    }
    out
}

/// Reads one [`push_f64s`] vector, rejecting it when its length is not
/// `expect`.
fn read_f64s(r: &mut Reader<'_>, expect: Option<usize>) -> Option<Vec<f64>> {
    let n = r.u32()? as usize;
    if n > MAX_RECORD / 8 || expect.is_some_and(|e| e != n) {
        return None;
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.f64()?);
    }
    Some(out)
}

/// Decodes [`encode_cell_tables`]' image, validating every dimension
/// against the arc's own grid lengths. `None` on any mismatch.
fn decode_cell_tables(body: &[u8]) -> Option<CellTables> {
    let mut r = Reader(body);
    let cell_len = r.u16()? as usize;
    let cell = String::from_utf8(r.take(cell_len)?.to_vec()).ok()?;
    let n_arcs = r.u32()? as usize;
    if n_arcs > 1 << 16 {
        return None;
    }
    let mut arcs = Vec::with_capacity(n_arcs);
    for _ in 0..n_arcs {
        let pin = r.u32()? as usize;
        let output_rising = match r.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let slews = read_f64s(&mut r, None)?;
        let loads = read_f64s(&mut r, None)?;
        let ratios = read_f64s(&mut r, None)?;
        let (ns, nl, nr) = (slews.len(), loads.len(), ratios.len());
        let mut grid = |rows: usize| -> Option<Vec<Vec<f64>>> {
            let mut out = Vec::with_capacity(rows);
            for _ in 0..rows {
                out.push(read_f64s(&mut r, Some(nl))?);
            }
            Some(out)
        };
        let delay = grid(ns)?;
        let out_slew = grid(ns)?;
        let mut cube = |planes: usize| -> Option<Vec<Vec<Vec<f64>>>> {
            let mut out = Vec::with_capacity(planes);
            for _ in 0..planes {
                let mut plane = Vec::with_capacity(ns);
                for _ in 0..ns {
                    plane.push(read_f64s(&mut r, Some(nl))?);
                }
                out.push(plane);
            }
            Some(out)
        };
        let coupled_delay = cube(nr)?;
        let coupled_out_slew = cube(nr)?;
        arcs.push(ArcTable {
            pin,
            output_rising,
            slews,
            loads,
            ratios,
            delay,
            out_slew,
            coupled_delay,
            coupled_out_slew,
        });
    }
    if !r.0.is_empty() {
        return None; // trailing bytes: not a record we wrote
    }
    Some(CellTables { cell, arcs })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xtalk_charstore_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    /// A small synthetic-but-valid model image: characterizing a real arc
    /// here would be slow, and the store treats model bytes as opaque
    /// beyond `ArcModel::from_bytes` validation.
    fn model_bytes(tag: u64) -> Vec<u8> {
        use xtalk_wave::macromodel::{MODEL_FORMAT, MODEL_LEN};
        // Zero served rows (an unusable model); zero doubles decode finite.
        let mut bytes = vec![0u8; MODEL_LEN];
        bytes[0] = MODEL_FORMAT;
        // Stamp the tag into the first scalar so records differ.
        bytes[2..10].copy_from_slice(&(tag as f64).to_le_bytes());
        bytes
    }

    fn entry(tag: u64) -> (u64, Vec<u8>) {
        // Keys far outside any real arc_key population.
        (0x00C0_FFEE_0000 + tag, model_bytes(tag))
    }

    fn cell_tables(tag: usize) -> CellTables {
        let ns = 2 + tag % 2;
        let nl = 3;
        let nr = 2;
        let row = |s: usize| (0..nl).map(|l| (s * nl + l + tag) as f64 * 1e-12).collect();
        CellTables {
            cell: format!("CELL{tag}"),
            arcs: vec![ArcTable {
                pin: tag,
                output_rising: tag.is_multiple_of(2),
                slews: (0..ns).map(|i| (i + 1) as f64 * 1e-11).collect(),
                loads: (0..nl).map(|i| (i + 1) as f64 * 1e-14).collect(),
                ratios: (0..nr).map(|i| 0.1 * (i + 1) as f64).collect(),
                delay: (0..ns).map(row).collect(),
                out_slew: (0..ns).map(|s| row(s + 7)).collect(),
                coupled_delay: (0..nr)
                    .map(|r| (0..ns).map(|s| row(s + r)).collect())
                    .collect(),
                coupled_out_slew: (0..nr)
                    .map(|r| (0..ns).map(|s| row(s + r + 3)).collect())
                    .collect(),
            }],
        }
    }

    #[test]
    fn round_trips_models_across_reopen_and_dedups() {
        let path = tmp("roundtrip.log");
        let _ = std::fs::remove_file(&path);
        let store = CharStore::open(&path).expect("open");
        let entries: Vec<_> = (0..4).map(entry).collect();
        assert_eq!(store.append_models(&entries).expect("append"), 4);
        // Same keys again: all deduped.
        assert_eq!(store.append_models(&entries).expect("re-append"), 0);
        drop(store);

        let store = CharStore::open(&path).expect("reopen");
        let replay = store.load().expect("load");
        assert_eq!(replay.models, 4);
        assert_eq!(replay.corrupt, 0);
        // The reopen pre-scan dedups without an explicit load.
        assert_eq!(store.append_models(&entries).expect("append"), 0);
    }

    #[test]
    fn liberty_tables_roundtrip_bitwise() {
        let path = tmp("liberty.log");
        let _ = std::fs::remove_file(&path);
        let store = CharStore::open(&path).expect("open");
        let tables = cell_tables(1);
        assert!(store.append_liberty(77, &tables).expect("append"));
        // Second write under the same key is dropped.
        assert!(!store.append_liberty(77, &cell_tables(2)).expect("dup"));
        drop(store);

        let store = CharStore::open(&path).expect("reopen");
        assert!(
            store.liberty_tables(77).is_none(),
            "bodies load only via load()"
        );
        let replay = store.load().expect("load");
        assert_eq!(replay.models, 0);
        let back = store.liberty_tables(77).expect("replayed");
        assert_eq!(back.cell, tables.cell);
        assert_eq!(back.arcs.len(), 1);
        let (a, b) = (&back.arcs[0], &tables.arcs[0]);
        assert_eq!(a.pin, b.pin);
        assert_eq!(a.output_rising, b.output_rising);
        for (x, y) in a.delay.iter().flatten().zip(b.delay.iter().flatten()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in a
            .coupled_out_slew
            .iter()
            .flatten()
            .flatten()
            .zip(b.coupled_out_slew.iter().flatten().flatten())
        {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn non_store_file_is_rejected_at_open() {
        let path = tmp("notastore.log");
        std::fs::write(&path, b"definitely not a characterization store").expect("write");
        let e = CharStore::open(&path).expect_err("bad magic must be rejected");
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn open_shared_returns_one_handle_per_path() {
        let path = tmp("shared.log");
        let _ = std::fs::remove_file(&path);
        let a = open_shared(&path).expect("open");
        let b = open_shared(&path).expect("open again");
        assert!(Arc::ptr_eq(&a, &b));
    }

    /// Crash-recovery torture: truncate the log at every record boundary
    /// (and a few bytes past each), and flip a payload byte inside every
    /// record. Whatever the damage, open + load must succeed and replay
    /// only intact records — never an altered one.
    #[test]
    fn torture_truncation_and_corruption_at_every_boundary() {
        let path = tmp("torture_src.log");
        let _ = std::fs::remove_file(&path);
        let store = CharStore::open(&path).expect("open");
        let entries: Vec<_> = (0..3).map(entry).collect();
        store.append_models(&entries).expect("append");
        store
            .append_liberty(99, &cell_tables(0))
            .expect("append liberty");
        drop(store);
        let bytes = std::fs::read(&path).expect("read");

        let mut boundaries = vec![MAGIC.len()];
        let mut cursor = MAGIC.len();
        while let Some((_, next)) = next_record(&bytes, cursor) {
            boundaries.push(next);
            cursor = next;
        }
        assert_eq!(boundaries.len(), 5, "four records on disk");

        let victim = tmp("torture_case.log");
        let check = |case: &[u8], max_models: u64| {
            std::fs::write(&victim, case).expect("write case");
            let store = CharStore::open(&victim).expect("open survives");
            let replay = store.load().expect("load survives");
            assert!(replay.models <= max_models);
            // Fresh appends still work on the damaged store.
            assert!(store.append_models(&[entry(70)]).expect("append") <= 1);
        };

        for (i, &b) in boundaries.iter().enumerate() {
            for off in [0usize, 1, 5, 11] {
                let cut = (b + off).min(bytes.len());
                check(&bytes[..cut], i as u64);
            }
        }
        for w in boundaries.windows(2) {
            let mut damaged = bytes.clone();
            damaged[w[0] + 12] ^= 0x5a; // first payload byte of this record
            check(&damaged, entries.len() as u64);
            // The damaged record is skipped, not served: its checksum
            // fails, so loads count it corrupt.
            std::fs::write(&victim, &damaged).expect("write case");
            let store = CharStore::open(&victim).expect("open");
            let replay = store.load().expect("load");
            assert!(replay.corrupt >= 1, "flipped byte must be detected");
        }
    }

    /// Appends one validly framed record to a store image.
    fn push_record(bytes: &mut Vec<u8>, payload: &[u8]) {
        let mut h = StableHasher::new();
        h.write_bytes(payload);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&h.finish().to_le_bytes());
        bytes.extend_from_slice(payload);
    }

    #[test]
    fn nonzero_reserved_slot_still_replays() {
        // Older writers stored an arc identity in the slot after the key;
        // the slot is ignored on read, so such stores replay unchanged.
        let (key, model) = entry(5);
        let mut payload = vec![KIND_ARC];
        payload.extend_from_slice(&key.to_le_bytes());
        payload.extend_from_slice(&0x5EED_0000_0000_0002u64.to_le_bytes());
        payload.extend_from_slice(&model);
        let mut bytes = MAGIC.to_vec();
        push_record(&mut bytes, &payload);
        let path = tmp("reserved.log");
        std::fs::write(&path, &bytes).expect("write");

        let store = CharStore::open(&path).expect("open");
        let replay = store.load().expect("load");
        assert_eq!(replay.models, 1);
        assert_eq!(replay.corrupt, 0);
        let replayed = xtalk_wave::macromodel::model_for(key).expect("model replayed");
        assert_eq!(replayed.to_bytes(), model);
        // The pre-scan registered the key: re-appending it writes nothing.
        assert_eq!(store.append_models(&[(key, model)]).expect("append"), 0);
    }

    #[test]
    fn unknown_kind_and_malformed_model_are_skipped() {
        let path = tmp("badkind.log");
        let _ = std::fs::remove_file(&path);
        let store = CharStore::open(&path).expect("open");
        store.append_models(&[entry(0)]).expect("append");
        drop(store);
        // Append a validly framed record of an unknown kind by hand.
        let mut bytes = std::fs::read(&path).expect("read");
        push_record(&mut bytes, &[9u8, 1, 2, 3, 4, 5, 6, 7, 8, 42]);
        // And a kind-1 record whose model bytes are too short.
        push_record(
            &mut bytes,
            &[KIND_ARC, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 1],
        );
        std::fs::write(&path, &bytes).expect("write");

        let store = CharStore::open(&path).expect("reopen");
        let replay = store.load().expect("load");
        assert_eq!(replay.models, 1, "only the real record replays");
        assert_eq!(replay.corrupt, 2, "both malformed records are counted");
    }
}
