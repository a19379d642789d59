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
//! ```text
//! [magic: 16 bytes "XTALKCHARSTORE1"]
//! record*:
//!   [len: u32 LE]          payload length
//!   [checksum: u64 LE]     FNV-1a over the payload bytes
//!   [payload: len bytes]   one record, first byte is the kind
//! ```
//!
//! Kind 1 — one characterized arc model:
//!
//! ```text
//! u8 kind = 1
//! u64 key        — macromodel::arc_key (GRID_VERSION + corner-sig keyed)
//! u64 reserved   — written as zero, ignored on read
//! model bytes    — ArcModel::to_bytes (fixed-length format v1)
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
//! # Corruption policy
//!
//! Same as the solve store, trusting nothing on replay:
//!
//! - checksum mismatch → the record is **skipped** and counted; framing
//!   is intact, so replay continues with the next record;
//! - implausible length word or truncated tail → framing is gone; replay
//!   **stops** there, dropping the unreadable tail;
//! - a payload that fails structural decoding (wrong kind, wrong model
//!   length, non-finite values) is skipped like a checksum mismatch.
//!
//! A damaged record therefore costs a re-characterization, never a wrong
//! table. Unlike the solve store there is no compaction: records are
//! deduplicated by key at append time and the population is bounded by
//! the library's arc count times the corners ever analyzed, so the log
//! cannot grow past a small multiple of its live content.

use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use xtalk_wave::characterize::{ArcTable, CellTables};
use xtalk_wave::macromodel::ArcModel;
use xtalk_wave::signature::StableHasher;

/// Leading magic of a characterization store file (version-bumped on
/// format changes; arc-model payloads additionally carry the grid
/// revision inside their keys).
pub const MAGIC: &[u8] = b"XTALKCHARSTORE1\n";

/// Upper bound on one record's payload; length words above this are
/// treated as framing corruption. An arc-model record is ~25 KB; liberty
/// tables a few KB.
pub const MAX_RECORD: usize = 1 << 20;

/// Record kind byte of an arc-model record.
const KIND_ARC: u8 = 1;
/// Record kind byte of a liberty cell-tables record.
const KIND_LIBERTY: u8 = 2;

/// Lifetime counters of one store handle.
#[derive(Debug, Clone, Copy, Default)]
pub struct CharStoreStats {
    /// Arc models replayed into the process-global model store.
    pub replayed: u64,
    /// Corrupt records skipped during replay (checksum, kind or decode
    /// failures), plus one for a truncated/unframed tail if hit.
    pub corrupt_skipped: u64,
    /// Arc-model records appended by this process (after key dedup).
    pub appended: u64,
    /// Append candidates dropped because their key is already on disk.
    pub deduped: u64,
    /// Liberty cell-table records replayed.
    pub liberty_replayed: u64,
    /// Liberty cell-table records appended.
    pub liberty_appended: u64,
}

/// What one [`CharStore::load`] call recovered.
#[derive(Debug, Clone, Default)]
pub struct Replayed {
    /// Arc models replayed by this call.
    pub models: u64,
    /// Corrupt records skipped by this call.
    pub corrupt: u64,
}

/// The append-only on-disk characterization store. All methods take
/// `&self`; the writer and dedup set are internally locked, so executors
/// and daemon sessions share one instance per path (see [`open_shared`]).
pub struct CharStore {
    path: PathBuf,
    writer: Mutex<BufWriter<File>>,
    /// Keys of every arc-model record on disk (loaded + appended).
    seen: Mutex<HashSet<u64>>,
    /// Keys of every liberty record on disk, with the latest payload body
    /// replayed by [`load`](Self::load).
    liberty: Mutex<HashMap<u64, Vec<u8>>>,
    stats: Mutex<CharStoreStats>,
}

impl std::fmt::Debug for CharStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CharStore")
            .field("path", &self.path)
            .field("stats", &self.stats())
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
        let mut seen = HashSet::new();
        let mut liberty_keys = HashSet::new();
        let fresh = !path.exists() || std::fs::metadata(path)?.len() == 0;
        if !fresh {
            let bytes = std::fs::read(path)?;
            if !bytes.starts_with(MAGIC) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "{} is not a characterization store (bad magic)",
                        path.display()
                    ),
                ));
            }
            // Pre-scan the intact prefix so appends dedup against it.
            let mut cursor = MAGIC.len();
            while let Some((payload, next)) = next_record(&bytes, cursor) {
                if let Some(payload) = payload {
                    match record_key(payload) {
                        Some((KIND_ARC, key)) => {
                            seen.insert(key);
                        }
                        Some((KIND_LIBERTY, key)) => {
                            liberty_keys.insert(key);
                        }
                        _ => {}
                    }
                }
                cursor = next;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let mut writer = BufWriter::new(file);
        if fresh {
            writer.write_all(MAGIC)?;
            writer.flush()?;
        }
        Ok(CharStore {
            path: path.to_path_buf(),
            writer: Mutex::new(writer),
            seen: Mutex::new(seen),
            liberty: Mutex::new(liberty_keys.into_iter().map(|k| (k, Vec::new())).collect()),
            stats: Mutex::new(CharStoreStats::default()),
        })
    }

    /// The store file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Lifetime counters so far.
    #[must_use]
    pub fn stats(&self) -> CharStoreStats {
        *lock(&self.stats)
    }

    /// Replays every intact record: arc models land in the process-global
    /// model store (first-wins, via
    /// [`xtalk_wave::macromodel::insert_model`]) and liberty tables in
    /// this handle's map. Corrupt records are skipped per the module
    /// policy. Returns this call's counts; lifetime totals accumulate in
    /// [`stats`](Self::stats).
    ///
    /// # Errors
    ///
    /// Only on failing to read the file itself; corruption inside the
    /// file is never an error.
    pub fn load(&self) -> std::io::Result<Replayed> {
        // Hold the writer lock across the read so a concurrent append
        // cannot interleave a half-written record into our view.
        let mut writer = lock(&self.writer);
        writer.flush()?;
        let bytes = std::fs::read(&self.path)?;
        drop(writer);
        let mut out = Replayed::default();
        if !bytes.starts_with(MAGIC) {
            // The header was damaged after open(): nothing below it is
            // readable. Start cold.
            lock(&self.stats).corrupt_skipped += 1;
            out.corrupt = 1;
            return Ok(out);
        }
        let mut liberty_replayed = 0u64;
        let mut cursor = MAGIC.len();
        loop {
            match next_record(&bytes, cursor) {
                None if cursor == bytes.len() => break, // clean end
                None => {
                    // Truncated or unframed tail: stop, count once.
                    out.corrupt += 1;
                    break;
                }
                Some((payload, next)) => {
                    match payload.and_then(decode_record) {
                        Some(Record::Arc { key, model }) => {
                            let _ = xtalk_wave::macromodel::insert_model(key, *model);
                            out.models += 1;
                        }
                        Some(Record::Liberty { key, body }) => {
                            lock(&self.liberty).insert(key, body);
                            liberty_replayed += 1;
                        }
                        None => out.corrupt += 1,
                    }
                    cursor = next;
                }
            }
        }
        let mut stats = lock(&self.stats);
        stats.replayed += out.models;
        stats.corrupt_skipped += out.corrupt;
        stats.liberty_replayed += liberty_replayed;
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
        if models.is_empty() {
            return Ok(0);
        }
        let mut written = 0u64;
        let mut deduped = 0u64;
        let mut writer = lock(&self.writer);
        let mut seen = lock(&self.seen);
        for (key, model) in models {
            if !seen.insert(*key) {
                deduped += 1;
                continue;
            }
            let mut payload = Vec::with_capacity(17 + model.len());
            payload.push(KIND_ARC);
            payload.extend_from_slice(&key.to_le_bytes());
            payload.extend_from_slice(&[0; 8]); // reserved slot
            payload.extend_from_slice(model);
            write_record(&mut writer, &payload)?;
            written += 1;
        }
        writer.flush()?;
        if written > 0 {
            writer.get_ref().sync_data()?;
        }
        drop(writer);
        drop(seen);
        let mut stats = lock(&self.stats);
        stats.appended += written;
        stats.deduped += deduped;
        Ok(written)
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
        let mut writer = lock(&self.writer);
        let mut liberty = lock(&self.liberty);
        if liberty.contains_key(&key) {
            return Ok(false);
        }
        let mut payload = Vec::with_capacity(9 + body.len());
        payload.push(KIND_LIBERTY);
        payload.extend_from_slice(&key.to_le_bytes());
        payload.extend_from_slice(&body);
        write_record(&mut writer, &payload)?;
        writer.flush()?;
        writer.get_ref().sync_data()?;
        liberty.insert(key, body);
        drop(writer);
        drop(liberty);
        lock(&self.stats).liberty_appended += 1;
        Ok(true)
    }
}

/// One decoded store record.
enum Record {
    Arc { key: u64, model: Box<ArcModel> },
    Liberty { key: u64, body: Vec<u8> },
}

/// Frames and writes one checksummed record.
fn write_record(writer: &mut BufWriter<File>, payload: &[u8]) -> std::io::Result<()> {
    let mut h = StableHasher::new();
    h.write_bytes(payload);
    writer.write_all(&(payload.len() as u32).to_le_bytes())?;
    writer.write_all(&h.finish().to_le_bytes())?;
    writer.write_all(payload)
}

/// Poison-tolerant lock: the store must keep serving after a panicked
/// thread.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The `(kind, key)` prefix of an intact payload, for the dedup pre-scan.
fn record_key(payload: &[u8]) -> Option<(u8, u64)> {
    let kind = *payload.first()?;
    let key = u64::from_le_bytes(payload.get(1..9)?.try_into().ok()?);
    Some((kind, key))
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

/// Walks one record starting at `cursor`. Returns `None` when the
/// framing is unusable from here on (truncated header/payload or
/// implausible length — including the clean-EOF case, which the caller
/// distinguishes by `cursor == bytes.len()`). Otherwise returns the
/// payload — `Some(bytes)` if its checksum matched, `None` if not — and
/// the offset of the next record.
#[allow(clippy::type_complexity)]
fn next_record(bytes: &[u8], cursor: usize) -> Option<(Option<&[u8]>, usize)> {
    let head = bytes.get(cursor..cursor + 12)?;
    let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
    if len == 0 || len > MAX_RECORD {
        return None;
    }
    let checksum = u64::from_le_bytes([
        head[4], head[5], head[6], head[7], head[8], head[9], head[10], head[11],
    ]);
    let start = cursor + 12;
    let payload = bytes.get(start..start + len)?;
    let mut h = StableHasher::new();
    h.write_bytes(payload);
    let ok = h.finish() == checksum;
    Some((ok.then_some(payload), start + len))
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

/// Decodes [`encode_cell_tables`]' image, validating every dimension
/// against the arc's own grid lengths. `None` on any mismatch.
fn decode_cell_tables(body: &[u8]) -> Option<CellTables> {
    struct R<'a> {
        bytes: &'a [u8],
        pos: usize,
    }
    impl R<'_> {
        fn take(&mut self, n: usize) -> Option<&[u8]> {
            let s = self.bytes.get(self.pos..self.pos + n)?;
            self.pos += n;
            Some(s)
        }
        fn u32(&mut self) -> Option<u32> {
            self.take(4)
                .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        }
        fn f64s(&mut self, expect: Option<usize>) -> Option<Vec<f64>> {
            let n = self.u32()? as usize;
            if n > MAX_RECORD / 8 || expect.is_some_and(|e| e != n) {
                return None;
            }
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                let b = self.take(8)?;
                out.push(f64::from_bits(u64::from_le_bytes([
                    b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
                ])));
            }
            Some(out)
        }
    }
    let mut r = R {
        bytes: body,
        pos: 0,
    };
    let cell_len = u16::from_le_bytes(r.take(2)?.try_into().ok()?) as usize;
    let cell = String::from_utf8(r.take(cell_len)?.to_vec()).ok()?;
    let n_arcs = r.u32()? as usize;
    if n_arcs > 1 << 16 {
        return None;
    }
    let mut arcs = Vec::with_capacity(n_arcs);
    for _ in 0..n_arcs {
        let pin = r.u32()? as usize;
        let output_rising = match r.take(1)?[0] {
            0 => false,
            1 => true,
            _ => return None,
        };
        let slews = r.f64s(None)?;
        let loads = r.f64s(None)?;
        let ratios = r.f64s(None)?;
        let (ns, nl, nr) = (slews.len(), loads.len(), ratios.len());
        let mut grid = |rows: usize| -> Option<Vec<Vec<f64>>> {
            let mut out = Vec::with_capacity(rows);
            for _ in 0..rows {
                out.push(r.f64s(Some(nl))?);
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
                    plane.push(r.f64s(Some(nl))?);
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
    if r.pos != body.len() {
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
        use xtalk_wave::macromodel::{GRID_LOADS, GRID_RATIOS, GRID_SLEWS};
        // The format-v1 byte length: header + 11 scalars + two quiet
        // slices + two active slices of four tables each.
        let (ns, nl, nr) = (GRID_SLEWS.len(), GRID_LOADS.len(), GRID_RATIOS.len());
        let len = 2 + 11 * 8 + 2 * 4 * (ns * nl) * 8 + 2 * 4 * (nr * ns * nl) * 8;
        let mut bytes = vec![0u8; len];
        bytes[0] = 1; // format version
        bytes[1] = 0; // usable = false (defaults decode finite)
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
        assert_eq!(store.stats().deduped, 4);
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
