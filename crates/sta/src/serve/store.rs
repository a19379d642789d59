//! The persistent cross-process solve store: a checksummed append-only
//! log of stage-solve cache entries.
//!
//! The daemon writes solved (key, waveform) pairs behind each request; at
//! bind the log is replayed once into the daemon's shared stage-solve
//! cache, so the first analysis after a daemon restart begins warm and
//! performs strictly fewer Newton integrations than a cold batch run.
//! Because the cache is exact-match on the solver's full bit-canonical
//! inputs, a replayed entry can change *work*, never *results* — disk-warm
//! analyses are bit-identical to cold ones.
//!
//! # Format
//!
//! A record log (crate module `recordlog`, DESIGN.md D16) under the magic
//! `"XTALKSOLVESTORE2\n"`: the log owns the framing, the corruption
//! policy, the [`SyncPolicy`] and the generation rewrites. Each payload is
//! one (SolveKey, Waveform) pair (all integers little-endian):
//!
//! ```text
//! u16 cell_len, cell bytes            — library cell name
//! u32 stage, u32 slot, u8 flags      — stage identity within the cell
//! u64 corner                         — PVT-corner discriminant
//! u32 n, n × (u64, u64)              — input waveform canonical bit pairs
//! u64 cground                        — grounded load, canonical bits
//! u32 m, m × (u64, u8)               — coupling caps (bits, mode byte)
//! u32 k, k × (u64, u64)              — result waveform raw f64 bits
//! ```
//!
//! A payload that fails structural parsing or waveform validation is
//! skipped like a checksum mismatch, so a corrupt entry can cost warmth,
//! not correctness. Records are deduplicated by payload hash, within and
//! across daemon generations.
//!
//! # Compaction
//!
//! The log is append-only, so corrupt records accumulate across crashes.
//! [`SolveStore::compact`] rewrites the records that still decode into a
//! new generation, on demand (the `compact` protocol command) or
//! automatically when the file crosses the configured size threshold.

use std::path::Path;
use std::sync::Mutex;

use xtalk_wave::Waveform;

use crate::exec::cache::{SolveCache, SolveKey};
use crate::recordlog::{checksum, lock, Format, Reader, RecordLog, MAX_RECORD};
pub use crate::recordlog::{CompactStats, SyncPolicy};
#[cfg(test)]
use {crate::recordlog::next_record, std::path::PathBuf};

/// Leading magic of a store file (version-bumped on format changes).
/// Version 2 added the PVT-corner discriminant to every record's solve
/// key; see [`MAGIC_V1`] for how older generations are handled.
pub const MAGIC: &[u8] = b"XTALKSOLVESTORE2\n";

/// Magic of the previous (corner-less) store generation. Its records
/// predate the corner field in `SolveKey`, so replaying them could serve
/// one corner's bits to another; [`SolveStore::open`] recognizes the magic,
/// counts the stale records, and starts a fresh generation instead of
/// refusing the file or replaying it.
pub const MAGIC_V1: &[u8] = b"XTALKSOLVESTORE1\n";

/// The solve store's log: a record's dedup identity is its payload hash.
static FORMAT: Format<u64> = Format {
    name: "solve store",
    magic: MAGIC,
    retired: Some(MAGIC_V1),
    identity: |payload| Some(checksum(payload)),
};

/// Counters describing a store's lifetime (replay + appends).
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreStats {
    /// Entries successfully replayed into the daemon's cache.
    pub replayed: u64,
    /// Corrupt records skipped during replay (checksum, parse or waveform
    /// failures), plus one for a truncated/unframed tail if hit.
    pub corrupt_skipped: u64,
    /// Records appended by this process (after dedup).
    pub appended: u64,
    /// Journal entries dropped as duplicates of already-stored records.
    pub deduped: u64,
    /// Generation compactions completed by this process.
    pub compactions: u64,
    /// Corrupt/unreadable records dropped from the log by compactions.
    pub compact_dropped: u64,
    /// Records of a previous store version (corner-less generation)
    /// discarded at open instead of being replayed.
    pub stale_skipped: u64,
}

/// The append-only on-disk solve store. All methods take `&self`; the log
/// and the counters are internally locked, so the daemon's connection
/// threads share one instance.
pub struct SolveStore {
    log: RecordLog<u64>,
    stats: Mutex<StoreStats>,
    /// File size (bytes) past which an append triggers a compaction;
    /// `None` compacts only on demand.
    compact_threshold: Option<u64>,
}

impl std::fmt::Debug for SolveStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveStore")
            .field("path", &self.path())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl SolveStore {
    /// Opens (creating if absent) the store file at `path`. A new file gets
    /// the magic header; an existing one keeps its records for
    /// `replay`. The parent directory must exist.
    ///
    /// # Errors
    ///
    /// I/O errors from open/create; `InvalidData` when an existing file
    /// does not start with the store magic (wrong file — refusing to
    /// append garbage to it).
    pub fn open(path: &Path) -> std::io::Result<SolveStore> {
        let (log, stale) = RecordLog::open(path, &FORMAT, SyncPolicy::default())?;
        Ok(SolveStore {
            log,
            stats: Mutex::new(StoreStats {
                stale_skipped: stale,
                ..StoreStats::default()
            }),
            compact_threshold: None,
        })
    }

    /// Sets the append durability policy (default: [`SyncPolicy::Interval`]).
    #[must_use]
    pub fn with_sync_policy(mut self, sync: SyncPolicy) -> Self {
        self.log.sync = sync;
        self
    }

    /// Sets (or clears) the automatic-compaction size threshold, bytes.
    #[must_use]
    pub fn with_compact_threshold(mut self, bytes: Option<u64>) -> Self {
        self.compact_threshold = bytes;
        self
    }

    /// The store file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Lifetime counters so far.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        *lock(&self.stats)
    }

    /// Replays every intact record into `cache` (via
    /// [`SolveCache::preload`]), skipping corrupt ones per the module-level
    /// policy. Returns `(replayed, corrupt_skipped)` for this call; the
    /// lifetime totals accumulate in [`stats`](Self::stats).
    ///
    /// # Errors
    ///
    /// Only on failing to read the file itself; corruption inside the file
    /// is never an error.
    pub(crate) fn replay(&self, cache: &SolveCache) -> std::io::Result<(u64, u64)> {
        let bytes = self.log.read()?;
        let mut replayed = 0u64;
        let mut corrupt = 0u64;
        for entry in self.log.walk(&bytes) {
            match entry.payload().and_then(decode_payload) {
                Some((key, wave)) => {
                    cache.preload(key, wave);
                    replayed += 1;
                }
                None => corrupt += 1,
            }
        }
        let mut stats = lock(&self.stats);
        stats.replayed += replayed;
        stats.corrupt_skipped += corrupt;
        Ok((replayed, corrupt))
    }

    /// Appends journal entries (deduplicating against everything already on
    /// disk), flushes, and applies the [`SyncPolicy`]. Returns how many
    /// records were actually written. When a size threshold is configured
    /// and the file has crossed it, the append finishes with an automatic
    /// compaction.
    ///
    /// # Errors
    ///
    /// I/O errors from the underlying file.
    pub(crate) fn append(&self, entries: &[(SolveKey, Waveform)]) -> std::io::Result<u64> {
        if entries.is_empty() {
            return Ok(0);
        }
        let payloads: Vec<Vec<u8>> = entries
            .iter()
            .map(|(key, wave)| encode_payload(key, wave))
            .collect();
        let (written, deduped) = self.log.append(&payloads)?;
        if let Some(threshold) = self.compact_threshold {
            if self.log.file_len()? >= threshold {
                self.compact()?;
            }
        }
        let mut stats = lock(&self.stats);
        stats.appended += written;
        stats.deduped += deduped;
        Ok(written)
    }

    /// Rewrites the records that still decode into a fresh generation and
    /// installs it atomically: the new generation (`<path>.new`) is fully
    /// written and fsynced *before* the rename, so the old generation
    /// survives any crash mid-compaction. Corrupt records and torn tails
    /// are left behind (they would never replay anyway).
    ///
    /// # Errors
    ///
    /// I/O errors from reading, writing, syncing or renaming; on error the
    /// old generation is still in place and the store keeps appending to
    /// it.
    pub fn compact(&self) -> std::io::Result<CompactStats> {
        let result = self
            .log
            .compact(|payload| decode_payload(payload).is_some())?;
        let mut stats = lock(&self.stats);
        stats.compactions += 1;
        stats.compact_dropped += result.dropped;
        Ok(result)
    }
}

fn encode_payload(key: &SolveKey, wave: &Waveform) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        2 + key.cell.len()
            + 17
            + 4
            + key.wave.len() * 16
            + 8
            + 4
            + key.couplings.len() * 9
            + 4
            + wave.points().len() * 16,
    );
    out.extend_from_slice(&(key.cell.len() as u16).to_le_bytes());
    out.extend_from_slice(key.cell.as_bytes());
    out.extend_from_slice(&key.stage.to_le_bytes());
    out.extend_from_slice(&key.slot.to_le_bytes());
    out.push(key.flags);
    out.extend_from_slice(&key.corner.to_le_bytes());
    out.extend_from_slice(&(key.wave.len() as u32).to_le_bytes());
    for &(t, v) in &key.wave {
        out.extend_from_slice(&t.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&key.cground.to_le_bytes());
    out.extend_from_slice(&(key.couplings.len() as u32).to_le_bytes());
    for &(c, mode) in &key.couplings {
        out.extend_from_slice(&c.to_le_bytes());
        out.push(mode);
    }
    let points = wave.points();
    out.extend_from_slice(&(points.len() as u32).to_le_bytes());
    for &(t, v) in points {
        out.extend_from_slice(&t.to_bits().to_le_bytes());
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out
}

/// Decodes one payload back into a cache entry. `None` on any structural
/// violation or when the stored waveform fails validation — a checksum
/// collision over a damaged record must not preload garbage.
fn decode_payload(payload: &[u8]) -> Option<(SolveKey, Waveform)> {
    let mut r = Reader(payload);
    let cell_len = r.u16()? as usize;
    let cell = String::from_utf8(r.take(cell_len)?.to_vec()).ok()?;
    let stage = r.u32()?;
    let slot = r.u32()?;
    let flags = r.u8()?;
    let corner = r.u64()?;
    let n = r.u32()? as usize;
    if n > MAX_RECORD / 16 {
        return None;
    }
    let mut wave = Vec::with_capacity(n);
    for _ in 0..n {
        wave.push((r.u64()?, r.u64()?));
    }
    let cground = r.u64()?;
    let m = r.u32()? as usize;
    if m > MAX_RECORD / 9 {
        return None;
    }
    let mut couplings = Vec::with_capacity(m);
    for _ in 0..m {
        couplings.push((r.u64()?, r.u8()?));
    }
    let k = r.u32()? as usize;
    if k > MAX_RECORD / 16 {
        return None;
    }
    let mut points = Vec::with_capacity(k);
    for _ in 0..k {
        points.push((r.f64()?, r.f64()?));
    }
    if !r.0.is_empty() {
        return None; // trailing bytes: not a record we wrote
    }
    let result = Waveform::new(points).ok()?;
    let key = SolveKey {
        cell,
        stage,
        slot,
        flags,
        corner,
        wave,
        cground,
        couplings,
    };
    Some((key, result))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xtalk_store_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    fn entry(tag: u32) -> (SolveKey, Waveform) {
        let key = SolveKey {
            cell: "INVX1".into(),
            stage: 0,
            slot: tag,
            flags: 1,
            corner: 0,
            wave: vec![(1, 2), (3, u64::from(tag))],
            cground: 42,
            couplings: vec![(7, 1)],
        };
        let wave = Waveform::new(vec![(0.0, 0.0), (1e-9 * f64::from(tag + 1), 3.3)])
            .expect("valid waveform");
        (key, wave)
    }

    fn cache() -> SolveCache {
        SolveCache::new()
    }

    #[test]
    fn round_trips_entries_across_reopen() {
        let path = tmp("roundtrip.log");
        let _ = std::fs::remove_file(&path);
        let store = SolveStore::open(&path).expect("open");
        let entries: Vec<_> = (0..5).map(entry).collect();
        assert_eq!(store.append(&entries).expect("append"), 5);
        drop(store);

        let store = SolveStore::open(&path).expect("reopen");
        let c = cache();
        let (replayed, corrupt) = store.replay(&c).expect("replay");
        assert_eq!((replayed, corrupt), (5, 0));
        assert_eq!(c.len(), 5);
        // Reopen deduplicates: appending the same entries writes nothing.
        assert_eq!(store.append(&entries).expect("re-append"), 0);
        assert_eq!(store.stats().deduped, 5);
    }

    #[test]
    fn duplicate_entries_are_written_once() {
        let path = tmp("dedup.log");
        let _ = std::fs::remove_file(&path);
        let store = SolveStore::open(&path).expect("open");
        let e = entry(1);
        let twice = vec![e.clone(), e];
        assert_eq!(store.append(&twice).expect("append"), 1);
        assert_eq!(store.stats().deduped, 1);
    }

    #[test]
    fn checksum_corruption_skips_one_record_and_continues() {
        let path = tmp("corrupt_mid.log");
        let _ = std::fs::remove_file(&path);
        let store = SolveStore::open(&path).expect("open");
        store
            .append(&(0..3).map(entry).collect::<Vec<_>>())
            .expect("append");
        drop(store);

        // Flip one payload byte inside the *second* record.
        let mut bytes = std::fs::read(&path).expect("read");
        let first_len =
            u32::from_le_bytes(bytes[MAGIC.len()..MAGIC.len() + 4].try_into().expect("len"))
                as usize;
        let second_payload_at = MAGIC.len() + 12 + first_len + 12 + 3;
        bytes[second_payload_at] ^= 0xff;
        std::fs::write(&path, &bytes).expect("write corrupted");

        let store = SolveStore::open(&path).expect("reopen");
        let c = cache();
        let (replayed, corrupt) = store.replay(&c).expect("replay");
        assert_eq!(corrupt, 1, "exactly the damaged record is skipped");
        assert_eq!(replayed, 2, "records before and after it survive");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn truncated_tail_stops_replay_without_error() {
        let path = tmp("truncated.log");
        let _ = std::fs::remove_file(&path);
        let store = SolveStore::open(&path).expect("open");
        store
            .append(&(0..2).map(entry).collect::<Vec<_>>())
            .expect("append");
        drop(store);

        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 5]).expect("truncate");

        let store = SolveStore::open(&path).expect("reopen");
        let c = cache();
        let (replayed, corrupt) = store.replay(&c).expect("replay");
        assert_eq!(replayed, 1, "the intact first record loads");
        assert_eq!(corrupt, 1, "the torn tail counts once");
    }

    #[test]
    fn implausible_length_word_stops_replay() {
        let path = tmp("badlen.log");
        let _ = std::fs::remove_file(&path);
        let store = SolveStore::open(&path).expect("open");
        store
            .append(&(0..2).map(entry).collect::<Vec<_>>())
            .expect("append");
        drop(store);

        // Smash the second record's length word to a huge value.
        let mut bytes = std::fs::read(&path).expect("read");
        let first_len =
            u32::from_le_bytes(bytes[MAGIC.len()..MAGIC.len() + 4].try_into().expect("len"))
                as usize;
        let second_at = MAGIC.len() + 12 + first_len;
        bytes[second_at..second_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).expect("write");

        let store = SolveStore::open(&path).expect("reopen");
        let c = cache();
        let (replayed, corrupt) = store.replay(&c).expect("replay");
        assert_eq!(replayed, 1);
        assert_eq!(corrupt, 1);
    }

    #[test]
    fn compaction_drops_corrupt_records_and_preserves_live_ones() {
        let path = tmp("compact.log");
        let _ = std::fs::remove_file(&path);
        let store = SolveStore::open(&path).expect("open");
        store
            .append(&(0..4).map(entry).collect::<Vec<_>>())
            .expect("append");
        drop(store);

        // Damage record 2's payload, then tear the tail of record 4.
        let mut bytes = std::fs::read(&path).expect("read");
        let first_len =
            u32::from_le_bytes(bytes[MAGIC.len()..MAGIC.len() + 4].try_into().expect("len"))
                as usize;
        let second_payload_at = MAGIC.len() + 12 + first_len + 12 + 1;
        bytes[second_payload_at] ^= 0xff;
        bytes.truncate(bytes.len() - 3);
        std::fs::write(&path, &bytes).expect("write damaged");

        let store = SolveStore::open(&path).expect("reopen");
        let before = std::fs::metadata(&path).expect("meta").len();
        let cs = store.compact().expect("compact");
        assert_eq!(cs.live, 2, "records 1 and 3 survive");
        assert_eq!(cs.dropped, 2, "checksum victim + torn tail");
        assert_eq!(cs.bytes_before, before);
        assert!(cs.bytes_after < cs.bytes_before);
        assert_eq!(store.stats().compactions, 1);
        assert_eq!(store.stats().compact_dropped, 2);

        // The compacted generation replays clean and still dedups.
        let c = cache();
        let (replayed, corrupt) = store.replay(&c).expect("replay");
        assert_eq!((replayed, corrupt), (2, 0));
        assert_eq!(store.append(&[entry(0)]).expect("re-append dup"), 0);
        // And appends after the writer swap land in the new generation.
        assert_eq!(store.append(&[entry(9)]).expect("append new"), 1);
        drop(store);
        let store = SolveStore::open(&path).expect("final reopen");
        let c = cache();
        assert_eq!(store.replay(&c).expect("replay"), (3, 0));
    }

    #[test]
    fn size_threshold_triggers_compaction_on_append() {
        let path = tmp("threshold.log");
        let _ = std::fs::remove_file(&path);
        let store = SolveStore::open(&path)
            .expect("open")
            .with_compact_threshold(Some(1));
        store.append(&[entry(0)]).expect("append");
        assert!(store.stats().compactions >= 1, "threshold of 1 byte fires");
        let c = cache();
        assert_eq!(store.replay(&c).expect("replay"), (1, 0));
    }

    #[test]
    fn sync_policies_accept_appends() {
        for (name, policy) in [
            ("sync_always.log", SyncPolicy::Always),
            ("sync_interval.log", SyncPolicy::Interval),
            ("sync_never.log", SyncPolicy::Never),
        ] {
            let path = tmp(name);
            let _ = std::fs::remove_file(&path);
            let store = SolveStore::open(&path)
                .expect("open")
                .with_sync_policy(policy);
            assert_eq!(store.append(&[entry(0), entry(1)]).expect("append"), 2);
            let c = cache();
            assert_eq!(store.replay(&c).expect("replay"), (2, 0));
        }
        assert_eq!(SyncPolicy::parse("always"), Some(SyncPolicy::Always));
        assert_eq!(SyncPolicy::parse("interval"), Some(SyncPolicy::Interval));
        assert_eq!(SyncPolicy::parse("never"), Some(SyncPolicy::Never));
        assert_eq!(SyncPolicy::parse("sometimes"), None);
    }

    /// Crash-recovery torture: truncate the log at *every* byte boundary
    /// around every record, and corrupt every record's payload in turn.
    /// Whatever the damage, open + replay + compact must succeed, and the
    /// entries that do replay must be a subset of what was written.
    #[test]
    fn torture_truncation_at_every_record_boundary() {
        let path = tmp("torture_src.log");
        let _ = std::fs::remove_file(&path);
        let store = SolveStore::open(&path).expect("open");
        let entries: Vec<_> = (0..4).map(entry).collect();
        store.append(&entries).expect("append");
        drop(store);
        let bytes = std::fs::read(&path).expect("read");

        // Record boundaries (offset of each record start, plus EOF).
        let mut boundaries = vec![MAGIC.len()];
        let mut cursor = MAGIC.len();
        while let Some((_, next)) = next_record(&bytes, cursor) {
            boundaries.push(next);
            cursor = next;
        }
        assert_eq!(boundaries.len(), 5, "four records on disk");

        let victim = tmp("torture_case.log");
        let check = |cut_bytes: &[u8], max_replay: u64| {
            std::fs::write(&victim, cut_bytes).expect("write case");
            let store = SolveStore::open(&victim).expect("open survives");
            let c = cache();
            let (replayed, _) = store.replay(&c).expect("replay survives");
            assert!(replayed <= max_replay);
            let cs = store.compact().expect("compact survives");
            assert_eq!(cs.live, replayed, "compaction keeps exactly the live set");
            // The compacted file replays the same set, now with no corruption.
            let c2 = cache();
            assert_eq!(store.replay(&c2).expect("replay clean"), (replayed, 0));
        };

        // Truncate exactly at, and a few bytes past, every boundary.
        for (i, &b) in boundaries.iter().enumerate() {
            for off in [0usize, 1, 5, 11] {
                let cut = (b + off).min(bytes.len());
                check(&bytes[..cut], i as u64);
            }
        }
        // Corrupt one byte inside each record's payload.
        for w in boundaries.windows(2) {
            let mut damaged = bytes.clone();
            damaged[w[0] + 12] ^= 0x5a; // first payload byte of this record
            check(&damaged, entries.len() as u64 - 1);
        }
    }

    #[test]
    fn non_store_file_is_rejected_at_open() {
        let path = tmp("notastore.log");
        std::fs::write(&path, b"hello world, definitely not a store").expect("write");
        let e = SolveStore::open(&path).expect_err("bad magic must be rejected");
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn v1_generation_is_counted_and_never_replayed() {
        let path = tmp("v1_migrate.log");
        let _ = std::fs::remove_file(&path);
        // Build a valid current-generation store, then stamp the previous
        // generation's magic over it: the record framing is shared, but v1
        // payloads predate the corner discriminant in the solve key.
        let store = SolveStore::open(&path).expect("open");
        store
            .append(&(0..4).map(entry).collect::<Vec<_>>())
            .expect("append");
        drop(store);
        let mut bytes = std::fs::read(&path).expect("read");
        assert_eq!(MAGIC.len(), MAGIC_V1.len());
        bytes[..MAGIC_V1.len()].copy_from_slice(MAGIC_V1);
        std::fs::write(&path, &bytes).expect("write v1");

        let store = SolveStore::open(&path).expect("reopen migrates");
        assert_eq!(
            store.stats().stale_skipped,
            4,
            "every v1 record counts as stale"
        );
        let c = cache();
        let (replayed, corrupt) = store.replay(&c).expect("replay");
        assert_eq!((replayed, corrupt), (0, 0), "v1 records never replay");
        assert_eq!(c.len(), 0);
        // The swap installed a fresh current-generation header, so new
        // appends land in a store that replays normally.
        assert_eq!(store.append(&[entry(9)]).expect("append"), 1);
        drop(store);
        let store = SolveStore::open(&path).expect("reopen fresh");
        assert_eq!(store.stats().stale_skipped, 0);
        let c = cache();
        assert_eq!(store.replay(&c).expect("replay"), (1, 0));
    }
}
