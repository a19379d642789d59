//! The checksummed append-only record log under both on-disk stores, the
//! solve store (`serve::store`) and the characterization store
//! (`charstore`): the only code that knows how records live on disk. A
//! store supplies a [`Format`] and encodes its payloads. DESIGN.md D16
//! describes the log: format, corruption policy, sync policies, the
//! generation rewrite and the torn-tail rule.
//!
//! ```text
//! [magic: the store's, e.g. "XTALKSOLVESTORE2\n"]
//! record*:
//!   [len: u32 LE]          payload length, 1..=MAX_RECORD
//!   [checksum: u64 LE]     FNV-1a over the payload bytes
//!   [payload: len bytes]   opaque to the log
//! ```

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::hash::Hash;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use xtalk_wave::signature::StableHasher;

/// Upper bound on one record's payload; length words above this are
/// treated as framing corruption. An arc-model record is ~25 KB.
pub(crate) const MAX_RECORD: usize = 1 << 20;

/// How far an append is pushed toward the platter before returning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// `fsync` after every append: a crash loses nothing acknowledged.
    Always,
    /// `fsync` at most once per second (piggybacked on appends): a crash
    /// loses at most the last second of warmth. The default.
    #[default]
    Interval,
    /// `flush()` only; durability is the operating system's schedule.
    Never,
}

impl SyncPolicy {
    /// Parses the CLI/config token (`always` | `interval` | `never`).
    #[must_use]
    pub fn parse(token: &str) -> Option<SyncPolicy> {
        Some(match token {
            "always" => SyncPolicy::Always,
            "interval" => SyncPolicy::Interval,
            "never" => SyncPolicy::Never,
            _ => return None,
        })
    }
}

/// What one [`SolveStore::compact`](crate::serve::SolveStore::compact)
/// call accomplished.
#[derive(Debug, Clone, Copy)]
pub struct CompactStats {
    /// Intact records carried into the new generation.
    pub live: u64,
    /// Corrupt records (and torn tails, counted once) left behind.
    pub dropped: u64,
    /// File size before compaction, bytes.
    pub bytes_before: u64,
    /// File size after compaction, bytes.
    pub bytes_after: u64,
}

/// What a store decides about its log.
pub(crate) struct Format<K> {
    /// What the store is called in errors.
    pub(crate) name: &'static str,
    /// Leading magic of a current-generation file.
    pub(crate) magic: &'static [u8],
    /// Magic of a retired generation with the same framing, whose
    /// payloads must never replay.
    pub(crate) retired: Option<&'static [u8]>,
    /// A payload's dedup identity: an append whose identity the log
    /// already holds writes nothing.
    pub(crate) identity: fn(&[u8]) -> Option<K>,
}

/// One step of a replay walk.
pub(crate) enum Entry<'a> {
    /// An intact record's payload.
    Record(&'a [u8]),
    /// A framed record whose checksum fails; the walk goes on.
    Skipped,
    /// Broken framing, or a damaged header: the walk ends. Carries the
    /// end of the intact prefix (0 under a damaged header).
    Truncated(usize),
}

impl<'a> Entry<'a> {
    /// The payload of an intact record; `None` for damage.
    pub(crate) fn payload(self) -> Option<&'a [u8]> {
        match self {
            Entry::Record(payload) => Some(payload),
            Entry::Skipped | Entry::Truncated(_) => None,
        }
    }
}

/// The records of a file image, in order.
fn walk<'a>(image: &'a [u8], magic: &[u8]) -> impl Iterator<Item = Entry<'a>> + 'a {
    // Nothing below a damaged header is readable: framing breaks at 0.
    let (bytes, start) = match image.starts_with(magic) {
        true => (image, magic.len()),
        false => (&[][..], 0),
    };
    let mut next = Some(start);
    std::iter::from_fn(move || {
        let at = next?;
        next = None;
        match next_record(bytes, at) {
            Some((payload, end)) => {
                next = Some(end);
                Some(payload.map_or(Entry::Skipped, Entry::Record))
            }
            None => (at == 0 || at < bytes.len()).then_some(Entry::Truncated(at)),
        }
    })
}

/// An append-only record log on one file. All methods take `&self`; the
/// writer and the dedup set sit under one lock, so threads share a log.
pub(crate) struct RecordLog<K: 'static> {
    path: PathBuf,
    format: &'static Format<K>,
    /// How far each append is pushed toward the disk.
    pub(crate) sync: SyncPolicy,
    state: Mutex<State<K>>,
}

struct State<K> {
    writer: BufWriter<File>,
    /// Identities of the intact records on disk, loaded or appended.
    seen: HashSet<K>,
    /// Last fsync under [`SyncPolicy::Interval`].
    last_sync: Instant,
    /// The file's framing breaks before EOF: heal before appending.
    torn: bool,
}

impl<K: Hash + Eq> RecordLog<K> {
    /// Opens (creating if absent) the log at `path` and pre-scans its
    /// intact records into the dedup set. A new or empty file gets the
    /// magic. A file of the retired generation is replaced by an empty
    /// one; the count of its records comes back beside the log (else 0).
    ///
    /// # Errors
    ///
    /// I/O errors; `InvalidData` for a file that starts with neither
    /// magic (a foreign file, which must not get records appended).
    pub(crate) fn open(
        path: &Path,
        format: &'static Format<K>,
        sync: SyncPolicy,
    ) -> std::io::Result<(Self, u64)> {
        let bytes = match std::fs::read(path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            read => read?,
        };
        let mut retired = 0;
        let (file, image) = if bytes.is_empty() {
            // New, or a crash between create and header write.
            let mut file = OpenOptions::new().create(true).append(true).open(path)?;
            file.write_all(format.magic)?;
            (file, format.magic)
        } else if let Some(old) = format.retired.filter(|old| bytes.starts_with(old)) {
            retired = walk(&bytes, old)
                .filter(|e| !matches!(e, Entry::Truncated(_)))
                .count() as u64;
            (install_generation(path, format.magic)?, format.magic)
        } else if bytes.starts_with(format.magic) {
            (OpenOptions::new().append(true).open(path)?, &bytes[..])
        } else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{} is not a {} (bad magic)", path.display(), format.name),
            ));
        };
        let (seen, torn) = scan(format, image);
        let state = State {
            writer: BufWriter::new(file),
            seen,
            last_sync: Instant::now(),
            torn,
        };
        let log = RecordLog {
            path: path.to_path_buf(),
            format,
            sync,
            state: Mutex::new(state),
        };
        Ok((log, retired))
    }

    /// The log file's path.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// The log file's size in bytes.
    pub(crate) fn file_len(&self) -> std::io::Result<u64> {
        Ok(lock(&self.state).writer.get_ref().metadata()?.len())
    }

    /// Reads the whole file, flushed and under the writer lock, so no
    /// append of this handle is half in view.
    pub(crate) fn read(&self) -> std::io::Result<Vec<u8>> {
        let mut state = lock(&self.state);
        state.writer.flush()?;
        std::fs::read(&self.path)
    }

    /// Walks a file image from [`read`](Self::read).
    pub(crate) fn walk<'a>(&self, image: &'a [u8]) -> impl Iterator<Item = Entry<'a>> + 'a {
        walk(image, self.format.magic)
    }

    /// Appends `payloads` (each at most [`MAX_RECORD`] bytes), skipping
    /// each whose identity the log already holds, then flushes and applies
    /// the [`SyncPolicy`]. When the scan at open stopped short of EOF, the
    /// intact prefix is first installed as a new generation, so nothing is
    /// appended behind a torn tail. Returns `(written, deduped)`.
    pub(crate) fn append(&self, payloads: &[Vec<u8>]) -> std::io::Result<(u64, u64)> {
        if payloads.is_empty() {
            return Ok((0, 0));
        }
        let mut state = lock(&self.state);
        if state.torn {
            state.writer.flush()?;
            let bytes = std::fs::read(&self.path)?;
            let end = self
                .walk(&bytes)
                .find_map(|entry| match entry {
                    Entry::Truncated(end) => Some(end),
                    Entry::Record(_) | Entry::Skipped => None,
                })
                .unwrap_or(bytes.len());
            let image = if end == 0 {
                self.format.magic
            } else {
                &bytes[..end]
            };
            self.install(&mut state, image)?;
        }
        let (mut written, mut deduped) = (0, 0);
        for payload in payloads {
            if (self.format.identity)(payload).is_some_and(|id| !state.seen.insert(id)) {
                deduped += 1;
                continue;
            }
            write_frame(&mut state.writer, payload)?;
            written += 1;
        }
        state.writer.flush()?;
        if written > 0 {
            match self.sync {
                SyncPolicy::Always => state.writer.get_ref().sync_data()?,
                SyncPolicy::Interval if state.last_sync.elapsed() >= Duration::from_secs(1) => {
                    state.writer.get_ref().sync_data()?;
                    state.last_sync = Instant::now();
                }
                SyncPolicy::Interval | SyncPolicy::Never => {}
            }
        }
        Ok((written, deduped))
    }

    /// Rewrites the log as a new generation of the intact records `keep`
    /// accepts, dropping checksum failures, rejected payloads and any torn
    /// tail. On error the old generation is still in place and appends
    /// keep going to it.
    pub(crate) fn compact(&self, keep: impl Fn(&[u8]) -> bool) -> std::io::Result<CompactStats> {
        let mut state = lock(&self.state);
        state.writer.flush()?;
        let bytes = std::fs::read(&self.path)?;
        let mut image = self.format.magic.to_vec();
        let (mut live, mut dropped) = (0, 0);
        for entry in self.walk(&bytes) {
            match entry.payload() {
                Some(payload) if keep(payload) => {
                    write_frame(&mut image, payload)?;
                    live += 1;
                }
                _ => dropped += 1,
            }
        }
        self.install(&mut state, &image)?;
        Ok(CompactStats {
            live,
            dropped,
            bytes_before: bytes.len() as u64,
            bytes_after: image.len() as u64,
        })
    }

    /// Installs `image` as the next generation and re-points the writer
    /// and the dedup set at it.
    fn install(&self, state: &mut State<K>, image: &[u8]) -> std::io::Result<()> {
        state.writer = BufWriter::new(install_generation(&self.path, image)?);
        (state.seen, state.torn) = scan(self.format, image);
        Ok(())
    }
}

/// The identities of an image's intact records, and whether its framing
/// breaks before EOF.
fn scan<K: Hash + Eq>(format: &Format<K>, image: &[u8]) -> (HashSet<K>, bool) {
    let mut torn = false;
    let seen = walk(image, format.magic)
        .filter_map(|entry| {
            torn |= matches!(entry, Entry::Truncated(_));
            entry.payload().and_then(format.identity)
        })
        .collect();
    (seen, torn)
}

/// Writes `image` as the next generation of the file at `path`: to
/// `<path>.new`, fsynced, renamed into place, and the directory synced,
/// so a crash at any point leaves one whole generation, old or new.
/// Returns an append handle on the new generation.
fn install_generation(path: &Path, image: &[u8]) -> std::io::Result<File> {
    let new_path = PathBuf::from(format!("{}.new", path.display()));
    {
        let mut out = File::create(&new_path)?;
        out.write_all(image)?;
        out.sync_data()?;
    }
    std::fs::rename(&new_path, path)?;
    // A failed directory sync costs durability of the swap, not
    // correctness: both generations are valid logs.
    let dir = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    if let Ok(dir) = File::open(dir) {
        let _ = dir.sync_all();
    }
    OpenOptions::new().append(true).open(path)
}

/// Reads the frame at `cursor`: `None` when the framing is unusable from
/// here on (clean EOF included); otherwise the payload, `None` if its
/// checksum fails, and the offset of the next frame.
#[allow(clippy::type_complexity)]
pub(crate) fn next_record(bytes: &[u8], cursor: usize) -> Option<(Option<&[u8]>, usize)> {
    let mut head = Reader(bytes.get(cursor..cursor + 12)?);
    let len = head.u32()? as usize;
    if len == 0 || len > MAX_RECORD {
        return None;
    }
    let sum = head.u64()?;
    let payload = bytes.get(cursor + 12..cursor + 12 + len)?;
    Some((
        (checksum(payload) == sum).then_some(payload),
        cursor + 12 + len,
    ))
}

/// FNV-1a over a payload: the frame checksum.
pub(crate) fn checksum(payload: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write_bytes(payload);
    h.finish()
}

fn write_frame(out: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    out.write_all(&(payload.len() as u32).to_le_bytes())?;
    out.write_all(&checksum(payload).to_le_bytes())?;
    out.write_all(payload)
}

/// Poison-tolerant lock: a store must keep serving after a panicked
/// thread.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A bounds-checked little-endian cursor over the bytes not yet read.
pub(crate) struct Reader<'a>(pub(crate) &'a [u8]);

impl<'a> Reader<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.0.split_at_checked(n)?;
        self.0 = rest;
        Some(head)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.array().map(u8::from_le_bytes)
    }

    pub(crate) fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_le_bytes)
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    pub(crate) fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8] = b"XTALKTESTLOG\n";

    static FORMAT: Format<u64> = Format {
        name: "test log",
        magic: MAGIC,
        retired: None,
        identity: |payload| Some(checksum(payload)),
    };

    fn open(path: &Path) -> RecordLog<u64> {
        let log = RecordLog::open(path, &FORMAT, SyncPolicy::Always);
        log.expect("open survives").0
    }

    /// Opens and replays the log at `path`: the intact payloads, and the
    /// skipped and truncated counts.
    fn replay(path: &Path) -> (Vec<Vec<u8>>, (u64, u64)) {
        let log = open(path);
        let bytes = log.read().expect("read survives");
        let (mut intact, mut skipped, mut truncated) = (Vec::new(), 0, 0);
        for entry in log.walk(&bytes) {
            match entry {
                Entry::Record(p) => intact.push(p.to_vec()),
                Entry::Skipped => skipped += 1,
                Entry::Truncated(_) => truncated += 1,
            }
        }
        (intact, (skipped, truncated))
    }

    /// Pins the format against a hand-framed image, then damages it:
    /// truncation at every record boundary and 1, 5 and 11 bytes past it,
    /// each record's first payload byte flipped, each length word set to
    /// `u32::MAX`. Only intact payloads replay, the damage counts as the
    /// policy says, and a record appended afterwards replays too.
    #[test]
    fn damage_replays_intact_records_and_later_appends_replay() {
        let dir = std::env::temp_dir().join(format!("xtalk_recordlog_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let (src, victim) = (dir.join("src.log"), dir.join("case.log"));
        let _ = std::fs::remove_file(&src);
        let payloads: Vec<Vec<u8>> = (0..4u8).map(|t| vec![t; 20 + usize::from(t)]).collect();
        assert_eq!(open(&src).append(&payloads).expect("append"), (4, 0));
        assert_eq!(open(&src).append(&payloads[..1]).expect("dup"), (0, 1));

        let (mut bytes, mut bounds) = (MAGIC.to_vec(), vec![MAGIC.len()]);
        for p in &payloads {
            let mut h = StableHasher::new();
            h.write_bytes(p);
            bytes.extend_from_slice(&(p.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&h.finish().to_le_bytes());
            bytes.extend_from_slice(p);
            bounds.push(bytes.len());
        }
        assert_eq!(std::fs::read(&src).expect("read"), bytes);

        // (image, intact payloads, (skipped, truncated))
        let mut cases = Vec::new();
        for (i, &b) in bounds.iter().enumerate() {
            for cut in [b, b + 1, b + 5, b + 11].map(|c| c.min(bytes.len())) {
                let damage = (0, u64::from(cut != b));
                cases.push((bytes[..cut].to_vec(), payloads[..i].to_vec(), damage));
            }
        }
        for (j, &b) in bounds[..4].iter().enumerate() {
            let mut flipped = bytes.clone();
            flipped[b + 12] ^= 0x5a;
            let mut others = payloads.clone();
            others.remove(j);
            cases.push((flipped, others, (1, 0)));
            let mut huge = bytes.clone();
            huge[b..b + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            cases.push((huge, payloads[..j].to_vec(), (0, 1)));
        }
        for (image, mut intact, (skipped, truncated)) in cases {
            std::fs::write(&victim, &image).expect("write case");
            assert_eq!(replay(&victim), (intact.clone(), (skipped, truncated)));
            open(&victim).append(&[vec![9; 29]]).expect("append");
            intact.push(vec![9; 29]);
            assert_eq!(replay(&victim), (intact, (skipped, 0)));
        }
    }
}
