//! The segmented write-ahead log of stream tuples.
//!
//! The WAL makes the engines' input durable: every batch is appended —
//! and, depending on the [`SyncPolicy`], fsynced — *before* the engine
//! mutates any state, so a crash can lose at most the outputs of the
//! torn batch, never its inputs. The engines' window graph is a
//! function of the live window, but their Δ state is not: which path
//! reached a node, and so the timestamp it carries, depends on edges
//! that have since left the window, and a fresh engine fed only the
//! last few windows of a stream does not always rebuild the same Δ.
//! Recovery therefore starts from a checkpoint (see
//! `srpq_persist::checkpoint`), and the log does not need to retain the
//! whole stream: segments that lie entirely before the latest
//! checkpoint *and* entirely outside the window are deleted by
//! [`Wal::truncate_older`], bounding the *replay* by window size rather
//! than stream length (the design point of Wu et al.'s
//! parallel-recovery recipe applied to our setting). The checkpoint
//! itself is not so bounded: it carries each group's result set whole,
//! and that set holds every distinct pair reported since the stream
//! began (minus invalidations), because window expiry never removes a
//! pair from it. How long a pair should stay there is ROADMAP item 10c.
//!
//! A log directory holds segment files named `wal-{base_seq:016x}.seg`;
//! the segment and record layouts are section 3 of the format reference
//! in [`srpq_common::wire`]. `seq` numbers tuples globally across
//! segments (a record's `seq` is the index of its first tuple). Records
//! are validated on recovery by length sanity, sequence continuity, and
//! CRC32; a torn record at the tail of the *last* segment is truncated
//! away (the crash interrupted that write), while corruption anywhere
//! else is reported as an error.

use crate::codec::{corrupt, PersistError, Result};
use srpq_common::wire::{self, Reader, Wire, Writer};
use srpq_common::{wire_struct, StreamTuple, Timestamp};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

const SEGMENT_MAGIC: [u8; 8] = *b"SRPQWAL1";
/// Checked by exact equality; both binaries come from this repository.
const SEGMENT_VERSION: u32 = 1;
/// Upper bound on one record's payload (sanity guard against corrupt
/// length fields).
const MAX_RECORD_PAYLOAD: u32 = 64 << 20;

wire_struct! {
    /// What every segment file starts with.
    struct SegmentHeader {
        magic: [u8; 8],
        version: u32,
        reserved: u32,
        base_seq: u64,
    }
}

wire_struct! {
    /// What precedes every record's payload.
    struct RecordHeader {
        /// Payload bytes that follow.
        len: u32,
        /// Global index of the payload's first tuple.
        seq: u64,
        /// CRC32 of the payload.
        crc: u32,
    }
}

const SEGMENT_HEADER_BYTES: u64 = SegmentHeader::MIN_SIZE as u64;
const RECORD_HEADER_BYTES: usize = RecordHeader::MIN_SIZE;

/// When the WAL issues `fsync` (durability vs throughput knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Never fsync explicitly; the OS flushes when it pleases. Fastest;
    /// a crash may lose recently appended batches.
    None,
    /// One fsync per appended batch: a batch handed to the engine is
    /// durable before any of its effects exist. Default.
    #[default]
    Batch,
    /// One record + fsync per *tuple*: tuple-granular durability, the
    /// upper bound on logging cost.
    Always,
}

impl SyncPolicy {
    /// Parses the CLI spelling (`none` | `batch` | `always`).
    pub fn parse(s: &str) -> Option<SyncPolicy> {
        match s {
            "none" => Some(SyncPolicy::None),
            "batch" => Some(SyncPolicy::Batch),
            "always" => Some(SyncPolicy::Always),
            _ => None,
        }
    }
}

/// One recovered WAL record: the global sequence number of its first
/// tuple plus the tuples themselves.
#[derive(Debug, Clone)]
pub struct WalBatch {
    /// Global index of `tuples[0]` in the logged stream.
    pub seq: u64,
    /// The logged tuples, in append order.
    pub tuples: Vec<StreamTuple>,
}

/// Metadata of one segment (sealed or active).
#[derive(Debug, Clone)]
struct SegMeta {
    path: PathBuf,
    base_seq: u64,
    /// Exclusive end: sequence number one past the last logged tuple.
    end_seq: u64,
    records: u64,
    bytes: u64,
    min_ts: Timestamp,
    max_ts: Timestamp,
}

impl SegMeta {
    fn empty(path: PathBuf, base_seq: u64) -> SegMeta {
        SegMeta {
            path,
            base_seq,
            end_seq: base_seq,
            records: 0,
            bytes: SEGMENT_HEADER_BYTES,
            min_ts: Timestamp::INFINITY,
            max_ts: Timestamp::NEG_INFINITY,
        }
    }
}

/// Aggregate statistics over a log directory (the `wal-info` command).
#[derive(Debug, Clone, Default)]
pub struct WalInfo {
    /// Number of segment files (including the active one).
    pub segments: usize,
    /// Total records across segments.
    pub records: u64,
    /// Total logged tuples.
    pub tuples: u64,
    /// Total bytes on disk (headers included).
    pub bytes: u64,
    /// Global sequence range `[first, end)` covered by the log.
    pub seq_range: (u64, u64),
    /// Timestamp range of logged tuples (`None` when empty).
    pub ts_range: Option<(Timestamp, Timestamp)>,
}

/// A segmented write-ahead log rooted at one directory.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    segment_bytes: u64,
    sealed: Vec<SegMeta>,
    active: Option<(File, SegMeta)>,
    next_seq: u64,
    appended_bytes: u64,
    fsyncs: u64,
}

impl Wal {
    /// Opens (or initializes) the log under `dir`, replaying every valid
    /// record. Returns the log positioned for appending plus the
    /// recovered batches in sequence order. A torn tail on the last
    /// segment is truncated; corruption elsewhere is an error.
    pub fn open(dir: &Path, segment_bytes: u64) -> Result<(Wal, Vec<WalBatch>)> {
        fs::create_dir_all(dir)?;
        let (mut sealed, batches, next_seq) = scan_dir(dir, true)?;
        let active = match sealed.pop() {
            Some(meta) => {
                let file = OpenOptions::new().append(true).open(&meta.path)?;
                Some((file, meta))
            }
            None => None,
        };
        Ok((
            Wal {
                dir: dir.to_path_buf(),
                segment_bytes: segment_bytes.max(SEGMENT_HEADER_BYTES + 1),
                sealed,
                active,
                next_seq,
                appended_bytes: 0,
                fsyncs: 0,
            },
            batches,
        ))
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The sequence number the next appended tuple will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Bytes appended through this handle.
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }

    /// `fsync`s issued through this handle.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Appends one record holding `tuples`, rotating the segment first
    /// if the active one is full. Returns the bytes written. Rejects
    /// empty batches and tuples with negative event timestamps (the
    /// wire codec is sign-agnostic, but the WAL boundary is where
    /// garbage is stopped).
    pub fn append(&mut self, tuples: &[StreamTuple]) -> Result<u64> {
        if tuples.is_empty() {
            return Err(PersistError::Incompatible("empty WAL append".into()));
        }
        if let Some(t) = tuples.iter().find(|t| t.ts < Timestamp::ZERO) {
            return Err(PersistError::Incompatible(format!(
                "tuple with negative timestamp {} refused at the WAL boundary",
                t.ts
            )));
        }
        if self
            .active
            .as_ref()
            .is_some_and(|(_, m)| m.bytes >= self.segment_bytes)
        {
            self.rotate()?;
        }
        if self.active.is_none() {
            self.open_fresh_segment()?;
        }

        // Header, payload and checksum are laid out in one buffer: the
        // checksum slot is patched once the payload it covers exists.
        let len = tuples.len() * wire::TUPLE_WIRE_SIZE;
        let mut record = Writer::with_capacity(RECORD_HEADER_BYTES + len);
        RecordHeader {
            len: len as u32,
            seq: self.next_seq,
            crc: 0,
        }
        .put(&mut record);
        wire::Stream::put(tuples, &mut record);
        record.patch_u32(
            RECORD_HEADER_BYTES - 4,
            record.crc_since(RECORD_HEADER_BYTES),
        );
        let record = record.as_bytes();

        let (file, meta) = self.active.as_mut().expect("active segment ensured");
        file.write_all(record)?;
        meta.bytes += record.len() as u64;
        meta.records += 1;
        meta.end_seq += tuples.len() as u64;
        for t in tuples {
            meta.min_ts = meta.min_ts.min(t.ts);
            meta.max_ts = meta.max_ts.max(t.ts);
        }
        self.next_seq = meta.end_seq;
        self.appended_bytes += record.len() as u64;
        Ok(record.len() as u64)
    }

    /// Flushes and fsyncs the active segment. Returns whether an fsync
    /// was actually issued (`false` when nothing is open yet, so
    /// callers don't overcount their durability statistics).
    pub fn sync(&mut self) -> Result<bool> {
        if let Some((file, _)) = self.active.as_mut() {
            file.flush()?;
            file.sync_data()?;
            self.fsyncs += 1;
            return Ok(true);
        }
        Ok(false)
    }

    /// Seals the active segment and starts a new one.
    fn rotate(&mut self) -> Result<()> {
        if let Some((file, meta)) = self.active.take() {
            file.sync_data().ok();
            self.sealed.push(meta);
        }
        self.open_fresh_segment()
    }

    fn open_fresh_segment(&mut self) -> Result<()> {
        let base = self.next_seq;
        let path = self.dir.join(format!("wal-{base:016x}.seg"));
        let mut file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)?;
        let mut header = Writer::with_capacity(SegmentHeader::MIN_SIZE);
        SegmentHeader {
            magic: SEGMENT_MAGIC,
            version: SEGMENT_VERSION,
            reserved: 0,
            base_seq: base,
        }
        .put(&mut header);
        file.write_all(header.as_bytes())?;
        self.active = Some((file, SegMeta::empty(path, base)));
        Ok(())
    }

    /// Deletes sealed segments that are both fully covered by the
    /// checkpoint at `upto_seq` *and* entirely older than the window
    /// (`max_ts <= watermark`) — either condition alone is unsafe:
    /// recovery needs the post-checkpoint suffix, and a checkpointless
    /// log needs the live window. Returns the number of segments
    /// removed. The active segment is never touched.
    pub fn truncate_older(&mut self, upto_seq: u64, watermark: Timestamp) -> Result<usize> {
        let mut removed = 0;
        let mut keep = Vec::with_capacity(self.sealed.len());
        for meta in self.sealed.drain(..) {
            if meta.end_seq <= upto_seq && meta.max_ts <= watermark {
                fs::remove_file(&meta.path)?;
                removed += 1;
            } else {
                keep.push(meta);
            }
        }
        self.sealed = keep;
        Ok(removed)
    }

    /// Aggregate statistics over the log.
    pub fn info(&self) -> WalInfo {
        aggregate_info(
            self.sealed
                .iter()
                .chain(self.active.as_ref().map(|(_, m)| m)),
            self.next_seq,
        )
    }

    /// Read-only inspection of a log directory: scans and validates
    /// every segment **without any repair side effect** — no directory
    /// creation, no torn-tail truncation, no torn-segment deletion —
    /// so an operator can look at post-crash state before deciding
    /// anything. A missing directory is an error, not an empty log.
    /// Returns the aggregate info and the readable batches.
    pub fn inspect(dir: &Path) -> Result<(WalInfo, Vec<WalBatch>)> {
        if !dir.is_dir() {
            return Err(PersistError::Io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("{} is not a directory", dir.display()),
            )));
        }
        let (metas, batches, next_seq) = scan_dir(dir, false)?;
        Ok((aggregate_info(metas.iter(), next_seq), batches))
    }
}

/// Folds segment metadata into a [`WalInfo`].
fn aggregate_info<'a>(metas: impl Iterator<Item = &'a SegMeta>, next_seq: u64) -> WalInfo {
    let mut info = WalInfo::default();
    let mut first_seq = u64::MAX;
    let mut min_ts = Timestamp::INFINITY;
    let mut max_ts = Timestamp::NEG_INFINITY;
    for m in metas {
        info.segments += 1;
        info.records += m.records;
        info.tuples += m.end_seq - m.base_seq;
        info.bytes += m.bytes;
        first_seq = first_seq.min(m.base_seq);
        min_ts = min_ts.min(m.min_ts);
        max_ts = max_ts.max(m.max_ts);
    }
    info.seq_range = if info.segments == 0 {
        (next_seq, next_seq)
    } else {
        (first_seq, next_seq)
    };
    if info.tuples > 0 {
        info.ts_range = Some((min_ts, max_ts));
    }
    info
}

/// Scans every segment under `dir` in name order. Returns the segment
/// metas (in order; the last one is the append candidate), the decoded
/// batches, and the next sequence number. With `repair` set, a torn
/// tail on the last segment is truncated away and a last segment whose
/// header never finished is deleted; without it the scan is strictly
/// read-only (the `wal-info` path).
fn scan_dir(dir: &Path, repair: bool) -> Result<(Vec<SegMeta>, Vec<WalBatch>, u64)> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.extension().and_then(|e| e.to_str()) == Some("seg")
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("wal-"))
        })
        .collect();
    paths.sort();

    let mut metas = Vec::new();
    let mut batches = Vec::new();
    // The first surviving segment (truncation may have deleted the
    // log prefix) defines the starting sequence; later segments must
    // be continuous with it.
    let mut next_seq: Option<u64> = None;
    let n = paths.len();
    for (i, path) in paths.into_iter().enumerate() {
        let last = i + 1 == n;
        match scan_segment(&path, &mut batches, next_seq, last, repair)? {
            Some(meta) => {
                next_seq = Some(meta.end_seq);
                metas.push(meta);
            }
            None => {
                // Header never finished on the last segment: nothing
                // was logged into it (removed when `repair`).
                debug_assert!(last);
            }
        }
    }
    let next_seq = next_seq.unwrap_or(0);
    Ok((metas, batches, next_seq))
}

/// Scans one segment, pushing valid batches. Returns the segment's
/// metadata, or `None` if the (last) segment's header never finished
/// being written (shorter than a header; the file is removed when
/// `repair` is set). `expected_seq` checks cross-segment continuity
/// (`None` for the first surviving segment, whose base is taken as
/// authoritative).
fn scan_segment(
    path: &Path,
    batches: &mut Vec<WalBatch>,
    expected_seq: Option<u64>,
    last: bool,
    repair: bool,
) -> Result<Option<SegMeta>> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    let name = path.display();
    let mut r = Reader::new(&data);
    let Ok(header) = r.get::<SegmentHeader>() else {
        if last {
            // The crash interrupted segment creation: nothing was logged
            // into it yet, so dropping it loses nothing.
            if repair {
                fs::remove_file(path)?;
            }
            return Ok(None);
        }
        return Err(corrupt(format!("segment {name}: torn header")));
    };
    if header.magic != SEGMENT_MAGIC {
        // A full-length header with the wrong magic is *corruption* of
        // data that was once valid — deleting the segment here would
        // silently discard every acknowledged record in it. Report it,
        // even for the last segment.
        return Err(corrupt(format!("segment {name}: bad magic")));
    }
    if header.version != SEGMENT_VERSION {
        return Err(PersistError::Incompatible(format!(
            "segment {name}: unknown version {}",
            header.version
        )));
    }
    let base_seq = header.base_seq;
    if let Some(expected) = expected_seq {
        if base_seq != expected {
            return Err(corrupt(format!(
                "segment {name}: base seq {base_seq}, expected {expected}"
            )));
        }
    }

    let mut meta = SegMeta::empty(path.to_path_buf(), base_seq);
    while !r.is_exhausted() {
        let offset = data.len() - r.remaining();
        let mut record = r;
        match scan_record(&mut record, meta.end_seq) {
            Ok(tuples) => {
                r = record;
                for t in &tuples {
                    meta.min_ts = meta.min_ts.min(t.ts);
                    meta.max_ts = meta.max_ts.max(t.ts);
                }
                let seq = meta.end_seq;
                meta.end_seq += tuples.len() as u64;
                meta.records += 1;
                batches.push(WalBatch { seq, tuples });
            }
            Err(e) => {
                if last {
                    // Torn tail: with `repair`, truncate the file back
                    // to the last good record so appending resumes
                    // cleanly; read-only scans just stop here.
                    if repair {
                        let f = OpenOptions::new().write(true).open(path)?;
                        f.set_len(offset as u64)?;
                        f.sync_data().ok();
                    }
                    break;
                }
                return Err(corrupt(format!("segment {name} at offset {offset}: {e}")));
            }
        }
    }
    meta.bytes = (data.len() - r.remaining()) as u64;
    Ok(Some(meta))
}

/// Validates and decodes the record at the cursor, consuming it.
fn scan_record(r: &mut Reader<'_>, expected_seq: u64) -> Result<Vec<StreamTuple>> {
    let RecordHeader { len, seq, crc } = r.get().map_err(|_| corrupt("torn record header"))?;
    if len == 0 || len > MAX_RECORD_PAYLOAD || !(len as usize).is_multiple_of(wire::TUPLE_WIRE_SIZE)
    {
        return Err(corrupt(format!("implausible record length {len}")));
    }
    if seq != expected_seq {
        return Err(corrupt(format!(
            "record seq {seq}, expected {expected_seq}"
        )));
    }
    let payload = r
        .bytes(len as usize)
        .map_err(|_| corrupt("torn record payload"))?;
    wire::verify_crc(payload, crc).map_err(|_| corrupt("record checksum mismatch"))?;
    let tuples = wire::Stream::get(&mut Reader::new(payload))
        .map_err(|_| corrupt("malformed tuple payload"))?;
    if let Some(t) = tuples.iter().find(|t| t.ts < Timestamp::ZERO) {
        return Err(corrupt(format!(
            "logged tuple with negative timestamp {}",
            t.ts
        )));
    }
    Ok(tuples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use srpq_common::{Label, VertexId};

    fn tup(seq: i64) -> StreamTuple {
        StreamTuple::insert(
            Timestamp(seq),
            VertexId(seq as u32),
            VertexId(seq as u32 + 1),
            Label(0),
        )
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("srpq-wal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_sync_reopen_round_trip() {
        let dir = tmpdir("roundtrip");
        let (mut wal, recovered) = Wal::open(&dir, 1 << 20).unwrap();
        assert!(recovered.is_empty());
        wal.append(&[tup(1), tup(2)]).unwrap();
        wal.append(&[tup(3)]).unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.next_seq(), 3);
        drop(wal);

        let (wal, recovered) = Wal::open(&dir, 1 << 20).unwrap();
        assert_eq!(wal.next_seq(), 3);
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[0].seq, 0);
        assert_eq!(recovered[0].tuples, vec![tup(1), tup(2)]);
        assert_eq!(recovered[1].seq, 2);
        let info = wal.info();
        assert_eq!(info.tuples, 3);
        assert_eq!(info.ts_range, Some((Timestamp(1), Timestamp(3))));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_and_truncation() {
        let dir = tmpdir("rotate");
        // Tiny segments: every append rotates.
        let (mut wal, _) = Wal::open(&dir, 1).unwrap();
        for i in 0..5 {
            wal.append(&[tup(i)]).unwrap();
        }
        wal.sync().unwrap();
        assert_eq!(wal.info().segments, 5);

        // Only segments before seq 3 AND ts <= 2 go.
        let removed = wal.truncate_older(3, Timestamp(2)).unwrap();
        assert_eq!(removed, 3);
        drop(wal);
        let (wal, recovered) = Wal::open(&dir, 1).unwrap();
        // Recovery sees only the surviving suffix, still seq-continuous
        // from its first surviving record... base continuity starts at 0
        // only when segment 0 survives; reopening after truncation must
        // therefore tolerate a later first base.
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[0].seq, 3);
        assert_eq!(wal.next_seq(), 5);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let dir = tmpdir("torn");
        let (mut wal, _) = Wal::open(&dir, 1 << 20).unwrap();
        wal.append(&[tup(1)]).unwrap();
        wal.append(&[tup(2)]).unwrap();
        wal.sync().unwrap();
        drop(wal);
        // Tear the last record: chop 5 bytes off the file.
        let seg = fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let len = fs::metadata(&seg).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 5)
            .unwrap();

        let (mut wal, recovered) = Wal::open(&dir, 1 << 20).unwrap();
        assert_eq!(recovered.len(), 1, "torn record dropped");
        assert_eq!(wal.next_seq(), 1);
        wal.append(&[tup(3)]).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, recovered) = Wal::open(&dir, 1 << 20).unwrap();
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[1].tuples, vec![tup(3)]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_in_sealed_segment_is_reported() {
        let dir = tmpdir("flip");
        let (mut wal, _) = Wal::open(&dir, 1).unwrap();
        wal.append(&[tup(1)]).unwrap();
        wal.append(&[tup(2)]).unwrap(); // second segment seals the first
        wal.sync().unwrap();
        drop(wal);
        let mut segs: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        segs.sort();
        let mut bytes = fs::read(&segs[0]).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40; // flip inside the first segment's payload
        fs::write(&segs[0], &bytes).unwrap();
        match Wal::open(&dir, 1) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("checksum")),
            other => panic!("expected corruption error, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_magic_on_last_segment_is_an_error_not_a_deletion() {
        // A full-length header with a flipped magic byte is corruption
        // of once-valid data; open must refuse, and the file must
        // survive for forensics.
        let dir = tmpdir("badmagic");
        let (mut wal, _) = Wal::open(&dir, 1 << 20).unwrap();
        wal.append(&[tup(1), tup(2)]).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let seg = fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let mut bytes = fs::read(&seg).unwrap();
        bytes[0] ^= 0xFF;
        fs::write(&seg, &bytes).unwrap();
        assert!(matches!(
            Wal::open(&dir, 1 << 20),
            Err(PersistError::Corrupt(_))
        ));
        assert!(seg.exists(), "corrupt segment must not be deleted");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn short_torn_segment_creation_is_removed() {
        // A last segment shorter than its header never held a record:
        // open drops it and continues from the previous segment.
        let dir = tmpdir("shorttorn");
        let (mut wal, _) = Wal::open(&dir, 1).unwrap();
        wal.append(&[tup(1)]).unwrap();
        wal.sync().unwrap();
        drop(wal);
        fs::write(dir.join("wal-00000000000000ff.seg"), b"SRPQ").unwrap();
        let (wal, recovered) = Wal::open(&dir, 1).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(wal.next_seq(), 1);
        assert!(!dir.join("wal-00000000000000ff.seg").exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inspect_is_strictly_read_only() {
        let dir = tmpdir("inspect");
        // Missing directory: an error, never silent creation.
        assert!(Wal::inspect(&dir).is_err());
        assert!(!dir.exists());

        let (mut wal, _) = Wal::open(&dir, 1 << 20).unwrap();
        wal.append(&[tup(1)]).unwrap();
        wal.append(&[tup(2)]).unwrap();
        wal.sync().unwrap();
        drop(wal);
        // Tear the tail; inspect must report the readable prefix and
        // leave the file byte-identical.
        let seg = fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        let len = fs::metadata(&seg).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 5)
            .unwrap();
        let before = fs::read(&seg).unwrap();
        let (info, batches) = Wal::inspect(&dir).unwrap();
        assert_eq!(batches.len(), 1);
        assert_eq!(info.tuples, 1);
        assert_eq!(fs::read(&seg).unwrap(), before, "inspect mutated the log");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn negative_timestamps_refused_at_boundary() {
        let dir = tmpdir("negts");
        let (mut wal, _) = Wal::open(&dir, 1 << 20).unwrap();
        let bad = StreamTuple::insert(Timestamp(-1), VertexId(0), VertexId(1), Label(0));
        assert!(wal.append(&[bad]).is_err());
        assert!(wal.append(&[]).is_err());
        fs::remove_dir_all(&dir).ok();
    }
}
