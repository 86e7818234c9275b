//! The one wire layer: every byte this workspace sends or stores is
//! written by a [`Writer`] and read back by a [`Reader`], and every
//! record states its field order once ([`Wire`],
//! [`wire_struct!`](crate::wire_struct),
//! [`wire_fields!`](crate::wire_fields)) so that both directions derive
//! from the same list.
//!
//! A [`Reader`] never indexes, unwraps or trusts a length: every read is
//! bounds-checked, failures are a typed [`WireError`], and the one
//! sequence read ([`Reader::seq`]) refuses counts the remaining bytes
//! cannot hold and caps its up-front reservation, growing only as
//! elements actually decode.
//!
//! # Format reference
//!
//! All integers are little-endian. Shared shapes:
//!
//! ```text
//! bool   := u8 (0 | 1)
//! str    := u32 len | len bytes of UTF-8
//! seq<T> := u32 count | T*
//! opt<T> := u8 0 | u8 1 T
//! tuple  := i64 ts | u32 src | u32 dst | u32 label | u8 op (0 insert, 1 delete)
//! labels := u32 count | (name "\n")*                  names in id order
//! crc(x) := CRC32 of the bytes x (crate::crc32)
//! ```
//!
//! ## 1. Frame ([`crate::frame`])
//!
//! ```text
//! frame := u8 kind | u32 payload_len | payload | u32 crc(kind | payload_len | payload)
//! ```
//!
//! `payload_len` is at most [`crate::frame::MAX_FRAME_PAYLOAD`].
//!
//! ## 2. Message bodies by frame kind (`srpq_server::protocol`)
//!
//! A record named below is its struct's fields in declaration order.
//!
//! ```text
//! 0x01 Hello          := u32 proto                    must fit a u16
//! 0x02 MapLabels      := seq<str> names
//! 0x03 Ingest         := tuple*                       runs to the end of the payload
//! 0x04 AddQuery       := str name | str regex | bool simple | bool backfill
//! 0x05 RemoveQuery    := str name
//! 0x07 Subscribe      := seq<str> queries | u8 policy (0 block, 1 drop-newest) | u32 capacity
//! 0x0D Events         := u64 since
//! 0x0F Explain        := str name
//! 0x06 ListQueries, 0x08 Drain, 0x09 Checkpoint, 0x0A Shutdown,
//! 0x0B Stats, 0x0C Metrics, 0x0E Trace, 0x8C ShuttingDown := (empty)
//! 0x81 HelloAck       := u32 proto | u64 seq | bool durable
//! 0x82 LabelIds       := seq<u32> ids
//! 0x83 IngestAck      := u64 seq | bool durable
//! 0x84 QueryAdded, 0x85 QueryRemoved := u32 id
//! 0x86 QueryList      := seq<QueryInfo>
//! 0x87 SubAck         := u32 matched
//! 0x88 Results        := seq<ResultEntry>
//! 0x89 Dropped        := u64 count
//! 0x8A Drained, 0x8B CheckpointDone := u64 seq
//! 0x8D ServerStats    := StatsSnapshot
//! 0x8E Error          := str msg
//! 0x8F MetricsText    := str text
//! 0x90 EventList      := u64 dropped | seq<EventWire>
//! 0x91 TraceList      := seq<SpanWire>
//! 0x92 ExplainReport  := ExplainWire
//! ```
//!
//! ## 3. Write-ahead log (`srpq_persist::wal`)
//!
//! ```text
//! wal-{base_seq:016x}.seg := header record*
//! header := "SRPQWAL1" | u32 version = 1 | u32 reserved = 0 | u64 base_seq
//! record := u32 payload_len | u64 seq | u32 crc(payload) | payload
//! payload := tuple+          at most 64 MiB, timestamps non-negative
//! ```
//!
//! ## 4. Checkpoint (`srpq_persist::{checkpoint, durable}`)
//!
//! ```text
//! ckpt-{seq:016x}.ck := body | u32 crc(body)
//! body    := "SRPQCKP1" | u32 version = 7 | u8 strategy (0 logical, 1 full) | u64 seq | payload
//! payload := u64 wal_bytes | u64 wal_appends | u64 fsyncs | u64 checkpoints_written | engine
//! engine  := config | i64 now | u64 tuples_seen | u64 tuples_routed
//!            | graph | seq<opt<slot>> | seq<opt<group>>
//! config  := i64 window_size | i64 slide | opt<u64> rspq_extend_budget
//! graph   := seq<edge>                                       under `logical`, ts-ascending
//!          | seq<placed>                                     under `full`, expiry-queue order
//! edge    := u32 src | u32 dst | u32 label | i64 ts
//! placed  := edge | u32 out_pos | u32 inc_pos                posting-list positions
//! slot    := str name | u32 group
//! group   := u8 semantics (0 arbitrary, 1 simple) | str regex | bool complete | i64 now
//!            | seq<pair> emitted | stats | forest            forest under `full` only
//! pair    := u32 src | u32 dst
//! stats   := 14 × u64                                        EngineStats in declaration order, less
//!                                                            the wall-clock expiry_nanos and eval_ns
//! forest  := seq<tree>
//! tree    := u32 root | u32 root_state | u32 root_id | u32 arena_len | seq<u32> free
//!            | seq<node> | seq<occ> | seq<mark> | seq<dead>
//! node    := u32 id | u32 vertex | u32 state | u32 parent (0xFFFFFFFF none)
//!            | u32 via_label | i64 ts | seq<u32> children
//! occ     := u32 vertex | u32 state | seq<u32> ids
//! mark    := u32 vertex | u32 state | u32 id
//! dead    := u32 vertex | u32 state
//! ```
//!
//! ## 5. Label table (`srpq_server::labels`)
//!
//! ```text
//! labels.srpq := "SRPQLBL1" | labels | u32 crc(everything before)
//! ```
//!
//! ## 6. Stream file (`srpq` CLI, `streamfile`)
//!
//! ```text
//! file := "SRPQ2\n" | labels | tuple* | "SQCR" | u32 crc(everything before "SQCR")
//! ```

use crate::crc32::crc32;
use crate::ids::{Label, StateId, Timestamp, VertexId};
use crate::interner::LabelInterner;
use crate::tuple::{Edge, Op, ResultPair, StreamTuple};
use std::fmt;
use std::io::{self, Write as _};
use std::path::Path;

/// Encoded size of one tuple in bytes.
pub const TUPLE_WIRE_SIZE: usize = 8 + 4 + 4 + 4 + 1;

/// What [`Reader::seq`] may reserve before the first element decodes
/// even when fewer bytes than this remain: a count is
/// attacker-controlled, the elements behind it are not there until they
/// parse.
const PREALLOC_BYTES: usize = 1 << 16;

/// Why bytes failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The input ends before the value does.
    Truncated {
        /// Bytes the read needed.
        wanted: usize,
        /// Bytes that were left.
        left: usize,
    },
    /// A sequence claims more elements than the remaining bytes hold.
    Count {
        /// The claimed element count.
        count: usize,
        /// Bytes that were left.
        left: usize,
    },
    /// A string is not UTF-8.
    Utf8,
    /// A discriminant or ranged integer holds a value no writer emits.
    Tag {
        /// What was being read.
        what: &'static str,
        /// The offending value.
        value: u64,
    },
    /// A well-formed value breaks a rule of its format.
    Invalid(&'static str),
    /// Bytes remain after the last field.
    Trailing(usize),
    /// The magic bytes are not the expected ones.
    Magic,
    /// The stored CRC32 does not match the bytes.
    Checksum,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            WireError::Truncated { wanted, left } => {
                write!(f, "truncated: wanted {wanted} bytes, {left} left")
            }
            WireError::Count { count, left } => write!(
                f,
                "implausible element count {count} for {left} remaining bytes"
            ),
            WireError::Utf8 => write!(f, "string is not UTF-8"),
            WireError::Tag { what, value } => write!(f, "unknown {what} {value}"),
            WireError::Invalid(why) => write!(f, "{why}"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes"),
            WireError::Magic => write!(f, "bad magic"),
            WireError::Checksum => write!(f, "checksum mismatch"),
        }
    }
}

impl std::error::Error for WireError {}

/// A value with one wire layout, written and read by the same impl.
pub trait Wire: Sized {
    /// The fewest bytes an encoded value occupies — what bounds a
    /// sequence count against the bytes actually present.
    const MIN_SIZE: usize;
    /// Appends the value.
    fn put(&self, w: &mut Writer);
    /// Reads one value.
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// An append-only byte writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl From<Vec<u8>> for Writer {
    /// Continues appending after `buf`'s current content.
    fn from(buf: Vec<u8>) -> Writer {
        Writer { buf }
    }
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Creates an empty writer with room for `n` bytes.
    pub fn with_capacity(n: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(n),
        }
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes raw bytes verbatim.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Writes a `seq` whose elements `put` lays out.
    pub fn seq<T>(&mut self, items: &[T], mut put: impl FnMut(&mut Writer, &T)) {
        (items.len() as u32).put(self);
        for item in items {
            put(self, item);
        }
    }

    /// Overwrites the four bytes at `at` — a length or checksum slot
    /// written as a placeholder before the bytes it describes existed.
    pub fn patch_u32(&mut self, at: usize, v: u32) {
        debug_assert!(at + 4 <= self.buf.len(), "patch outside the written bytes");
        for (slot, b) in self.buf.iter_mut().skip(at).zip(v.to_le_bytes()) {
            *slot = b;
        }
    }

    /// CRC32 of everything written at or after offset `at`.
    pub fn crc_since(&self, at: usize) -> u32 {
        crc32(self.buf.get(at..).unwrap_or_default())
    }

    /// Seals everything written so far: appends `tag` (possibly empty)
    /// and the CRC32 of the bytes before it. [`unseal`] is the inverse.
    pub fn seal(&mut self, tag: &[u8]) {
        let crc = self.crc_since(0);
        self.bytes(tag);
        crc.put(self);
    }
}

/// A strict cursor over received or stored bytes.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Whether the cursor consumed everything.
    pub fn is_exhausted(&self) -> bool {
        self.buf.is_empty()
    }

    /// Refuses trailing bytes: a value that decodes with input to spare
    /// is not the value that was written.
    pub fn finish(&self) -> Result<(), WireError> {
        match self.buf.len() {
            0 => Ok(()),
            n => Err(WireError::Trailing(n)),
        }
    }

    fn truncated(&self, wanted: usize) -> WireError {
        WireError::Truncated {
            wanted,
            left: self.buf.len(),
        }
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let (head, tail) = self
            .buf
            .split_at_checked(n)
            .ok_or_else(|| self.truncated(n))?;
        self.buf = tail;
        Ok(head)
    }

    /// Reads `N` raw bytes.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, tail) = self
            .buf
            .split_first_chunk::<N>()
            .ok_or_else(|| self.truncated(N))?;
        self.buf = tail;
        Ok(*head)
    }

    /// Everything not yet consumed, consuming it.
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.buf)
    }

    /// Reads one value.
    #[inline]
    pub fn get<T: Wire>(&mut self) -> Result<T, WireError> {
        T::get(self)
    }

    /// Consumes `magic`, refusing anything else.
    pub fn magic(&mut self, magic: &[u8]) -> Result<(), WireError> {
        match self.buf.strip_prefix(magic) {
            Some(tail) => {
                self.buf = tail;
                Ok(())
            }
            None => Err(WireError::Magic),
        }
    }

    /// Reads an element count, refusing one the remaining bytes cannot
    /// hold at `min_elem_bytes` apiece.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let count = self.get::<u32>()? as usize;
        if count > self.buf.len() / min_elem_bytes.max(1) {
            return Err(WireError::Count {
                count,
                left: self.buf.len(),
            });
        }
        Ok(count)
    }

    /// Reads a `seq` whose elements `get` parses — the only place a
    /// decoded count turns into an allocation. What is reserved up front
    /// never exceeds the bytes still unread (or a small fixed ceiling,
    /// whichever is larger), however many elements the count claims;
    /// beyond that the vector grows as elements actually decode.
    pub fn seq<T, E: From<WireError>>(
        &mut self,
        min_elem_bytes: usize,
        mut get: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let count = self.count(min_elem_bytes)?;
        let budget = self.buf.len().max(PREALLOC_BYTES);
        let mut out = Vec::with_capacity(count.min(budget / std::mem::size_of::<T>().max(1)));
        for _ in 0..count {
            out.push(get(self)?);
        }
        Ok(out)
    }
}

/// Verifies and strips what [`Writer::seal`] appended: returns the
/// sealed bytes, or why `data` is not them.
pub fn unseal<'a>(data: &'a [u8], tag: &[u8]) -> Result<&'a [u8], WireError> {
    let split = data
        .len()
        .checked_sub(tag.len() + 4)
        .ok_or(WireError::Truncated {
            wanted: tag.len() + 4,
            left: data.len(),
        })?;
    let mut trailer = Reader::new(data);
    let body = trailer.bytes(split)?;
    trailer.magic(tag)?;
    verify_crc(body, trailer.get()?)?;
    Ok(body)
}

/// Refuses a CRC32 that does not match `bytes`.
pub fn verify_crc(bytes: &[u8], stored: u32) -> Result<(), WireError> {
    if crc32(bytes) == stored {
        Ok(())
    } else {
        Err(WireError::Checksum)
    }
}

/// Publishes `bytes` at `path` atomically and durably: write
/// `{path}.tmp`, fsync it, rename it into place, fsync the directory
/// (best effort — the rename is atomic either way). The data is on disk
/// *before* the rename makes it visible, so a crash leaves either the
/// old file or the complete new one — never a torn one that readers
/// (and whatever was pruned against it) depended on.
pub fn publish(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(Ok(dir)) = path.parent().map(std::fs::File::open) {
        let _ = dir.sync_all();
    }
    Ok(())
}

macro_rules! wire_le {
    ($($int:ty),*) => {$(
        impl Wire for $int {
            const MIN_SIZE: usize = std::mem::size_of::<$int>();
            #[inline]
            fn put(&self, w: &mut Writer) {
                w.buf.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(<$int>::from_le_bytes(r.array()?))
            }
        }
    )*};
}
wire_le!(u8, u32, u64, i64);

macro_rules! wire_newtype {
    ($($name:ident($inner:ty)),*) => {$(
        impl Wire for $name {
            const MIN_SIZE: usize = <$inner>::MIN_SIZE;
            #[inline]
            fn put(&self, w: &mut Writer) {
                self.0.put(w);
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok($name(r.get()?))
            }
        }
    )*};
}
wire_newtype!(VertexId(u32), Label(u32), StateId(u32), Timestamp(i64));

macro_rules! wire_tuple {
    ($(($($t:ident $i:tt),+))*) => {$(
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            const MIN_SIZE: usize = 0 $(+ $t::MIN_SIZE)+;
            #[inline]
            fn put(&self, w: &mut Writer) {
                $(self.$i.put(w);)+
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(($(r.get::<$t>()?,)+))
            }
        }
    )*};
}
wire_tuple!((A 0, B 1) (A 0, B 1, C 2) (A 0, B 1, C 2, D 3) (A 0, B 1, C 2, D 3, E 4, F 5));

impl Wire for bool {
    const MIN_SIZE: usize = 1;
    #[inline]
    fn put(&self, w: &mut Writer) {
        (*self as u8).put(w);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get::<u8>()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::Tag {
                what: "bool",
                value: other.into(),
            }),
        }
    }
}

impl Wire for String {
    const MIN_SIZE: usize = 4;
    fn put(&self, w: &mut Writer) {
        (self.len() as u32).put(w);
        w.bytes(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.get::<u32>()? as usize;
        String::from_utf8(r.bytes(len)?.to_vec()).map_err(|_| WireError::Utf8)
    }
}

impl<const N: usize> Wire for [u8; N] {
    const MIN_SIZE: usize = N;
    fn put(&self, w: &mut Writer) {
        w.bytes(self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.array()
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_SIZE: usize = 1;
    fn put(&self, w: &mut Writer) {
        match self {
            None => 0u8.put(w),
            Some(v) => {
                1u8.put(w);
                v.put(w);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get::<u8>()? {
            0 => Ok(None),
            1 => Ok(Some(r.get()?)),
            other => Err(WireError::Tag {
                what: "option tag",
                value: other.into(),
            }),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_SIZE: usize = 4;
    fn put(&self, w: &mut Writer) {
        w.buf.reserve(4 + self.len() * T::MIN_SIZE);
        w.seq(self, |w, item| item.put(w));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.seq(T::MIN_SIZE, T::get)
    }
}

impl Wire for ResultPair {
    const MIN_SIZE: usize = 8;
    fn put(&self, w: &mut Writer) {
        (self.src, self.dst).put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let (src, dst) = r.get()?;
        Ok(ResultPair::new(src, dst))
    }
}

impl Wire for StreamTuple {
    const MIN_SIZE: usize = TUPLE_WIRE_SIZE;
    #[inline]
    fn put(&self, w: &mut Writer) {
        (self.ts, self.edge.src, self.edge.dst, self.label).put(w);
        w.buf.push(match self.op {
            Op::Insert => 0,
            Op::Delete => 1,
        });
    }
    /// A refused tuple consumes nothing.
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut ahead = *r;
        let tuple = tuple_from(&ahead.array()?)?;
        *r = ahead;
        Ok(tuple)
    }
}

/// Decodes the one `tuple` a chunk holds: the chunk's length is static,
/// so the field reads compile to plain loads.
#[inline]
fn tuple_from(chunk: &[u8; TUPLE_WIRE_SIZE]) -> Result<StreamTuple, WireError> {
    let mut fields = Reader::new(chunk);
    let (ts, src, dst, label) = fields.get()?;
    let op = match fields.get::<u8>()? {
        0 => Op::Insert,
        1 => Op::Delete,
        other => {
            return Err(WireError::Tag {
                what: "tuple op",
                value: other.into(),
            })
        }
    };
    Ok(StreamTuple {
        ts,
        edge: Edge::new(src, dst),
        label,
        op,
    })
}

/// The `labels` section (see the module docs): names in id order, one
/// per line.
impl Wire for LabelInterner {
    const MIN_SIZE: usize = 4;
    fn put(&self, w: &mut Writer) {
        (self.len() as u32).put(w);
        for (_, name) in self.iter() {
            w.bytes(name.as_bytes());
            w.bytes(b"\n");
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let count = r.count(1)?;
        let mut labels = LabelInterner::new();
        for _ in 0..count {
            let len = r
                .buf
                .iter()
                .position(|&b| b == b'\n')
                .ok_or_else(|| r.truncated(r.buf.len() + 1))?;
            labels.intern(std::str::from_utf8(r.bytes(len)?).map_err(|_| WireError::Utf8)?);
            r.bytes(1)?;
        }
        Ok(labels)
    }
}

/// Field adapter: a tuple batch that runs to the end of its enclosing
/// payload — no count prefix, so a payload is bit-identical whether it
/// travels in an ingest frame, a WAL record or a stream file.
#[derive(Debug)]
pub struct Stream;

impl Stream {
    /// Appends `tuples` back to back.
    pub fn put(tuples: &[StreamTuple], w: &mut Writer) {
        w.buf.reserve(tuples.len() * TUPLE_WIRE_SIZE);
        for t in tuples {
            t.put(w);
        }
    }

    /// Reads tuples until the input is exhausted; a partial tuple is an
    /// error.
    pub fn get(r: &mut Reader<'_>) -> Result<Vec<StreamTuple>, WireError> {
        let (chunks, partial) = r.buf.as_chunks();
        if !partial.is_empty() {
            return Err(r.truncated((chunks.len() + 1) * TUPLE_WIRE_SIZE));
        }
        // Sized by the bytes actually present, not by a claimed count.
        let mut out = Vec::with_capacity(chunks.len());
        for chunk in chunks {
            out.push(tuple_from(chunk)?);
        }
        r.buf = partial;
        Ok(out)
    }
}

/// Field adapter: a `u16` carried in four bytes (the handshake's
/// protocol revision). A value past `u16::MAX` is refused, not
/// truncated into a revision this build happens to speak.
#[derive(Debug)]
pub struct Wide;

impl Wide {
    /// Appends `v` as a `u32`.
    pub fn put(v: &u16, w: &mut Writer) {
        u32::from(*v).put(w);
    }

    /// Reads a `u32` that must fit a `u16`.
    pub fn get(r: &mut Reader<'_>) -> Result<u16, WireError> {
        let wide = r.get::<u32>()?;
        u16::try_from(wide).map_err(|_| WireError::Tag {
            what: "16-bit value",
            value: wide.into(),
        })
    }
}

/// Encodes a whole stream into one contiguous byte blob.
pub fn encode_stream(tuples: &[StreamTuple]) -> Vec<u8> {
    let mut w = Writer::new();
    Stream::put(tuples, &mut w);
    w.into_bytes()
}

/// Decodes a blob produced by [`encode_stream`].
///
/// Returns `None` if the blob length is not a multiple of the tuple size
/// or any tuple is malformed.
pub fn decode_stream(blob: &[u8]) -> Option<Vec<StreamTuple>> {
    Stream::get(&mut Reader::new(blob)).ok()
}

/// Writes one field: through [`Wire`], or through a named adapter
/// (`<Adapter>::put(&T, &mut Writer)`).
#[doc(hidden)]
#[macro_export]
macro_rules! wire_put {
    ($w:expr, $v:expr) => {
        $crate::wire::Wire::put($v, $w)
    };
    ($w:expr, $v:expr, $via:ty) => {
        <$via>::put($v, $w)
    };
}

/// Reads one field: through [`Wire`], or through a named adapter
/// (`<Adapter>::get(&mut Reader) -> Result<T, WireError>`).
#[doc(hidden)]
#[macro_export]
macro_rules! wire_get {
    ($r:expr) => {
        $crate::wire::Wire::get($r)?
    };
    ($r:expr, $via:ty) => {
        <$via>::get($r)?
    };
}

/// Declares a struct whose field declaration order *is* its wire
/// layout: the struct and its [`Wire`] impl come from one list, so
/// adding a field is one line and both directions stay in step.
#[macro_export]
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty),*
        }

        impl $crate::wire::Wire for $name {
            const MIN_SIZE: usize = 0 $(+ <$ty as $crate::wire::Wire>::MIN_SIZE)*;
            #[inline]
            fn put(&self, w: &mut $crate::wire::Writer) {
                $($crate::wire::Wire::put(&self.$field, w);)*
            }
            #[inline]
            fn get(
                r: &mut $crate::wire::Reader<'_>,
            ) -> ::std::result::Result<Self, $crate::wire::WireError> {
                Ok($name { $($field: $crate::wire::Wire::get(r)?),* })
            }
        }
    };
}

/// States the wire order of a struct defined elsewhere (another crate's,
/// so no [`Wire`] impl can be written for it) as a field adapter:
/// `wire_fields!(Codec for Foreign { a, b as Adapter, c })` declares
/// unit struct `Codec` with `Codec::put(&Foreign, &mut Writer)` and
/// `Codec::get(&mut Reader) -> Result<Foreign, WireError>`. A field goes
/// through [`Wire`] unless it names an adapter of that same shape. A
/// list ending in `..` (`{ a, b, .. }`) leaves the remaining fields off
/// the wire; they decode as their `Default`.
#[macro_export]
macro_rules! wire_fields {
    (@impl $vis:vis $codec:ident for $ty:ident { $($field:ident $(as $via:ty)?),* } $($rest:tt)*) => {
        $vis struct $codec;

        impl $codec {
            $vis fn put(v: &$ty, w: &mut $crate::wire::Writer) {
                $($crate::wire_put!(w, &v.$field $(, $via)?);)*
            }
            $vis fn get(
                r: &mut $crate::wire::Reader<'_>,
            ) -> ::std::result::Result<$ty, $crate::wire::WireError> {
                Ok($ty { $($field: $crate::wire_get!(r $(, $via)?),)* $($rest)* })
            }
        }
    };
    ($vis:vis $codec:ident for $ty:ident { $($field:ident $(as $via:ty)?),* $(,)? }) => {
        $crate::wire_fields!(@impl $vis $codec for $ty { $($field $(as $via)?),* });
    };
    ($vis:vis $codec:ident for $ty:ident { $($field:ident $(as $via:ty)?,)* .. }) => {
        $crate::wire_fields!(@impl $vis $codec for $ty { $($field $(as $via)?),* }
            ..::std::default::Default::default());
    };
}

/// States a fieldless enum's `u8` tags once, as a field adapter (see
/// [`wire_fields!`](crate::wire_fields)):
/// `wire_tags!(Codec for Enum as "what" { A = 0, B = 1 })`.
/// A byte outside the table is refused as [`WireError::Tag`] naming
/// `"what"`.
#[macro_export]
macro_rules! wire_tags {
    ($vis:vis $codec:ident for $ty:ident as $what:literal { $($variant:ident = $tag:literal),* $(,)? }) => {
        $vis struct $codec;

        impl $codec {
            $vis fn put(v: &$ty, w: &mut $crate::wire::Writer) {
                let tag: u8 = match v {
                    $($ty::$variant => $tag,)*
                };
                $crate::wire::Wire::put(&tag, w);
            }
            $vis fn get(
                r: &mut $crate::wire::Reader<'_>,
            ) -> ::std::result::Result<$ty, $crate::wire::WireError> {
                match r.get::<u8>()? {
                    $($tag => Ok($ty::$variant),)*
                    other => Err($crate::wire::WireError::Tag {
                        what: $what,
                        value: other.into(),
                    }),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<StreamTuple> {
        vec![
            StreamTuple::insert(Timestamp(4), VertexId(0), VertexId(1), Label(0)),
            StreamTuple::insert(Timestamp(6), VertexId(0), VertexId(2), Label(1)),
            StreamTuple::delete(Timestamp(9), VertexId(0), VertexId(1), Label(0)),
        ]
    }

    #[test]
    fn round_trip() {
        let tuples = sample();
        let blob = encode_stream(&tuples);
        assert_eq!(blob.len(), tuples.len() * TUPLE_WIRE_SIZE);
        let decoded = decode_stream(&blob).expect("decodes");
        assert_eq!(decoded, tuples);
    }

    #[test]
    fn rejects_truncated_blob() {
        let blob = encode_stream(&sample());
        assert!(decode_stream(&blob[..blob.len() - 1]).is_none());
    }

    #[test]
    fn rejects_bad_op_byte() {
        let mut blob = encode_stream(&sample()[..1]);
        *blob.last_mut().unwrap() = 7;
        assert!(decode_stream(&blob).is_none());
    }

    #[test]
    fn short_cursor_is_not_consumed() {
        let blob = encode_stream(&sample()[..1]);
        let mut cursor = Reader::new(&blob[..TUPLE_WIRE_SIZE - 1]);
        assert!(cursor.get::<StreamTuple>().is_err());
        assert_eq!(cursor.remaining(), TUPLE_WIRE_SIZE - 1);
    }

    #[test]
    fn empty_stream() {
        let blob = encode_stream(&[]);
        assert_eq!(decode_stream(&blob), Some(vec![]));
    }

    #[test]
    fn negative_timestamps_survive() {
        // The raw codec is sign-agnostic (the engines use -inf sentinels
        // internally); the *stream-file and WAL boundaries* reject
        // negative event timestamps on top of this layer.
        let t = StreamTuple::insert(Timestamp(-5), VertexId(1), VertexId(2), Label(3));
        let blob = encode_stream(&[t]);
        assert_eq!(decode_stream(&blob).unwrap()[0], t);
    }

    #[test]
    fn truncation_sweep_rejects_every_partial_length() {
        // Every prefix that is not a whole number of tuples must be
        // rejected by `decode_stream`, and a tuple read must neither
        // panic nor consume bytes it cannot decode.
        let blob = encode_stream(&sample());
        for len in 0..blob.len() {
            let prefix = &blob[..len];
            if len % TUPLE_WIRE_SIZE == 0 {
                let decoded = decode_stream(prefix).expect("whole tuples decode");
                assert_eq!(decoded.len(), len / TUPLE_WIRE_SIZE);
            } else {
                assert!(decode_stream(prefix).is_none(), "len {len} accepted");
            }
            let mut cursor = Reader::new(prefix);
            while cursor.get::<StreamTuple>().is_ok() {}
            assert!(cursor.remaining() < TUPLE_WIRE_SIZE);
        }
    }

    #[test]
    fn bit_flip_sweep_never_panics_and_reencodes_faithfully() {
        // Random single-bit corruption: decoding must never panic, and
        // whenever the corrupted blob still decodes, re-encoding must
        // reproduce it byte for byte (the codec is a bijection on its
        // valid region — flipped id/timestamp bits yield *different*
        // tuples, never silently canonicalized ones).
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let blob = encode_stream(&sample());
        let mut rng = SmallRng::seed_from_u64(0x51c3);
        for _ in 0..500 {
            let mut mutated = blob.clone();
            let byte = rng.gen_range(0..mutated.len());
            let bit = rng.gen_range(0..8u32);
            mutated[byte] ^= 1 << bit;
            match decode_stream(&mutated) {
                None => {
                    // Only an op-byte flip can make a tuple undecodable.
                    assert_eq!(byte % TUPLE_WIRE_SIZE, TUPLE_WIRE_SIZE - 1);
                }
                Some(decoded) => {
                    assert_eq!(encode_stream(&decoded), mutated);
                    assert_ne!(
                        decoded,
                        sample(),
                        "flip at byte {byte} bit {bit} undetected"
                    );
                }
            }
        }
    }
}
