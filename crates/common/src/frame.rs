//! Length-prefixed, CRC32-guarded message frames — the unit of the
//! `srpq_server` network protocol. The layout is section 1 of the
//! format reference in [`crate::wire`].
//!
//! The checksum is the same [`mod@crate::crc32`] that guards the WAL,
//! checkpoint, and stream-file formats, so a flipped bit anywhere in a
//! frame — kind, length, or payload — is detected instead of silently
//! mis-decoded. The frame layer knows nothing about payload contents;
//! `srpq_server::protocol` defines the message vocabulary on top.
//!
//! Two API surfaces:
//!
//! * buffer-oriented ([`encode_frame`] / [`decode_frame`]) for tests
//!   and in-memory pipelines;
//! * stream-oriented ([`write_frame`] / [`read_frame`]) over any
//!   `io::Write` / `io::Read`, the form the TCP sessions use. A clean
//!   EOF *between* frames reads as `None` (peer hung up); an EOF inside
//!   a frame is an error (torn frame).

use crate::wire::{Reader, Wire, WireError, Writer};
use std::io::{self, Read, Write};

/// Header bytes before the payload (kind + length).
pub const FRAME_HEADER_BYTES: usize = 1 + 4;

/// Trailer bytes after the payload (checksum).
pub const FRAME_TRAILER_BYTES: usize = 4;

/// Upper bound on one frame's payload: guards the reader against
/// allocating gigabytes off a corrupt or hostile length field.
pub const MAX_FRAME_PAYLOAD: u32 = 64 << 20;

/// Lays one frame out at the end of `w`, in one buffer: the header with
/// a placeholder length, whatever payload `body` appends, then the real
/// length and the checksum over both. Refuses payloads over
/// [`MAX_FRAME_PAYLOAD`] with `InvalidInput` — the peer would reject
/// the frame anyway, and a clear local error beats a killed session.
fn build(w: &mut Writer, kind: u8, body: impl FnOnce(&mut Writer)) -> io::Result<()> {
    let at = w.len();
    (kind, 0u32).put(w);
    body(w);
    let len = w.len() - at - FRAME_HEADER_BYTES;
    if len > MAX_FRAME_PAYLOAD as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame payload of {len} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte cap; \
                 send smaller batches"
            ),
        ));
    }
    w.patch_u32(at + 1, len as u32);
    let crc = w.crc_since(at);
    crc.put(w);
    Ok(())
}

/// Appends one frame to `buf`.
pub fn encode_frame(buf: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    let mut w = Writer::from(std::mem::take(buf));
    let fits = build(&mut w, kind, |w| w.bytes(payload));
    debug_assert!(fits.is_ok(), "frame payload over the cap");
    *buf = w.into_bytes();
}

/// Why a buffered frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the frame does. Not corruption per se —
    /// a stream reader would keep the bytes and wait for more.
    Truncated,
    /// The length field exceeds [`MAX_FRAME_PAYLOAD`].
    Oversized(u32),
    /// The checksum does not match the received bytes.
    BadChecksum,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::Oversized(n) => write!(f, "frame payload of {n} bytes exceeds the cap"),
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
        }
    }
}

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e.to_string())
    }
}

/// The header/CRC check both readers share: parses the header, then —
/// handed everything after it — splits payload from trailer and
/// verifies the checksum over header + payload.
struct Header {
    bytes: [u8; FRAME_HEADER_BYTES],
    kind: u8,
    /// Payload length, already checked against [`MAX_FRAME_PAYLOAD`].
    len: usize,
}

impl Header {
    fn parse(bytes: [u8; FRAME_HEADER_BYTES]) -> Result<Header, FrameError> {
        let (kind, len) = Reader::new(&bytes)
            .get::<(u8, u32)>()
            .map_err(|_| FrameError::Truncated)?;
        if len > MAX_FRAME_PAYLOAD {
            return Err(FrameError::Oversized(len));
        }
        Ok(Header {
            bytes,
            kind,
            len: len as usize,
        })
    }

    /// `rest` starts right after the header; returns the payload.
    fn check<'a>(&self, rest: &'a [u8]) -> Result<&'a [u8], FrameError> {
        let torn = |_: WireError| FrameError::Truncated;
        let mut r = Reader::new(rest);
        let payload = r.bytes(self.len).map_err(torn)?;
        let stored = r.get::<u32>().map_err(torn)?;
        let mut crc = crate::crc32::Crc32::new();
        crc.update(&self.bytes);
        crc.update(payload);
        if crc.finish() != stored {
            return Err(FrameError::BadChecksum);
        }
        Ok(payload)
    }
}

/// Decodes one frame from the front of `buf`. On success returns the
/// kind, the payload, and the total encoded size (so callers can
/// advance their cursor).
pub fn decode_frame(buf: &[u8]) -> Result<(u8, &[u8], usize), FrameError> {
    let mut r = Reader::new(buf);
    let header = Header::parse(r.array().map_err(|_| FrameError::Truncated)?)?;
    let payload = header.check(r.rest())?;
    let total = FRAME_HEADER_BYTES + header.len + FRAME_TRAILER_BYTES;
    Ok((header.kind, payload, total))
}

/// Writes one frame to `out` (no flush — callers batch and flush) whose
/// payload is whatever `body` appends. Refuses payloads over
/// [`MAX_FRAME_PAYLOAD`] with `InvalidInput`.
pub fn write_frame(
    out: &mut impl Write,
    kind: u8,
    body: impl FnOnce(&mut Writer),
) -> io::Result<()> {
    let mut frame = Writer::new();
    build(&mut frame, kind, body)?;
    out.write_all(frame.as_bytes())
}

/// Reads one frame from `r`. Returns `Ok(None)` on a clean EOF before
/// any byte of a frame; a torn frame, oversized length, or checksum
/// mismatch is an `InvalidData` error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<(u8, Vec<u8>)>> {
    let mut bytes = [0u8; FRAME_HEADER_BYTES];
    match read_exact_or_eof(r, &mut bytes)? {
        ReadOutcome::Eof => return Ok(None),
        ReadOutcome::Torn => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "connection closed inside a frame header",
            ))
        }
        ReadOutcome::Full => {}
    }
    let header = Header::parse(bytes)?;
    let mut rest = vec![0u8; header.len + FRAME_TRAILER_BYTES];
    r.read_exact(&mut rest).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "connection closed inside a frame",
            )
        } else {
            e
        }
    })?;
    header.check(&rest)?;
    rest.truncate(header.len);
    Ok(Some((header.kind, rest)))
}

enum ReadOutcome {
    /// The buffer was filled.
    Full,
    /// EOF before the first byte.
    Eof,
    /// EOF after at least one byte.
    Torn,
}

/// `read_exact` that distinguishes a clean EOF at offset 0 from a torn
/// read mid-buffer.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<ReadOutcome> {
    let wanted = buf.len();
    let mut unfilled = buf;
    while !unfilled.is_empty() {
        match r.read(unfilled) {
            Ok(0) if unfilled.len() == wanted => return Ok(ReadOutcome::Eof),
            Ok(0) => return Ok(ReadOutcome::Torn),
            Ok(n) => {
                unfilled = std::mem::take(&mut unfilled)
                    .split_at_mut_checked(n)
                    .ok_or_else(|| io::Error::other("reader overran its buffer"))?
                    .1;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(ReadOutcome::Full)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut buf = Vec::new();
        encode_frame(&mut buf, 7, b"hello frames");
        encode_frame(&mut buf, 0, b"");
        encode_frame(&mut buf, 255, &[0u8, 1, 2, 3, 254, 255]);
        buf
    }

    #[test]
    fn round_trip_buffer() {
        let buf = sample();
        let (k1, p1, n1) = decode_frame(&buf).unwrap();
        assert_eq!((k1, p1), (7, b"hello frames".as_slice()));
        let (k2, p2, n2) = decode_frame(&buf[n1..]).unwrap();
        assert_eq!((k2, p2.len()), (0, 0));
        let (k3, p3, n3) = decode_frame(&buf[n1 + n2..]).unwrap();
        assert_eq!((k3, p3), (255, [0u8, 1, 2, 3, 254, 255].as_slice()));
        assert_eq!(n1 + n2 + n3, buf.len());
    }

    #[test]
    fn round_trip_stream() {
        let buf = sample();
        let mut cursor = io::Cursor::new(buf);
        let mut seen = Vec::new();
        while let Some((kind, payload)) = read_frame(&mut cursor).unwrap() {
            seen.push((kind, payload));
        }
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0], (7, b"hello frames".to_vec()));
        // Clean EOF keeps answering None.
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn write_frame_matches_encode() {
        let mut via_writer = Vec::new();
        write_frame(&mut via_writer, 9, |w| w.bytes(b"abc")).unwrap();
        let mut via_encode = Vec::new();
        encode_frame(&mut via_encode, 9, b"abc");
        assert_eq!(via_writer, via_encode);
    }

    #[test]
    fn truncation_sweep_never_panics_and_never_misdecodes() {
        // Every strict prefix of a single frame must decode as
        // Truncated from the buffer API and error (torn) or cleanly EOF
        // (len 0) from the stream API — never yield a frame.
        let mut buf = Vec::new();
        encode_frame(&mut buf, 42, b"payload bytes under test");
        for len in 0..buf.len() {
            let prefix = &buf[..len];
            assert_eq!(
                decode_frame(prefix).unwrap_err(),
                FrameError::Truncated,
                "prefix of {len} bytes"
            );
            let mut cursor = io::Cursor::new(prefix.to_vec());
            match read_frame(&mut cursor) {
                Ok(None) => assert_eq!(len, 0, "only the empty prefix is a clean EOF"),
                Ok(Some(_)) => panic!("prefix of {len} bytes decoded as a frame"),
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData),
            }
        }
    }

    #[test]
    fn bit_flip_sweep_is_always_detected() {
        // Single-bit corruption anywhere in the frame must surface as an
        // error — the length field is covered by the checksum, so even
        // length flips that keep the frame well-formed are caught. Flips
        // that grow the length beyond the buffer read as Truncated;
        // everything else as Oversized or BadChecksum.
        let mut buf = Vec::new();
        encode_frame(&mut buf, 3, b"the quick brown fox");
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut mutated = buf.clone();
                mutated[byte] ^= 1 << bit;
                match decode_frame(&mutated) {
                    Err(_) => {}
                    Ok((kind, payload, _)) => panic!(
                        "flip at byte {byte} bit {bit} decoded as kind {kind} ({} bytes)",
                        payload.len()
                    ),
                }
                // The stream reader must agree (and never panic).
                let mut cursor = io::Cursor::new(mutated);
                assert!(read_frame(&mut cursor).is_err() || byte >= buf.len());
            }
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut buf = vec![1u8];
        buf.extend_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        assert!(matches!(decode_frame(&buf), Err(FrameError::Oversized(_))));
        let mut cursor = io::Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }
}
