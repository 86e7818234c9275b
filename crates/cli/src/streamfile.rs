//! Stream files: label table + wire-encoded tuples + CRC footer — the
//! `SRPQ2` layout, section 6 of the format reference in
//! [`srpq_common::wire`]. The footer shares the WAL's checksum, so
//! corrupt stream files are detected instead of silently mis-decoded.

use srpq_common::wire::{self, Reader, Stream, Wire, WireError, Writer};
use srpq_common::{LabelInterner, StreamTuple, Timestamp};
use srpq_datagen::Dataset;
use std::fs;
use std::path::Path;

const MAGIC: &[u8] = b"SRPQ2\n";
const FOOTER_MAGIC: &[u8] = b"SQCR";

/// Serializes a dataset to a stream file.
pub fn save(ds: &Dataset, path: &Path) -> Result<(), String> {
    let mut w = Writer::new();
    w.bytes(MAGIC);
    ds.labels.put(&mut w);
    Stream::put(&ds.tuples, &mut w);
    w.seal(FOOTER_MAGIC);
    fs::write(path, w.as_bytes()).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Loads a stream file. Rejects anything but a whole, checksummed
/// `SRPQ2` file — truncated or garbled headers, label tables or tuples
/// — and tuples carrying negative event timestamps (the wire codec
/// itself is sign-agnostic; this is the boundary where garbage stops).
pub fn load(path: &Path) -> Result<(LabelInterner, Vec<StreamTuple>), String> {
    let data = fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    if !data.starts_with(MAGIC) {
        return Err("not a SRPQ stream file".into());
    }
    let open = || -> Result<(LabelInterner, Vec<StreamTuple>), WireError> {
        let mut r = Reader::new(wire::unseal(&data, FOOTER_MAGIC)?);
        r.magic(MAGIC)?;
        Ok((r.get()?, Stream::get(&mut r)?))
    };
    let (labels, tuples) = open().map_err(|e| format!("corrupt stream file: {e}"))?;
    if let Some((i, t)) = tuples
        .iter()
        .enumerate()
        .find(|(_, t)| t.ts < Timestamp::ZERO)
    {
        return Err(format!("tuple {i} carries negative timestamp {}", t.ts));
    }
    Ok((labels, tuples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use srpq_datagen::so;

    const FOOTER_BYTES: usize = FOOTER_MAGIC.len() + 4;

    fn testdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("srpq-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_dataset() -> Dataset {
        so::generate(&so::SoConfig {
            n_users: 20,
            n_edges: 100,
            duration: 500,
            seed: 1,
            preferential: 0.5,
        })
    }

    #[test]
    fn round_trip() {
        let ds = sample_dataset();
        let path = testdir().join("roundtrip.srpq");
        save(&ds, &path).unwrap();
        let (labels, tuples) = load(&path).unwrap();
        assert_eq!(tuples, ds.tuples);
        assert_eq!(labels.len(), ds.labels.len());
        assert_eq!(labels.get("a2q"), ds.labels.get("a2q"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_garbage() {
        let path = testdir().join("garbage.srpq");
        std::fs::write(&path, b"not a stream").unwrap();
        assert!(load(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn detects_bit_rot_via_checksum() {
        let ds = sample_dataset();
        let path = testdir().join("bitrot.srpq");
        save(&ds, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.contains("checksum"), "got: {err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn reads_legacy_footerless_files() {
        // The footerless, unchecksummed `SRPQ1` predecessor — a `SRPQ2`
        // file with the old magic and no footer — is no longer a stream
        // file: nothing writes it, and nothing could vouch for it.
        let ds = sample_dataset();
        let path = testdir().join("legacy.srpq");
        save(&ds, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let mut legacy = Vec::from(b"SRPQ1\n".as_slice());
        legacy.extend_from_slice(&bytes[MAGIC.len()..bytes.len() - FOOTER_BYTES]);
        std::fs::write(&path, &legacy).unwrap();
        let err = load(&path).unwrap_err();
        assert_eq!(err, "not a SRPQ stream file");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncations_error_cleanly() {
        let ds = sample_dataset();
        let path = testdir().join("trunc.srpq");
        save(&ds, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Sweep a few truncation points: header, label table, tuples,
        // footer. Every one must error, never panic.
        for keep in [3, 7, 9, 20, bytes.len() - FOOTER_BYTES - 3, bytes.len() - 2] {
            std::fs::write(&path, &bytes[..keep]).unwrap();
            assert!(load(&path).is_err(), "prefix of {keep} bytes accepted");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn negative_timestamps_rejected_at_boundary() {
        // A well-formed, correctly checksummed file holding a
        // negative-ts tuple: only the boundary check can refuse it.
        let mut ds = sample_dataset();
        ds.tuples = vec![StreamTuple::insert(
            Timestamp(-3),
            srpq_common::VertexId(0),
            srpq_common::VertexId(1),
            srpq_common::Label(0),
        )];
        let path = testdir().join("negts.srpq");
        save(&ds, &path).unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.contains("negative timestamp"), "got: {err}");
        std::fs::remove_file(path).ok();
    }
}
