//! The durable label table.
//!
//! Checkpoints store query *text* and the WAL stores label *ids*, so a
//! recovered server must re-intern names to exactly the ids the crashed
//! instance used. This module persists the server's [`LabelInterner`]
//! alongside the WAL directory: a name list in id order, guarded by the
//! shared CRC32, republished atomically whenever a label is first
//! interned — which the serving loop does *before* any tuple or query
//! referencing the new label becomes durable. The file layout is
//! section 5 of the format reference in [`srpq_common::wire`].

use srpq_common::wire::{self, Reader, Wire, WireError, Writer};
use srpq_common::LabelInterner;
use std::fs;
use std::path::{Path, PathBuf};

const MAGIC: &[u8] = b"SRPQLBL1";
const FILE_NAME: &str = "labels.srpq";

/// Where the label table lives inside a durability directory.
pub fn label_path(dir: &Path) -> PathBuf {
    dir.join(FILE_NAME)
}

/// Writes the interner to `dir` atomically. The table is on disk
/// *before* it becomes visible: tuples and checkpointed query text
/// logged after this call reference the new ids, and an acked batch
/// must never outlive the label table it depends on.
pub fn save(labels: &LabelInterner, dir: &Path) -> Result<(), String> {
    let mut w = Writer::new();
    w.bytes(MAGIC);
    labels.put(&mut w);
    w.seal(b"");
    let path = label_path(dir);
    wire::publish(&path, w.as_bytes()).map_err(|e| format!("publish {}: {e}", path.display()))
}

/// Loads the label table from `dir`; an absent file is an empty
/// interner (fresh directory).
pub fn load(dir: &Path) -> Result<LabelInterner, String> {
    let path = label_path(dir);
    let data = match fs::read(&path) {
        Ok(d) => d,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(LabelInterner::new()),
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    let open = || -> Result<LabelInterner, WireError> {
        let mut r = Reader::new(wire::unseal(&data, b"")?);
        r.magic(MAGIC)?;
        let labels = r.get()?;
        r.finish()?;
        Ok(labels)
    };
    open().map_err(|e| format!("{}: not a label table: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn testdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("srpq-labels-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trip_and_missing_file() {
        let dir = testdir("rt");
        assert_eq!(load(&dir).unwrap().len(), 0);
        let mut labels = LabelInterner::new();
        labels.intern("knows");
        labels.intern("likes");
        labels.intern("αβγ");
        save(&labels, &dir).unwrap();
        let back = load(&dir).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.get("likes"), labels.get("likes"));
        assert_eq!(back.get("αβγ"), labels.get("αβγ"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_rot_is_detected() {
        let dir = testdir("rot");
        let mut labels = LabelInterner::new();
        labels.intern("a");
        save(&labels, &dir).unwrap();
        let path = label_path(&dir);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(load(&dir).unwrap_err().contains("checksum"));
        fs::remove_dir_all(&dir).ok();
    }
}
