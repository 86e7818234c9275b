//! The crate error type. The byte formats themselves — and the one
//! reader/writer every one of them goes through — live in
//! [`srpq_common::wire`]; a [`WireError`] from stored bytes surfaces
//! here as [`PersistError::Corrupt`].

use srpq_common::wire::WireError;
use std::fmt;

/// Errors produced by the durability subsystem.
#[derive(Debug)]
pub enum PersistError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// Stored bytes failed validation (bad magic, checksum mismatch,
    /// truncated structure, out-of-range value).
    Corrupt(String),
    /// The stored state is well-formed but cannot be applied (unknown
    /// version, query fails to recompile, directory already in use).
    Incompatible(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Corrupt(m) => write!(f, "corrupt durable state: {m}"),
            PersistError::Incompatible(m) => write!(f, "incompatible durable state: {m}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<WireError> for PersistError {
    fn from(e: WireError) -> Self {
        PersistError::Corrupt(e.to_string())
    }
}

/// Shorthand result type.
pub type Result<T> = std::result::Result<T, PersistError>;

/// Constructs a [`PersistError::Corrupt`].
pub fn corrupt(msg: impl Into<String>) -> PersistError {
    PersistError::Corrupt(msg.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use srpq_common::wire::{Reader, Wire, Writer};

    #[test]
    fn round_trip_scalars() {
        let mut w = Writer::new();
        7u8.put(&mut w);
        0xDEAD_BEEFu32.put(&mut w);
        u64::MAX.put(&mut w);
        i64::MIN.put(&mut w);
        "hello δ".to_string().put(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get::<u8>().unwrap(), 7);
        assert_eq!(r.get::<u32>().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get::<u64>().unwrap(), u64::MAX);
        assert_eq!(r.get::<i64>().unwrap(), i64::MIN);
        assert_eq!(r.get::<String>().unwrap(), "hello δ");
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_reads_error() {
        // Through `?`, the way every stored-bytes reader in this crate
        // sees them: as corruption.
        fn read<T: Wire>(bytes: &[u8]) -> Result<T> {
            Ok(Reader::new(bytes).get()?)
        }
        assert!(matches!(
            read::<u32>(&[1, 2]),
            Err(PersistError::Corrupt(_))
        ));
        assert!(
            matches!(
                read::<String>(&[5, 0, 0, 0, b'a']),
                Err(PersistError::Corrupt(_))
            ),
            "length past end must error"
        );
    }

    #[test]
    fn implausible_counts_rejected() {
        let mut w = Writer::new();
        1_000_000u32.put(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.count(8).is_err());
    }
}
