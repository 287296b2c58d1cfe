//! The injectable storage seam.
//!
//! Every durable artifact the workspace writes — journal step blocks,
//! checkpoints, repro files, campaign logs — goes through the
//! [`Storage`] trait, so the same writer code runs against the
//! in-memory [`MemStorage`] and against the deterministic fault
//! injector ([`crate::fault::ChaosStorage`]) under test.
//!
//! The trait deliberately has exactly two mutating primitives:
//!
//! * [`Storage::append`] — extend a file by a byte run. The crash model
//!   for an append is *prefix durability*: after a mid-append power
//!   loss, some prefix (possibly empty) of the appended bytes survives.
//! * [`Storage::write_atomic`] — replace a file's contents whole. The
//!   contract is all-or-nothing: after a crash the file holds either
//!   the complete old bytes or the complete new bytes, never a mix.
//!   On disk, [`atomic_write_file`] gets this from write-temp-then-
//!   rename, the POSIX idiom whose commit point is the rename.
//!
//! Writers that keep to these two primitives inherit a well-defined
//! crash state at every point, which is what the recovery code in
//! `rfly-replay::store` and `rfly-ops::persist` salvages from.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Why a storage operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The simulated process died at this operation (power loss). No
    /// later operation on the same storage can succeed.
    Crashed,
    /// The named file does not exist.
    NotFound(String),
    /// A real I/O error from the filesystem backend.
    Io(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Crashed => write!(f, "storage crashed (simulated power loss)"),
            StorageError::NotFound(p) => write!(f, "no such file {p:?}"),
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// The storage seam durable writers are written against.
pub trait Storage {
    /// Appends `bytes` to the end of `path`, creating it if absent.
    /// Crash semantics: a prefix of `bytes` (possibly empty, possibly
    /// all) survives a power loss during the append.
    fn append(&mut self, path: &str, bytes: &[u8]) -> Result<(), StorageError>;

    /// Replaces `path`'s contents with `bytes`, all-or-nothing: a crash
    /// leaves either the complete old contents or the complete new
    /// contents, never a torn mix.
    fn write_atomic(&mut self, path: &str, bytes: &[u8]) -> Result<(), StorageError>;

    /// Reads the full contents of `path`.
    fn read(&self, path: &str) -> Result<Vec<u8>, StorageError>;

    /// Whether `path` exists.
    fn exists(&self, path: &str) -> bool;

    /// Removes `path` (ok if absent — removal is idempotent).
    fn remove(&mut self, path: &str) -> Result<(), StorageError>;

    /// All stored paths, sorted (deterministic iteration order).
    fn list(&self) -> Vec<String>;
}

/// The deterministic in-memory backend: a sorted map of byte files.
/// Equality is byte equality over every file, which is what the
/// crash-matrix driver's "bit-identical to the reference run" check
/// compares.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemStorage {
    files: BTreeMap<String, Vec<u8>>,
}

impl MemStorage {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The raw file map (salvage code reads surviving bytes directly).
    pub fn files(&self) -> &BTreeMap<String, Vec<u8>> {
        &self.files
    }

    /// A human-readable diff of the first mismatching file against
    /// `other`, or `None` when bit-identical — the crash matrix's
    /// failure detail.
    pub fn first_difference(&self, other: &MemStorage) -> Option<String> {
        for path in self.files.keys().chain(other.files.keys()) {
            match (self.files.get(path), other.files.get(path)) {
                (Some(a), Some(b)) if a == b => {}
                (Some(a), Some(b)) => {
                    let at = a.iter().zip(b.iter()).position(|(x, y)| x != y);
                    return Some(format!(
                        "{path:?}: {} vs {} bytes, first mismatch at {:?}",
                        a.len(),
                        b.len(),
                        at
                    ));
                }
                (Some(_), None) => return Some(format!("{path:?}: present vs absent")),
                (None, Some(_)) => return Some(format!("{path:?}: absent vs present")),
                (None, None) => {}
            }
        }
        None
    }
}

impl Storage for MemStorage {
    fn append(&mut self, path: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.files
            .entry(path.to_string())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }

    fn write_atomic(&mut self, path: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.files.insert(path.to_string(), bytes.to_vec());
        Ok(())
    }

    fn read(&self, path: &str) -> Result<Vec<u8>, StorageError> {
        self.files
            .get(path)
            .cloned()
            .ok_or_else(|| StorageError::NotFound(path.to_string()))
    }

    fn exists(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    fn remove(&mut self, path: &str) -> Result<(), StorageError> {
        self.files.remove(path);
        Ok(())
    }

    fn list(&self) -> Vec<String> {
        self.files.keys().cloned().collect()
    }
}

/// Writes `bytes` to `path` with write-temp-then-rename commit
/// semantics: the bytes land in `<path>.tmp` first (flushed), then a
/// single `rename` publishes them. An interrupted write can leave a
/// stale `.tmp` behind but never a truncated `path`.
pub fn atomic_write_file(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_appends_and_replaces() {
        let mut s = MemStorage::new();
        s.append("j", b"one\n").unwrap();
        s.append("j", b"two\n").unwrap();
        assert_eq!(s.read("j").unwrap(), b"one\ntwo\n");
        s.write_atomic("c", b"v1").unwrap();
        s.write_atomic("c", b"v2").unwrap();
        assert_eq!(s.read("c").unwrap(), b"v2");
        assert_eq!(s.list(), vec!["c".to_string(), "j".to_string()]);
        assert!(matches!(s.read("nope"), Err(StorageError::NotFound(_))));
        s.remove("c").unwrap();
        s.remove("c").unwrap();
        assert!(!s.exists("c"));
    }

    #[test]
    fn mem_storage_equality_is_bytewise() {
        let mut a = MemStorage::new();
        let mut b = MemStorage::new();
        a.append("f", b"abc").unwrap();
        b.append("f", b"ab").unwrap();
        assert_ne!(a, b);
        assert!(a.first_difference(&b).is_some());
        b.append("f", b"c").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.first_difference(&b), None);
    }
}
