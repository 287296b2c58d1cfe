//! The seeded crash model: power loss at an exact storage operation
//! with an exact failure semantics.
//!
//! [`ChaosStorage`] wraps a [`MemStorage`] and counts every *mutating*
//! operation (append, atomic write, remove). In probe mode it just
//! records the operation stream; armed with a [`CrashPoint`] it applies
//! that point's [`CrashKind`] when the counter reaches the target
//! operation and fails every operation after it — the simulated process
//! is dead, and whatever bytes the kind left durable are the crash
//! state recovery has to work from.
//!
//! The four kinds cover the storage failure taxonomy the DESIGN.md §14
//! crash model commits to:
//!
//! | kind | ack seen by writer | durable effect |
//! |------|--------------------|----------------|
//! | [`CrashKind::Torn`] | no | a byte **prefix** of the append survives; an atomic write keeps the *old* contents (commit never reached) |
//! | [`CrashKind::Clean`] | no | the operation landed in full — the ack was lost, not the data |
//! | [`CrashKind::LostAcked`] | **yes** | nothing — the writer continued on a success that never became durable; the crash fires at the next mutating operation |
//! | [`CrashKind::Duplicated`] | no | the append applied **twice** (a retry that double-landed); atomic writes and removes are idempotent, so they land once |

use crate::storage::{MemStorage, Storage, StorageError};

/// The failure semantics applied at a crash point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashKind {
    /// Power died mid-write: the first `keep` bytes of the appended run
    /// survive (`keep` < the run length). For an atomic write the
    /// commit rename was never reached, so the old contents survive
    /// whole and `keep` is ignored.
    Torn {
        /// Bytes of the in-flight append that made it to the medium.
        keep: usize,
    },
    /// The operation landed in full, then power died before the ack.
    Clean,
    /// The operation was acked but never became durable; the writer
    /// continued and the crash fires at its *next* mutating operation.
    LostAcked,
    /// The append applied twice (a double-landed retry), then power
    /// died. Atomic writes and removes are idempotent and land once.
    Duplicated,
}

impl CrashKind {
    /// Short stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            CrashKind::Torn { .. } => "torn",
            CrashKind::Clean => "clean",
            CrashKind::LostAcked => "lost-acked",
            CrashKind::Duplicated => "duplicated",
        }
    }
}

/// One enumerated crash: kill the process at mutating operation `op`
/// (0-based, in workload order) with `kind`'s semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Index of the mutating storage operation the crash lands on.
    pub op: usize,
    /// What the medium kept.
    pub kind: CrashKind,
}

/// What kind of mutating operation an [`OpInfo`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// [`Storage::append`].
    Append,
    /// [`Storage::write_atomic`].
    WriteAtomic,
    /// [`Storage::remove`].
    Remove,
}

/// One mutating operation observed by a probe run — the raw material
/// [`crate::verify::enumerate_crash_points`] expands into the matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpInfo {
    /// The operation's index in workload order.
    pub index: usize,
    /// Target path.
    pub path: String,
    /// Payload length in bytes (0 for removes).
    pub len: usize,
    /// Which primitive it was.
    pub op: OpKind,
}

/// A [`MemStorage`] wrapped with crash injection and an operation
/// recorder.
#[derive(Debug, Clone)]
pub struct ChaosStorage {
    inner: MemStorage,
    ops: Vec<OpInfo>,
    crash: Option<CrashPoint>,
    /// Set once the crash fired; every later operation fails.
    crashed: bool,
    /// Set by a [`CrashKind::LostAcked`] strike: the next mutating
    /// operation is the one that discovers the power is gone.
    armed: bool,
}

impl ChaosStorage {
    /// A probe store: records the operation stream, never crashes.
    pub fn probe() -> Self {
        Self {
            inner: MemStorage::new(),
            ops: Vec::new(),
            crash: None,
            crashed: false,
            armed: false,
        }
    }

    /// A store primed to crash at `point`, starting from `initial`
    /// durable contents.
    pub fn with_crash(initial: MemStorage, point: CrashPoint) -> Self {
        Self {
            inner: initial,
            ops: Vec::new(),
            crash: Some(point),
            crashed: false,
            armed: false,
        }
    }

    /// The mutating operations observed so far, in order.
    pub fn ops(&self) -> &[OpInfo] {
        &self.ops
    }

    /// The durable bytes that survived (the crash state recovery sees).
    pub fn into_survivor(self) -> MemStorage {
        self.inner
    }

    /// Records the op, applies the crash semantics if this is the
    /// target op, and returns whether the caller's operation should
    /// proceed normally (`Ok(true)`), be silently dropped with a lying
    /// ack (`Ok(false)`), or fail dead (`Err(Crashed)`).
    fn gate(&mut self, path: &str, len: usize, op: OpKind) -> Result<bool, StorageError> {
        if self.crashed {
            return Err(StorageError::Crashed);
        }
        let index = self.ops.len();
        self.ops.push(OpInfo {
            index,
            path: path.to_string(),
            len,
            op,
        });
        if self.armed {
            // A lost-but-acked write preceded us; power is already gone.
            self.crashed = true;
            return Err(StorageError::Crashed);
        }
        let Some(point) = self.crash else {
            return Ok(true);
        };
        if index != point.op {
            return Ok(true);
        }
        match point.kind {
            // Torn appends are intercepted in `append` (they need the
            // payload); a torn atomic write or remove never reaches its
            // commit point, so the old contents survive untouched.
            CrashKind::Torn { .. } => {
                self.crashed = true;
                Err(StorageError::Crashed)
            }
            CrashKind::Clean => {
                self.crashed = true;
                // The op itself lands in full below; signal the caller
                // to apply it and *then* report the crash.
                Ok(true)
            }
            CrashKind::LostAcked => {
                self.armed = true;
                Ok(false)
            }
            CrashKind::Duplicated => {
                self.crashed = true;
                // Append double-lands; the caller applies once, we
                // pre-apply the duplicate here for appends only.
                Ok(true)
            }
        }
    }

    /// Whether this op index is the armed crash target of `kind`.
    fn is_crash_op(&self, index: usize) -> Option<CrashKind> {
        self.crash.filter(|p| p.op == index).map(|p| p.kind)
    }
}

impl Storage for ChaosStorage {
    fn append(&mut self, path: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let index = self.ops.len();
        let crash_kind = if self.crashed || self.armed {
            None
        } else {
            self.is_crash_op(index)
        };
        // Torn appends need the payload, which `gate` cannot see — so
        // handle the prefix application here before delegating.
        if let Some(CrashKind::Torn { keep }) = crash_kind {
            self.ops.push(OpInfo {
                index,
                path: path.to_string(),
                len: bytes.len(),
                op: OpKind::Append,
            });
            let kept = keep.min(bytes.len().saturating_sub(1));
            self.inner.append(path, &bytes[..kept])?;
            self.crashed = true;
            return Err(StorageError::Crashed);
        }
        let proceed = self.gate(path, bytes.len(), OpKind::Append)?;
        if !proceed {
            return Ok(()); // lost-but-acked: lie, keep nothing
        }
        self.inner.append(path, bytes)?;
        if self.crashed {
            // Clean or duplicated strike on this op.
            if matches!(crash_kind, Some(CrashKind::Duplicated)) {
                self.inner.append(path, bytes)?;
            }
            return Err(StorageError::Crashed);
        }
        Ok(())
    }

    fn write_atomic(&mut self, path: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let proceed = self.gate(path, bytes.len(), OpKind::WriteAtomic)?;
        if !proceed {
            return Ok(());
        }
        self.inner.write_atomic(path, bytes)?;
        if self.crashed {
            return Err(StorageError::Crashed);
        }
        Ok(())
    }

    fn read(&self, path: &str) -> Result<Vec<u8>, StorageError> {
        if self.crashed {
            return Err(StorageError::Crashed);
        }
        self.inner.read(path)
    }

    fn exists(&self, path: &str) -> bool {
        !self.crashed && self.inner.exists(path)
    }

    fn remove(&mut self, path: &str) -> Result<(), StorageError> {
        let proceed = self.gate(path, 0, OpKind::Remove)?;
        if !proceed {
            return Ok(());
        }
        self.inner.remove(path)?;
        if self.crashed {
            return Err(StorageError::Crashed);
        }
        Ok(())
    }

    fn list(&self) -> Vec<String> {
        if self.crashed {
            return Vec::new();
        }
        self.inner.list()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_workload(s: &mut dyn Storage) -> Result<(), StorageError> {
        s.append("log", b"alpha\n")?;
        s.append("log", b"bravo\n")?;
        s.write_atomic("ck", b"2")?;
        s.append("log", b"charlie\n")?;
        Ok(())
    }

    #[test]
    fn probe_records_every_mutating_op() {
        let mut s = ChaosStorage::probe();
        run_workload(&mut s).unwrap();
        assert!(!s.crashed);
        let ops = s.ops().to_vec();
        assert_eq!(ops.len(), 4);
        assert_eq!(ops[2].op, OpKind::WriteAtomic);
        assert_eq!(ops[0].len, 6);
        let survivor = s.into_survivor();
        assert_eq!(survivor.read("log").unwrap(), b"alpha\nbravo\ncharlie\n");
    }

    #[test]
    fn torn_append_keeps_exactly_the_prefix() {
        let point = CrashPoint {
            op: 1,
            kind: CrashKind::Torn { keep: 3 },
        };
        let mut s = ChaosStorage::with_crash(MemStorage::new(), point);
        let err = run_workload(&mut s).unwrap_err();
        assert_eq!(err, StorageError::Crashed);
        assert!(s.crashed);
        let survivor = s.into_survivor();
        assert_eq!(survivor.read("log").unwrap(), b"alpha\nbra");
        assert!(!survivor.exists("ck"), "ops after the crash never ran");
    }

    #[test]
    fn torn_atomic_write_keeps_the_old_contents_whole() {
        let mut initial = MemStorage::new();
        initial.write_atomic("ck", b"old").unwrap();
        let point = CrashPoint {
            op: 2,
            kind: CrashKind::Torn { keep: 1 },
        };
        let mut s = ChaosStorage::with_crash(initial, point);
        assert!(run_workload(&mut s).is_err());
        let survivor = s.into_survivor();
        assert_eq!(survivor.read("ck").unwrap(), b"old", "no torn checkpoint");
    }

    #[test]
    fn clean_crash_lands_the_op_then_dies() {
        let point = CrashPoint {
            op: 2,
            kind: CrashKind::Clean,
        };
        let mut s = ChaosStorage::with_crash(MemStorage::new(), point);
        assert!(run_workload(&mut s).is_err());
        let survivor = s.into_survivor();
        assert_eq!(
            survivor.read("ck").unwrap(),
            b"2",
            "op landed before the crash"
        );
        assert_eq!(survivor.read("log").unwrap(), b"alpha\nbravo\n");
    }

    #[test]
    fn lost_acked_write_lies_then_the_next_op_finds_the_power_gone() {
        let point = CrashPoint {
            op: 1,
            kind: CrashKind::LostAcked,
        };
        let mut s = ChaosStorage::with_crash(MemStorage::new(), point);
        let err = run_workload(&mut s).unwrap_err();
        assert_eq!(err, StorageError::Crashed);
        let survivor = s.into_survivor();
        // Op 1 (bravo) was acked but lost; op 2 (the checkpoint) is the
        // op that discovered the crash and applied nothing.
        assert_eq!(survivor.read("log").unwrap(), b"alpha\n");
        assert!(!survivor.exists("ck"));
    }

    #[test]
    fn duplicated_append_double_lands() {
        let point = CrashPoint {
            op: 0,
            kind: CrashKind::Duplicated,
        };
        let mut s = ChaosStorage::with_crash(MemStorage::new(), point);
        assert!(run_workload(&mut s).is_err());
        let survivor = s.into_survivor();
        assert_eq!(survivor.read("log").unwrap(), b"alpha\nalpha\n");
    }

    #[test]
    fn every_op_after_a_crash_fails() {
        let point = CrashPoint {
            op: 0,
            kind: CrashKind::Clean,
        };
        let mut s = ChaosStorage::with_crash(MemStorage::new(), point);
        assert!(s.append("log", b"x").is_err());
        assert!(s.append("log", b"y").is_err());
        assert!(s.write_atomic("ck", b"z").is_err());
        assert!(s.read("log").is_err());
        assert!(!s.exists("log"));
    }
}
