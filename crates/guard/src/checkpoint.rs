//! Crash-safe checkpoint persistence.
//!
//! A checkpoint a resume depends on must never be half-written: a
//! kill between `open` and the last `write` of a plain
//! `std::fs::write` leaves a torn file that poisons the *next* run.
//! [`atomic_write`] closes that window the standard way — write the
//! full payload to a temporary file **in the same directory** (rename
//! is only atomic within a filesystem), fsync it, then rename over
//! the destination. A crash before the rename leaves the old
//! checkpoint intact; a crash after leaves the new one; no
//! interleaving exists in which a reader sees a mix.
//!
//! The writer itself is `sfq_obs::ledger::atomic_write`, which the
//! run ledger shares (obs cannot depend on this crate); this module
//! adds the typed error, the JSON helpers and the `guard.checkpoint.*`
//! counters, so every sweep in the workspace shares one audited
//! implementation.

use std::path::Path;

use serde::{Deserialize, Serialize};

/// A checkpoint read or write failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem-level failure (create, write, fsync, rename).
    Io {
        /// The checkpoint path involved.
        path: String,
        /// The underlying error, stringified.
        message: String,
    },
    /// The file exists but does not parse as the expected payload.
    Corrupt {
        /// The checkpoint path involved.
        path: String,
        /// The parse error, stringified.
        message: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { path, message } => {
                write!(f, "checkpoint i/o error at {path}: {message}")
            }
            CheckpointError::Corrupt { path, message } => {
                write!(f, "corrupt checkpoint at {path}: {message}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

fn io_err(path: &Path, e: &std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// The temporary sibling `atomic_write` stages into: `<path>.tmp`.
/// Exposed so torn-write tests (and cleanup) can name it.
pub use sfq_obs::ledger::tmp_path;

/// Atomically replace `path` with `bytes` through the workspace's one
/// writer, [`sfq_obs::ledger::atomic_write`]: temp file in the same
/// directory → write → fsync → rename, creating missing parent
/// directories. After a successful return the new content is durable
/// and no temp file remains; on any failure the previous checkpoint
/// (if any) is untouched.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    sfq_obs::ledger::atomic_write(path, bytes).map_err(|e| io_err(path, &e))?;
    sfq_obs::inc("guard.checkpoint.write");
    Ok(())
}

/// [`atomic_write`] of a pretty-printed JSON payload.
pub fn atomic_write_json<T: Serialize>(path: &Path, value: &T) -> Result<(), CheckpointError> {
    let text = serde_json::to_string_pretty(value).map_err(|e| CheckpointError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    atomic_write(path, text.as_bytes())
}

/// Load a JSON checkpoint. `Ok(None)` when the file does not exist (a
/// cold start, not an error); [`CheckpointError::Corrupt`] when it
/// exists but does not parse. A stale `.tmp` sibling from a crashed
/// writer is ignored — the rename never happened, so the destination
/// is still the last complete checkpoint.
pub fn load_json<T: Deserialize>(path: &Path) -> Result<Option<T>, CheckpointError> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(path, &e)),
    };
    let value = serde_json::from_str(&text).map_err(|e| CheckpointError::Corrupt {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    sfq_obs::inc("guard.checkpoint.resume");
    Ok(Some(value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::path::PathBuf;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Payload {
        name: String,
        values: Vec<u64>,
    }

    fn tempdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sfq_guard_ckpt_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn roundtrip_and_missing_file() {
        let dir = tempdir("rt");
        let path = dir.join("ckpt.json");
        assert_eq!(load_json::<Payload>(&path).unwrap(), None);
        let p = Payload {
            name: "fig20".into(),
            values: vec![1, 2, 3],
        };
        atomic_write_json(&path, &p).unwrap();
        assert_eq!(load_json::<Payload>(&path).unwrap(), Some(p));
        assert!(!tmp_path(&path).exists(), "no staging residue");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tmp_from_crashed_writer_is_ignored_and_replaced() {
        let dir = tempdir("torn");
        let path = dir.join("ckpt.json");
        let old = Payload {
            name: "old".into(),
            values: vec![7],
        };
        atomic_write_json(&path, &old).unwrap();
        // Simulate a crash mid-write: a torn temp file next to a
        // complete checkpoint.
        std::fs::write(tmp_path(&path), b"{\"name\": \"to").unwrap();
        // The destination is still the last complete checkpoint.
        assert_eq!(load_json::<Payload>(&path).unwrap(), Some(old));
        // A new write goes through cleanly and clears the residue.
        let new = Payload {
            name: "new".into(),
            values: vec![8, 9],
        };
        atomic_write_json(&path, &new).unwrap();
        assert_eq!(load_json::<Payload>(&path).unwrap(), Some(new));
        assert!(!tmp_path(&path).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_is_a_typed_error() {
        let dir = tempdir("bad");
        let path = dir.join("ckpt.json");
        std::fs::write(&path, b"not json at all").unwrap();
        match load_json::<Payload>(&path) {
            Err(CheckpointError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn creates_missing_parent_directories() {
        let dir = tempdir("mkdirs");
        let path = dir.join("a/b/ckpt.json");
        atomic_write(&path, b"{}").unwrap();
        assert!(path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
