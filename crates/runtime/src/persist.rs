//! On-disk persistence of pulse-store snapshots for warm-start across runs.
//!
//! A snapshot file is a small header (magic bytes + format version) followed by the
//! bincode encoding of a [`CacheSnapshot`]. The header keeps a future format change
//! from being misparsed as data, and snapshots are written via a temporary file +
//! rename so a crash mid-write never leaves a truncated snapshot at the target path.
//!
//! The current layout is **v3**: `(key, entry, recompute_cost)` triples for
//! blocks and tunings, then the warm-start seeds (`(structural key, SeedEntry)`
//! pairs), so a restarted service opens its duration searches at the predecessor's
//! converged windows. The cost is in GRAPE work units; files written before work
//! units store model seconds there, and the loader re-derives it either way. Any store's snapshot will do — the sequential compiler's
//! (`PartialCompiler::shared_cache().snapshot()`) as well as a runtime's. Files of
//! the two earlier layouts are refused like any other unknown version.

use std::fmt;
use std::fs;
use std::io::Write;
use std::path::Path;
use vqc_core::CacheSnapshot;

/// Leading bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"VQCPULSE";
/// Version of the snapshot layout this build writes.
pub const SNAPSHOT_VERSION: u32 = 3;
/// Oldest snapshot layout this build still reads.
pub const SNAPSHOT_MIN_VERSION: u32 = 3;

/// Error loading or saving a snapshot.
#[derive(Debug)]
pub enum PersistError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The file exists but is not a snapshot this build understands.
    Corrupt(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "snapshot io error: {e}"),
            PersistError::Corrupt(why) => write!(f, "snapshot corrupt: {why}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Writes a snapshot to `path` atomically (temp file + rename).
///
/// # Errors
///
/// Fails on I/O errors; the target path is left untouched and the temporary file is
/// removed in that case.
pub fn save_snapshot(path: impl AsRef<Path>, snapshot: &CacheSnapshot) -> Result<(), PersistError> {
    let path = path.as_ref();
    let payload = bincode::serialize(snapshot)
        .map_err(|e| PersistError::Corrupt(format!("encoding failed: {e}")))?;
    // The temp name must be unique per target file AND per process: appending to the
    // full file name (rather than replacing the extension) keeps `a.blocks` and
    // `a.tunings` from sharing a temp file, and the pid keeps two processes saving
    // to the same path from interleaving writes.
    let file_name = path
        .file_name()
        .ok_or_else(|| PersistError::Corrupt("snapshot path has no file name".into()))?
        .to_string_lossy()
        .into_owned();
    let tmp_path = path.with_file_name(format!("{file_name}.{}.tmp", std::process::id()));
    let write = || -> Result<(), PersistError> {
        {
            let mut file = fs::File::create(&tmp_path)?;
            file.write_all(SNAPSHOT_MAGIC)?;
            file.write_all(&SNAPSHOT_VERSION.to_le_bytes())?;
            file.write_all(&payload)?;
            file.sync_all()?;
        }
        fs::rename(&tmp_path, path)?;
        Ok(())
    };
    let result = write();
    if result.is_err() {
        // Any failure past File::create leaves the temp file behind; a process that
        // keeps retrying saves would otherwise litter the snapshot directory.
        fs::remove_file(&tmp_path).ok();
    }
    result
}

/// Reads a snapshot from `path`.
///
/// # Errors
///
/// Fails if the file is unreadable, has the wrong magic/version, or does not decode.
pub fn load_snapshot(path: impl AsRef<Path>) -> Result<CacheSnapshot, PersistError> {
    let bytes = fs::read(path)?;
    let header_len = SNAPSHOT_MAGIC.len() + 4;
    if bytes.len() < header_len || &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err(PersistError::Corrupt("missing snapshot magic".into()));
    }
    let version = match bytes[SNAPSHOT_MAGIC.len()..header_len].try_into() {
        Ok(raw) => u32::from_le_bytes(raw),
        Err(_) => return Err(PersistError::Corrupt("truncated version field".into())),
    };
    let payload = &bytes[header_len..];
    match version {
        SNAPSHOT_VERSION => bincode::deserialize(payload)
            .map_err(|e| PersistError::Corrupt(format!("payload does not decode: {e}"))),
        other => Err(PersistError::Corrupt(format!(
            "snapshot version {other} (this build reads {SNAPSHOT_MIN_VERSION}..={SNAPSHOT_VERSION})"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqc_circuit::Circuit;
    use vqc_core::{BlockKey, CachedBlock};

    fn sample_key() -> BlockKey {
        let mut circuit = Circuit::new(2);
        circuit.cx(0, 1);
        circuit.rz(1, 0.5);
        BlockKey::from_bound_circuit(&circuit)
    }

    fn sample_entry() -> CachedBlock {
        CachedBlock {
            duration_ns: 4.25,
            converged: true,
            grape_iterations: 310,
        }
    }

    fn sample_seed() -> (BlockKey, vqc_core::SeedEntry) {
        let mut structural = Circuit::new(2);
        structural.cx(0, 1);
        (
            BlockKey::structural(&structural),
            vqc_core::SeedEntry {
                learning_rate: 0.15,
                decay_rate: 0.995,
                tuned: true,
                converged_duration_ns: Some(3.75),
                failed_below_ns: 3.0,
                probe_iterations: vec![(4.25, 120), (3.75, 80)],
                pulse: Some(vqc_core::PulseSequence::zeros(3, 16, 0.25)),
            },
        )
    }

    fn sample_snapshot() -> CacheSnapshot {
        let key = sample_key();
        let entry = sample_entry();
        // 310 iterations × 9 slices × 4³ × 5 controls: the entry's work units.
        let cost = 892_800.0;
        CacheSnapshot {
            blocks: vec![(key, entry, cost)],
            tunings: Vec::new(),
            seeds: vec![sample_seed()],
        }
    }

    #[test]
    fn snapshot_file_round_trips_with_cost_metadata() {
        let dir = std::env::temp_dir().join("vqc_persist_test_roundtrip");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.snapshot");
        let snapshot = sample_snapshot();
        save_snapshot(&path, &snapshot).unwrap();
        let loaded = load_snapshot(&path).unwrap();
        assert_eq!(loaded, snapshot);
        assert!(loaded.blocks[0].2 > 0.0, "cost metadata must round-trip");
        // v3: the warm-start section round-trips, pulse payload included.
        assert_eq!(loaded.seeds, snapshot.seeds);
        assert!(loaded.seeds[0].1.pulse.is_some());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retired_layouts_are_refused_naming_the_readable_range() {
        let dir = std::env::temp_dir().join("vqc_persist_test_retired");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.snapshot");
        // The header decides: whatever follows it, a v1 or v2 file is not read.
        for version in [1u32, 2] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(SNAPSHOT_MAGIC);
            bytes.extend_from_slice(&version.to_le_bytes());
            fs::write(&path, &bytes).unwrap();
            match load_snapshot(&path) {
                Err(PersistError::Corrupt(why)) => {
                    assert!(why.contains(&format!("version {version}")), "{why}");
                    assert!(why.contains("3..=3"), "{why}");
                }
                other => panic!("v{version} must be refused, got {other:?}"),
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_magic_and_truncation_are_rejected() {
        let dir = std::env::temp_dir().join("vqc_persist_test_corrupt");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.snapshot");

        fs::write(&path, b"NOTASNAP").unwrap();
        assert!(matches!(
            load_snapshot(&path),
            Err(PersistError::Corrupt(_))
        ));

        save_snapshot(&path, &sample_snapshot()).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 3);
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_snapshot(&path),
            Err(PersistError::Corrupt(_))
        ));

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn future_versions_are_rejected() {
        let dir = std::env::temp_dir().join("vqc_persist_test_version");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.snapshot");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SNAPSHOT_MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_snapshot(&path),
            Err(PersistError::Corrupt(_))
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_save_leaves_no_temp_files_behind() {
        let dir = std::env::temp_dir().join("vqc_persist_test_tmp_leak");
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        // The target path is an existing directory, so the final rename of the temp
        // file onto it must fail after the temp file was fully written.
        let target = dir.join("occupied");
        fs::create_dir_all(&target).unwrap();
        assert!(matches!(
            save_snapshot(&target, &sample_snapshot()),
            Err(PersistError::Io(_))
        ));
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "failed save left temp files: {leftovers:?}"
        );
        fs::remove_dir_all(&dir).ok();
    }
}
