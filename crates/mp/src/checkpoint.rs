//! Rank-local checkpoint files for fail/respawn recovery.
//!
//! A [`CheckpointStore`] owns one file per rank in a shared directory and
//! rewrites it atomically (temp file + rename) on every
//! [`save`](CheckpointStore::save), so a rank killed mid-write leaves
//! either the previous complete checkpoint or the new one — never a torn
//! file. The payload travels through the same [`Datatype`] codecs as
//! messages, and the whole record is covered by the same CRC-32 the wire
//! frames use, so a corrupt file is rejected on
//! [`load`](CheckpointStore::load) instead of resurrecting garbage state.
//!
//! This is the persistence half of `pmrun --respawn`: workers checkpoint
//! between steps, the launcher restarts a dead worker, and the respawned
//! rank calls `load` to rejoin from its last completed step instead of
//! from scratch. The store itself is plain file I/O with no metering —
//! [`Comm::checkpoint`](crate::Comm::checkpoint) and
//! [`Comm::restore`](crate::Comm::restore) wrap it with counters and the
//! save-latency histogram.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use bytes::BytesMut;
use patternlets_core::{crc32, Error, Result};

use crate::datatype::Datatype;

/// File magic: "PLCK" (PatternLets ChecKpoint).
const MAGIC: &[u8; 4] = b"PLCK";
/// Format version; bump on layout changes.
const VERSION: u32 = 1;

/// One rank's checkpoint slot in a shared directory.
///
/// The slot holds at most one checkpoint (the latest); each save replaces
/// the previous one atomically. Ranks never touch each other's files, so
/// no cross-process locking is needed.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    rank: usize,
}

impl CheckpointStore {
    /// Open (creating the directory if needed) rank `rank`'s slot under
    /// `dir`.
    pub fn new(dir: impl Into<PathBuf>, rank: usize) -> Result<CheckpointStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| Error::InvalidConfig(format!("checkpoint dir {}: {e}", dir.display())))?;
        Ok(CheckpointStore { dir, rank })
    }

    /// The rank this store belongs to.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Path of this rank's checkpoint file.
    pub fn path(&self) -> PathBuf {
        self.dir.join(format!("rank-{}.ckpt", self.rank))
    }

    /// Persist `data` as the checkpoint for `step`, replacing any previous
    /// checkpoint. Returns the number of bytes written (for metering).
    pub fn save<T: Datatype>(&self, step: u64, data: &[T]) -> Result<u64> {
        let mut payload = BytesMut::new();
        T::encode_slice(data, &mut payload);
        let record = encode_record(step, data.len() as u64, T::TYPE_NAME, &payload);
        let tmp = self.dir.join(format!("rank-{}.ckpt.tmp", self.rank));
        write_file(&tmp, &record)
            .and_then(|()| fs::rename(&tmp, self.path()))
            .map_err(|e| {
                let _ = fs::remove_file(&tmp);
                Error::InvalidConfig(format!("checkpoint write {}: {e}", self.path().display()))
            })?;
        Ok(record.len() as u64)
    }

    /// Load the latest checkpoint, if one exists. `Ok(None)` means no
    /// checkpoint has been taken yet (a fresh start); a present-but-invalid
    /// file — bad magic, wrong element type, CRC mismatch — is an error,
    /// because silently restarting from nothing would mask corruption.
    pub fn load<T: Datatype>(&self) -> Result<Option<(u64, Vec<T>)>> {
        let bytes = match fs::read(self.path()) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(Error::InvalidConfig(format!(
                    "checkpoint read {}: {e}",
                    self.path().display()
                )))
            }
        };
        let (step, data) = decode_record::<T>(&bytes).map_err(|e| codec_at(self.path(), e))?;
        Ok(Some((step, data)))
    }
}

fn codec_at(path: PathBuf, err: Error) -> Error {
    match err {
        Error::Codec(msg) => Error::Codec(format!("{}: {msg}", path.display())),
        other => other,
    }
}

fn write_file(path: &Path, record: &[u8]) -> std::io::Result<()> {
    let mut file = fs::File::create(path)?;
    file.write_all(record)?;
    file.sync_all()
}

/// Record layout (all integers little-endian):
/// `MAGIC | version u32 | step u64 | count u64 | name_len u32 | name |
///  payload_len u64 | payload | crc32-of-everything-before u32`.
fn encode_record(step: u64, count: u64, type_name: &str, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 4 + 8 + 8 + 4 + type_name.len() + 8 + payload.len() + 4);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&step.to_le_bytes());
    out.extend_from_slice(&count.to_le_bytes());
    out.extend_from_slice(&(type_name.len() as u32).to_le_bytes());
    out.extend_from_slice(type_name.as_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(&out).to_le_bytes());
    out
}

fn decode_record<T: Datatype>(bytes: &[u8]) -> Result<(u64, Vec<T>)> {
    let mut cur = Cursor { bytes, at: 0 };
    if cur.take(4)? != MAGIC {
        return Err(Error::Codec("not a checkpoint file (bad magic)".into()));
    }
    let version = u32::from_le_bytes(cur.take(4)?.try_into().unwrap());
    if version != VERSION {
        return Err(Error::Codec(format!(
            "checkpoint format v{version}, this build reads v{VERSION}"
        )));
    }
    let step = u64::from_le_bytes(cur.take(8)?.try_into().unwrap());
    let count = u64::from_le_bytes(cur.take(8)?.try_into().unwrap());
    let name_len = u32::from_le_bytes(cur.take(4)?.try_into().unwrap()) as usize;
    let name = cur.take(name_len)?;
    if name != T::TYPE_NAME.as_bytes() {
        return Err(Error::TypeMismatch {
            expected: T::TYPE_NAME,
            found: String::from_utf8_lossy(name).into_owned(),
        });
    }
    let payload_len = u64::from_le_bytes(cur.take(8)?.try_into().unwrap()) as usize;
    let payload = cur.take(payload_len)?;
    let stored = u32::from_le_bytes(cur.take(4)?.try_into().unwrap());
    let computed = crc32(&bytes[..bytes.len() - 4]);
    if cur.at != bytes.len() {
        return Err(Error::Codec(format!(
            "checkpoint has {} trailing bytes",
            bytes.len() - cur.at
        )));
    }
    if stored != computed {
        return Err(Error::Codec(format!(
            "checkpoint crc mismatch (stored {stored:#010x}, computed {computed:#010x})"
        )));
    }
    let data = T::decode_slice(payload, count as usize)?;
    Ok((step, data))
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.bytes.len() - self.at < n {
            return Err(Error::Codec(format!(
                "checkpoint truncated at byte {} (wanted {n} more)",
                self.at
            )));
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("plck-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_then_load_round_trips() {
        let dir = scratch_dir("roundtrip");
        let store = CheckpointStore::new(&dir, 2).unwrap();
        assert_eq!(store.load::<i64>().unwrap(), None);
        store.save(7, &[10i64, 20, 30]).unwrap();
        assert_eq!(store.load::<i64>().unwrap(), Some((7, vec![10, 20, 30])));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn saves_replace_and_keep_only_the_latest() {
        let dir = scratch_dir("replace");
        let store = CheckpointStore::new(&dir, 0).unwrap();
        store.save(1, &[1.5f64]).unwrap();
        store.save(2, &[2.5f64, 3.5]).unwrap();
        assert_eq!(store.load::<f64>().unwrap(), Some((2, vec![2.5, 3.5])));
        // One file per rank; the temp file does not linger.
        let entries: Vec<_> = fs::read_dir(&dir).unwrap().collect();
        assert_eq!(entries.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ranks_have_independent_slots() {
        let dir = scratch_dir("slots");
        let a = CheckpointStore::new(&dir, 0).unwrap();
        let b = CheckpointStore::new(&dir, 1).unwrap();
        a.save(1, &[1i32]).unwrap();
        b.save(9, &[9i32]).unwrap();
        assert_eq!(a.load::<i32>().unwrap(), Some((1, vec![1])));
        assert_eq!(b.load::<i32>().unwrap(), Some((9, vec![9])));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_detected_not_restored() {
        let dir = scratch_dir("corrupt");
        let store = CheckpointStore::new(&dir, 0).unwrap();
        store.save(3, &[42u64; 8]).unwrap();
        let path = store.path();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let err = store.load::<u64>().unwrap_err();
        assert!(
            err.to_string().contains("crc mismatch") || err.to_string().contains("type"),
            "unexpected error: {err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_element_type_is_a_type_mismatch() {
        let dir = scratch_dir("type");
        let store = CheckpointStore::new(&dir, 0).unwrap();
        store.save(1, &[1i32, 2]).unwrap();
        match store.load::<f64>() {
            Err(Error::TypeMismatch { expected, found }) => {
                assert_eq!(expected, "f64");
                assert_eq!(found, "i32");
            }
            other => panic!("expected TypeMismatch, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_file_is_rejected() {
        let dir = scratch_dir("trunc");
        let store = CheckpointStore::new(&dir, 0).unwrap();
        store.save(5, &[7i64; 4]).unwrap();
        let path = store.path();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 6]).unwrap();
        assert!(store.load::<i64>().is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
