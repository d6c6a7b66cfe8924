//! Disk checkpointing: the engine-integrated form of the §X future-work
//! item ("we are working on spilling some data to local disk to enable
//! computations on large scale of DP problems").
//!
//! With a [`CheckpointConfig`], the threaded engine appends every
//! published vertex value to a per-place log of `(id, len, encoded
//! value)` records. A later run — after a crash, or to continue an
//! interrupted computation — replays the directory into an init
//! override via [`load_checkpoint`], so already-finished vertices are
//! never recomputed (the same §VI-E pre-finish mechanism recovery uses).
//! A crash can cut a log's last record anywhere; the loader keeps the
//! whole records before it and writes nothing.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, ErrorKind, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dpx10_sync::Mutex;

use dpx10_apgas::PlaceId;
use dpx10_dag::VertexId;

use crate::app::VertexValue;
use crate::config::InitOverride;

/// Where to checkpoint.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Directory holding one `place-<n>.spill` log per place.
    pub dir: PathBuf,
}

impl CheckpointConfig {
    /// Checkpoint every published vertex into `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig { dir: dir.into() }
    }
}

/// Per-place log writers used by the engine during a run, each with a
/// scratch buffer for the value's encoding.
pub(crate) struct CheckpointWriters<V> {
    logs: Vec<Mutex<(BufWriter<File>, Vec<u8>)>>,
    _value: PhantomData<fn(&V)>,
}

impl<V: VertexValue> CheckpointWriters<V> {
    /// Creates (truncating) one log per place.
    pub(crate) fn create(
        config: &CheckpointConfig,
        places: u16,
    ) -> std::io::Result<CheckpointWriters<V>> {
        std::fs::create_dir_all(&config.dir)?;
        let logs = (0..places)
            .map(|p| {
                File::create(place_file(&config.dir, PlaceId(p)))
                    .map(|file| Mutex::new((BufWriter::new(file), Vec::new())))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(CheckpointWriters {
            logs,
            _value: PhantomData,
        })
    }

    /// Appends one published vertex to `place`'s log.
    pub(crate) fn on_publish(&self, place: PlaceId, id: VertexId, value: &V) {
        let mut guard = self.logs[place.index()].lock();
        let (log, buf) = &mut *guard;
        buf.clear();
        value.encode(buf);
        // Checkpointing is best-effort: an I/O error must not take
        // down the computation (the data still lives in RAM).
        let _ = log
            .write_all(&id.pack().to_le_bytes())
            .and_then(|()| log.write_all(&(buf.len() as u32).to_le_bytes()))
            .and_then(|()| log.write_all(buf));
    }
}

fn place_file(dir: &Path, place: PlaceId) -> PathBuf {
    dir.join(format!("place-{}.spill", place.0))
}

/// Splits the first whole record off `log`: its packed id, its encoded
/// value and the rest. `None` at the end of the log and at a torn tail.
fn record(log: &[u8]) -> Option<(u64, &[u8], &[u8])> {
    let (id, rest) = log.split_first_chunk::<8>()?;
    let (len, rest) = rest.split_first_chunk::<4>()?;
    let len = u32::from_le_bytes(*len) as usize;
    let (value, rest) = (rest.len() >= len).then(|| rest.split_at(len))?;
    Some((u64::from_le_bytes(*id), value, rest))
}

/// Replays a checkpoint directory into an init override: every vertex
/// found in any place log starts the next run pre-finished with its
/// recorded value, the last record of an id winning. Missing files are
/// fine (that place logged nothing or its disk died — matching the
/// paper's local-disk semantics). Each log is read once and never
/// written.
pub fn load_checkpoint<V: VertexValue>(
    dir: impl AsRef<Path>,
    places: u16,
) -> std::io::Result<InitOverride<V>> {
    let mut fills: HashMap<u64, V> = HashMap::new();
    for p in 0..places {
        let raw = match std::fs::read(place_file(dir.as_ref(), PlaceId(p))) {
            Ok(raw) => raw,
            Err(e) if e.kind() == ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        let mut rest = raw.as_slice();
        while let Some((id, mut value, tail)) = record(rest) {
            if let Some(v) = V::decode(&mut value) {
                fills.insert(id, v);
            }
            rest = tail;
        }
    }
    Ok(Arc::new(move |i, j| {
        fills.get(&VertexId::new(i, j).pack()).cloned()
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dpx10-ckpt-{}-{name}", std::process::id()));
        p
    }

    /// Writes `(j, value)` records for row 0 into place 0's log of `dir`.
    fn write_log(dir: &Path, records: &[(u32, u64)]) -> PathBuf {
        let writers: CheckpointWriters<u64> =
            CheckpointWriters::create(&CheckpointConfig::new(dir), 1).unwrap();
        for &(j, value) in records {
            writers.on_publish(PlaceId(0), VertexId::new(0, j), &value);
        }
        place_file(dir, PlaceId(0))
    }

    #[test]
    fn writers_then_load_round_trip() {
        let dir = temp_dir("roundtrip");
        let config = CheckpointConfig::new(&dir);
        let writers: CheckpointWriters<u64> = CheckpointWriters::create(&config, 2).unwrap();
        writers.on_publish(PlaceId(0), VertexId::new(0, 0), &10);
        writers.on_publish(PlaceId(1), VertexId::new(1, 1), &11);
        writers.on_publish(PlaceId(1), VertexId::new(2, 2), &12);
        drop(writers);

        let init = load_checkpoint::<u64>(&dir, 2).unwrap();
        assert_eq!(init(0, 0), Some(10));
        assert_eq!(init(1, 1), Some(11));
        assert_eq!(init(2, 2), Some(12));
        assert_eq!(init(3, 3), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_load_recovers_every_record() {
        let dir = temp_dir("every");
        let writers: CheckpointWriters<u64> =
            CheckpointWriters::create(&CheckpointConfig::new(&dir), 1).unwrap();
        for k in 0..50u32 {
            writers.on_publish(PlaceId(0), VertexId::new(k / 10, k % 10), &(k as u64 * 3));
        }
        drop(writers);
        let init = load_checkpoint::<u64>(&dir, 1).unwrap();
        for k in 0..50u32 {
            assert_eq!(init(k / 10, k % 10), Some(k as u64 * 3), "record {k}");
        }
        assert_eq!(init(5, 0), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn signed_values_load_back_as_written() {
        let dir = temp_dir("signed");
        let writers: CheckpointWriters<i64> =
            CheckpointWriters::create(&CheckpointConfig::new(&dir), 1).unwrap();
        writers.on_publish(PlaceId(0), VertexId::new(1, 2), &42);
        writers.on_publish(PlaceId(0), VertexId::new(3, 4), &-7);
        drop(writers);
        let init = load_checkpoint::<i64>(&dir, 1).unwrap();
        assert_eq!(init(1, 2), Some(42));
        assert_eq!(init(3, 4), Some(-7));
        assert_eq!(init(9, 9), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_last_record_of_an_id_wins() {
        let dir = temp_dir("supersede");
        write_log(&dir, &[(0, 1), (0, 2)]);
        let init = load_checkpoint::<u64>(&dir, 1).unwrap();
        assert_eq!(init(0, 0), Some(2));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Loads a log whose last record `cut` tore, and checks that the
    /// whole records before it load and that the file is left as it was.
    fn load_torn(name: &str, cut: impl FnOnce(&mut Vec<u8>)) {
        let dir = temp_dir(name);
        let path = write_log(&dir, &[(1, 10), (2, 20)]);
        let mut torn = std::fs::read(&path).unwrap();
        cut(&mut torn);
        std::fs::write(&path, &torn).unwrap();
        let init = load_checkpoint::<u64>(&dir, 1).unwrap();
        assert_eq!(init(0, 1), Some(10), "the intact prefix loads");
        assert_eq!(init(0, 2), None, "the torn record does not");
        assert_eq!(std::fs::read(&path).unwrap(), torn, "a load writes nothing");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_load_stops_at_a_record_cut_inside_its_header() {
        // A crash mid-record: the second record's header is half there.
        load_torn("torn-header", |log| log.truncate(12 + 8 + 5));
    }

    #[test]
    fn a_load_stops_at_a_record_cut_inside_its_value() {
        // The header landed on disk but not all the value's bytes did.
        load_torn("torn-value", |log| log.truncate(log.len() - 3));
    }

    #[test]
    fn missing_files_are_tolerated() {
        let dir = temp_dir("missing");
        std::fs::create_dir_all(&dir).unwrap();
        let init = load_checkpoint::<u64>(&dir, 3).unwrap();
        assert_eq!(init(0, 0), None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
