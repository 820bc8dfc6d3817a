//! Sorted runs on disk: written once, streamed back through a k-way merge.
//!
//! The paper's related work separates in-memory sorters (SDS-Sort,
//! HykSort) from disk-based ones (TritonSort, NTOSort) and assumes "enough
//! memory to hold data in core". [`crate::exchange`]'s
//! [`Delivery::Spill`](crate::exchange::Delivery::Spill) removes that
//! assumption for the receive side of the exchange: a rank whose receive
//! buffer does not fit its budget (or would push it over
//! [`crate::exchange::SPILL_PRESSURE`]) reserves only its largest incoming
//! chunk, and `Staged::write` writes every chunk as it arrives — already
//! sorted, so as ready-made runs — then drops it. `Staged::read_back`
//! streams their merge back through [`RunMerger`]. That read-back collects
//! all `m` records into one `Vec`, which the budget does not charge: a rank
//! that spilled because `m` records did not fit ends up holding them
//! anyway. Disk time is charged to the rank's clock through a seek +
//! bandwidth model (`DISK_SEEK_S`, `DISK_BW`).
//!
//! A run's bytes are the records' [`comm::Wire`] encoding — the one record
//! codec, so whatever can be sorted can be spilled — in blocks of 1 024
//! records, each decoded whole with `Wire::get_vec`. A block that comes back
//! short or does not decode to its records is an error naming the file,
//! never a shorter output.

use crate::merge::{is_sorted_by_key, LoserTree};
use crate::record::Sortable;
use crate::sort::SortError;
use comm::{AsyncExchange, Communicator};
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Records per block of a run file: what one run keeps decoded during a
/// merge.
const BLOCK_RECORDS: usize = 1024;

/// Maximum records per spilled run file; a larger incoming chunk is split
/// into consecutive runs of at most this size.
const RUN_RECORDS: usize = 1 << 16;

/// Modelled disk streaming bandwidth in bytes/second (500 MB/s).
const DISK_BW: f64 = 5e8;
/// Modelled per-file seek/open latency in seconds (100 µs).
const DISK_SEEK_S: f64 = 1e-4;

/// A sorted run spilled to disk.
#[derive(Debug)]
pub struct RunFile {
    path: PathBuf,
    records: usize,
    /// Encoded length of each block, in file order.
    block_bytes: Vec<usize>,
}

impl RunFile {
    fn corrupt(&self, what: impl std::fmt::Display) -> io::Error {
        let path = self.path.display();
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("run file {path}: {what}"),
        )
    }

    /// Read this run's next block from `file` into `cursor`: the block's
    /// first key, or `None` once the run has no block left.
    fn next_block<T: Sortable>(
        &self,
        file: &mut File,
        cursor: &mut Cursor<T>,
        bytes: &mut Vec<u8>,
    ) -> io::Result<Option<T::Key>> {
        let read = cursor.read;
        let Some(&len) = self.block_bytes.get(read) else {
            return Ok(None);
        };
        let want = (self.records - read * BLOCK_RECORDS).min(BLOCK_RECORDS);
        bytes.resize(len, 0);
        file.read_exact(bytes).map_err(|e| self.corrupt(e))?;
        cursor.block = T::get_vec(bytes)
            .filter(|b| b.len() == want)
            .ok_or_else(|| self.corrupt(format_args!("block {read} is not its {want} records")))?;
        cursor.head = 0;
        cursor.read += 1;
        Ok(Some(cursor.block[0].key()))
    }
}

/// Write one *already sorted* chunk as a run file at `path`. It is never
/// re-sorted, so a stably sorted chunk keeps its order on disk — the
/// spilling exchange relies on this to stay stable.
pub fn write_run<T: Sortable>(records: &[T], path: &Path) -> io::Result<RunFile> {
    debug_assert!(is_sorted_by_key(records), "run must be pre-sorted");
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut file = File::create(path)?;
    let mut bytes = Vec::new();
    let mut block_bytes = Vec::with_capacity(records.len().div_ceil(BLOCK_RECORDS));
    for block in records.chunks(BLOCK_RECORDS) {
        bytes.clear();
        T::put_slice(block, &mut bytes);
        file.write_all(&bytes)?;
        block_bytes.push(bytes.len());
    }
    Ok(RunFile {
        path: path.to_path_buf(),
        records: records.len(),
        block_bytes,
    })
}

/// Remove a run's backing file (best effort).
pub fn remove_run(run: &RunFile) {
    let _ = std::fs::remove_file(&run.path);
}

/// The runs one rank staged under its spill directory, by source rank;
/// dropping them removes their files and the directory.
pub(crate) struct Staged {
    dir: PathBuf,
    by_source: Vec<Vec<RunFile>>,
}

impl Staged {
    /// Receive every chunk of `pending` and write it under `dir` as runs of
    /// at most `RUN_RECORDS`, then drop it, so the resident set stays one
    /// chunk deep. A chunk is a contiguous slice of its sender's sorted
    /// share, so it is already a run; kept in (source, part) order, the
    /// runs replay the stable merge order. Each file is charged a seek plus
    /// its streaming time.
    pub(crate) fn write<T: Sortable, C: Communicator>(
        comm: &C,
        mut pending: impl AsyncExchange<T, C>,
        dir: &Path,
    ) -> Result<Self, SortError> {
        let mut staged = Self {
            dir: dir.to_path_buf(),
            by_source: (0..comm.size()).map(|_| Vec::new()).collect(),
        };
        while let Some((src, chunk)) = pending.wait_any_run(comm) {
            for (part, piece) in chunk.chunks(RUN_RECORDS).enumerate() {
                let path = dir.join(format!("src{src:06}-part{part:04}.bin"));
                match write_run(piece, &path) {
                    Ok(run) => staged.by_source[src].push(run),
                    Err(e) => {
                        // Drain the exchange so peers' sends are consumed;
                        // dropping `staged` removes what was written.
                        while pending.wait_any_run(comm).is_some() {}
                        return Err(io_error(e));
                    }
                }
                comm.charge_compute(DISK_SEEK_S + std::mem::size_of_val(piece) as f64 / DISK_BW);
            }
        }
        Ok(staged)
    }

    /// Merge the `m` staged records back, stably, into one vector (which
    /// the budget does not charge), charging a seek per run plus one
    /// streaming pass, and remove the runs.
    pub(crate) fn read_back<T: Sortable, C: Communicator>(
        self,
        comm: &C,
        m: usize,
    ) -> Result<Vec<T>, SortError> {
        let runs: Vec<&RunFile> = self.by_source.iter().flatten().collect();
        let bytes = m * std::mem::size_of::<T>();
        comm.charge_compute(runs.len() as f64 * DISK_SEEK_S + bytes as f64 / DISK_BW);
        let merged = comm.compute_with(
            |mo| mo.kway_merge_cost(m, runs.len().max(2)),
            || -> io::Result<Vec<T>> { RunMerger::new(runs.iter().copied())?.collect() },
        );
        let out = merged.map_err(io_error)?;
        if out.len() != m {
            let msg = format!("{} records came back from {m} spilled", out.len());
            return Err(SortError::Io(msg));
        }
        Ok(out)
    }
}

impl Drop for Staged {
    fn drop(&mut self) {
        for run in self.by_source.iter().flatten() {
            remove_run(run);
        }
        let _ = std::fs::remove_dir(&self.dir);
    }
}

fn io_error(e: io::Error) -> SortError {
    SortError::Io(e.to_string())
}

/// One run's place in a merge: its decoded block, where the run's head is
/// in it, and how many of the run's blocks were read.
struct Cursor<T> {
    block: Vec<T>,
    head: usize,
    read: usize,
}

/// Streaming k-way merge over sorted runs, stable across them: ties go to
/// the run that comes first. Memory: one decoded block per run, ordered by
/// a `LoserTree` over the blocks' head keys.
pub struct RunMerger<'a, T: Sortable> {
    runs: Vec<&'a RunFile>,
    files: Vec<File>,
    cursors: Vec<Cursor<T>>,
    tree: LoserTree<T::Key>,
    remaining: usize,
    bytes: Vec<u8>,
}

impl<'a, T: Sortable> RunMerger<'a, T> {
    /// Open every run, in merge order, and read its first block.
    pub fn new(runs: impl IntoIterator<Item = &'a RunFile>) -> io::Result<Self> {
        let runs: Vec<&RunFile> = runs.into_iter().collect();
        let mut files: Vec<File> = runs
            .iter()
            .map(|run| File::open(&run.path))
            .collect::<io::Result<_>>()?;
        let mut cursors: Vec<Cursor<T>> = runs
            .iter()
            .map(|_| Cursor {
                block: Vec::new(),
                head: 0,
                read: 0,
            })
            .collect();
        let mut bytes = Vec::new();
        let heads = (0..runs.len())
            .map(|i| runs[i].next_block(&mut files[i], &mut cursors[i], &mut bytes))
            .collect::<io::Result<_>>()?;
        Ok(Self {
            remaining: runs.iter().map(|run| run.records).sum(),
            runs,
            files,
            cursors,
            tree: LoserTree::new(heads),
            bytes,
        })
    }

    /// Records left to emit.
    pub fn remaining(&self) -> usize {
        self.remaining
    }
}

impl<T: Sortable> Iterator for RunMerger<'_, T> {
    type Item = io::Result<T>;

    fn next(&mut self) -> Option<Self::Item> {
        let run = self.tree.winner()?;
        let cursor = &mut self.cursors[run];
        let record = cursor.block[cursor.head];
        cursor.head += 1;
        let head = match cursor.block.get(cursor.head) {
            Some(next) => Some(next.key()),
            None => {
                match self.runs[run].next_block(&mut self.files[run], cursor, &mut self.bytes) {
                    Ok(head) => head,
                    Err(e) => {
                        // A run that fails to read leaves the merge.
                        self.tree.replace_head(run, None);
                        return Some(Err(e));
                    }
                }
            }
        };
        self.tree.replace_head(run, head);
        self.remaining -= 1;
        Some(Ok(record))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{OrderedF32, Pad, Record, Tagged};
    use rand::prelude::*;

    /// Write each of `runs` (each sorted) with `write_run`, merge them back
    /// with `RunMerger`, and hold the result against the stable in-memory
    /// sort of their concatenation.
    fn merge_back<T: Sortable + PartialEq + std::fmt::Debug>(tag: &str, runs: &[Vec<T>]) {
        let dir =
            std::env::temp_dir().join(format!("sdssort-external-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let files: Vec<RunFile> = runs
            .iter()
            .enumerate()
            .map(|(i, run)| write_run(run, &dir.join(format!("run-{i}.bin"))).expect("write"))
            .collect();
        let mut merger = RunMerger::<T>::new(&files).expect("open");
        let mut expect: Vec<T> = runs.concat();
        assert_eq!(merger.remaining(), expect.len());
        expect.sort_by_key(Sortable::key);
        // Streaming: the count goes down one record at a time.
        if let Some(first) = merger.next() {
            assert_eq!(first.expect("io"), expect[0]);
            assert_eq!(merger.remaining(), expect.len() - 1);
        }
        let rest: Vec<T> = merger.collect::<io::Result<_>>().expect("io");
        assert_eq!(rest, expect.get(1..).unwrap_or_default(), "{tag}");
        for file in &files {
            remove_run(file);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// [`merge_back`] over `data` cut into runs of `run_records`, each
    /// stably sorted.
    fn round_trip<T: Sortable + PartialEq + std::fmt::Debug>(
        tag: &str,
        data: &[T],
        run_records: usize,
    ) {
        let runs: Vec<Vec<T>> = data
            .chunks(run_records)
            .map(|chunk| {
                let mut run = chunk.to_vec();
                run.sort_by_key(Sortable::key);
                run
            })
            .collect();
        merge_back(tag, &runs);
    }

    #[test]
    fn merged_runs_equal_the_stable_in_memory_sort() {
        let mut rng = StdRng::seed_from_u64(1);
        let ints: Vec<u64> = (0..10_000).map(|_| rng.gen_range(0..5000)).collect();
        round_trip("ints", &ints, 777);
        // Runs longer than a block, and an exact multiple of it.
        round_trip("blocks", &ints[..3 * BLOCK_RECORDS], BLOCK_RECORDS + 1);
        round_trip("aligned", &ints[..4 * BLOCK_RECORDS], 2 * BLOCK_RECORDS);
        round_trip::<u64>("empty", &[], 100);
        // One run past a power of two: the tree pads 17 leaves to 32.
        round_trip("k17", &ints[..17 * 300], 300);
        // Empty runs among full ones, first and last included.
        let full = |from: usize| {
            let mut run = ints[from..from + 2000].to_vec();
            run.sort_unstable();
            run
        };
        let holes = [
            vec![],
            full(0),
            vec![],
            vec![],
            full(2000),
            full(4000),
            vec![],
        ];
        merge_back("holes", &holes);
        // Stretches of one key that cross block boundaries in every run:
        // equal keys still come out run by run, in order within each.
        let ties: Vec<Vec<Tagged<u32>>> = (0..5u64)
            .map(|run| {
                let len = 3 * BLOCK_RECORDS as u64 + 100;
                let tagged = (0..len).map(|i| Record::new((i / 1500) as u32, run << 32 | i));
                tagged.collect()
            })
            .collect();
        merge_back("ties", &ties);
        // Payloads travel with their keys, padded layouts included, and
        // equal keys stay in run order.
        let tagged: Vec<Tagged<u32>> = (0..3000)
            .map(|i| Record::new(rng.gen_range(0..100), i))
            .collect();
        round_trip("tagged", &tagged, 500);
        let floats: Vec<Record<OrderedF32, Pad<24>>> = (0..4000)
            .map(|i| {
                let key = OrderedF32::new(rng.gen::<f32>() * 2.0 - 1.0);
                Record::new(key, Pad([i as u8; 24]))
            })
            .collect();
        round_trip("floats", &floats, 512);
    }

    /// A spilled run of tagged records is the bytes it was before those
    /// records became pods on the wire: key then tag, native-endian, record
    /// after record (the hex was recorded from the field-wise encoder, on a
    /// little-endian host).
    #[cfg(target_endian = "little")]
    #[test]
    fn tagged_run_file_bytes_match_the_recorded_field_wise_bytes() {
        const GOLDEN: &str = "0200000000000000090000000000000002000000000000000300000000000000\
                              0807060504030201010000000000000008070605040302010500000000000000\
                              ffffffffffffffff0000000000000000";
        let run: Vec<Tagged<u64>> = [
            (2, 9),
            (2, 3),
            (0x0102_0304_0506_0708, 1),
            (0x0102_0304_0506_0708, 5),
            (u64::MAX, 0),
        ]
        .into_iter()
        .map(|(key, tag)| Record::new(key, tag))
        .collect();
        let dir = std::env::temp_dir().join(format!("sdssort-golden-{}", std::process::id()));
        let file = write_run(&run, &dir.join("run.bin")).expect("write");
        let bytes = std::fs::read(&file.path).expect("read back");
        remove_run(&file);
        let _ = std::fs::remove_dir_all(&dir);
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN);
    }
}
