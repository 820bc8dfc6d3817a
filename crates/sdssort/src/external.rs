//! Sorted runs on disk: written once, streamed back through a k-way merge.
//!
//! The paper's related work separates in-memory sorters (SDS-Sort,
//! HykSort) from disk-based ones (TritonSort, NTOSort) and assumes "enough
//! memory to hold data in core". [`crate::resilience`] removes that
//! assumption for the receive side of the exchange: every received chunk is
//! already sorted, so it is spilled as ready-made runs with [`write_run`]
//! and [`RunMerger`] streams their merge back.
//!
//! A run's bytes are the records' [`comm::Wire`] encoding — the one record
//! codec, so whatever can be sorted can be spilled — in blocks of 1 024
//! records, each decoded whole with `Wire::get_vec`. A block that comes back
//! short or does not decode to its records is an error naming the file,
//! never a shorter output.

use crate::merge::{is_sorted_by_key, HeapEntry};
use crate::record::Sortable;
use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Records per block of a run file: what one run keeps decoded during a
/// merge.
const BLOCK_RECORDS: usize = 1024;

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
}

/// Write one *already sorted* chunk as a run file at `path`. It is never
/// re-sorted, so a stably sorted chunk keeps its order on disk — the
/// resilient exchange relies on this to stay stable when it spills.
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

/// Streaming k-way merge over sorted runs, stable across them: ties go to
/// the run that comes first in `runs`. Memory: one decoded block per run.
pub struct RunMerger<'a, T: Sortable> {
    runs: &'a [RunFile],
    files: Vec<File>,
    /// Each run's current block, and how many of its blocks were read.
    blocks: Vec<(Vec<T>, usize)>,
    /// One entry per run with records left; `pos` indexes its block.
    heap: BinaryHeap<HeapEntry<T::Key>>,
    remaining: usize,
    bytes: Vec<u8>,
}

impl<'a, T: Sortable> RunMerger<'a, T> {
    /// Open every run and read its first block.
    pub fn new(runs: &'a [RunFile]) -> io::Result<Self> {
        let files = runs.iter().map(|run| File::open(&run.path));
        let mut merger = Self {
            runs,
            files: files.collect::<io::Result<_>>()?,
            blocks: runs.iter().map(|_| (Vec::new(), 0)).collect(),
            heap: BinaryHeap::with_capacity(runs.len()),
            remaining: runs.iter().map(|run| run.records).sum(),
            bytes: Vec::new(),
        };
        for run in 0..runs.len() {
            merger.next_block(run)?;
        }
        Ok(merger)
    }

    /// Records left to emit.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Replace `run`'s block by its next one and queue that block's first
    /// record; a run with no block left leaves the merge.
    fn next_block(&mut self, run: usize) -> io::Result<()> {
        let runs = self.runs;
        let rf = &runs[run];
        let (block, read) = &mut self.blocks[run];
        let Some(&len) = rf.block_bytes.get(*read) else {
            return Ok(());
        };
        let want = (rf.records - *read * BLOCK_RECORDS).min(BLOCK_RECORDS);
        self.bytes.resize(len, 0);
        self.files[run]
            .read_exact(&mut self.bytes)
            .map_err(|e| rf.corrupt(e))?;
        *block = T::get_vec(&self.bytes)
            .filter(|b| b.len() == want)
            .ok_or_else(|| rf.corrupt(format_args!("block {read} is not its {want} records")))?;
        *read += 1;
        self.heap.push(HeapEntry {
            key: block[0].key(),
            run,
            pos: 0,
        });
        Ok(())
    }
}

impl<T: Sortable> Iterator for RunMerger<'_, T> {
    type Item = io::Result<T>;

    fn next(&mut self) -> Option<Self::Item> {
        let HeapEntry { run, pos, .. } = self.heap.pop()?;
        let block = &self.blocks[run].0;
        let record = block[pos];
        match block.get(pos + 1) {
            Some(next) => self.heap.push(HeapEntry {
                key: next.key(),
                run,
                pos: pos + 1,
            }),
            None => {
                if let Err(e) = self.next_block(run) {
                    return Some(Err(e));
                }
            }
        }
        self.remaining -= 1;
        Some(Ok(record))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{OrderedF32, Pad, Record, Tagged};
    use rand::prelude::*;

    /// Cut `data` into runs of `run_records`, each stably sorted and written
    /// with `write_run`, merge them back with `RunMerger`, and hold the
    /// result against the stable in-memory sort.
    fn round_trip<T: Sortable + PartialEq + std::fmt::Debug>(
        tag: &str,
        data: &[T],
        run_records: usize,
    ) {
        let dir =
            std::env::temp_dir().join(format!("sdssort-external-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let runs: Vec<RunFile> = data
            .chunks(run_records)
            .enumerate()
            .map(|(i, chunk)| {
                let mut chunk = chunk.to_vec();
                chunk.sort_by_key(Sortable::key);
                write_run(&chunk, &dir.join(format!("run-{i}.bin"))).expect("write")
            })
            .collect();
        let mut merger = RunMerger::<T>::new(&runs).expect("open");
        assert_eq!(merger.remaining(), data.len());
        let mut expect = data.to_vec();
        expect.sort_by_key(Sortable::key);
        // Streaming: the count goes down one record at a time.
        if let Some(first) = merger.next() {
            assert_eq!(first.expect("io"), expect[0]);
            assert_eq!(merger.remaining(), data.len() - 1);
        }
        let rest: Vec<T> = merger.collect::<io::Result<_>>().expect("io");
        assert_eq!(rest, expect.get(1..).unwrap_or_default());
        for run in &runs {
            remove_run(run);
        }
        let _ = std::fs::remove_dir_all(&dir);
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
