//! LSD radix local-sort kernel (`SdssLocalSort`'s fast path).
//!
//! Counting sort over 8-bit digits of the key's monotone `u64` embedding
//! ([`crate::record::RadixKey`], surfaced per record as
//! [`Sortable::radix_u64`]), least-significant digit first. The kernel is
//! the technique *Practical Massively Parallel Sorting* uses for the local
//! phase: branchless classification — each scatter pass is a single
//! data-independent loop with no comparisons — at `O(n)` per digit instead
//! of the comparison sort's `O(n log n)`.
//!
//! Two properties make it a drop-in replacement for both local-sort
//! variants:
//!
//! * **Stable.** LSD counting passes preserve the relative order of equal
//!   digits, and a monotone embedding maps equal keys to equal `u64`s, so
//!   the output order of equal-key records is exactly the input order —
//!   bit-identical to `std`'s stable sort (stability determines the
//!   permutation uniquely). One kernel serves `stable` and fast.
//! * **Adaptive over occupied bytes.** A pre-pass ORs together the XOR of
//!   every key against the first and only scatters the digit positions
//!   that actually differ: 32-bit-range keys cost 4 passes. The same
//!   pre-pass notices input that is already in key order (a constant
//!   array included) and stops there.
//!
//! Whether it beats the comparison sorts depends on the input, not only
//! on the key type: [`GateSample`] is what `LocalKernel::Auto` decides
//! from — few digit bytes *and* little enough duplication, where "little
//! enough" depends on whether the rival is the stable or the unstable
//! comparison sort.
//!
//! Scatter passes ping-pong between the caller's slice and a scratch
//! buffer (one allocation for the whole sort, counted by
//! [`crate::local_sort::LocalSortReport`]). When the number of active
//! digits is odd the result lies in the scratch: [`radix_sort_slice`]
//! copies it back, [`radix_sort`], which owns its scratch, swaps it in.

use crate::record::Sortable;
use std::mem::MaybeUninit;

/// Number of 8-bit digits in the `u64` embedding.
const DIGITS: u32 = 8;
/// Bucket count per digit.
const BUCKETS: usize = 256;

/// Input size below which the comparison sort wins: the radix kernel pays
/// two fixed read passes (difference mask + histograms) before the first
/// scatter, which only amortizes past a few thousand records (the
/// benchmark's `sdssort.local_sort.ms` row is where a change to it shows).
pub const RADIX_MIN_N: usize = 1 << 11;

/// Whether the radix kernel applies to `T` at input size `n`: the key must
/// have a monotone `u64` embedding and `n` must be large enough to
/// amortize the fixed passes.
#[must_use]
pub fn radix_applicable<T: Sortable>(n: usize) -> bool {
    T::RADIX && n >= RADIX_MIN_N
}

/// Most active digits *in the sample* for which [`LocalKernel::Auto`]
/// still picks the radix kernel. A scatter pass (random writes across 256
/// buckets) costs more per record than a comparison-sort level, and
/// measured break-evens against `slice::sort{,_unstable}` sit between
/// ~4.5 and ~6.5 active bytes depending on `n`, stability, and cache size.
/// Four is the conservative choice that keeps the common narrow
/// embeddings — u32/i32/f32 keys, bounded ids, day-scale timestamps — on
/// the radix path while leaving full-range 64-bit keys on the (excellent)
/// std sorts. `LocalKernel::Radix` bypasses the bound.
///
/// [`LocalKernel::Auto`]: crate::config::LocalKernel::Auto
pub const RADIX_MAX_AUTO_DIGITS: u32 = 4;

/// Most keys [`GateSample::take`] reads, whatever `n` is.
pub const GATE_MAX_SAMPLE: usize = 1024;
/// The sample is one key in this many, up to [`GATE_MAX_SAMPLE`] keys (so
/// [`RADIX_MIN_N`] records are judged from 128 of them).
const GATE_SAMPLE_EVERY: usize = 16;

/// The duplication bound of an unstable sort, as `(num, den)`:
/// [`LocalKernel::Auto`] picks radix only while the sample's most frequent
/// key holds less than `num / den` of it (`δ̂ < 1/8`). The two measured
/// sides (DESIGN.md §11.2): `zipf:0.8`, δ = 3.7 %, where LSD beats
/// `sort_unstable` 1.6–2.2×, and `zipf:1.4`, δ = 32 %, where it loses
/// 2.2–2.4× at every size — ipnsort retires a heavy key in a couple of
/// partition levels, while the scatter pass gets *slower* with
/// duplication (one bucket's offset becomes a store-to-load chain).
///
/// [`LocalKernel::Auto`]: crate::config::LocalKernel::Auto
pub const RADIX_MAX_AUTO_DUP: (usize, usize) = (1, 8);

/// The duplication bound of a stable sort (`δ̂ < 3/4`). Its rival is the
/// stable `sort_by_key`, which has no partition step to retire a heavy key
/// in: LSD beat it at δ = 32 %, 50 % and 63 % in every measurement, while
/// at 90 % one measurement had it losing and another winning (DESIGN.md
/// §11.2), so the bound stays below where they disagree.
pub const RADIX_MAX_AUTO_DUP_STABLE: (usize, usize) = (3, 4);

/// What [`LocalKernel::Auto`] saw of an input before it chose a kernel:
/// a fixed-stride sample of the keys, never more than [`GATE_MAX_SAMPLE`]
/// of them, and which sort the kernel stands in for.
///
/// [`LocalKernel::Auto`]: crate::config::LocalKernel::Auto
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateSample {
    /// Keys read: `min(n / 16, 1024)`.
    pub sampled: usize,
    /// 8-bit digit positions of the key embedding that differ anywhere in
    /// the sample — a lower bound on the scatter passes a radix sort of
    /// the whole input would run.
    pub digits: u32,
    /// Longest run of equal keys in the sorted sample; over `sampled` it is
    /// δ̂, the estimate of the paper's maximum replication ratio δ (§2.2).
    pub longest_run: usize,
    /// The sort is stable: radix competes with `sort_by_key`, under
    /// [`RADIX_MAX_AUTO_DUP_STABLE`].
    pub stable: bool,
}

impl GateSample {
    /// Sample `data` for a sort that is `stable` or not, or `None` when the
    /// radix kernel does not apply to `T` at this size at all
    /// ([`radix_applicable`]; nothing is read).
    ///
    /// Deterministic: every `n / sampled`-th key from the first on, no
    /// RNG. An input whose period matches the stride can therefore show
    /// the gate one key (or none of its heavy key); that costs time, never
    /// correctness — both kernels produce the same result.
    #[must_use]
    pub fn take<T: Sortable>(data: &[T], stable: bool) -> Option<Self> {
        let n = data.len();
        if !radix_applicable::<T>(n) {
            return None;
        }
        let sampled = (n / GATE_SAMPLE_EVERY).min(GATE_MAX_SAMPLE);
        let mut keys: Vec<u64> = data
            .iter()
            .step_by(n / sampled)
            .take(sampled)
            .map(Sortable::radix_u64)
            .collect();
        let diff = keys.iter().fold(0, |d, k| d | (k ^ keys[0]));
        keys.sort_unstable();
        let longest_run = keys
            .chunk_by(|a, b| a == b)
            .map(<[u64]>::len)
            .max()
            .unwrap_or(0);
        Some(Self {
            sampled,
            digits: active_digit_positions(diff).count() as u32,
            longest_run,
            stable,
        })
    }

    /// The duplication bound this sample is judged by, as `(num, den)`:
    /// [`RADIX_MAX_AUTO_DUP_STABLE`] for a stable sort,
    /// [`RADIX_MAX_AUTO_DUP`] otherwise.
    #[must_use]
    pub fn dup_bound(&self) -> (usize, usize) {
        if self.stable {
            RADIX_MAX_AUTO_DUP_STABLE
        } else {
            RADIX_MAX_AUTO_DUP
        }
    }

    /// The gate's verdict: few enough digits for scatter passes to beat
    /// comparison levels ([`RADIX_MAX_AUTO_DIGITS`]) and no key heavy
    /// enough to turn them into a dependent chain ([`Self::dup_bound`]).
    #[must_use]
    pub fn picks_radix(&self) -> bool {
        let (num, den) = self.dup_bound();
        self.digits <= RADIX_MAX_AUTO_DIGITS && self.longest_run * den < self.sampled * num
    }
}

/// The digit positions set in a XOR-difference mask, least significant
/// first.
fn active_digit_positions(diff: u64) -> impl Iterator<Item = u32> {
    (0..DIGITS).filter(move |d| (diff >> (8 * d)) & 0xFF != 0)
}

/// Sort `data` by key with LSD counting passes. Stable. The result is
/// always left in `data`; `scratch` is the ping-pong buffer and its
/// contents are unspecified afterwards.
///
/// # Panics
///
/// If `T` has no monotone `u64` key embedding (`T::RADIX` is false) or
/// `scratch` is shorter than `data`.
pub fn radix_sort_slice<T: Sortable>(data: &mut [T], scratch: &mut [MaybeUninit<T>]) {
    if scatter_passes(data, scratch) {
        // Odd pass count: the sorted order lives in scratch; copy it back.
        // SAFETY: the final pass initialized scratch[..n]; the regions do
        // not overlap.
        unsafe {
            std::ptr::copy_nonoverlapping(
                scratch.as_ptr().cast::<T>(),
                data.as_mut_ptr(),
                data.len(),
            );
        }
    }
}

/// The passes of [`radix_sort_slice`]: whether the sorted order ended up
/// in `scratch[..n]` (an odd number of scatter passes ran) rather than in
/// `data`.
fn scatter_passes<T: Sortable>(data: &mut [T], scratch: &mut [MaybeUninit<T>]) -> bool {
    assert!(
        T::RADIX,
        "radix kernel requires a monotone u64 key embedding"
    );
    let n = data.len();
    assert!(
        scratch.len() >= n,
        "scratch ({}) must hold the whole input ({n})",
        scratch.len()
    );
    if n < 2 {
        return false;
    }

    // Pre-pass: which digit positions differ at all, and is there anything
    // to do? Input already in key order (all keys equal included) is the
    // stable sort's own output, so it costs this one scan, as it does
    // `std`'s sorts.
    let first = data[0].radix_u64();
    let mut diff = 0u64;
    let mut prev = first;
    let mut sorted = true;
    for r in data.iter() {
        let k = r.radix_u64();
        diff |= k ^ first;
        sorted &= prev <= k;
        prev = k;
    }
    if sorted {
        return false;
    }
    let active: Vec<u32> = active_digit_positions(diff).collect();

    // One read pass builds the histogram of every active digit.
    let mut hist = vec![[0usize; BUCKETS]; active.len()];
    for r in data.iter() {
        let k = r.radix_u64();
        for (h, &d) in hist.iter_mut().zip(&active) {
            h[(k >> (8 * d)) as usize & 0xFF] += 1;
        }
    }

    // Scatter passes, least-significant active digit first, ping-ponging
    // between `data` and `scratch`.
    let mut in_data = true;
    for (h, &d) in hist.iter().zip(&active) {
        // Exclusive prefix sum: offs[b] = start of bucket b.
        let mut offs = [0usize; BUCKETS];
        let mut acc = 0usize;
        for (o, &c) in offs.iter_mut().zip(h.iter()) {
            *o = acc;
            acc += c;
        }
        debug_assert_eq!(acc, n);

        let (src, dst) = if in_data {
            (data.as_ptr(), scratch.as_mut_ptr().cast::<T>())
        } else {
            (scratch.as_ptr().cast::<T>(), data.as_mut_ptr())
        };
        // SAFETY: `src` and `dst` are distinct allocations each covering
        // ≥ n records. Reads from `scratch` happen only on passes after it
        // was fully written (every pass writes all n slots: the histogram
        // counts sum to n and each slot `offs[b]` is written exactly once
        // before being incremented). Writes target `MaybeUninit<T>` or
        // initialized `T` storage; `T: Copy` so no drops are skipped.
        unsafe {
            for i in 0..n {
                let rec = *src.add(i);
                let b = (rec.radix_u64() >> (8 * d)) as usize & 0xFF;
                let o = offs[b];
                *dst.add(o) = rec;
                offs[b] = o + 1;
            }
        }
        in_data = !in_data;
    }
    !in_data
}

/// [`radix_sort_slice`] with a scratch buffer of its own. Where an odd
/// number of passes leaves the sorted order in the scratch, the scratch
/// becomes `data` (and `data`'s old buffer is freed) instead of being
/// copied back. Returns the scratch bytes it allocated (0 below two
/// records).
pub fn radix_sort<T: Sortable>(data: &mut Vec<T>) -> usize {
    let n = data.len();
    if n < 2 {
        return 0;
    }
    let mut scratch: Vec<T> = comm::pages::with_capacity(n);
    if scatter_passes(data, &mut scratch.spare_capacity_mut()[..n]) {
        // SAFETY: the final scatter pass wrote every one of the scratch's
        // first `n` slots, which its capacity holds.
        unsafe {
            scratch.set_len(n);
        }
        std::mem::swap(data, &mut scratch);
    }
    n * std::mem::size_of::<T>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{OrderedF32, Record, Tagged};
    use comm::Wire;
    use rand::prelude::*;
    use std::cell::Cell;

    fn sorted_by_radix<T: Sortable>(mut v: Vec<T>) -> Vec<T> {
        radix_sort(&mut v);
        v
    }

    #[test]
    fn matches_std_on_random_u64() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [0usize, 1, 2, 3, 1000, 4096, 10_000] {
            let a: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
            let mut b = a.clone();
            b.sort_unstable();
            assert_eq!(sorted_by_radix(a), b, "n={n}");
        }
    }

    #[test]
    fn matches_std_on_narrow_range() {
        // Only the low byte differs: exactly one scatter pass (odd count
        // exercises the copy-back).
        let mut rng = StdRng::seed_from_u64(8);
        let a: Vec<u64> = (0..5000).map(|_| rng.gen_range(0..256)).collect();
        let mut b = a.clone();
        b.sort_unstable();
        assert_eq!(sorted_by_radix(a), b);
    }

    #[test]
    fn signed_and_float_keys_sort_by_value() {
        let mut rng = StdRng::seed_from_u64(9);
        let a: Vec<i64> = (0..4000).map(|_| rng.gen_range(-1000..1000)).collect();
        let mut b = a.clone();
        b.sort_unstable();
        assert_eq!(sorted_by_radix(a), b);

        let f: Vec<OrderedF32> = (0..4000)
            .map(|_| OrderedF32::new(rng.gen_range(-10.0f32..10.0)))
            .collect();
        let mut g = f.clone();
        g.sort_unstable();
        assert_eq!(sorted_by_radix(f), g);
    }

    #[test]
    fn stable_on_records_bit_identical_to_std_stable() {
        let mut rng = StdRng::seed_from_u64(10);
        let a: Vec<Record<u32, u64>> = (0..8000)
            .map(|i| Record::new(rng.gen_range(0..50), i))
            .collect();
        let mut expect = a.clone();
        expect.sort_by_key(|r| r.key);
        assert_eq!(sorted_by_radix(a), expect);
    }

    #[test]
    fn all_equal_keys_do_no_passes() {
        let a: Vec<Record<u32, u64>> = (0..100).map(|i| Record::new(7, i)).collect();
        // unchanged order (stability on a constant key = identity)
        assert_eq!(sorted_by_radix(a.clone()), a);
    }

    #[test]
    fn presorted_and_reverse_inputs() {
        let asc: Vec<u64> = (0..5000).collect();
        assert_eq!(sorted_by_radix(asc.clone()), asc);
        let desc: Vec<u64> = (0..5000).rev().collect();
        assert_eq!(sorted_by_radix(desc), asc);
    }

    #[test]
    fn applicability_honours_key_and_size() {
        assert!(radix_applicable::<u64>(RADIX_MIN_N));
        assert!(!radix_applicable::<u64>(RADIX_MIN_N - 1));
        assert!(!radix_applicable::<u128>(1 << 20));
        assert!(radix_applicable::<Record<OrderedF32, u64>>(1 << 20));
    }

    #[test]
    fn radix_leaves_presorted_input_and_scratch_untouched() {
        // Narrow keys (two active digits), already in order: the pre-pass
        // sees that and returns before any histogram or scatter pass.
        const SENTINEL: u64 = 0xDEAD_BEEF_DEAD_BEEF;
        let asc: Vec<Record<u32, u64>> = (0..5000).map(|i| Record::new(i / 3, i as u64)).collect();
        let mut data = asc.clone();
        let mut scratch = vec![MaybeUninit::new(Record::new(u32::MAX, SENTINEL)); data.len()];
        radix_sort_slice(&mut data, &mut scratch);
        assert_eq!(data, asc);
        for slot in &scratch {
            // SAFETY: every slot was initialized by `vec!` above, and a
            // scatter pass would only have overwritten it with another
            // initialized record.
            let rec = unsafe { slot.assume_init() };
            assert_eq!(rec, Record::new(u32::MAX, SENTINEL));
        }
        // One inversion at the very end is enough to need the passes.
        data[4999].key = 0;
        radix_sort_slice(&mut data, &mut scratch);
        assert!(data.windows(2).all(|w| w[0].key <= w[1].key));
    }

    #[test]
    fn radix_sort_swaps_the_scratch_in_after_an_odd_pass_count() {
        let mut rng = StdRng::seed_from_u64(12);
        const N: usize = 5000;
        // Keys below 2^8, 2^16, 2^24: one, two and three scatter passes.
        for (bits, odd) in [(8, true), (16, false), (24, true)] {
            let input: Vec<Tagged<u64>> = (0..N as u64)
                .map(|i| Record::new(rng.gen_range(0..1u64 << bits), i))
                .collect();
            let mut expect = input.clone();
            expect.sort_by_key(|r| r.key);
            let mut data = input;
            let before = data.as_ptr();
            assert_eq!(radix_sort(&mut data), N * 16, "{bits}-bit keys");
            assert_eq!(data, expect, "{bits}-bit keys");
            assert_eq!(data.as_ptr() != before, odd, "{bits}-bit keys: swapped?");
        }
        // Presorted: the pre-pass returns, nothing is swapped, and the
        // scratch it allocated is still reported.
        let asc: Vec<Tagged<u64>> = (0..N as u64).map(|i| Record::new(i / 3, i)).collect();
        let mut data = asc.clone();
        let before = data.as_ptr();
        assert_eq!(radix_sort(&mut data), N * 16);
        assert_eq!((data.as_ptr(), &data), (before, &asc));
        assert_eq!(radix_sort(&mut vec![Record::new(1u64, 0u64)]), 0);
    }

    #[test]
    fn radix_gate_table() {
        let n = 1usize << 14;
        let mut rng = StdRng::seed_from_u64(11);
        // One key with probability `heavy`, the rest uniform below `range`.
        let mut skewed = |heavy: f64, range: u64| -> Vec<u64> {
            (0..n)
                .map(|_| {
                    if rng.gen_bool(heavy) {
                        1
                    } else {
                        rng.gen_range(0..range)
                    }
                })
                .collect()
        };
        // (name, input, radix for an unstable sort, radix for a stable one)
        let table: Vec<(&str, Vec<u64>, bool, bool)> = vec![
            (
                "zipf:1.4-like, one key ~32 %",
                skewed(0.32, 1 << 20),
                false,
                true,
            ),
            (
                "zipf:2.1-like, one key ~63 %",
                skewed(0.63, 1 << 20),
                false,
                true,
            ),
            ("90 % one key", skewed(0.9, 1000), false, false),
            ("all equal", vec![42; n], false, false),
            ("0..n", (0..n as u64).collect(), true, true),
            ("reversed", (0..n as u64).rev().collect(), true, true),
            ("uniform, u32 range", skewed(0.0, 1 << 32), true, true),
            (
                "zipf:0.8-like, one key ~4 %",
                skewed(0.04, 1 << 16),
                true,
                true,
            ),
            ("uniform, full range", skewed(0.0, u64::MAX), false, false),
        ];
        for (name, data, unstable, stable) in &table {
            for (is_stable, radix) in [(false, unstable), (true, stable)] {
                let g = GateSample::take(data, is_stable).expect(name);
                assert_eq!(g.sampled, GATE_MAX_SAMPLE, "{name}");
                assert_eq!(g.stable, is_stable, "{name}");
                assert_eq!(g.picks_radix(), *radix, "{name}: {g:?}");
            }
        }
        // What the sample of `0..n` shows: stride 16 hides the low nibble
        // only, and no key repeats.
        let g = GateSample::take(&table[4].1, false).unwrap();
        assert_eq!((g.digits, g.longest_run), (2, 1));
        let g = GateSample::take(&table[3].1, false).unwrap();
        assert_eq!((g.digits, g.longest_run), (0, GATE_MAX_SAMPLE));
        assert_eq!(g.dup_bound(), RADIX_MAX_AUTO_DUP);
        let g = GateSample::take(&table[3].1, true).unwrap();
        assert_eq!(g.dup_bound(), RADIX_MAX_AUTO_DUP_STABLE);

        // Below the size floor, and for keys with no `u64` embedding,
        // nothing is sampled at all.
        let narrow: Vec<u64> = (0..RADIX_MIN_N as u64).collect();
        let g = GateSample::take(&narrow, false).expect("at the floor");
        assert_eq!(g.sampled, 128);
        assert!(g.picks_radix());
        assert_eq!(GateSample::take(&narrow[..RADIX_MIN_N - 1], false), None);
        assert_eq!(GateSample::take(&narrow[..RADIX_MIN_N - 1], true), None);
        let wide: Vec<u128> = (0..n as u128).collect();
        assert_eq!(GateSample::take(&wide, true), None);
    }

    thread_local! {
        /// Records [`CountedKey`] was asked for on this thread.
        static KEY_READS: Cell<usize> = const { Cell::new(0) };
    }

    /// A `u64` that counts every look at its key, whichever way.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct CountedKey(u64);

    impl Wire for CountedKey {
        fn put(&self, out: &mut Vec<u8>) {
            self.0.put(out);
        }
        fn get(src: &mut &[u8]) -> Option<Self> {
            u64::get(src).map(Self)
        }
    }

    impl Sortable for CountedKey {
        type Key = u64;
        fn key(&self) -> u64 {
            KEY_READS.set(KEY_READS.get() + 1);
            self.0
        }
        const RADIX: bool = true;
        fn radix_u64(&self) -> u64 {
            self.key()
        }
    }

    #[test]
    fn radix_gate_reads_at_most_1024_records() {
        for n in [RADIX_MIN_N, 5000, 1 << 14, (1 << 16) + 17] {
            let data: Vec<CountedKey> = (0..n as u64).map(CountedKey).collect();
            KEY_READS.set(0);
            let g = GateSample::take(&data, false).unwrap();
            let reads = KEY_READS.get();
            assert_eq!(reads, g.sampled, "n={n}");
            assert_eq!(reads, (n / 16).min(1024), "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "scratch")]
    fn short_scratch_is_rejected() {
        let mut data = vec![3u64, 1, 2];
        let mut scratch: Vec<MaybeUninit<u64>> = Vec::new();
        radix_sort_slice(&mut data, &mut scratch);
    }

    #[test]
    #[should_panic(expected = "monotone u64 key embedding")]
    fn non_radix_key_is_rejected() {
        let mut data = vec![3u128, 1, 2];
        let mut scratch: Vec<MaybeUninit<u128>> = vec![MaybeUninit::uninit(); 3];
        radix_sort_slice(&mut data, &mut scratch);
    }
}
