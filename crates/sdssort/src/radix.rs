//! LSD radix local-sort kernel (`SdssLocalSort`'s fast path).
//!
//! Counting sort over digits of the key's monotone `u64` embedding
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
//! * **Sized to the key span.** A pre-pass ([`KeySpan::scan`]) ORs together
//!   the XOR of every key against the first. Its bit length `b` is the
//!   span: every key agrees with the first above bit `b`. The pre-pass
//!   decides the [`RadixForm`]:
//!   - input already in key order (a constant array included) stops there;
//!   - when `2^b ≤ n`, one counting pass over `2^b` buckets sorts it all.
//!     Records are scattered once through the scratch; key-only records
//!     ([`Sortable::KEY_ONLY`], the primitive integers) are their own key,
//!     so each key's run is written back in place from its count, with no
//!     scratch at all;
//!   - otherwise one 8-bit scatter pass runs per digit position that
//!     differs anywhere: 32-bit-range keys cost 4 passes.
//!
//! Whether it beats the comparison sorts depends on the input, not only
//! on the key type: [`GateSample`] is what `LocalKernel::Auto` decides
//! from — a span that fits one counting pass, or else few digit bytes
//! *and* little enough duplication, where "little enough" depends on
//! whether the rival is the stable or the unstable comparison sort.
//!
//! Scatter passes ping-pong between the caller's slice and a scratch
//! buffer (one allocation for the whole sort, counted by
//! [`crate::local_sort::LocalSortReport`]). When the number of passes is
//! odd the result lies in the scratch: [`radix_sort_slice`] copies it
//! back, [`radix_sort`], which owns its scratch, swaps it in.

use crate::local_sort::ComparisonKernel;
use crate::record::Sortable;
use std::fmt;
use std::mem::MaybeUninit;

/// Number of 8-bit digits in the `u64` embedding.
const DIGITS: u32 = 8;
/// Bucket count per 8-bit digit.
const BUCKETS: usize = 256;

/// Input size below which the comparison sort wins: the radix kernel pays
/// two fixed read passes (difference mask + histograms) before the first
/// scatter, which only amortizes past a few thousand records (the
/// benchmark's `sdssort.local_sort.ms` row is where a change to it shows).
pub const RADIX_MIN_N: usize = 1 << 11;

/// Most records the kernel sorts: its bucket counts and offsets are
/// `u32`, half the cache footprint of `usize` ones (measured on the
/// `2^20`-bucket counting pass, DESIGN.md §11.2).
pub const RADIX_MAX_N: usize = u32::MAX as usize;

/// Whether the radix kernel applies to `T` at input size `n`: the key must
/// have a monotone `u64` embedding and `n` must be large enough to
/// amortize the fixed passes, and no larger than [`RADIX_MAX_N`].
#[must_use]
pub fn radix_applicable<T: Sortable>(n: usize) -> bool {
    T::RADIX && (RADIX_MIN_N..=RADIX_MAX_N).contains(&n)
}

/// Whether keys spanning `bits` bits sort in one counting pass at input
/// size `n`: the `2^bits` buckets are no more than the records.
#[must_use]
pub fn counts_in_one_pass(bits: u32, n: usize) -> bool {
    bits < usize::BITS && 1usize << bits <= n
}

/// Most active digits *in the sample* for which [`LocalKernel::Auto`]
/// still picks byte passes. A scatter pass (random writes across 256
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

/// Most active digits for which [`LocalKernel::Auto`] still picks byte
/// passes when the rival is [`crate::vsort`]'s AVX-512 quicksort: plain
/// `u64` keys on a CPU that has it. Measured on one thread of the 2-vCPU
/// guest (DESIGN.md §11.2): 3 and 4 byte passes lose 1.9–4.6× from 2¹⁶ to
/// 2²¹ keys; 2 passes lose 1.1–1.9× from 10 000 keys up, and read from a
/// 10 % win to a 1.5× loss from 2 048 to 5 000. One digit is a span of 8
/// bits, which one counting pass covers at every size the gate samples,
/// so byte passes do not run against the vector quicksort.
///
/// [`LocalKernel::Auto`]: crate::config::LocalKernel::Auto
pub const RADIX_MAX_AUTO_DIGITS_VS_VECTOR: u32 = 1;

/// Most keys [`GateSample::take`] reads, whatever `n` is.
pub const GATE_MAX_SAMPLE: usize = 1024;
/// The sample is one key in this many, up to [`GATE_MAX_SAMPLE`] keys (so
/// [`RADIX_MIN_N`] records are judged from 128 of them).
const GATE_SAMPLE_EVERY: usize = 16;

/// The duplication bound of an unstable sort, as `(num, den)`:
/// [`LocalKernel::Auto`] picks byte passes only while the sample's most
/// frequent key holds less than `num / den` of it (`δ̂ < 1/8`). The two
/// measured sides (DESIGN.md §11.2): `zipf:0.8`, δ = 3.7 %, where LSD
/// beats `sort_unstable` 1.6–2.2×, and `zipf:1.4`, δ = 32 %, where it
/// loses 2.2–2.4× at every size — ipnsort retires a heavy key in a couple
/// of partition levels, while the scatter pass gets *slower* with
/// duplication (one bucket's offset becomes a store-to-load chain). One
/// counting pass over the whole span is not held to this bound.
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
    /// Bit length of the sample's XOR-difference: a lower bound on the
    /// span of the whole input ([`KeySpan::bits`]). When it fits one
    /// counting pass ([`counts_in_one_pass`]), `Auto` runs the pre-pass
    /// and the exact span decides.
    pub span: u32,
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
    /// Radix competes with [`crate::vsort`]'s AVX-512 quicksort (plain
    /// `u64` keys on a CPU that has it), under
    /// [`RADIX_MAX_AUTO_DIGITS_VS_VECTOR`].
    pub vector_rival: bool,
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
            span: span_bits(diff),
            digits: active_digit_positions(diff).count() as u32,
            longest_run,
            stable,
            vector_rival: ComparisonKernel::for_records::<T>() == ComparisonKernel::Avx512,
        })
    }

    /// The most active digits this sample may show for byte passes:
    /// [`RADIX_MAX_AUTO_DIGITS_VS_VECTOR`] against the vector quicksort,
    /// [`RADIX_MAX_AUTO_DIGITS`] against `std`'s sorts.
    #[must_use]
    pub fn max_digits(&self) -> u32 {
        if self.vector_rival {
            RADIX_MAX_AUTO_DIGITS_VS_VECTOR
        } else {
            RADIX_MAX_AUTO_DIGITS
        }
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

    /// The gate's verdict for byte passes: few enough digits for scatter
    /// passes to beat comparison levels ([`Self::max_digits`]) and no
    /// key heavy enough to turn them into a dependent chain
    /// ([`Self::dup_bound`]). `Auto` asks it when the span does not fit
    /// one counting pass.
    #[must_use]
    pub fn picks_radix(&self) -> bool {
        let (num, den) = self.dup_bound();
        self.digits <= self.max_digits() && self.longest_run * den < self.sampled * num
    }
}

/// The digit positions set in a XOR-difference mask, least significant
/// first.
fn active_digit_positions(diff: u64) -> impl Iterator<Item = u32> {
    (0..DIGITS).filter(move |d| (diff >> (8 * d)) & 0xFF != 0)
}

/// The bit length of a XOR-difference mask.
fn span_bits(diff: u64) -> u32 {
    u64::BITS - diff.leading_zeros()
}

/// What the kernel's pre-pass reads off a whole input: every key's
/// embedding XORed against the first's and ORed together, and whether the
/// keys are already in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeySpan {
    n: usize,
    first: u64,
    diff: u64,
    in_order: bool,
}

impl KeySpan {
    /// One read pass over `data`'s keys.
    #[must_use]
    pub fn scan<T: Sortable>(data: &[T]) -> Self {
        let first = data.first().map_or(0, Sortable::radix_u64);
        let mut diff = 0u64;
        let mut prev = first;
        let mut in_order = true;
        for r in data {
            let k = r.radix_u64();
            diff |= k ^ first;
            in_order &= prev <= k;
            prev = k;
        }
        Self {
            n: data.len(),
            first,
            diff,
            in_order,
        }
    }

    /// The span `b`: the bit length of the XOR-difference. Every key
    /// agrees with the first above bit `b`, so the low `b` bits order them.
    #[must_use]
    pub fn bits(&self) -> u32 {
        span_bits(self.diff)
    }

    /// What a radix sort of the scanned input runs.
    fn run<T: Sortable>(&self) -> RadixRun {
        let span = self.bits();
        let form = if self.in_order {
            RadixForm::InOrder
        } else if counts_in_one_pass(span, self.n) {
            if T::KEY_ONLY {
                RadixForm::Counted
            } else {
                RadixForm::OnePass
            }
        } else {
            RadixForm::BytePasses(active_digit_positions(self.diff).count() as u32)
        };
        RadixRun {
            n: self.n,
            span,
            form,
        }
    }
}

/// The form a radix sort took, as its pre-pass decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RadixForm {
    /// The keys were already in order: the pre-pass was the whole sort.
    InOrder,
    /// One stable counting pass over `2^span` buckets, scattering the
    /// records once through the scratch.
    OnePass,
    /// Key-only records counted over `2^span` buckets, each key's run
    /// written back in place from its count: no scratch.
    Counted,
    /// This many 8-bit scatter passes: `2^span` buckets would outnumber
    /// the records.
    BytePasses(u32),
}

/// What one radix sort did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RadixRun {
    /// Records sorted.
    pub n: usize,
    /// The key span in bits ([`KeySpan::bits`]).
    pub span: u32,
    /// The form it took.
    pub form: RadixForm,
}

impl RadixRun {
    /// Whether the sort scattered through a scratch buffer.
    #[must_use]
    pub fn scatters(&self) -> bool {
        matches!(self.form, RadixForm::OnePass | RadixForm::BytePasses(_))
    }
}

impl fmt::Display for RadixRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.span;
        match self.form {
            RadixForm::InOrder => write!(f, "already in key order, pre-pass only")?,
            RadixForm::OnePass => write!(f, "one counting pass over 2^{b} buckets")?,
            RadixForm::Counted => write!(f, "keys counted in place over 2^{b} buckets")?,
            RadixForm::BytePasses(1) => write!(f, "one byte pass")?,
            RadixForm::BytePasses(k) => write!(f, "{k} byte passes")?,
        }
        write!(f, " (span {b} bits, n {})", self.n)
    }
}

/// Sort `data` by key with LSD counting passes. Stable. The result is
/// always left in `data`; `scratch` is the ping-pong buffer and its
/// contents are unspecified afterwards.
///
/// # Panics
///
/// If `T` has no monotone `u64` key embedding (`T::RADIX` is false) or
/// `scratch` is shorter than `data`.
pub fn radix_sort_slice<T: Sortable>(data: &mut [T], scratch: &mut [MaybeUninit<T>]) -> RadixRun {
    assert!(
        scratch.len() >= data.len(),
        "scratch ({}) must hold the whole input ({})",
        scratch.len(),
        data.len()
    );
    let span = scanned(data, None);
    let run = span.run::<T>();
    if sort_scanned(data, scratch, &span, run.form) {
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
    run
}

/// `span` when the caller scanned `data` already, else the pre-pass now.
fn scanned<T: Sortable>(data: &[T], span: Option<KeySpan>) -> KeySpan {
    assert!(
        T::RADIX,
        "radix kernel requires a monotone u64 key embedding"
    );
    assert!(
        data.len() <= RADIX_MAX_N,
        "radix kernel sorts at most {RADIX_MAX_N} records"
    );
    let span = span.unwrap_or_else(|| KeySpan::scan(data));
    assert_eq!(
        span.n,
        data.len(),
        "the key span was scanned from this input"
    );
    span
}

/// Sort `data` in `form`, which `span` (its pre-pass) chose: whether the
/// sorted order ended up in `scratch[..n]` (an odd number of scatter
/// passes ran) rather than in `data`. Only a scattering form reads
/// `scratch`.
fn sort_scanned<T: Sortable>(
    data: &mut [T],
    scratch: &mut [MaybeUninit<T>],
    span: &KeySpan,
    form: RadixForm,
) -> bool {
    let n = data.len();
    // The bucket counts, in one read pass: of the one digit of `span` bits
    // (`2^span` buckets), or of each active byte (256 buckets each, as
    // `(shift, counts)`).
    let mut one_pass = None;
    let mut bytes = Vec::new();
    match form {
        RadixForm::InOrder => return false,
        RadixForm::Counted => {
            count_in_place(data, span);
            return false;
        }
        RadixForm::OnePass => {
            let mask = (1u64 << span.bits()) - 1;
            let mut counts = vec![0u32; mask as usize + 1];
            for r in data.iter() {
                counts[(r.radix_u64() & mask) as usize] += 1;
            }
            one_pass = Some((mask, counts));
        }
        RadixForm::BytePasses(_) => {
            bytes = active_digit_positions(span.diff)
                .map(|d| (8 * d, [0u32; BUCKETS]))
                .collect();
            for r in data.iter() {
                let k = r.radix_u64();
                for (shift, h) in &mut bytes {
                    h[(k >> *shift) as usize & 0xFF] += 1;
                }
            }
        }
    }

    // One stable scatter by the digit `(key >> shift) & mask`, from `data`
    // into `scratch` or back; `offs[d]` holds digit d's first slot and is
    // consumed.
    let mut scatter = |to_scratch: bool, shift: u32, mask: u64, offs: &mut [u32]| {
        let (src, dst) = if to_scratch {
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
                let b = ((rec.radix_u64() >> shift) & mask) as usize;
                let o = offs[b];
                *dst.add(o as usize) = rec;
                offs[b] = o + 1;
            }
        }
    };
    if let Some((mask, offs)) = &mut one_pass {
        exclusive_prefix_sum(offs, n);
        scatter(true, 0, *mask, offs);
        return true;
    }
    // Least-significant byte first, ping-ponging between `data` and
    // `scratch`.
    let mut in_data = true;
    for (shift, offs) in &mut bytes {
        exclusive_prefix_sum(offs, n);
        scatter(in_data, *shift, 0xFF, offs);
        in_data = !in_data;
    }
    !in_data
}

/// Turn bucket counts into each bucket's first slot, in place.
fn exclusive_prefix_sum(counts: &mut [u32], n: usize) {
    let mut acc = 0u32;
    for c in counts {
        let here = *c;
        *c = acc;
        acc += here;
    }
    debug_assert_eq!(acc as usize, n);
}

/// The key-only form: count every key's low `span` bits over `2^span`
/// buckets, then write each key's run back in order from its count. Equal
/// keys are equal records, so this is the stable sort's output too.
fn count_in_place<T: Sortable>(data: &mut [T], span: &KeySpan) {
    let mask = (1u64 << span.bits()) - 1;
    let high = span.first & !mask;
    let mut counts = vec![0u32; mask as usize + 1];
    for r in data.iter() {
        counts[(r.radix_u64() & mask) as usize] += 1;
    }
    let mut at = 0;
    for (low, &c) in counts.iter().enumerate() {
        let c = c as usize;
        if c > 0 {
            data[at..at + c].fill(T::from_radix_u64(high | low as u64));
            at += c;
        }
    }
}

/// [`radix_sort_slice`] with a scratch buffer of its own, allocated only
/// when the form scatters. Where an odd number of passes leaves the sorted
/// order in the scratch, the scratch becomes `data` (and `data`'s old
/// buffer is freed) instead of being copied back. `span` is `data`'s
/// pre-pass when the caller already ran it ([`KeySpan::scan`]); `None`
/// runs it here.
///
/// # Panics
///
/// If `T` has no monotone `u64` key embedding, or `span` was scanned from
/// an input of another length.
pub fn radix_sort<T: Sortable>(data: &mut Vec<T>, span: Option<KeySpan>) -> RadixRun {
    let span = scanned(data, span);
    let run = span.run::<T>();
    if !run.scatters() {
        sort_scanned(data, &mut [], &span, run.form);
        return run;
    }
    let n = data.len();
    let mut scratch: Vec<T> = comm::pages::with_capacity(n);
    if sort_scanned(
        data,
        &mut scratch.spare_capacity_mut()[..n],
        &span,
        run.form,
    ) {
        // SAFETY: the final scatter pass wrote every one of the scratch's
        // first `n` slots, which its capacity holds.
        unsafe {
            scratch.set_len(n);
        }
        std::mem::swap(data, &mut scratch);
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{OrderedF32, OrderedF64, Record, Tagged};
    use comm::Wire;
    use rand::prelude::*;
    use std::cell::Cell;

    fn sorted_by_radix<T: Sortable>(mut v: Vec<T>) -> Vec<T> {
        radix_sort(&mut v, None);
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
        // Keys below 2^8 (one counting pass over 256 buckets), 2^16 and
        // 2^24 (more buckets than records: two and three byte passes).
        for (bits, form, odd) in [
            (8, RadixForm::OnePass, true),
            (16, RadixForm::BytePasses(2), false),
            (24, RadixForm::BytePasses(3), true),
        ] {
            let input: Vec<Tagged<u64>> = (0..N as u64)
                .map(|i| Record::new(rng.gen_range(0..1u64 << bits), i))
                .collect();
            let mut expect = input.clone();
            expect.sort_by_key(|r| r.key);
            let mut data = input;
            let before = data.as_ptr();
            let run = radix_sort(&mut data, None);
            assert_eq!(
                (run.n, run.span, run.form),
                (N, bits, form),
                "{bits}-bit keys"
            );
            assert!(run.scatters(), "{bits}-bit keys");
            assert_eq!(data, expect, "{bits}-bit keys");
            assert_eq!(data.as_ptr() != before, odd, "{bits}-bit keys: swapped?");
        }
        // Presorted: the pre-pass returns before any scratch is allocated,
        // and nothing is swapped.
        let asc: Vec<Tagged<u64>> = (0..N as u64).map(|i| Record::new(i / 3, i)).collect();
        let mut data = asc.clone();
        let before = data.as_ptr();
        let run = radix_sort(&mut data, None);
        assert_eq!((run.form, run.scatters()), (RadixForm::InOrder, false));
        assert_eq!((data.as_ptr(), &data), (before, &asc));
        let one = radix_sort(&mut vec![Record::new(1u64, 0u64)], None);
        assert_eq!((one.form, one.span), (RadixForm::InOrder, 0));
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
        // (name, input, radix for an unstable sort and for a stable one
        // against `std`'s sorts, then both against the vector quicksort,
        // which takes byte passes of at most one digit)
        type Row = (&'static str, Vec<u64>, [bool; 2], [bool; 2]);
        let table: Vec<Row> = vec![
            (
                "zipf:1.4-like, one key ~32 %",
                skewed(0.32, 1 << 20),
                [false, true],
                [false, false],
            ),
            (
                "zipf:2.1-like, one key ~63 %",
                skewed(0.63, 1 << 20),
                [false, true],
                [false, false],
            ),
            ("90 % one key", skewed(0.9, 1000), [false; 2], [false; 2]),
            ("all equal", vec![42; n], [false; 2], [false; 2]),
            ("0..n", (0..n as u64).collect(), [true; 2], [false; 2]),
            (
                "reversed",
                (0..n as u64).rev().collect(),
                [true; 2],
                [false; 2],
            ),
            (
                "uniform, u32 range",
                skewed(0.0, 1 << 32),
                [true; 2],
                [false; 2],
            ),
            (
                "zipf:0.8-like, one key ~4 %",
                skewed(0.04, 1 << 16),
                [true; 2],
                [false; 2],
            ),
            (
                "uniform, full range",
                skewed(0.0, u64::MAX),
                [false; 2],
                [false; 2],
            ),
        ];
        let vector = crate::vsort::available();
        for (name, data, vs_std, vs_vector) in &table {
            // The same keys as `usize`: not plain `u64`, so `std`'s rival.
            let as_usize: Vec<usize> = data.iter().map(|&k| k as usize).collect();
            for (is_stable, radix) in [false, true].into_iter().zip(vs_std) {
                let g = GateSample::take(&as_usize, is_stable).expect(name);
                assert!(!g.vector_rival, "{name}");
                assert_eq!(g.picks_radix(), *radix, "{name}: {g:?}");
            }
            let vs_u64 = if vector { vs_vector } else { vs_std };
            for (is_stable, radix) in [false, true].into_iter().zip(vs_u64) {
                let g = GateSample::take(data, is_stable).expect(name);
                assert_eq!(g.sampled, GATE_MAX_SAMPLE, "{name}");
                assert_eq!((g.stable, g.vector_rival), (is_stable, vector), "{name}");
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
        // nothing is sampled at all. (At the floor, 2 digits pick byte
        // passes against `std`'s sorts.)
        let narrow: Vec<usize> = (0..RADIX_MIN_N).collect();
        let g = GateSample::take(&narrow, false).expect("at the floor");
        assert_eq!(g.sampled, 128);
        assert!(g.picks_radix());
        assert_eq!(GateSample::take(&narrow[..RADIX_MIN_N - 1], false), None);
        assert_eq!(GateSample::take(&narrow[..RADIX_MIN_N - 1], true), None);
        let wide: Vec<u128> = (0..n as u128).collect();
        assert_eq!(GateSample::take(&wide, true), None);
    }

    #[test]
    fn one_pass_records_match_std_stable_sort() {
        // 12-bit keys, one of them holding ~40 %, above shared high bits:
        // 10 000 records fit 2^12 buckets, so one stable counting pass.
        let mut rng = StdRng::seed_from_u64(13);
        let keys: Vec<u64> = (0..10_000)
            .map(|_| {
                if rng.gen_bool(0.4) {
                    1 << 11
                } else {
                    rng.gen_range(0..1 << 12)
                }
            })
            .collect();
        let tagged: Vec<Tagged<u64>> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| Record::new((7 << 40) | k, i as u64))
            .collect();
        let mut expect = tagged.clone();
        expect.sort_by_key(|r| r.key);
        let mut got = tagged;
        let run = radix_sort(&mut got, None);
        assert_eq!((run.span, run.form), (12, RadixForm::OnePass));
        assert_eq!(got, expect);

        // `u32` keys (padded records), through a caller's scratch.
        let narrow: Vec<Record<u32, u64>> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| Record::new(k as u32, i as u64))
            .collect();
        let mut expect = narrow.clone();
        expect.sort_by_key(|r| r.key);
        let mut got = narrow;
        let mut scratch = vec![MaybeUninit::uninit(); got.len()];
        let run = radix_sort_slice(&mut got, &mut scratch);
        assert_eq!((run.span, run.form), (12, RadixForm::OnePass));
        assert_eq!(got, expect);
    }

    /// `input` sorts in the counted form over `2^bits` buckets, to what
    /// `sort_unstable` makes of it, by both entry points.
    fn counts_like_sort_unstable<T: Sortable + Ord + std::fmt::Debug>(input: &[T], bits: u32) {
        let mut expect = input.to_vec();
        expect.sort_unstable();
        let mut got = input.to_vec();
        let run = radix_sort(&mut got, None);
        assert_eq!(
            (run.span, run.form, run.scatters()),
            (bits, RadixForm::Counted, false)
        );
        assert_eq!(got, expect);
        let mut got = input.to_vec();
        let run = radix_sort_slice(&mut got, &mut vec![MaybeUninit::uninit(); input.len()]);
        assert_eq!(run.form, RadixForm::Counted);
        assert_eq!(got, expect);
    }

    #[test]
    fn counted_keys_match_sort_unstable() {
        let mut rng = StdRng::seed_from_u64(14);
        let bytes: Vec<u8> = (0..5000).map(|_| rng.gen()).collect();
        counts_like_sort_unstable(&bytes, 8);
        let u32s: Vec<u32> = (0..8192)
            .map(|_| (1 << 30) + rng.gen_range(0..1 << 12))
            .collect();
        counts_like_sort_unstable(&u32s, 12);
        // Just below `u64::MAX`, a third of them one key: the high bits
        // come back from the first key.
        let u64s: Vec<u64> = (0..8192)
            .map(|_| {
                if rng.gen_bool(0.3) {
                    u64::MAX - 5
                } else {
                    u64::MAX - rng.gen_range(0..1 << 13)
                }
            })
            .collect();
        counts_like_sort_unstable(&u64s, 13);
        // All negative: the sign-flip embedding and its inverse.
        let negative: Vec<i64> = (0..6000).map(|_| rng.gen_range(-3000..-1000)).collect();
        counts_like_sort_unstable(&negative, 12);
        let floats: Vec<OrderedF64> = (0..5000)
            .map(|_| OrderedF64::new(f64::from_bits(1f64.to_bits() + rng.gen_range(0..1 << 12))))
            .collect();
        counts_like_sort_unstable(&floats, 12);
    }

    #[test]
    fn one_pass_exactly_when_the_buckets_fit() {
        assert!(counts_in_one_pass(12, 4096) && !counts_in_one_pass(12, 4095));
        assert!(counts_in_one_pass(0, 1) && !counts_in_one_pass(64, usize::MAX));
        let mut rng = StdRng::seed_from_u64(15);
        // 12-bit keys: 2^12 = n takes one pass, 2^12 = 2n two byte passes.
        for (n, records, keys) in [
            (4096, RadixForm::OnePass, RadixForm::Counted),
            (2048, RadixForm::BytePasses(2), RadixForm::BytePasses(2)),
        ] {
            let mut input: Vec<u64> = (0..n).map(|_| rng.gen_range(1..(1 << 12) - 1)).collect();
            input[7] = (1 << 12) - 1;
            let tagged: Vec<Tagged<u64>> = (0..n as u64)
                .map(|i| Record::new(input[i as usize], i))
                .collect();
            let mut expect = tagged.clone();
            expect.sort_by_key(|r| r.key);
            let mut got = tagged;
            let run = radix_sort(&mut got, None);
            assert_eq!((run.span, run.form), (12, records), "n {n}");
            assert_eq!(got, expect, "n {n}");

            let mut expect = input.clone();
            expect.sort_unstable();
            let run = radix_sort(&mut input, None);
            assert_eq!((run.span, run.form), (12, keys), "n {n}");
            assert_eq!(input, expect, "n {n}");
        }
    }

    #[test]
    fn a_run_names_its_form_and_inputs() {
        let run = |form, span| RadixRun {
            n: 2_097_152,
            span,
            form,
        };
        assert_eq!(
            run(RadixForm::OnePass, 20).to_string(),
            "one counting pass over 2^20 buckets (span 20 bits, n 2097152)"
        );
        assert_eq!(
            run(RadixForm::Counted, 20).to_string(),
            "keys counted in place over 2^20 buckets (span 20 bits, n 2097152)"
        );
        assert_eq!(
            run(RadixForm::BytePasses(3), 24).to_string(),
            "3 byte passes (span 24 bits, n 2097152)"
        );
        assert_eq!(
            run(RadixForm::InOrder, 30).to_string(),
            "already in key order, pre-pass only (span 30 bits, n 2097152)"
        );
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
