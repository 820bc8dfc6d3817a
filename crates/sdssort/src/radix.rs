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
//!   that actually differ: 32-bit-range keys cost 4 passes, a constant
//!   array costs none.
//!
//! Scatter passes ping-pong between the caller's slice and a caller-owned
//! scratch buffer (one allocation for the whole sort, counted by
//! [`crate::local_sort::LocalSortReport`]); an extra copy-back runs only
//! when the number of active digits is odd.

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

/// Most *active* digits for which [`LocalKernel::Auto`] still picks the
/// radix kernel. A scatter pass (random writes across 256 buckets) costs
/// more per record than a comparison-sort level, and measured break-evens
/// against `slice::sort{,_unstable}` sit between ~4.5 and ~6.5 active
/// bytes depending on `n`, stability, and cache size. Four is the
/// conservative choice that keeps the common narrow embeddings —
/// u32/i32/f32 keys, bounded ids, day-scale timestamps — on the radix
/// path while leaving full-range 64-bit keys on the (excellent) std
/// sorts. `LocalKernel::Radix` bypasses the bound.
///
/// [`LocalKernel::Auto`]: crate::config::LocalKernel::Auto
pub const RADIX_MAX_AUTO_DIGITS: u32 = 4;

/// Count the 8-bit digit positions of the key embedding that differ
/// anywhere in `data` — exactly the scatter passes a radix sort of `data`
/// would run. One read pass; 0 for empty or constant-key input.
///
/// # Panics
///
/// If `T` has no monotone `u64` key embedding (`T::RADIX` is false).
#[must_use]
pub fn active_digits<T: Sortable>(data: &[T]) -> u32 {
    assert!(
        T::RADIX,
        "radix kernel requires a monotone u64 key embedding"
    );
    let Some(first) = data.first() else { return 0 };
    let first = first.radix_u64();
    let mut diff = 0u64;
    for r in data {
        diff |= r.radix_u64() ^ first;
    }
    (0..DIGITS)
        .filter(|d| (diff >> (8 * d)) & 0xFF != 0)
        .count() as u32
}

/// The digit-aware automatic gate: [`radix_applicable`] plus a bound on
/// the scatter passes this input actually needs
/// ([`RADIX_MAX_AUTO_DIGITS`]). Costs one read pass over `data`.
#[must_use]
pub fn radix_profitable<T: Sortable>(data: &[T]) -> bool {
    radix_applicable::<T>(data.len()) && active_digits(data) <= RADIX_MAX_AUTO_DIGITS
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
        return;
    }

    // Pre-pass: which digit positions differ at all?
    let first = data[0].radix_u64();
    let mut diff = 0u64;
    for r in data.iter() {
        diff |= r.radix_u64() ^ first;
    }
    let active: Vec<u32> = (0..DIGITS)
        .filter(|d| (diff >> (8 * d)) & 0xFF != 0)
        .collect();
    if active.is_empty() {
        return; // all keys equal: already sorted, trivially stable
    }

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

    if !in_data {
        // Odd pass count: the sorted order lives in scratch; copy it back.
        // SAFETY: the final pass initialized scratch[..n]; the regions do
        // not overlap.
        unsafe {
            std::ptr::copy_nonoverlapping(scratch.as_ptr().cast::<T>(), data.as_mut_ptr(), n);
        }
    }
}

/// Convenience wrapper that owns the scratch buffer. Returns the scratch
/// bytes it transiently allocated (0 when the input was trivially sorted).
pub fn radix_sort<T: Sortable>(data: &mut [T]) -> usize {
    if data.len() < 2 {
        return 0;
    }
    let mut scratch: Vec<MaybeUninit<T>> = Vec::with_capacity(data.len());
    // SAFETY: `MaybeUninit<T>` needs no initialization; len == capacity.
    unsafe {
        scratch.set_len(data.len());
    }
    radix_sort_slice(data, &mut scratch);
    std::mem::size_of_val::<[T]>(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{OrderedF32, Record};
    use rand::prelude::*;

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
    fn active_digits_counts_differing_bytes() {
        assert_eq!(active_digits::<u64>(&[]), 0);
        assert_eq!(active_digits(&[42u64; 100]), 0);
        // Low two bytes vary.
        let v: Vec<u64> = (0..20_000).collect();
        assert_eq!(active_digits(&v), 2);
        // A high-byte outlier activates that digit too.
        let mut v = v;
        v.push(1u64 << 56);
        assert_eq!(active_digits(&v), 3);
    }

    #[test]
    fn profitability_is_digit_aware() {
        // Narrow keys at amortizing size: radix.
        let narrow: Vec<u64> = (0..RADIX_MIN_N as u64).collect();
        assert!(radix_profitable(&narrow));
        // Same size, full-range keys (all 8 digits active): comparison.
        let wide: Vec<u64> = (0..RADIX_MIN_N as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        assert_eq!(active_digits(&wide), 8);
        assert!(!radix_profitable(&wide));
        // Below the size floor even narrow keys stay on comparison.
        assert!(!radix_profitable(&narrow[..RADIX_MIN_N - 1]));
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
