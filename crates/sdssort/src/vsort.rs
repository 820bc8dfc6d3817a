//! Vector quicksort for `u64` keys: the comparison kernel where the CPU
//! has AVX-512.
//!
//! An in-place, deterministic quicksort in the style of Bramas 2017 and
//! vqsort (Blacher et al. 2022), reached from the local sort's comparison
//! arm for plain `u64` keys ([`crate::record::Sortable::as_u64_keys`]):
//!
//! * an `O(n)` pre-scan returns at once when the keys are already in
//!   order, so a presorted input costs one read pass;
//! * the pivot is the median of 15 keys at a fixed stride, with no RNG;
//! * the partition reads 4 vectors (32 keys) per step from whichever end
//!   has less free space, and prefetches the keys that end reads 256 keys
//!   on. One permute per vector puts its keys below the pivot first and
//!   the rest last, and the vector is stored whole at both write ends; the
//!   last few keys go through compress and masked stores. The first and
//!   last 32 keys wait in registers, so the partition only ever writes
//!   into slots whose keys it has already read;
//! * when the pivot is the smallest key of its slice — it equals the bound
//!   the slice inherited from its parent, or nothing went left — the block
//!   of keys equal to it is split off and never touched again, so heavy
//!   keys retire in one pass;
//! * slices of at most 64 keys are sorted in registers, loaded with masked
//!   loads padded with `u64::MAX`: a sorting network across the vectors
//!   sorts each lane's column, a transpose turns the columns into sorted
//!   vectors, and bitonic merges join them, two vectors at a time within
//!   their lanes;
//! * after `2·log₂ n` partition levels a slice falls back to
//!   `sort_unstable`, which bounds the worst case at `O(n log n)`.
//!
//! `u64`s that compare equal are equal, so the output is `sort_unstable`'s
//! bit for bit. [`sort`] checks `avx512f` and `popcnt` once per call and
//! runs `sort_unstable` when either is missing, on other architectures and
//! under Miri. Every vector helper carries the same `target_feature`
//! attribute: without `popcnt` the partition's counts compile to software
//! popcounts.

/// Sort `keys` ascending, in place, with the AVX-512 quicksort when the
/// CPU has it. Returns whether it ran; `false` means `sort_unstable` did.
pub fn sort(keys: &mut [u64]) -> bool {
    sort_with(keys, available())
}

/// Whether this CPU runs the vector kernel: x86-64 with `avx512f` and
/// `popcnt` (never under Miri, which cannot interpret it).
#[must_use]
pub fn available() -> bool {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("popcnt")
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    {
        false
    }
}

/// [`sort`] with the feature check's verdict given: `vector` must only be
/// true where [`available`] is.
fn sort_with(keys: &mut [u64], vector: bool) -> bool {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if vector {
        // SAFETY: `vector` is `available()`'s verdict (or false): the CPU
        // has every feature `avx512::sort` is compiled for.
        unsafe { avx512::sort(keys) };
        return true;
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = vector;
    keys.sort_unstable();
    false
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
mod avx512 {
    use std::arch::x86_64::{
        __m512i, __mmask8, _mm512_cmple_epu64_mask, _mm512_cmplt_epu64_mask, _mm512_loadu_epi64,
        _mm512_mask_loadu_epi64, _mm512_mask_max_epu64, _mm512_mask_storeu_epi64,
        _mm512_maskz_compress_epi64, _mm512_maskz_loadu_epi64, _mm512_max_epu64, _mm512_min_epu64,
        _mm512_permutex2var_epi64, _mm512_permutexvar_epi64, _mm512_reduce_max_epu64,
        _mm512_set1_epi64, _mm512_setr_epi64, _mm512_shuffle_i64x2, _mm512_srlv_epi64,
        _mm512_storeu_epi64, _mm512_unpackhi_epi64, _mm512_unpacklo_epi64, _mm_prefetch,
        _MM_HINT_T0,
    };

    /// Keys per vector.
    const LANES: usize = 8;
    /// Vectors a partition step reads from one end.
    const STEP: usize = 4;
    /// Keys a partition step reads, and keys held back at each end.
    pub(super) const BLOCK: usize = STEP * LANES;
    /// Longest slice the base case sorts in registers.
    pub(super) const BASE: usize = 64;
    /// Keys the pivot is the median of.
    const SAMPLES: usize = 15;
    /// How far ahead of a partition step's read, in keys, it prefetches
    /// the keys that end will read next.
    pub(super) const PREFETCH: usize = 256;

    #[cfg(test)]
    thread_local! {
        /// Slices this thread handed to `sort_unstable` at the depth cap.
        pub(super) static DEPTH_FALLBACKS: std::cell::Cell<usize> =
            const { std::cell::Cell::new(0) };
    }

    /// The vector quicksort of `keys`.
    #[target_feature(enable = "avx512f,popcnt")]
    pub(super) fn sort(keys: &mut [u64]) {
        if keys.is_sorted() {
            return;
        }
        quicksort(keys, None, depth_budget(keys.len()));
    }

    /// Partition levels a slice of `n` keys may take before it falls back:
    /// `2·log₂ n`.
    pub(super) fn depth_budget(n: usize) -> u32 {
        2 * (usize::BITS - n.leading_zeros())
    }

    /// Sort `v`, every key of which is at least `floor` when that is set,
    /// within `budget` more partition levels. Recurses into the smaller
    /// side and loops on the larger, so the stack stays `O(log n)` deep.
    #[target_feature(enable = "avx512f,popcnt")]
    fn quicksort(mut v: &mut [u64], mut floor: Option<u64>, mut budget: u32) {
        loop {
            if v.len() <= BASE {
                network_sort(v);
                return;
            }
            if budget == 0 {
                #[cfg(test)]
                DEPTH_FALLBACKS.with(|c| c.set(c.get() + 1));
                v.sort_unstable();
                return;
            }
            budget -= 1;
            let pivot = median_of_15(v);
            let below = if floor == Some(pivot) {
                0
            } else {
                partition::<false>(v, pivot)
            };
            if below == 0 {
                // The pivot is the slice's smallest key: split off the
                // keys equal to it, which are in place already.
                let equal = partition::<true>(v, pivot);
                v = &mut std::mem::take(&mut v)[equal..];
                floor = Some(pivot);
                continue;
            }
            let (lo, hi) = std::mem::take(&mut v).split_at_mut(below);
            if lo.len() < hi.len() {
                quicksort(lo, floor, budget);
                v = hi;
                floor = Some(pivot);
            } else {
                quicksort(hi, Some(pivot), budget);
                v = lo;
            }
        }
    }

    /// Where [`median_of_15`] reads a slice of `len > 64` keys: one key in
    /// the middle of each of 15 equal strides.
    pub(super) fn sample_positions(len: usize) -> impl Iterator<Item = usize> {
        let stride = len / SAMPLES;
        (0..SAMPLES).map(move |i| stride / 2 + i * stride)
    }

    /// The median of the keys at [`sample_positions`]: two vectors of them
    /// (one lane a `u64::MAX` pad), each sorted; the first step of their
    /// merge leaves the eight smallest of the sixteen in one vector, whose
    /// largest key is the median. Reads `v` only, so the pivot choice
    /// moves no key.
    #[target_feature(enable = "avx512f,popcnt")]
    pub(super) fn median_of_15(v: &[u64]) -> u64 {
        let mut s = [u64::MAX; 2 * LANES];
        for (x, i) in s.iter_mut().zip(sample_positions(v.len())) {
            *x = v[i];
        }
        let [a, b] = [0, LANES].map(|at| sort8(vector(&s[at..at + LANES])));
        _mm512_reduce_max_epu64(_mm512_min_epu64(a, reverse(b)))
    }

    /// The first eight keys of `k` as a vector, from registers.
    #[target_feature(enable = "avx512f,popcnt")]
    #[inline]
    fn vector(k: &[u64]) -> __m512i {
        let [a, b, c, d, e, f, g, h] = std::array::from_fn(|i| k[i] as i64);
        _mm512_setr_epi64(a, b, c, d, e, f, g, h)
    }

    /// The mask of the first `k <= 8` lanes. A table: a variable shift
    /// costs three micro-ops on the partition's hottest path.
    #[inline]
    fn first_lanes(k: usize) -> __mmask8 {
        const FIRST: [__mmask8; LANES + 1] = [0, 1, 3, 7, 15, 31, 63, 127, 255];
        FIRST[k]
    }

    /// The lanes of `x` that go left of `pivot`: below it, or when `EQ` at
    /// or below it.
    #[target_feature(enable = "avx512f,popcnt")]
    #[inline]
    fn goes_left<const EQ: bool>(x: __m512i, pivot: __m512i) -> __mmask8 {
        if EQ {
            _mm512_cmple_epu64_mask(x, pivot)
        } else {
            _mm512_cmplt_epu64_mask(x, pivot)
        }
    }

    /// For each mask of the lanes that go left, the lane order that puts
    /// them first and the others after, each in lane order: lane `j` of
    /// the result takes the source lane in bits `4j..4j + 3`.
    const LEFT_FIRST: [u64; 256] = {
        let mut order = [0u64; 256];
        let mut mask = 0;
        while mask < 256 {
            let (mut packed, mut j) = (0u64, 0);
            let mut side = 0;
            while side < 2 {
                let mut lane = 0;
                while lane < LANES {
                    if (mask >> lane) & 1 != side {
                        packed |= (lane as u64) << (4 * j);
                        j += 1;
                    }
                    lane += 1;
                }
                side += 1;
            }
            order[mask] = packed;
            mask += 1;
        }
        order
    };

    /// The two write cursors of a partition: keys below the pivot end at
    /// `left`, keys at or above it start at `right`. A slot is free when
    /// the key it held has been read and no key has been written there
    /// since.
    struct Ends {
        base: *mut u64,
        left: usize,
        right: usize,
    }

    impl Ends {
        /// Write all eight lanes of `x` to the two ends: the ones in `left`
        /// at `self.left`, the others to end at `self.right`. One permute
        /// puts the left lanes first and the right lanes last, and the
        /// vector is stored whole at both ends; the lanes beyond each end's
        /// keys land in its free slots and are overwritten later. When the
        /// two ends are the same eight slots, both stores write the same
        /// vector there, which is every key in place.
        ///
        /// # Safety
        /// The eight slots from `self.left` and the eight before
        /// `self.right` are in `self.base`'s slice and free, and either
        /// apart or the same eight slots.
        #[target_feature(enable = "avx512f,popcnt")]
        #[inline]
        unsafe fn put_all(&mut self, x: __m512i, left: __mmask8) {
            let packed = _mm512_set1_epi64(LEFT_FIRST[usize::from(left)] as i64);
            let order = _mm512_srlv_epi64(packed, _mm512_setr_epi64(0, 4, 8, 12, 16, 20, 24, 28));
            let y = _mm512_permutexvar_epi64(order, x);
            let nl = left.count_ones() as usize;
            // SAFETY: the caller guarantees both eight-slot windows are
            // free slots inside the slice.
            unsafe {
                _mm512_storeu_epi64(self.base.add(self.left).cast(), y);
                _mm512_storeu_epi64(self.base.add(self.right - LANES).cast(), y);
            }
            self.left += nl;
            self.right -= LANES - nl;
        }

        /// Write the `lanes` of `x` to the two ends: the ones in `left`
        /// compressed at `self.left`, the others compressed to end at
        /// `self.right`.
        ///
        /// # Safety
        /// `popcnt(left & lanes)` slots from `self.left` and `popcnt(lanes &
        /// !left)` before `self.right` are in `self.base`'s slice and free.
        #[target_feature(enable = "avx512f,popcnt")]
        #[inline]
        unsafe fn put(&mut self, x: __m512i, left: __mmask8, lanes: __mmask8) {
            let left = left & lanes;
            let right = !left & lanes;
            let nl = left.count_ones() as usize;
            let nr = right.count_ones() as usize;
            self.right -= nr;
            // SAFETY: the caller guarantees both written ranges are free
            // slots inside the slice; a masked store touches only the
            // first `nl` (`nr`) lanes.
            unsafe {
                _mm512_mask_storeu_epi64(
                    self.base.add(self.left).cast(),
                    first_lanes(nl),
                    _mm512_maskz_compress_epi64(left, x),
                );
                _mm512_mask_storeu_epi64(
                    self.base.add(self.right).cast(),
                    first_lanes(nr),
                    _mm512_maskz_compress_epi64(right, x),
                );
            }
            self.left += nl;
        }
    }

    /// Partition `v` (at least 64 keys) around `pivot` in place: the keys
    /// below it (at or below it when `EQ`) first. Returns how many.
    ///
    /// The invariant every write rests on: the keys not yet read are
    /// `read_lo..read_hi`, the written ones `..ends.left` and
    /// `ends.right..`, and between them lie two runs of free slots,
    /// `ends.left..read_lo` and `read_hi..ends.right`, that together hold
    /// `2 · BLOCK` slots — the keys waiting in `saved`. A step reads
    /// `BLOCK` keys from the end with fewer free slots, so afterwards the
    /// other end still has at least `BLOCK` and the read end at least
    /// `BLOCK`: room for every key the step writes to either end.
    #[target_feature(enable = "avx512f,popcnt")]
    pub(super) fn partition<const EQ: bool>(v: &mut [u64], pivot: u64) -> usize {
        let n = v.len();
        assert!(n >= 2 * BLOCK, "partition of {n} keys");
        let p = _mm512_set1_epi64(pivot as i64);
        let base = v.as_mut_ptr();
        let mut saved = [p; 2 * STEP];
        for (k, s) in saved.iter_mut().enumerate() {
            let at = if k < STEP {
                k * LANES
            } else {
                n - 2 * BLOCK + k * LANES
            };
            // SAFETY: `at + 8 <= BLOCK` for the first four vectors and
            // `n - BLOCK <= at` with `at + 8 <= n` for the last four.
            *s = unsafe { _mm512_loadu_epi64(base.add(at).cast()) };
        }
        let mut ends = Ends {
            base,
            left: 0,
            right: n,
        };
        let (mut read_lo, mut read_hi) = (BLOCK, n - BLOCK);
        while read_hi - read_lo >= BLOCK {
            let (at, ahead) = if read_lo - ends.left <= ends.right - read_hi {
                read_lo += BLOCK;
                (read_lo - BLOCK, PREFETCH as isize)
            } else {
                read_hi -= BLOCK;
                (read_hi, -(PREFETCH as isize))
            };
            // The read end is picked from the write cursors, which wait on
            // the last step's keys, so without a prefetch every step's
            // loads wait on the last step's. A prefetch of an address past
            // the slice touches nothing.
            let next = base.wrapping_add(at).wrapping_offset(ahead);
            for k in 0..STEP {
                _mm_prefetch::<_MM_HINT_T0>(next.wrapping_add(k * LANES).cast());
            }
            let mut x = [p; STEP];
            for (k, x) in x.iter_mut().enumerate() {
                // SAFETY: `at..at + BLOCK` lies inside the unread keys
                // `read_lo..read_hi` as they were before this step.
                *x = unsafe { _mm512_loadu_epi64(base.add(at + k * LANES).cast()) };
            }
            for x in x {
                // SAFETY: the free runs are the ones the invariant above
                // describes. After this step's read each holds at least
                // `BLOCK` slots (the read end gained `BLOCK`, the other had
                // at least half of `2 · BLOCK`), the three writes before
                // the last take at most `3 · LANES` from either, so each
                // write finds eight free slots at each end, in two runs.
                unsafe { ends.put_all(x, goes_left::<EQ>(x, p)) };
            }
        }
        // The last `< BLOCK` unread keys, a vector (or a masked part of
        // one) at a time, from the end with fewer free slots as above.
        while read_lo < read_hi {
            let k = (read_hi - read_lo).min(LANES);
            let at = if read_lo - ends.left <= ends.right - read_hi {
                read_lo += k;
                read_lo - k
            } else {
                read_hi -= k;
                read_hi
            };
            let lanes = first_lanes(k);
            // SAFETY: the mask reads `at..at + k`, keys that were unread.
            let x = unsafe { _mm512_maskz_loadu_epi64(lanes, base.add(at).cast()) };
            if k == LANES {
                // SAFETY: the other end kept at least `BLOCK` free slots
                // and the read end gained eight, in two separate runs.
                unsafe { ends.put_all(x, goes_left::<EQ>(x, p)) };
            } else {
                // SAFETY: the other end kept at least `BLOCK >= k` free
                // slots and the read end gained `k`: room for the `k` keys
                // written.
                unsafe { ends.put(x, goes_left::<EQ>(x, p), lanes) };
            }
        }
        for x in saved {
            // SAFETY: every key is read now: the one free run
            // `ends.left..ends.right` is exactly as long as the keys
            // `saved` still holds, so at least 16 slots, room for both
            // windows apart, or the eight slots both windows are.
            unsafe { ends.put_all(x, goes_left::<EQ>(x, p)) };
        }
        debug_assert_eq!(ends.left, ends.right);
        ends.left
    }

    /// Sort `v` (at most 64 keys) with the network of the fewest vectors
    /// that hold it. Each arm is straight-line code on named vectors, so
    /// they stay in registers between the load and the store.
    #[target_feature(enable = "avx512f,popcnt")]
    pub(super) fn network_sort(v: &mut [u64]) {
        match v.len() {
            0 | 1 => {}
            2..=8 => {
                let [a] = load(v);
                store(v, [sort8(a)]);
            }
            9..=16 => {
                let [a, b] = load(v);
                store(v, merge_2(sort8(a), sort8(b)));
            }
            17..=32 => store(v, sort_32(load(v))),
            _ => store(v, sort_64(load(v))),
        }
    }

    /// Load `v` (at most `8N` keys) into `N` vectors padded with
    /// `u64::MAX`.
    #[target_feature(enable = "avx512f,popcnt")]
    #[inline]
    fn load<const N: usize>(v: &[u64]) -> [__m512i; N] {
        let pad = _mm512_set1_epi64(-1);
        let mut x = [pad; N];
        for (i, x) in x.iter_mut().enumerate() {
            let k = v.len().saturating_sub(i * LANES).min(LANES);
            // SAFETY: the mask enables the lanes of `v[8i..8i + k]` only, and
            // a masked-off lane touches no memory, so a vector wholly past
            // the slice (`k == 0`) reads nothing.
            *x = unsafe {
                _mm512_mask_loadu_epi64(
                    pad,
                    first_lanes(k),
                    v.as_ptr().wrapping_add(i * LANES).cast(),
                )
            };
        }
        x
    }

    /// Store the first `v.len()` keys of `x` to `v`.
    #[target_feature(enable = "avx512f,popcnt")]
    #[inline]
    fn store<const N: usize>(v: &mut [u64], x: [__m512i; N]) {
        for (i, x) in x.into_iter().enumerate() {
            let k = v.len().saturating_sub(i * LANES).min(LANES);
            // SAFETY: as for `load`: the mask writes `v[8i..8i + k]` only.
            unsafe {
                _mm512_mask_storeu_epi64(
                    v.as_mut_ptr().wrapping_add(i * LANES).cast(),
                    first_lanes(k),
                    x,
                );
            }
        }
    }

    /// The smaller and the larger of each pair of lanes.
    #[target_feature(enable = "avx512f,popcnt")]
    #[inline]
    fn minmax(a: __m512i, b: __m512i) -> (__m512i, __m512i) {
        (_mm512_min_epu64(a, b), _mm512_max_epu64(a, b))
    }

    /// Sort the 64 keys of eight vectors, ascending through the lanes of
    /// `x[0]`, then `x[1]`, … The optimal 19-comparator network for eight
    /// inputs sorts each lane's column across the vectors, a transpose
    /// turns the columns into eight sorted vectors, and three bitonic
    /// merge levels join them.
    #[target_feature(enable = "avx512f,popcnt")]
    #[inline]
    fn sort_64(x: [__m512i; 8]) -> [__m512i; 8] {
        let [x0, x1, x2, x3, x4, x5, x6, x7] = x;
        let (x0, x2) = minmax(x0, x2);
        let (x1, x3) = minmax(x1, x3);
        let (x4, x6) = minmax(x4, x6);
        let (x5, x7) = minmax(x5, x7);
        let (x0, x4) = minmax(x0, x4);
        let (x1, x5) = minmax(x1, x5);
        let (x2, x6) = minmax(x2, x6);
        let (x3, x7) = minmax(x3, x7);
        let (x0, x1) = minmax(x0, x1);
        let (x2, x3) = minmax(x2, x3);
        let (x4, x5) = minmax(x4, x5);
        let (x6, x7) = minmax(x6, x7);
        let (x2, x4) = minmax(x2, x4);
        let (x3, x5) = minmax(x3, x5);
        let (x1, x4) = minmax(x1, x4);
        let (x3, x6) = minmax(x3, x6);
        let (x1, x2) = minmax(x1, x2);
        let (x3, x4) = minmax(x3, x4);
        let (x5, x6) = minmax(x5, x6);
        let [c0, c1, c2, c3, c4, c5, c6, c7] = transpose([x0, x1, x2, x3, x4, x5, x6, x7]);
        let [c0, c1] = merge_2(c0, c1);
        let [c2, c3] = merge_2(c2, c3);
        let [c4, c5] = merge_2(c4, c5);
        let [c6, c7] = merge_2(c6, c7);
        let [c0, c1, c2, c3] = merge_4([c0, c1, c2, c3]);
        let [c4, c5, c6, c7] = merge_4([c4, c5, c6, c7]);
        merge_8([c0, c1, c2, c3, c4, c5, c6, c7])
    }

    /// Sort the 32 keys of four vectors: the 5-comparator network sorts
    /// each lane's column, [`columns_of_4`] puts columns `j` and `j + 4`
    /// in one vector, whose two sorted halves one in-vector merge joins,
    /// and two bitonic merge levels join the four.
    #[target_feature(enable = "avx512f,popcnt")]
    #[inline]
    fn sort_32(x: [__m512i; 4]) -> [__m512i; 4] {
        let [x0, x1, x2, x3] = x;
        let (x0, x1) = minmax(x0, x1);
        let (x2, x3) = minmax(x2, x3);
        let (x0, x2) = minmax(x0, x2);
        let (x1, x3) = minmax(x1, x3);
        let (x1, x2) = minmax(x1, x2);
        let [c0, c1, c2, c3] = columns_of_4([x0, x1, x2, x3]);
        let [c0, c1] = merge_halves_x2(c0, c1);
        let [c2, c3] = merge_halves_x2(c2, c3);
        let [c0, c1] = merge_2(c0, c1);
        let [c2, c3] = merge_2(c2, c3);
        merge_4([c0, c1, c2, c3])
    }

    /// Lanes `j` and `j + 4` of four rows: vector `j` holds column `j` of
    /// `x` in its lower half and column `j + 4` in its upper. Pairs of
    /// rows interleave their lanes, then pairs of those their 128-bit
    /// quarters.
    #[target_feature(enable = "avx512f,popcnt")]
    #[inline]
    fn columns_of_4(x: [__m512i; 4]) -> [__m512i; 4] {
        let [x0, x1, x2, x3] = x;
        let (t0, t1) = (_mm512_unpacklo_epi64(x0, x1), _mm512_unpackhi_epi64(x0, x1));
        let (t2, t3) = (_mm512_unpacklo_epi64(x2, x3), _mm512_unpackhi_epi64(x2, x3));
        let even = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
        let odd = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
        [
            _mm512_permutex2var_epi64(t0, even, t2),
            _mm512_permutex2var_epi64(t1, even, t3),
            _mm512_permutex2var_epi64(t0, odd, t2),
            _mm512_permutex2var_epi64(t1, odd, t3),
        ]
    }

    /// The 8×8 transpose: lane `j` of vector `i` goes to lane `i` of
    /// vector `j`. [`columns_of_4`] of each half of the rows, then their
    /// 256-bit halves paired.
    #[target_feature(enable = "avx512f,popcnt")]
    #[inline]
    fn transpose(x: [__m512i; 8]) -> [__m512i; 8] {
        let [x0, x1, x2, x3, x4, x5, x6, x7] = x;
        let [s0, s1, s2, s3] = columns_of_4([x0, x1, x2, x3]);
        let [s4, s5, s6, s7] = columns_of_4([x4, x5, x6, x7]);
        [
            _mm512_shuffle_i64x2::<0x44>(s0, s4),
            _mm512_shuffle_i64x2::<0x44>(s1, s5),
            _mm512_shuffle_i64x2::<0x44>(s2, s6),
            _mm512_shuffle_i64x2::<0x44>(s3, s7),
            _mm512_shuffle_i64x2::<0xEE>(s0, s4),
            _mm512_shuffle_i64x2::<0xEE>(s1, s5),
            _mm512_shuffle_i64x2::<0xEE>(s2, s6),
            _mm512_shuffle_i64x2::<0xEE>(s3, s7),
        ]
    }

    /// Merge two sorted vectors into one sorted run of 16 keys. Comparing
    /// each key of `a` with its mirror image in `b` leaves the eight
    /// smaller keys and the eight larger each bitonic.
    #[target_feature(enable = "avx512f,popcnt")]
    #[inline]
    fn merge_2(a: __m512i, b: __m512i) -> [__m512i; 2] {
        let (lo, hi) = minmax(a, reverse(b));
        merge8_x2(lo, hi)
    }

    /// Merge two sorted runs of 16 keys, `[a, b]` and `[c, d]`, into one
    /// of 32. After the mirror compare the lower run is `[min(a, d'),
    /// min(b, c')]` (`'` reverses the lanes) and the upper run, read
    /// backwards, `[max(a, d'), max(b, c')]`: both bitonic, and sorting a
    /// run read backwards gives the same keys, so neither is reversed.
    #[target_feature(enable = "avx512f,popcnt")]
    #[inline]
    fn merge_4(x: [__m512i; 4]) -> [__m512i; 4] {
        let [a, b, c, d] = x;
        let (l0, u0) = minmax(a, reverse(d));
        let (l1, u1) = minmax(b, reverse(c));
        let [l0, l1] = clean_2(l0, l1);
        let [u0, u1] = clean_2(u0, u1);
        [l0, l1, u0, u1]
    }

    /// Merge two sorted runs of 32 keys, `x[..4]` and `x[4..]`, into one
    /// of 64, as [`merge_4`] does.
    #[target_feature(enable = "avx512f,popcnt")]
    #[inline]
    fn merge_8(x: [__m512i; 8]) -> [__m512i; 8] {
        let [x0, x1, x2, x3, x4, x5, x6, x7] = x;
        let (l0, u0) = minmax(x0, reverse(x7));
        let (l1, u1) = minmax(x1, reverse(x6));
        let (l2, u2) = minmax(x2, reverse(x5));
        let (l3, u3) = minmax(x3, reverse(x4));
        let [l0, l1, l2, l3] = clean_4(l0, l1, l2, l3);
        let [u0, u1, u2, u3] = clean_4(u0, u1, u2, u3);
        [l0, l1, l2, l3, u0, u1, u2, u3]
    }

    /// Sort the bitonic run of 16 keys `[a, b]`.
    #[target_feature(enable = "avx512f,popcnt")]
    #[inline]
    fn clean_2(a: __m512i, b: __m512i) -> [__m512i; 2] {
        let (a, b) = minmax(a, b);
        merge8_x2(a, b)
    }

    /// Sort the bitonic run of 32 keys `[a, b, c, d]`.
    #[target_feature(enable = "avx512f,popcnt")]
    #[inline]
    fn clean_4(a: __m512i, b: __m512i, c: __m512i, d: __m512i) -> [__m512i; 4] {
        let (a, c) = minmax(a, c);
        let (b, d) = minmax(b, d);
        let [a, b] = clean_2(a, b);
        let [c, d] = clean_2(c, d);
        [a, b, c, d]
    }

    /// Compare each lane with the lane `idx` names and keep the larger key
    /// in the lanes of `upper`, the smaller in the others.
    #[target_feature(enable = "avx512f,popcnt")]
    #[inline]
    fn exchange(x: __m512i, idx: __m512i, upper: __mmask8) -> __m512i {
        let y = _mm512_permutexvar_epi64(idx, x);
        _mm512_mask_max_epu64(_mm512_min_epu64(x, y), upper, x, y)
    }

    /// The lanes of `x` in reverse order.
    #[target_feature(enable = "avx512f,popcnt")]
    #[inline]
    fn reverse(x: __m512i) -> __m512i {
        _mm512_permutexvar_epi64(_mm512_setr_epi64(7, 6, 5, 4, 3, 2, 1, 0), x)
    }

    /// Sort the eight lanes of `x`.
    #[target_feature(enable = "avx512f,popcnt")]
    #[inline]
    fn sort8(x: __m512i) -> __m512i {
        let x = exchange(x, _mm512_setr_epi64(1, 0, 3, 2, 5, 4, 7, 6), 0xAA);
        let x = exchange(x, _mm512_setr_epi64(3, 2, 1, 0, 7, 6, 5, 4), 0xCC);
        let x = exchange(x, _mm512_setr_epi64(1, 0, 3, 2, 5, 4, 7, 6), 0xAA);
        let x = exchange(x, _mm512_setr_epi64(7, 6, 5, 4, 3, 2, 1, 0), 0xF0);
        clean4(x)
    }

    /// Sort the eight lanes of each of two bitonic vectors. The two go
    /// through the half-cleaners together: each step gathers the lanes it
    /// compares into two vectors, so one `min` and one `max` serve sixteen
    /// keys, where a permute within each vector costs two of each.
    #[target_feature(enable = "avx512f,popcnt")]
    #[inline]
    fn merge8_x2(a: __m512i, b: __m512i) -> [__m512i; 2] {
        let (lo, hi) = minmax(
            _mm512_shuffle_i64x2::<0x44>(a, b),
            _mm512_shuffle_i64x2::<0xEE>(a, b),
        );
        clean4_x2(lo, hi)
    }

    /// Sort the eight lanes of each of two vectors whose halves are
    /// sorted. The mirror compare leaves each vector's lower half, and its
    /// upper half read backwards, bitonic.
    #[target_feature(enable = "avx512f,popcnt")]
    #[inline]
    fn merge_halves_x2(a: __m512i, b: __m512i) -> [__m512i; 2] {
        let (lo, hi) = minmax(
            _mm512_shuffle_i64x2::<0x44>(a, b),
            _mm512_permutex2var_epi64(a, _mm512_setr_epi64(7, 6, 5, 4, 15, 14, 13, 12), b),
        );
        clean4_x2(lo, hi)
    }

    /// The half-cleaners at distances 2 and 1 over the bitonic quarters of
    /// two vectors `a` and `b` that come as `lo = [a's lower four, b's
    /// lower four]` and `hi = [a's upper four, b's upper four]`; returns
    /// `a` and `b` sorted.
    #[target_feature(enable = "avx512f,popcnt")]
    #[inline]
    fn clean4_x2(lo: __m512i, hi: __m512i) -> [__m512i; 2] {
        // Distance 2: lanes 0, 1 of each quarter against lanes 2, 3.
        let (lo, hi) = minmax(
            _mm512_permutex2var_epi64(lo, _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13), hi),
            _mm512_permutex2var_epi64(lo, _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15), hi),
        );
        // Distance 1: the even lanes of each quarter against the odd.
        let (even, odd) = minmax(_mm512_unpacklo_epi64(lo, hi), _mm512_unpackhi_epi64(lo, hi));
        [
            _mm512_permutex2var_epi64(even, _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11), odd),
            _mm512_permutex2var_epi64(even, _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15), odd),
        ]
    }

    /// Sort each half of `x` whose halves are bitonic: the half-cleaners
    /// at distances 2 and 1.
    #[target_feature(enable = "avx512f,popcnt")]
    #[inline]
    fn clean4(x: __m512i) -> __m512i {
        let x = exchange(x, _mm512_setr_epi64(2, 3, 0, 1, 6, 7, 4, 5), 0xCC);
        exchange(x, _mm512_setr_epi64(1, 0, 3, 2, 5, 4, 7, 6), 0xAA)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    /// Say so when this CPU runs the fallback, so a vector test that only
    /// compared `sort_unstable` with itself never passes silently.
    fn note_fallback(test: &str) {
        if !available() {
            println!(
                "{test}: the vector kernel cannot run here (no avx512f/popcnt, or Miri), \
                 so this ran the sort_unstable fallback"
            );
        }
    }

    /// Sort a copy of `keys` with the kernel and check it against
    /// `sort_unstable`, bit for bit.
    fn check(keys: &[u64], what: &str) {
        let mut expect = keys.to_vec();
        expect.sort_unstable();
        let mut got = keys.to_vec();
        assert_eq!(sort(&mut got), available(), "{what}");
        assert!(
            got == expect,
            "{what}, n {}: differs from sort_unstable",
            keys.len()
        );
    }

    fn uniform(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen()).collect()
    }

    /// `zipf:1.4` keys to take prefixes of.
    fn zipf(n: usize) -> Vec<u64> {
        workloads::keys_by_name("zipf:1.4", n, 14, 0).expect("a workload")
    }

    /// The shapes of an input of `n` keys the kernel must get right, by
    /// name; the `zipf:1.4` one is `zipf`'s first `n` keys.
    fn shapes(n: usize, seed: u64, zipf: &[u64]) -> Vec<(&'static str, Vec<u64>)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let heavy = |rng: &mut StdRng, key: u64| -> Vec<u64> {
            (0..n)
                .map(|_| if rng.gen_bool(0.8) { key } else { rng.gen() })
                .collect()
        };
        let half = n as u64 / 2;
        vec![
            ("uniform", uniform(n, seed)),
            ("all equal", vec![0x5eed; n]),
            (
                "two values",
                (0..n).map(|_| rng.gen_range(0..2) * 77).collect(),
            ),
            (
                "extremes",
                (0..n)
                    .map(|_| if rng.gen() { 0 } else { u64::MAX })
                    .collect(),
            ),
            ("heavy minimum", heavy(&mut rng, 0)),
            ("heavy maximum", heavy(&mut rng, u64::MAX)),
            ("presorted", (0..n as u64).collect()),
            ("reversed", (0..n as u64).rev().collect()),
            (
                "organ pipe",
                (0..n as u64)
                    .map(|i| if i < half { i } else { n as u64 - i })
                    .collect(),
            ),
            ("sawtooth", (0..n as u64).map(|i| i % 97).collect()),
            ("zipf:1.4", zipf[..n].to_vec()),
        ]
    }

    #[test]
    fn every_length_to_300_matches_sort_unstable() {
        note_fallback("every_length_to_300_matches_sort_unstable");
        // Every masked tail of a partition (65..=300 leaves 0..=31 keys
        // after the 32-key steps) and every width of the base case.
        let zipf = zipf(300);
        for n in 0..=300 {
            for (name, keys) in shapes(n, n as u64, &zipf) {
                check(&keys, name);
            }
        }
        check(&uniform((1 << 16) + 7, 7), "uniform 2^16 + 7");
    }

    #[test]
    fn shapes_match_sort_unstable() {
        note_fallback("shapes_match_sort_unstable");
        let zipf = zipf((1 << 16) + 7);
        for n in [1_000, (1 << 16) + 7] {
            for (name, keys) in shapes(n, 11, &zipf) {
                check(&keys, name);
            }
        }
    }

    #[test]
    fn scalar_fallback_matches_sort_unstable() {
        for (name, keys) in shapes(5_000, 3, &zipf(5_000)) {
            let mut expect = keys.clone();
            expect.sort_unstable();
            let mut got = keys;
            assert!(!sort_with(&mut got, false), "{name}");
            assert_eq!(got, expect, "{name}");
        }
    }

    /// An input on which every one of the kernel's `2·log₂ n` partition
    /// levels splits off a few dozen keys, so the depth cap must end it.
    ///
    /// Each key is `value << 32 | position`, and every value starts out
    /// "gas": large and in position order. Level by level, the keys the
    /// median-of-15 will sample are frozen to small values above every
    /// earlier level's, so the pivot is the 8th smallest of them and only
    /// about the earlier levels' leftovers and 7 frozen keys fall below it.
    /// The partition moves a key by its comparison with the pivot alone,
    /// and a later level freezes only keys that were gas — above every
    /// earlier pivot, like the values they get — so the levels already
    /// built run the same on the final input. Each level's position in the
    /// keys is found by running the kernel's own partition on a copy.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    fn median_of_15_killer(n: usize) -> Vec<u64> {
        const GAS: u64 = 1 << 31;
        let mut input: Vec<u64> = (0..n as u64).map(|i| (GAS + i) << 32 | i).collect();
        let mut work = input.clone();
        let mut start = 0;
        for level in 0..avx512::depth_budget(n) as u64 {
            let v = &mut work[start..];
            assert!(v.len() > avx512::BASE, "level {level}: {} keys", v.len());
            for (t, i) in avx512::sample_positions(v.len()).enumerate() {
                if v[i] >> 32 >= GAS {
                    let at = v[i] & 0xFFFF_FFFF;
                    v[i] = (level * 16 + t as u64 + 1) << 32 | at;
                    input[at as usize] = v[i];
                }
            }
            // SAFETY: the caller checked `available()`.
            let below = unsafe {
                let pivot = avx512::median_of_15(v);
                avx512::partition::<false>(v, pivot)
            };
            assert!(
                (1..=avx512::BASE).contains(&below),
                "level {level}: {below} keys below the pivot"
            );
            start += below;
        }
        assert!(n - start > avx512::BASE, "the killer ran out of keys");
        input
    }

    /// Sort every length to 64 with the base network alone, inside a
    /// buffer whose keys on either side must come out untouched.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[target_feature(enable = "avx512f,popcnt")]
    fn check_network_lengths() {
        const GUARD: u64 = 0x6a09_e667_f3bc_c908;
        let zipf = zipf(avx512::BASE);
        for n in 0..=avx512::BASE {
            let mut cases = shapes(n, n as u64, &zipf);
            cases.push(("all u64::MAX", vec![u64::MAX; n]));
            for (name, keys) in cases {
                let mut expect = keys.clone();
                expect.sort_unstable();
                let mut buf = vec![GUARD; n + 2 * avx512::BASE];
                buf[avx512::BASE..][..n].copy_from_slice(&keys);
                avx512::network_sort(&mut buf[avx512::BASE..][..n]);
                assert_eq!(buf[avx512::BASE..][..n], expect, "{name}, n {n}");
                assert!(
                    buf[..avx512::BASE].iter().all(|&k| k == GUARD)
                        && buf[avx512::BASE + n..].iter().all(|&k| k == GUARD),
                    "{name}, n {n}: the network wrote outside its slice"
                );
            }
        }
    }

    #[test]
    fn network_sorts_every_length_to_64() {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if available() {
            // SAFETY: the CPU has avx512f and popcnt.
            unsafe { check_network_lengths() };
            return;
        }
        note_fallback("network_sorts_every_length_to_64");
    }

    /// Partition a copy of `keys` around `pivot` and check the count
    /// against a scalar one, the two sides, and that the keys are the
    /// same multiset.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[target_feature(enable = "avx512f,popcnt")]
    fn check_partition<const EQ: bool>(keys: &[u64], pivot: u64, what: &str) {
        let left = |k: &u64| if EQ { *k <= pivot } else { *k < pivot };
        let mut v = keys.to_vec();
        let below = avx512::partition::<EQ>(&mut v, pivot);
        let n = keys.len();
        let what = format!("{what}, n {n}, pivot {pivot:#x}, EQ {EQ}");
        assert_eq!(below, keys.iter().filter(|k| left(k)).count(), "{what}");
        assert!(
            v[..below].iter().all(left),
            "{what}: a key left of the count goes right"
        );
        assert!(
            !v[below..].iter().any(left),
            "{what}: a key right of the count goes left"
        );
        let mut expect = keys.to_vec();
        expect.sort_unstable();
        v.sort_unstable();
        assert!(v == expect, "{what}: not a permutation of the input");
    }

    /// Every length from the partition's smallest to where its prefetch
    /// has run past both ends of the slice and back, on uniform,
    /// heavy-minimum and all-equal keys, around the median of 15, a key of
    /// the slice and both extremes.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[target_feature(enable = "avx512f,popcnt")]
    fn check_partition_lengths() {
        for n in 2 * avx512::BLOCK..=2 * avx512::PREFETCH + 2 * avx512::BLOCK + 8 {
            let mut rng = StdRng::seed_from_u64(n as u64);
            let heavy_minimum = (0..n)
                .map(|_| if rng.gen_bool(0.8) { 0 } else { rng.gen() })
                .collect();
            for (name, keys) in [
                ("uniform", uniform(n, n as u64)),
                ("heavy minimum", heavy_minimum),
                ("all equal", vec![0x5eed; n]),
            ] {
                for pivot in [avx512::median_of_15(&keys), keys[n / 3], 0, u64::MAX] {
                    check_partition::<false>(&keys, pivot, name);
                    check_partition::<true>(&keys, pivot, name);
                }
            }
        }
    }

    #[test]
    fn partition_splits_every_length_around_the_prefetch() {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if available() {
            // SAFETY: the CPU has avx512f and popcnt.
            unsafe { check_partition_lengths() };
            return;
        }
        note_fallback("partition_splits_every_length_around_the_prefetch");
    }

    #[test]
    fn median_of_15_killer_reaches_the_depth_cap() {
        let n = 1 << 12;
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if available() {
            let keys = median_of_15_killer(n);
            let before = avx512::DEPTH_FALLBACKS.with(std::cell::Cell::get);
            check(&keys, "median-of-15 killer");
            let after = avx512::DEPTH_FALLBACKS.with(std::cell::Cell::get);
            assert_eq!(after - before, 1, "the killer must end at the depth cap");
            return;
        }
        note_fallback("median_of_15_killer_reaches_the_depth_cap");
        check(&uniform(n, 5), "uniform");
    }

    /// The median, over `reps` runs, of `part`'s time on a fresh copy of
    /// `keys` (the copy untimed: it leaves the keys where the kernel's
    /// previous pass would), in ns per key of `keys`.
    fn ns_per_key(keys: &[u64], reps: usize, mut part: impl FnMut(&mut [u64])) -> f64 {
        let mut work = keys.to_vec();
        let mut ns: Vec<f64> = (0..reps)
            .map(|_| {
                work.copy_from_slice(keys);
                let t = std::time::Instant::now();
                part(&mut work);
                t.elapsed().as_nanos() as f64 / keys.len() as f64
            })
            .collect();
        ns.sort_by(f64::total_cmp);
        ns[reps / 2]
    }

    /// The rows of [`decomposition`]: each part of the kernel alone, on
    /// uniform keys, called directly.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[target_feature(enable = "avx512f,popcnt")]
    fn decompose() {
        let reps = |n: usize| (1 << 24) / n.max(1 << 16) + 10;
        println!("| part | n | ns/key |\n|---|---|---|");
        for log in [12, 16, 21] {
            let n = 1 << log;
            let keys = uniform(n, log);
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            let row = |part: &str, ns: f64| println!("| {part} | 2^{log} | {ns:.2} |");
            row(
                "whole sort",
                ns_per_key(&keys, reps(n), |v| avx512::sort(v)),
            );
            // On unsorted keys the pre-scan stops at the first descent; on
            // sorted ones it reads them all, the most it costs.
            row(
                "pre-scan (sorted keys)",
                ns_per_key(&sorted, reps(n), |v| assert!(v.is_sorted())),
            );
            let pivot = avx512::median_of_15(&keys);
            row(
                "one partition level",
                ns_per_key(&keys, reps(n), |v| {
                    avx512::partition::<false>(v, pivot);
                }),
            );
        }
        let keys = uniform(1 << 16, 99);
        for slice in [128, 256] {
            let ns = ns_per_key(&keys, reps(keys.len()), |v| {
                for v in v.chunks_exact_mut(slice) {
                    let pivot = avx512::median_of_15(v);
                    avx512::partition::<false>(v, pivot);
                }
            });
            println!("| median of 15 + partition, {slice}-key slices | 2^16 | {ns:.2} |");
        }
        for chunk in [avx512::BASE, 32, 16] {
            let ns = ns_per_key(&keys, reps(keys.len()), |v| {
                for v in v.chunks_exact_mut(chunk) {
                    avx512::network_sort(v);
                }
            });
            println!("| base case, {chunk}-key chunks | 2^16 | {ns:.2} |");
        }
        let calls = 1 << 16;
        let ns = ns_per_key(&keys[..calls], 11, |v| {
            for i in 0..calls {
                let v = &v[i % 1024..];
                std::hint::black_box(avx512::median_of_15(std::hint::black_box(
                    &v[..1024 + i % 512],
                )));
            }
        });
        println!("| median of 15, per call | 2^10 | {ns:.2} ns/call |");
    }

    /// Time each part of the vector kernel alone and print a table of ns
    /// per key: the whole sort, the pre-scan, one partition level at each
    /// residency (2^12 keys in L1/L2, 2^16 in L2, 2^21 beyond), partition
    /// levels of small slices, the base case and the median of 15.
    #[test]
    #[ignore = "a measurement; run it in release with --ignored --nocapture"]
    fn decomposition() {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if available() {
            // SAFETY: the CPU has avx512f and popcnt.
            unsafe { decompose() };
            return;
        }
        note_fallback("decomposition");
    }
}
