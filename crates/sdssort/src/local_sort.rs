//! Shared-memory skew-aware parallel sorting (`SdssLocalSort`, paper §2.2).
//!
//! Strategy: split the array into `c` chunks, sort each chunk on its own
//! thread (LSD radix when the key embeds monotonically into `u64`,
//! `std`'s comparison sorts otherwise — see [`crate::radix`]), then merge
//! the sorted chunks *in parallel*. The parallel merge partitions the
//! value space into `c` parts and merges each part on its own thread; the
//! paper's contribution is to compute those part boundaries with the same
//! skew-aware rule as the distributed partition, so heavily duplicated
//! values are split evenly across parts instead of landing in one part
//! (the load imbalance exhibited by sampling-based merges such as
//! HykSort's — compared in Fig. 6a).
//!
//! This module is deliberately thread-pool-free (plain scoped threads): it
//! is also reused *inside* simulated ranks with `threads = 1`, where it
//! reduces to a sequential adaptive sort.
//!
//! ## Memory
//!
//! The sort is not in-place: one `n`-record scratch buffer serves first as
//! the radix kernel's ping-pong space (disjoint per-chunk subslices) and
//! then as the merge output, which is swapped into the caller's `Vec` —
//! transient peak `2n` records, reported via
//! [`LocalSortReport::scratch_bytes`] and counted in the driver's
//! telemetry (`local_sort.scratch_bytes`). That buffer, like the
//! sequential radix path's scratch and [`parallel_merge_into`]'s output,
//! comes from [`comm::pages`]: written once, so what it costs is its first
//! touch, and from one huge page up that is asked to be a 2 MiB one.

use crate::config::LocalKernel;
use crate::merge::{kway_merge_into, kway_merge_uninit};
use crate::partition::{
    classic_cuts, cuts_to_counts, fast_cuts, local_dup_counts, replicated_runs, shares_for_source,
    stable_cuts,
};
use crate::radix::{
    counts_in_one_pass, radix_sort, radix_sort_slice, GateSample, KeySpan, RadixRun, RADIX_MAX_N,
};
use crate::record::Sortable;
use crate::sampling::regular_sample;
use std::mem::MaybeUninit;

/// How the parallel merge partitions work across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeStrategy {
    /// Sampling-based equal-range partition (`upper_bound` per pivot) —
    /// the HykSort-style merge; load-imbalanced on skewed data.
    Classic,
    /// Skew-aware partition, fast (unstable) duplicate splitting.
    SkewAware,
    /// Skew-aware partition, stable grouping of duplicates.
    SkewAwareStable,
}

/// Which comparison sort sorted the chunks: [`crate::vsort`]'s vector
/// quicksort where it applies, `std`'s sorts otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComparisonKernel {
    /// The AVX-512 quicksort: the records are plain `u64` keys and the CPU
    /// has `avx512f` and `popcnt`.
    Avx512,
    /// `std`'s sort of plain `u64` keys: the CPU lacks AVX-512 (or this is
    /// not x86-64, or Miri).
    StdNoAvx512,
    /// `std`'s sort: the records are not plain `u64` keys.
    StdNotU64,
}

impl ComparisonKernel {
    /// The kernel the comparison arm runs on `T`'s records on this CPU
    /// (asked of an empty slice: the hook depends on the type alone).
    #[must_use]
    pub fn for_records<T: Sortable>() -> Self {
        match T::as_u64_keys(&mut []) {
            None => Self::StdNotU64,
            Some(_) if crate::vsort::available() => Self::Avx512,
            Some(_) => Self::StdNoAvx512,
        }
    }
}

/// What [`local_sort_with`] actually did, for telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalSortReport {
    /// The kernel that sorted the chunks: [`LocalKernel::Radix`] or
    /// [`LocalKernel::Comparison`] (never `Auto`).
    pub kernel: LocalKernel,
    /// Bytes of scratch transiently allocated (the `2n` peak; 0 when the
    /// input was sorted in place by the sequential comparison path, or
    /// counted in place or found in order by the sequential radix path).
    pub scratch_bytes: usize,
    /// What `LocalKernel::Auto` sampled to choose `kernel`; `None` when the
    /// kernel was forced or radix does not apply to this type and size.
    pub gate: Option<GateSample>,
    /// The exact key span ([`KeySpan::bits`]) when the sample's span fit
    /// one counting pass, so `Auto` ran the pre-pass and let it decide.
    pub exact_span: Option<u32>,
    /// The form the radix kernel took (the first chunk's, on the parallel
    /// path); `None` when the comparison kernel ran.
    pub radix: Option<RadixRun>,
    /// The comparison sort that ran; `None` when the radix kernel ran.
    pub comparison: Option<ComparisonKernel>,
}

/// Sort `data` by key using up to `threads` threads. Stable iff `stable`.
///
/// This is `SdssLocalSort`: with `threads <= 1` it is a sequential
/// adaptive sort; otherwise chunks are sorted in parallel and merged with
/// the skew-aware parallel merge. Equivalent to
/// [`local_sort_with`]`(…, LocalKernel::Auto)`.
pub fn local_sort<T: Sortable>(data: &mut Vec<T>, threads: usize, stable: bool) {
    local_sort_with(data, threads, stable, LocalKernel::Auto);
}

/// [`local_sort`] with explicit kernel selection; returns what ran.
///
/// `LocalKernel::Auto` picks the LSD radix kernel when the key type has a
/// monotone `u64` embedding, `n` amortizes its fixed passes, and a sample
/// of at most 1 024 keys ([`GateSample`]; what it saw comes back in the
/// report) shows one of two things. Either the keys span few enough bits
/// for one counting pass, which the exact pre-pass over the whole input
/// then confirms ([`counts_in_one_pass`]), whatever the duplication; or
/// few enough digit bytes and little enough duplication for byte passes
/// to beat the comparison sort — the stable one when `stable`, which
/// tolerates more duplication ([`GateSample::picks_radix`]). `Radix`
/// forces it whenever the key supports it (comparison fallback
/// otherwise); `Comparison` always compares. Both kernels are stable when
/// `stable` is set, and both produce output bit-identical to `std`'s
/// stable sort in that mode — kernel choice never changes the result,
/// only the time (and the transient scratch).
pub fn local_sort_with<T: Sortable>(
    data: &mut Vec<T>,
    threads: usize,
    stable: bool,
    kernel: LocalKernel,
) -> LocalSortReport {
    let n = data.len();
    let sequential = threads <= 1 || n < threads * 4 || n < 1024;
    // What one radix sort runs on: the whole input, or a thread's chunk.
    let chunk_len = if sequential { n } else { n.div_ceil(threads) };
    let gate = if kernel == LocalKernel::Auto {
        GateSample::take(data, stable)
    } else {
        None
    };
    // A sample narrow enough for one counting pass earns the exact
    // pre-pass, and the sequential radix sort reuses it.
    let span = gate
        .filter(|g| counts_in_one_pass(g.span, chunk_len))
        .map(|_| KeySpan::scan(data));
    let use_radix = match kernel {
        LocalKernel::Auto => gate.is_some_and(|g| {
            span.is_some_and(|s| counts_in_one_pass(s.bits(), chunk_len)) || g.picks_radix()
        }),
        LocalKernel::Radix => T::RADIX && (2..=RADIX_MAX_N).contains(&n),
        LocalKernel::Comparison => false,
    };
    let mut report = LocalSortReport {
        kernel: if use_radix {
            LocalKernel::Radix
        } else {
            LocalKernel::Comparison
        },
        scratch_bytes: 0,
        gate,
        exact_span: span.map(|s| s.bits()),
        radix: None,
        comparison: (!use_radix).then(ComparisonKernel::for_records::<T>),
    };

    if sequential {
        if use_radix {
            let run = radix_sort(data, span);
            if run.scatters() {
                report.scratch_bytes = n * std::mem::size_of::<T>();
            }
            report.radix = Some(run);
        } else {
            sequential_sort(data, stable);
        }
        return report;
    }

    // One n-record buffer serves the whole parallel path: its spare
    // capacity is the radix ping-pong scratch (disjoint per-chunk
    // subslices), then the same capacity receives the merged output, which
    // is swapped into `data`.
    let mut buf: Vec<T> = comm::pages::with_capacity(n);
    {
        let mut rest: &mut [T] = data;
        let mut scratch_rest: &mut [MaybeUninit<T>] = &mut buf.spare_capacity_mut()[..n];
        report.radix = std::thread::scope(|scope| {
            let mut radix_runs = Vec::new();
            while !rest.is_empty() {
                let take = chunk_len.min(rest.len());
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(take);
                rest = tail;
                if use_radix {
                    let (shead, stail) = std::mem::take(&mut scratch_rest).split_at_mut(take);
                    scratch_rest = stail;
                    radix_runs.push(scope.spawn(move || radix_sort_slice(head, shead)));
                } else {
                    scope.spawn(move || sequential_sort_slice(head, stable));
                }
            }
            radix_runs.into_iter().next().map(|first| {
                first
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e))
            })
        });
    }
    let chunks: Vec<&[T]> = data.chunks(chunk_len).collect();
    let strategy = if stable {
        MergeStrategy::SkewAwareStable
    } else {
        MergeStrategy::SkewAware
    };
    parallel_merge_into(&chunks, threads, strategy, &mut buf);
    drop(chunks);
    std::mem::swap(data, &mut buf);
    report.scratch_bytes = n * std::mem::size_of::<T>();
    report
}

/// Sequential sort of a `Vec` (key comparisons only).
pub fn sequential_sort<T: Sortable>(data: &mut [T], stable: bool) {
    sequential_sort_slice(data, stable);
}

/// The comparison kernel: [`crate::vsort`] for plain `u64` keys (whose
/// stable and unstable sorts are the same bits), `std`'s sorts otherwise.
fn sequential_sort_slice<T: Sortable>(data: &mut [T], stable: bool) {
    if let Some(keys) = T::as_u64_keys(data) {
        crate::vsort::sort(keys);
    } else if stable {
        data.sort_by_key(|r| r.key());
    } else {
        data.sort_unstable_by_key(|r| r.key());
    }
}

/// Compute per-chunk cut positions for a `parts`-way parallel merge of
/// sorted `chunks`, under the given strategy. Returns `cuts[chunk][part]`
/// boundaries of length `parts + 1` per chunk.
pub fn merge_cuts<T: Sortable>(
    chunks: &[&[T]],
    parts: usize,
    strategy: MergeStrategy,
) -> Vec<Vec<usize>> {
    assert!(parts >= 1);
    // Regular samples from each sorted chunk, then regular pivots from the
    // pooled samples — the shared-memory analog of local/global pivot
    // selection.
    let mut samples: Vec<T::Key> = Vec::new();
    for chunk in chunks {
        samples.extend(regular_sample(chunk, parts.saturating_sub(1)));
    }
    samples.sort_unstable();
    if samples.is_empty() && parts > 1 {
        // Every chunk is empty (any non-empty chunk contributes at least
        // one sample when parts ≥ 2): all boundaries are zero.
        return vec![vec![0; parts + 1]; chunks.len()];
    }
    let mut pivots: Vec<T::Key> =
        crate::sampling::regular_sample_positions(samples.len(), parts - 1)
            .into_iter()
            .map(|p| samples[p])
            .collect();
    // When the pooled samples underfill `parts - 1` pivots (many tiny
    // chunks, or `parts` larger than the total record count), pad by
    // repeating the greatest pivot: every chunk still gets `parts + 1` cut
    // boundaries and the surplus parts come out empty, instead of
    // `parallel_merge` indexing `c[part + 1]` out of bounds.
    if let Some(&last) = pivots.last() {
        while pivots.len() < parts - 1 {
            pivots.push(last);
        }
    }

    match strategy {
        MergeStrategy::Classic => chunks.iter().map(|c| classic_cuts(c, &pivots)).collect(),
        MergeStrategy::SkewAware => chunks.iter().map(|c| fast_cuts(c, &pivots, None)).collect(),
        MergeStrategy::SkewAwareStable => {
            let runs = replicated_runs(&pivots);
            let counts: Vec<Vec<usize>> =
                chunks.iter().map(|c| local_dup_counts(c, &runs)).collect();
            chunks
                .iter()
                .enumerate()
                .map(|(i, c)| stable_cuts(c, &pivots, None, &shares_for_source(&counts, i)))
                .collect()
        }
    }
}

/// Merge sorted `chunks` into one sorted vector using up to `threads`
/// threads. Stability: with [`MergeStrategy::SkewAwareStable`] (or
/// `Classic`), equal keys come out ordered by chunk index then position;
/// [`MergeStrategy::SkewAware`] does not preserve duplicate order.
pub fn parallel_merge<T: Sortable>(
    chunks: &[&[T]],
    threads: usize,
    strategy: MergeStrategy,
) -> Vec<T> {
    let mut out = Vec::new();
    parallel_merge_into(chunks, threads, strategy, &mut out);
    out
}

/// [`parallel_merge`] into an existing buffer (cleared first). Every part
/// is merged by its thread directly into its disjoint span of the one
/// pre-sized output — no per-part `Vec`s and no sequential concatenation
/// pass afterwards.
pub fn parallel_merge_into<T: Sortable>(
    chunks: &[&[T]],
    threads: usize,
    strategy: MergeStrategy,
    out: &mut Vec<T>,
) {
    let total: usize = chunks.iter().map(|c| c.len()).sum();
    out.clear();
    if chunks.is_empty() {
        return;
    }
    if threads <= 1 || chunks.len() == 1 || total < 1024 {
        kway_merge_into(chunks, out);
        return;
    }
    let parts = threads;
    let cuts = merge_cuts(chunks, parts, strategy);

    comm::pages::reserve(out, total);
    std::thread::scope(|scope| {
        let mut rest: &mut [MaybeUninit<T>] = &mut out.spare_capacity_mut()[..total];
        for part in 0..parts {
            let size: usize = cuts.iter().map(|c| c[part + 1] - c[part]).sum();
            let (span, tail) = std::mem::take(&mut rest).split_at_mut(size);
            rest = tail;
            let cuts = &cuts;
            scope.spawn(move || {
                let runs: Vec<&[T]> = chunks
                    .iter()
                    .zip(cuts.iter())
                    .map(|(chunk, c)| &chunk[c[part]..c[part + 1]])
                    .collect();
                kway_merge_uninit(&runs, span);
            });
        }
        debug_assert!(rest.is_empty());
    });
    // SAFETY: the part sizes sum to `total` (each chunk's cuts partition
    // it) and `kway_merge_uninit` writes every slot of its span, so all
    // `total` reserved slots are initialized.
    unsafe {
        out.set_len(total);
    }
}

/// Sizes of the `parts` merge partitions under a strategy — the quantity
/// whose imbalance Fig. 6a's timings reflect. Exposed for tests and the
/// RDFA-style diagnostics.
pub fn merge_part_sizes<T: Sortable>(
    chunks: &[&[T]],
    parts: usize,
    strategy: MergeStrategy,
) -> Vec<usize> {
    let cuts = merge_cuts(chunks, parts, strategy);
    let mut sizes = vec![0usize; parts];
    for c in &cuts {
        for (part, count) in cuts_to_counts(c).into_iter().enumerate() {
            sizes[part] += count;
        }
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::is_sorted_by_key;
    use crate::radix::RadixForm;
    use crate::record::Record;
    use rand::prelude::*;

    fn random_data(n: usize, max: u32, seed: u64) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..max)).collect()
    }

    #[test]
    fn sequential_matches_std() {
        let mut a = random_data(5000, 100, 1);
        let mut b = a.clone();
        local_sort(&mut a, 1, false);
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_matches_std_various_threads() {
        for threads in [2usize, 3, 4, 8] {
            let mut a = random_data(20_000, 500, threads as u64);
            let mut b = a.clone();
            local_sort(&mut a, threads, false);
            b.sort_unstable();
            assert_eq!(a, b, "threads={threads}");
        }
    }

    #[test]
    fn parallel_sort_heavy_duplicates() {
        // 90% of values are a single key: the skew-aware merge must still
        // produce a correct sort.
        let mut rng = StdRng::seed_from_u64(5);
        let mut a: Vec<u32> = (0..30_000)
            .map(|_| {
                if rng.gen_bool(0.9) {
                    7
                } else {
                    rng.gen_range(0..1000)
                }
            })
            .collect();
        let mut b = a.clone();
        local_sort(&mut a, 4, false);
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn stable_sort_preserves_duplicate_order() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut recs: Vec<Record<u32, u64>> = (0..20_000)
            .map(|i| Record::new(rng.gen_range(0..50), i as u64))
            .collect();
        let reference = {
            let mut r = recs.clone();
            r.sort_by_key(|x| x.key);
            r
        };
        local_sort(&mut recs, 4, true);
        assert_eq!(
            recs, reference,
            "stable parallel sort must equal std stable sort"
        );
    }

    #[test]
    fn unstable_parallel_sort_keys_correct_with_payload() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut recs: Vec<Record<u32, u64>> = (0..10_000)
            .map(|i| Record::new(rng.gen_range(0..10), i))
            .collect();
        local_sort(&mut recs, 4, false);
        assert!(is_sorted_by_key(&recs));
        // must be a permutation: payloads are unique
        let mut payloads: Vec<u64> = recs.iter().map(|r| r.payload).collect();
        payloads.sort_unstable();
        assert_eq!(payloads, (0..10_000u64).collect::<Vec<_>>());
    }

    #[test]
    fn skew_aware_parts_balanced_on_duplicates() {
        // All chunks are 100% one value. Classic partition puts everything
        // in one part; skew-aware must spread within 2x of ideal.
        let chunk: Vec<u32> = vec![42; 10_000];
        let chunks: Vec<&[u32]> = vec![&chunk, &chunk, &chunk, &chunk];
        let parts = 4;
        let classic = merge_part_sizes(&chunks, parts, MergeStrategy::Classic);
        let skew = merge_part_sizes(&chunks, parts, MergeStrategy::SkewAware);
        let total = 40_000usize;
        assert_eq!(classic.iter().sum::<usize>(), total);
        assert_eq!(skew.iter().sum::<usize>(), total);
        assert_eq!(
            classic.iter().max(),
            Some(&total),
            "classic dumps all on one part"
        );
        let ideal = total / parts;
        assert!(
            *skew.iter().max().unwrap() <= ideal * 2,
            "skew-aware must balance: {skew:?}"
        );
    }

    #[test]
    fn stable_strategy_parts_balanced_too() {
        let chunk: Vec<u32> = vec![42; 8_000];
        let chunks: Vec<&[u32]> = vec![&chunk, &chunk];
        let sizes = merge_part_sizes(&chunks, 4, MergeStrategy::SkewAwareStable);
        assert_eq!(sizes.iter().sum::<usize>(), 16_000);
        // duplicates split across the owning parts
        assert!(*sizes.iter().max().unwrap() < 16_000);
    }

    #[test]
    fn parallel_merge_matches_kway() {
        let mut rng = StdRng::seed_from_u64(21);
        let runs: Vec<Vec<u32>> = (0..5)
            .map(|_| {
                let mut v = random_data(rng.gen_range(0..3000), 40, rng.gen());
                v.sort_unstable();
                v
            })
            .collect();
        let refs: Vec<&[u32]> = runs.iter().map(Vec::as_slice).collect();
        for strategy in [
            MergeStrategy::Classic,
            MergeStrategy::SkewAware,
            MergeStrategy::SkewAwareStable,
        ] {
            let merged = parallel_merge(&refs, 4, strategy);
            let mut expect: Vec<u32> = runs.iter().flatten().copied().collect();
            expect.sort_unstable();
            assert_eq!(merged, expect, "{strategy:?}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let mut v: Vec<u32> = Vec::new();
        local_sort(&mut v, 4, false);
        assert!(v.is_empty());
        let mut v = vec![3u32, 1];
        local_sort(&mut v, 8, true);
        assert_eq!(v, vec![1, 3]);
        assert!(parallel_merge::<u32>(&[], 4, MergeStrategy::SkewAware).is_empty());
    }

    #[test]
    fn presorted_input_stays_sorted() {
        let mut v: Vec<u64> = (0..50_000).collect();
        local_sort(&mut v, 4, false);
        assert_eq!(v, (0..50_000).collect::<Vec<u64>>());
    }

    #[test]
    fn merge_cuts_pads_underfull_pivots() {
        // 2 tiny chunks, 64 parts: the pooled samples can never fill 63
        // pivots, so pre-fix the cut rows came back shorter than parts + 1.
        let c0 = vec![5u32; 10];
        let c1 = vec![7u32; 3];
        let chunks: Vec<&[u32]> = vec![&c0, &c1];
        for strategy in [
            MergeStrategy::Classic,
            MergeStrategy::SkewAware,
            MergeStrategy::SkewAwareStable,
        ] {
            let cuts = merge_cuts(&chunks, 64, strategy);
            for (i, row) in cuts.iter().enumerate() {
                assert_eq!(row.len(), 65, "{strategy:?} chunk {i}: {row:?}");
                assert!(row.windows(2).all(|w| w[0] <= w[1]), "{strategy:?}");
                assert_eq!(row[0], 0);
                assert_eq!(*row.last().unwrap(), chunks[i].len(), "{strategy:?}");
            }
        }
    }

    #[test]
    fn merge_cuts_all_chunks_empty() {
        let chunks: Vec<&[u32]> = vec![&[], &[], &[]];
        let cuts = merge_cuts(&chunks, 8, MergeStrategy::SkewAware);
        assert_eq!(cuts, vec![vec![0usize; 9]; 3]);
    }

    #[test]
    fn parallel_merge_parts_exceed_total() {
        // Public-API regression for the underfull-pivot bug: total = 1025
        // records (just past the small-input fast path) merged with more
        // threads than records. Pre-fix this indexed `c[part + 1]` out of
        // bounds.
        let mut rng = StdRng::seed_from_u64(33);
        let mut big: Vec<u32> = (0..1024).map(|_| rng.gen_range(0..10)).collect();
        big.sort_unstable();
        let tiny = vec![4u32];
        let chunks: Vec<&[u32]> = vec![&big, &tiny];
        let mut expect: Vec<u32> = big.iter().chain(&tiny).copied().collect();
        expect.sort_unstable();
        for strategy in [
            MergeStrategy::Classic,
            MergeStrategy::SkewAware,
            MergeStrategy::SkewAwareStable,
        ] {
            assert_eq!(
                parallel_merge(&chunks, 1200, strategy),
                expect,
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn radix_and_comparison_kernels_bit_identical_when_stable() {
        let mut rng = StdRng::seed_from_u64(17);
        for threads in [1usize, 4] {
            let orig: Vec<Record<u32, u64>> = (0..20_000)
                .map(|i| Record::new(rng.gen_range(0..100), i))
                .collect();
            let mut expect = orig.clone();
            expect.sort_by_key(|r| r.key);
            let mut via_radix = orig.clone();
            let r = local_sort_with(&mut via_radix, threads, true, LocalKernel::Radix);
            assert_eq!(r.kernel, LocalKernel::Radix);
            let mut via_cmp = orig.clone();
            let c = local_sort_with(&mut via_cmp, threads, true, LocalKernel::Comparison);
            assert_eq!(c.kernel, LocalKernel::Comparison);
            assert_eq!(via_radix, expect, "threads={threads}");
            assert_eq!(via_cmp, expect, "threads={threads}");
        }
    }

    #[test]
    fn auto_counts_zipf_keys_in_one_pass_when_the_span_fits() {
        // `zipf:1.4` keys span 20 bits and one key holds ~32 %: δ̂ alone
        // keeps them off byte passes. At 2^21 keys a rank's span fits one
        // counting pass, so the exact span decides.
        let keys = workloads::keys_by_name("zipf:1.4", 1 << 21, 7, 0).expect("a workload");
        let mut expect = keys.clone();
        expect.sort_unstable();
        let mut got = keys.clone();
        let r = local_sort_with(&mut got, 1, false, LocalKernel::Auto);
        let g = r.gate.expect("sampled");
        assert!(!g.picks_radix() && g.span <= 20, "{g:?}");
        assert_eq!((r.kernel, r.exact_span), (LocalKernel::Radix, Some(20)));
        let run = r.radix.expect("radix ran");
        assert_eq!(
            (run.form, run.span, run.n),
            (RadixForm::Counted, 20, 1 << 21)
        );
        assert_eq!(r.scratch_bytes, 0, "counted in place");
        assert_eq!(got, expect);

        // Records scatter once, and stay bit-identical to the stable sort.
        let tagged: Vec<Record<u64, u64>> = keys[..1 << 20]
            .iter()
            .enumerate()
            .map(|(i, &k)| Record::new(k, i as u64))
            .collect();
        let mut expect = tagged.clone();
        expect.sort_by_key(|r| r.key);
        let mut got = tagged;
        let r = local_sort_with(&mut got, 1, true, LocalKernel::Auto);
        let run = r.radix.expect("radix ran");
        assert_eq!((run.form, run.span), (RadixForm::OnePass, 20));
        assert_eq!(r.scratch_bytes, (1 << 20) * 16);
        assert_eq!(got, expect);

        // At 2^16 keys (`sim-zipf-p16`'s ranks) the sample's span already
        // needs more buckets than records: no pre-pass, and δ̂ keeps the
        // comparison sort.
        let mut small = workloads::keys_by_name("zipf:1.4", 1 << 16, 7, 0).expect("a workload");
        let r = local_sort_with(&mut small, 1, false, LocalKernel::Auto);
        assert!(r.gate.is_some_and(|g| !counts_in_one_pass(g.span, 1 << 16)));
        assert_eq!(
            (r.kernel, r.exact_span, r.radix),
            (LocalKernel::Comparison, None, None)
        );
        assert!(small.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn auto_kernel_selection_and_report() {
        // Large radix-capable input → radix, with the scratch accounted.
        // (`u32`: as plain `u64`s the keys' 2 digits would meet the vector
        // quicksort, which byte passes do not beat.)
        let mut v: Vec<u32> = (0..20_000).rev().collect();
        let r = local_sort_with(&mut v, 4, false, LocalKernel::Auto);
        assert_eq!(r.kernel, LocalKernel::Radix);
        assert_eq!(r.scratch_bytes, 20_000 * std::mem::size_of::<u32>());
        assert_eq!(v, (0..20_000).collect::<Vec<u32>>());

        // Small input → comparison, no scratch.
        let mut v = vec![3u64, 1, 2];
        let r = local_sort_with(&mut v, 4, false, LocalKernel::Auto);
        assert_eq!(r.kernel, LocalKernel::Comparison);
        assert_eq!(r.scratch_bytes, 0);

        // Keys without a u64 embedding fall back even when radix is forced.
        let mut v: Vec<u128> = (0..3000).rev().collect();
        let r = local_sort_with(&mut v, 2, false, LocalKernel::Radix);
        assert_eq!(r.kernel, LocalKernel::Comparison);
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
    }
}
