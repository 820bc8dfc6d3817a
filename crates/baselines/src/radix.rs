//! Distributed radix sort (Thearling & Smith, Supercomputing'92 — cited as
//! \[30\] in the paper's related work).
//!
//! Parallel radix sorting for integer-like keys: build a *global histogram*
//! of the keys' top digits, carve the digit space into `p` contiguous
//! ranges of (approximately) equal global population, exchange once, and
//! finish each rank locally. Unlike comparison sample sorts this needs no
//! pivot selection — but the digit ranges cannot split *within* one key
//! value, so a heavily duplicated key pins its entire population to one
//! rank: radix sort shares HykSort's skew failure mode, which is why the
//! paper's related-work section groups it with the non-robust baselines.
//!
//! Keys must expose a monotone unsigned-integer mapping ([`RadixKey`],
//! shared with `sdssort`'s local radix kernel); provided for the integer
//! primitives and the total-order float wrappers. 128-bit keys implement
//! the trait with `USABLE = false` and are rejected at runtime.

use comm::Communicator;
use sdssort::config::ComputeCharge;
use sdssort::driver::{self, Prelude, Step};
use sdssort::exchange::{exchange, Delivery};
use sdssort::partition::cuts_to_counts;
use sdssort::record::Sortable;
use sdssort::sort::{SortError, SortOutput};

pub use sdssort::record::RadixKey;

/// Digit width of the global histogram (top `HIST_BITS` bits of the key).
const HIST_BITS: u32 = 12;
const HIST_SIZE: usize = 1 << HIST_BITS;

fn top_digit(key: u64, shift: u32) -> usize {
    (key >> shift) as usize
}

/// Carve the digit histogram into `p` contiguous ranges of approximately
/// equal population; returns the inclusive end digits of the first `p - 1`
/// ranges (the last range runs to the end of the histogram).
///
/// Boundary `k` goes at the first digit whose cumulative population
/// reaches the ideal curve `(k + 1) · total / p`, so rounding never
/// accumulates across ranges. The previous per-range quota with an
/// accumulator reset (`acc = 0` after each boundary) discarded the
/// overshoot above the quota: on a uniform histogram every range rounded
/// up to whole buckets, the compounded drift exhausted the digit space
/// before `p - 1` boundaries were placed, and the trailing ranks received
/// empty ranges.
pub fn carve_ranges(hist: &[u64], p: usize) -> Vec<usize> {
    assert!(p >= 1 && !hist.is_empty());
    let total: u64 = hist.iter().sum();
    let mut range_end_digit = Vec::with_capacity(p.saturating_sub(1));
    let mut cum: u64 = 0;
    for (digit, &count) in hist.iter().enumerate() {
        cum += count;
        // One boundary per digit: a digit spanning several ideal marks
        // cannot be split (the skew failure), so later marks fall on the
        // digits after it.
        if range_end_digit.len() < p - 1
            && u128::from(cum) * p as u128
                >= (range_end_digit.len() as u128 + 1) * u128::from(total)
        {
            range_end_digit.push(digit);
        }
    }
    while range_end_digit.len() < p - 1 {
        range_end_digit.push(hist.len() - 1);
    }
    range_end_digit
}

/// Distributed radix sort. Unstable. Fails collectively with
/// [`SortError`] under the simulated memory budget, exactly like the
/// other skew-vulnerable baselines.
pub fn radix_sort<T, C>(comm: &C, data: Vec<T>) -> Result<SortOutput<T>, SortError>
where
    C: Communicator,
    T: Sortable,
    T::Key: RadixKey,
{
    assert!(
        <T::Key as RadixKey>::USABLE,
        "radix baseline requires a key with a usable u64 embedding"
    );
    // Compute is always measured here. The local sort comes first so that
    // the boundaries become binary searches and the final ordering a k-way
    // merge; the embedding is monotone, so key order is digit order.
    let prelude = Prelude::unstable(ComputeCharge::Measured);
    driver::sort(comm, data, &prelude, |comm, data, clock| {
        let p = comm.size();
        // Find the key width actually in use so the histogram covers the
        // top HIST_BITS of the *occupied* range (fixed shift would waste
        // buckets on narrow keys).
        clock.enter(Step::Splitters);
        let local_max = data.last().map_or(0, |r| r.key().radix_u64());
        let global_max = comm.allreduce(local_max, u64::max);
        let used_bits = 64 - global_max.leading_zeros();
        let shift = used_bits.saturating_sub(HIST_BITS);

        // Global digit histogram.
        let mut hist = vec![0u64; HIST_SIZE];
        comm.compute(|| {
            for r in &data {
                hist[top_digit(r.key().radix_u64(), shift).min(HIST_SIZE - 1)] += 1;
            }
        });
        let hist = comm.allreduce(hist, |a, b| a.iter().zip(&b).map(|(x, y)| x + y).collect());

        // Carve digit space into p ranges of ≈ total/p population. A single
        // over-populated digit cannot be split — the skew failure.
        let range_end_digit = comm.compute(|| carve_ranges(&hist, p));

        // Cut local (sorted) data at each range boundary.
        clock.enter(Step::Partition);
        let mut cuts = Vec::with_capacity(p + 1);
        cuts.push(0usize);
        for &end_digit in &range_end_digit {
            // First record whose top digit exceeds end_digit. Computed in
            // u128: the last digit's upper boundary is 2^64, which overflows
            // u64.
            let boundary = (end_digit as u128 + 1) << shift;
            let pos = if boundary > u64::MAX as u128 {
                data.len()
            } else {
                let boundary_key = boundary as u64;
                comm.compute(|| data.partition_point(|r| r.key().radix_u64() < boundary_key))
            };
            cuts.push(pos);
        }
        cuts.push(data.len());
        debug_assert!(cuts.windows(2).all(|w| w[0] <= w[1]));
        let scounts = cuts_to_counts(&cuts);

        // Collective memory check, exchange, k-way merge of the received
        // chunks.
        exchange(comm, data, &scounts, Delivery::Merge, prelude.charge, clock)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Population of each of the `p` ranges implied by the end digits.
    fn range_pops(hist: &[u64], ends: &[usize]) -> Vec<u64> {
        let mut pops = Vec::with_capacity(ends.len() + 1);
        let mut start = 0usize;
        for &end in ends {
            pops.push(hist[start..=end].iter().sum());
            start = end + 1;
        }
        pops.push(hist[start.min(hist.len())..].iter().sum());
        pops
    }

    #[test]
    fn carve_balances_uniform_histogram() {
        // Regression for the acc-reset bug: on a uniform histogram every
        // range used to round up to whole buckets without carrying the
        // overshoot, the cumulative drift ran out of digits after ~4/5 of
        // the boundaries, and the trailing ranks got empty ranges.
        let hist = vec![10u64; 4096];
        let p = 1000usize;
        let ends = carve_ranges(&hist, p);
        assert_eq!(ends.len(), p - 1);
        assert!(
            ends.windows(2).all(|w| w[0] < w[1]),
            "boundaries must strictly advance on a uniform histogram"
        );
        let pops = range_pops(&hist, &ends);
        assert_eq!(pops.len(), p);
        assert_eq!(pops.iter().sum::<u64>(), 40_960);
        let ideal = 40_960u64 / p as u64; // 40.96 → 40
        assert!(
            *pops.iter().min().unwrap() > 0,
            "no rank may receive an empty range: {pops:?}"
        );
        assert!(
            *pops.iter().max().unwrap() <= 2 * (ideal + 1),
            "max range within 2x of ideal: max={}",
            pops.iter().max().unwrap()
        );
    }

    #[test]
    fn carve_survives_dominant_digit() {
        // One digit holds 90% of the population: it cannot be split (the
        // documented skew failure), but carving must still return p - 1
        // in-bounds, non-decreasing boundaries.
        let mut hist = vec![1u64; 256];
        hist[40] = 10_000;
        let p = 8usize;
        let ends = carve_ranges(&hist, p);
        assert_eq!(ends.len(), p - 1);
        assert!(ends.windows(2).all(|w| w[0] <= w[1]));
        assert!(ends.iter().all(|&e| e < 256));
        assert_eq!(range_pops(&hist, &ends).iter().sum::<u64>(), 10_255);
    }

    #[test]
    fn carve_single_rank_is_trivial() {
        assert!(carve_ranges(&[5, 5, 5], 1).is_empty());
    }
}
