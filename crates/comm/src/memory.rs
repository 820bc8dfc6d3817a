//! Per-rank memory budgets: the one account every transport keeps.
//!
//! Edison nodes hold 64 GB for 24 ranks (~2.7 GB/rank). The paper's key
//! qualitative result on skewed data is that HykSort's histogram
//! partitioning concentrates all duplicates of a popular key on one rank,
//! which then exceeds its memory and crashes (RDFA reported as ∞ in
//! Tables 3 and 4), while SDS-Sort's skew-aware partition keeps every rank
//! within `O(4N/p)`. [`Budget`] reproduces that failure mode on every
//! backend: sorters declare their receive buffers through
//! [`Communicator::try_alloc`](crate::Communicator::try_alloc), which
//! charges the rank's account here, and a request over the per-rank limit
//! returns [`OomError`] instead of exhausting host RAM.
//!
//! Reservations are counted from record counts, never read off the
//! allocator, so for equal budgets every rank's verdict is the same on the
//! simulator, on threads and over sockets.

use crate::OomError;
use std::sync::atomic::{AtomicUsize, Ordering};
use telemetry::MemoryReport;

/// The memory account of every rank of a world: one limit, and each rank's
/// bytes in use and high-water mark, indexed by world rank.
#[derive(Debug)]
pub struct Budget {
    /// Per-rank limit in bytes; `usize::MAX` means unlimited.
    limit: usize,
    used: Vec<AtomicUsize>,
    high_water: Vec<AtomicUsize>,
}

impl Budget {
    /// An account for `ranks` ranks. A `limit` of `None` enforces nothing
    /// (reservations are still counted for the high-water mark).
    pub fn new(ranks: usize, limit: Option<usize>) -> Self {
        Self {
            limit: limit.unwrap_or(usize::MAX),
            used: (0..ranks).map(|_| AtomicUsize::new(0)).collect(),
            high_water: (0..ranks).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Per-rank limit in bytes (`usize::MAX` if unlimited).
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Charge `bytes` to `rank` with `withheld` bytes of the limit
    /// temporarily unavailable (the simulator's memory-pressure fault; 0
    /// elsewhere). An unlimited budget is never reduced. On success the
    /// caller owns the reservation and must release it with
    /// [`free`](Self::free).
    pub fn try_alloc(&self, rank: usize, bytes: usize, withheld: usize) -> Result<(), OomError> {
        let effective = self.effective(withheld);
        let used = &self.used[rank];
        let mut cur = used.load(Ordering::SeqCst);
        loop {
            let new = cur.saturating_add(bytes);
            if new > effective {
                return Err(OomError {
                    rank,
                    requested: bytes,
                    available: effective.saturating_sub(cur),
                    budget: effective,
                });
            }
            match used.compare_exchange_weak(cur, new, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => {
                    self.high_water[rank].fetch_max(new, Ordering::SeqCst);
                    return Ok(());
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Release a previous reservation. Freeing more than `rank` holds is a
    /// bookkeeping bug, and a panic in every build: wrapped around, `used`
    /// would fail every later reservation on the rank as a bogus OOM.
    pub fn free(&self, rank: usize, bytes: usize) {
        let freed = self.used[rank].fetch_update(Ordering::SeqCst, Ordering::SeqCst, |cur| {
            cur.checked_sub(bytes)
        });
        if let Err(held) = freed {
            panic!("free of {bytes} B exceeds the {held} B rank {rank} holds");
        }
    }

    /// Fraction of `rank`'s effective limit (less `withheld`) in use after
    /// reserving `extra` more bytes; 0.0 under an unlimited budget.
    pub fn pressure_with(&self, rank: usize, extra: usize, withheld: usize) -> f64 {
        if self.limit == usize::MAX {
            return 0.0;
        }
        let effective = self.effective(withheld).max(1);
        self.used(rank).saturating_add(extra) as f64 / effective as f64
    }

    /// Bytes currently charged to `rank`.
    pub fn used(&self, rank: usize) -> usize {
        self.used[rank].load(Ordering::SeqCst)
    }

    /// Highest simultaneous usage observed on `rank`.
    pub fn high_water(&self, rank: usize) -> usize {
        self.high_water[rank].load(Ordering::SeqCst)
    }

    /// The limit and every rank's high-water mark, for a run report.
    pub fn report(&self) -> MemoryReport {
        let per_rank: Vec<u64> = (0..self.high_water.len())
            .map(|r| self.high_water(r) as u64)
            .collect();
        MemoryReport {
            budget: (self.limit != usize::MAX).then_some(self.limit as u64),
            max_high_water: per_rank.iter().copied().max().unwrap_or(0),
            per_rank_high_water: per_rank,
        }
    }

    fn effective(&self, withheld: usize) -> usize {
        if self.limit == usize::MAX {
            usize::MAX
        } else {
            self.limit.saturating_sub(withheld)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_fails() {
        let m = Budget::new(2, None);
        assert!(m.try_alloc(0, usize::MAX / 2, 0).is_ok());
        assert!(m.try_alloc(0, usize::MAX / 2, 0).is_ok());
    }

    #[test]
    fn budget_enforced_per_rank() {
        let m = Budget::new(2, Some(100));
        assert!(m.try_alloc(0, 60, 0).is_ok());
        let err = m.try_alloc(0, 60, 0).unwrap_err();
        assert_eq!(err.rank, 0);
        assert_eq!(err.available, 40);
        // rank 1 unaffected
        assert!(m.try_alloc(1, 100, 0).is_ok());
    }

    #[test]
    fn free_restores_capacity() {
        let m = Budget::new(1, Some(100));
        m.try_alloc(0, 100, 0).unwrap();
        assert!(m.try_alloc(0, 1, 0).is_err());
        m.free(0, 50);
        assert!(m.try_alloc(0, 50, 0).is_ok());
    }

    #[test]
    fn high_water_tracks_peak() {
        let m = Budget::new(1, Some(1000));
        m.try_alloc(0, 400, 0).unwrap();
        m.try_alloc(0, 300, 0).unwrap();
        m.free(0, 700);
        m.try_alloc(0, 100, 0).unwrap();
        assert_eq!(m.high_water(0), 700);
        assert_eq!(m.used(0), 100);
        let report = m.report();
        assert_eq!(report.max_high_water, 700);
        assert_eq!(report.budget, Some(1000));
    }

    #[test]
    fn withheld_budget_shrinks_headroom() {
        let m = Budget::new(1, Some(100));
        let err = m.try_alloc(0, 60, 50).unwrap_err();
        assert_eq!(err.budget, 50);
        assert_eq!(err.available, 50);
        assert!(m.try_alloc(0, 50, 50).is_ok());
        // unlimited budgets ignore withholding
        let u = Budget::new(1, None);
        assert!(u.try_alloc(0, 1 << 40, usize::MAX).is_ok());
    }

    #[test]
    fn concurrent_allocs_respect_budget() {
        use std::sync::Arc;
        let m = Arc::new(Budget::new(1, Some(10_000)));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                let mut ok = 0usize;
                for _ in 0..1000 {
                    if m.try_alloc(0, 10, 0).is_ok() {
                        ok += 1;
                    }
                }
                ok
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 1000, "exactly budget/10 allocations must succeed");
        assert_eq!(m.used(0), 10_000);
    }

    #[test]
    #[should_panic(expected = "free of 60 B exceeds the 50 B rank 1 holds")]
    fn over_free_panics_in_every_build() {
        let m = Budget::new(2, Some(100));
        m.try_alloc(1, 50, 0).unwrap();
        m.free(1, 60);
    }
}
