//! Where a sort gets its `n`-record buffers.
//!
//! A one-shot sort writes each of its big buffers — the radix scratch, the
//! exchange's receive buffer, the merge output — exactly once, so what it
//! pays for them is the first touch: with 4 KiB pages a fresh 16 MiB `Vec`
//! takes 4 096 page faults, with 2 MiB pages 7 or 8 plus the partial huge
//! pages at its two ends (7.8 ms against 1.8 ms where DESIGN.md §11.5
//! measured them). Linux backs private anonymous memory with the large
//! pages when the mapping asked for them, so [`reserve`] asks: it is
//! `Vec::reserve_exact` followed, when the allocation it just obtained is
//! at least one huge page long, by `madvise(MADV_HUGEPAGE)` on the pages
//! that lie wholly inside it. Nothing is pooled, pre-faulted or kept: the
//! buffer is an ordinary `Vec` of the global allocator, freed as one.
//!
//! The huge-page size is read once from
//! `/sys/kernel/mm/transparent_hugepage/hpage_pmd_size`. Where that file
//! does not exist (no THP, not Linux) and under Miri there is no advice to
//! give and [`reserve`] is `Vec::reserve_exact`.
//!
//! Each thread tallies what it reserved and how much of that was advised;
//! the sort's phase clock takes the tally ([`take_tally`]) into the
//! telemetry counters `mem.sort_buffer_bytes` / `mem.huge_advised_bytes`.

use std::cell::Cell;
use std::ops::Range;
use thp::{advise, huge_page_bytes};

/// The kernel's base page, which `madvise` wants its range aligned to. A
/// kernel with larger base pages refuses the range (`EINVAL`) and the
/// buffer stays what `reserve_exact` made it.
const BASE_PAGE: usize = 4096;

/// What a thread's [`reserve`] calls came to since its last [`take_tally`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Capacity, in bytes, of the allocations `reserve` obtained.
    pub reserved_bytes: u64,
    /// How many of those bytes the kernel accepted the huge-page advice
    /// for. A count of address ranges, not of huge pages handed out: those
    /// depend on how fragmented the host's memory is.
    pub advised_bytes: u64,
}

thread_local! {
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally { reserved_bytes: 0, advised_bytes: 0 })
    };
}

/// This thread's tally, which restarts from zero.
pub fn take_tally() -> Tally {
    TALLY.take()
}

/// `Vec::reserve_exact`, with the allocation it makes (if it makes one, and
/// it is large enough) advised to be backed by huge pages. Length and
/// contents of `v` are untouched, as with `reserve_exact`.
pub fn reserve<T>(v: &mut Vec<T>, additional: usize) {
    let before = (v.as_ptr(), v.capacity());
    v.reserve_exact(additional);
    // Room was there already — always so for a zero-sized `T`, whose
    // capacity is `usize::MAX` and which owns nothing.
    if (v.as_ptr(), v.capacity()) == before {
        return;
    }
    let bytes = v.capacity() * std::mem::size_of::<T>();
    let start = v.as_mut_ptr() as usize;
    let advised = huge_page_bytes()
        .and_then(|huge| whole_pages(start..start + bytes, huge))
        .filter(advise)
        .map_or(0, |pages| pages.len());
    let mut tally = TALLY.get();
    tally.reserved_bytes += bytes as u64;
    tally.advised_bytes += advised as u64;
    TALLY.set(tally);
}

/// An empty vector with room for exactly `capacity` elements, reserved by
/// [`reserve`].
pub fn with_capacity<T>(capacity: usize) -> Vec<T> {
    let mut v = Vec::new();
    reserve(&mut v, capacity);
    v
}

/// The base pages lying wholly inside `alloc`, if they come to at least one
/// huge page of `huge` bytes.
fn whole_pages(alloc: Range<usize>, huge: usize) -> Option<Range<usize>> {
    let start = alloc.start.checked_next_multiple_of(BASE_PAGE)?;
    let end = alloc.end / BASE_PAGE * BASE_PAGE;
    (start < end && end - start >= huge).then_some(start..end)
}

/// What Linux has and Miri cannot run: the size of a transparent huge page
/// and the call that asks for them.
#[cfg(all(target_os = "linux", not(miri)))]
mod thp {
    use std::ffi::{c_int, c_void};
    use std::ops::Range;
    use std::sync::OnceLock;

    /// The size of a transparent huge page on this host; `None` where there
    /// are none to ask for.
    pub(super) fn huge_page_bytes() -> Option<usize> {
        static HUGE: OnceLock<Option<usize>> = OnceLock::new();
        *HUGE.get_or_init(|| {
            std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/hpage_pmd_size")
                .ok()?
                .trim()
                .parse()
                .ok()
        })
    }

    // SAFETY: `madvise(2)` as the C library `std` already links declares it:
    // `int madvise(void *addr, size_t length, int advice)`.
    extern "C" {
        fn madvise(addr: *mut c_void, length: usize, advice: c_int) -> c_int;
    }

    /// `MADV_HUGEPAGE` of `<asm-generic/mman-common.h>`.
    const MADV_HUGEPAGE: c_int = 14;

    /// Ask for huge pages behind `pages`; whether the kernel took the advice.
    pub(super) fn advise(pages: &Range<usize>) -> bool {
        // SAFETY: the one caller, `reserve`, passes a range that lies inside
        // an allocation its `&mut Vec` owns, so nobody else's mapping is
        // touched, and `MADV_HUGEPAGE` changes no contents and no protection
        // — only how large the pages are that back the range from now on.
        unsafe { madvise(pages.start as *mut c_void, pages.len(), MADV_HUGEPAGE) == 0 }
    }
}

/// Everywhere else there is nothing to ask for: [`reserve`] is `reserve_exact`.
#[cfg(not(all(target_os = "linux", not(miri))))]
mod thp {
    pub(super) fn huge_page_bytes() -> Option<usize> {
        None
    }

    pub(super) fn advise(_pages: &std::ops::Range<usize>) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HUGE: usize = 2 << 20;

    #[test]
    fn whole_pages_are_the_base_pages_inside_the_allocation() {
        // A `malloc`ed block starts 16 bytes into its mapping's first page.
        let at = 0x7f00_0000_0010;
        assert_eq!(
            whole_pages(at..at + 8 * HUGE, HUGE),
            Some(0x7f00_0000_1000..0x7f00_0100_0000)
        );
        // Aligned at both ends: all of it.
        assert_eq!(whole_pages(HUGE..2 * HUGE, HUGE), Some(HUGE..2 * HUGE));
        // One huge page long, but not once the partial pages are gone.
        assert_eq!(whole_pages(16..16 + HUGE, HUGE), None);
        assert_eq!(whole_pages(0..HUGE - 1, HUGE), None);
        // Degenerate ranges: empty, inside one page, at the top of memory.
        assert_eq!(whole_pages(4096..4096, HUGE), None);
        assert_eq!(whole_pages(5000..6000, BASE_PAGE), None);
        assert_eq!(whole_pages(usize::MAX - 10..usize::MAX, BASE_PAGE), None);
    }

    #[test]
    fn below_one_huge_page_reserve_is_reserve_exact() {
        take_tally();
        let mut v = vec![1u64, 2, 3];
        reserve(&mut v, 1000);
        let mut w = vec![1u64, 2, 3];
        w.reserve_exact(1000);
        assert_eq!((v.len(), v.capacity()), (w.len(), w.capacity()));
        assert_eq!(v, w);
        let small: Vec<u8> = with_capacity(huge_page_bytes().unwrap_or(HUGE) - 1);
        assert!(small.is_empty());
        let tally = take_tally();
        assert_eq!(tally.advised_bytes, 0);
        assert_eq!(tally.reserved_bytes, (1003 * 8 + small.capacity()) as u64);
        // Nothing to reserve, nothing obtained; zero-sized records own nothing.
        reserve(&mut v, 10);
        let _units: Vec<()> = with_capacity(1 << 30);
        assert_eq!(take_tally(), Tally::default());
    }

    /// `VmFlags` of the mapping that holds `addr`, from `/proc/self/smaps`.
    fn vm_flags_at(addr: usize) -> Option<String> {
        let smaps = std::fs::read_to_string("/proc/self/smaps").ok()?;
        let mut inside = false;
        for line in smaps.lines() {
            let head = line.split(' ').next()?;
            if let Some((lo, hi)) = head.split_once('-') {
                if let (Ok(lo), Ok(hi)) =
                    (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
                {
                    inside = (lo..hi).contains(&addr);
                    continue;
                }
            }
            if inside && head == "VmFlags:" {
                return Some(line.to_string());
            }
        }
        None
    }

    #[test]
    fn a_large_reservation_is_a_vec_and_is_advised() {
        const N: usize = (8 << 20) / 8;
        take_tally();
        let mut v = vec![7u64, 8, 9];
        reserve(&mut v, N);
        assert_eq!(v, [7, 8, 9], "contents survive the move");
        assert!(v.capacity() >= N + 3);
        let start = v.as_ptr() as usize;
        let bytes = v.capacity() * 8;
        v.extend((0..N as u64).map(|i| i * 3));
        assert_eq!(v.as_ptr() as usize, start, "filling what was reserved");
        assert_eq!((v.len(), v[3], v[N + 2]), (N + 3, 0, (N as u64 - 1) * 3));

        let tally = take_tally();
        assert_eq!(tally.reserved_bytes, bytes as u64);
        let Some(huge) = huge_page_bytes() else {
            println!("skipped: no transparent huge pages here (hpage_pmd_size absent, or Miri)");
            assert_eq!(tally.advised_bytes, 0, "plain reserve_exact");
            return;
        };
        let pages = whole_pages(start..start + bytes, huge).expect("8 MiB hold a huge page");
        assert_eq!(tally.advised_bytes, pages.len() as u64);
        let flags = vm_flags_at(pages.start + pages.len() / 2).expect("the buffer is mapped");
        assert!(
            flags.split(' ').any(|f| f == "hg"),
            "no hg among the buffer's {flags}"
        );

        // Room is there already: no allocation, so nothing to advise again.
        v.truncate(10);
        reserve(&mut v, N / 2);
        assert_eq!(v.as_ptr() as usize, start);
        assert_eq!(take_tally(), Tally::default());
    }
}
