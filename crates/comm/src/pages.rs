//! Where a sort gets its `n`-record buffers.
//!
//! A one-shot sort writes each of its big buffers — the radix scratch, the
//! exchange's receive buffer, the merge output — exactly once, so what it
//! pays for them is the first touch: with 4 KiB pages a fresh 16 MiB `Vec`
//! takes 4 096 page faults, with 2 MiB pages 8 (DESIGN.md §11.5). Linux
//! backs private anonymous memory with the large pages when the mapping
//! asked for them, so [`reserve`] asks. From one huge page up it rounds the
//! capacity to whole huge pages less the allocator's header
//! (`capacity`), which glibc serves with a mapping of exactly that many
//! huge pages; the kernel places such a mapping on a huge-page boundary.
//! Where the allocation did start on one — checked, never assumed — the
//! pages the records fill are advised `MADV_HUGEPAGE` from the first byte,
//! and the first huge page, which the allocator's header has already
//! faulted as a 4 KiB page, is collapsed into a huge one. Anywhere else the
//! base pages wholly inside the allocation are advised (`advice`).
//! Nothing is pooled, pre-faulted or kept: the buffer is an ordinary `Vec`
//! of the global allocator, freed as one.
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
use thp::{advise, huge_page_bytes, MADV_COLLAPSE, MADV_HUGEPAGE};

/// The kernel's base page, which `madvise` wants its range aligned to. A
/// kernel with larger base pages refuses the range (`EINVAL`) and the
/// buffer stays what `reserve_exact` made it.
const BASE_PAGE: usize = 4096;

/// What glibc adds to a request it serves with its own mapping (the chunk
/// header, 16 bytes, and the request's rounding to 16), rounded up so that
/// records of 8, 16 and 32 bytes divide `k` huge pages less it: a request
/// of that many bytes is mapped as exactly `k` huge pages, and a `Payload`
/// of 8-byte words that size can still become such records.
const CHUNK_OVERHEAD: usize = 32;

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

/// `Vec::reserve_exact`, rounded up to whole huge pages from one huge page
/// on (`capacity`), with the allocation it makes (if it makes one)
/// advised to be backed by huge pages (`advice`). Length and contents of
/// `v` are untouched, as with `reserve_exact`.
pub fn reserve<T>(v: &mut Vec<T>, additional: usize) {
    // Room is there already — always so for a zero-sized `T`, whose
    // capacity is `usize::MAX` and which owns nothing.
    if v.capacity() - v.len() >= additional {
        return;
    }
    let record = std::mem::size_of::<T>();
    let requested = v.len().saturating_add(additional);
    let huge = huge_page_bytes();
    let records = huge.map_or(requested, |huge| capacity(requested, record, huge));
    v.reserve_exact(records - v.len());
    let bytes = v.capacity() * record;
    let advised = huge
        .and_then(|huge| {
            let start = v.as_ptr() as usize;
            let Advice { pages, collapse } = advice(start, requested * record, bytes, huge)?;
            if !advise(&pages, MADV_HUGEPAGE) {
                return None;
            }
            // Whether the kernel found a huge page to collapse into is its
            // business: the advice stands either way.
            if collapse {
                advise(&(pages.start..pages.start + huge), MADV_COLLAPSE);
            }
            Some(pages.len())
        })
        .unwrap_or(0);
    let mut tally = TALLY.get();
    tally.reserved_bytes += bytes as u64;
    tally.advised_bytes += advised as u64;
    TALLY.set(tally);
}

/// An empty vector with room for at least `capacity` elements, reserved by
/// [`reserve`].
pub fn with_capacity<T>(capacity: usize) -> Vec<T> {
    let mut v = Vec::new();
    reserve(&mut v, capacity);
    v
}

/// How many records of `record` bytes to allocate room for when `requested`
/// are asked for: exactly those below one huge page of `huge` bytes, and
/// from there on as many as fit in the fewest huge pages that hold them,
/// less [`CHUNK_OVERHEAD`].
fn capacity(requested: usize, record: usize, huge: usize) -> usize {
    let bytes = requested.saturating_mul(record);
    if record == 0 || bytes < huge {
        return requested;
    }
    let pages = bytes.saturating_add(CHUNK_OVERHEAD).div_ceil(huge);
    pages.saturating_mul(huge).saturating_sub(CHUNK_OVERHEAD) / record
}

/// Which pages [`reserve`] advises, and whether it collapses the first.
#[derive(Debug, PartialEq, Eq)]
struct Advice {
    pages: Range<usize>,
    collapse: bool,
}

/// The advice for a fresh allocation of `alloc` bytes at `start`, of which
/// the caller asked for `requested`, on a host with huge pages of `huge`
/// bytes.
///
/// When at least one huge page was asked for and the base page holding the
/// first byte starts a huge page, the huge pages from there on that the
/// request fills, the last one at least half (a page filled less than that
/// is cheaper faulted 4 KiB at a time than zeroed whole), but none past the
/// base page holding the allocation's last byte; the first of them is to be
/// collapsed, since the allocator's header has faulted its head. Otherwise
/// the base pages lying wholly inside the allocation, if they come to at
/// least one huge page. Every advised base page holds a byte of the
/// allocation.
fn advice(start: usize, requested: usize, alloc: usize, huge: usize) -> Option<Advice> {
    let first = start / BASE_PAGE * BASE_PAGE;
    if requested >= huge && first.is_multiple_of(huge) {
        let filled = start.checked_add(requested)? - first;
        let wanted = filled / huge + usize::from(filled % huge >= huge / 2);
        let held = start
            .checked_add(alloc)?
            .checked_next_multiple_of(BASE_PAGE)?
            - first;
        let pages = wanted.min(held / huge);
        return (pages > 0).then(|| Advice {
            pages: first..first + pages * huge,
            collapse: true,
        });
    }
    whole_pages(start..start.checked_add(alloc)?, huge).map(|pages| Advice {
        pages,
        collapse: false,
    })
}

/// The base pages lying wholly inside `alloc`, if they come to at least one
/// huge page of `huge` bytes.
fn whole_pages(alloc: Range<usize>, huge: usize) -> Option<Range<usize>> {
    let start = alloc.start.checked_next_multiple_of(BASE_PAGE)?;
    let end = alloc.end / BASE_PAGE * BASE_PAGE;
    (start < end && end - start >= huge).then_some(start..end)
}

/// The calling thread's minor page faults so far: field 10 of
/// `/proc/thread-self/stat`. `None` where that file does not exist.
pub fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // Field 2, the command name, is parenthesised and may hold spaces:
    // count from the last `)`, after which field 3 comes.
    let (_, rest) = stat.rsplit_once(')')?;
    rest.split_whitespace().nth(10 - 3)?.parse().ok()
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

    /// `MADV_HUGEPAGE` of `<asm-generic/mman-common.h>`: back the range
    /// with huge pages from its next fault on.
    pub(super) const MADV_HUGEPAGE: c_int = 14;

    /// `MADV_COLLAPSE` (Linux 6.1): replace the base pages already faulted
    /// in the range by huge pages now, contents kept. Older kernels refuse
    /// it (`EINVAL`).
    pub(super) const MADV_COLLAPSE: c_int = 25;

    /// `madvise(pages, advice)`; whether the kernel took the advice.
    pub(super) fn advise(pages: &Range<usize>, advice: c_int) -> bool {
        // SAFETY: the one caller, `reserve`, passes base pages each holding
        // a byte of an allocation its `&mut Vec` owns (`advice`), so every
        // page is mapped and none is anybody else's mapping; the two
        // advices it gives change no contents and no protection — only how
        // large the pages are that back the range.
        unsafe { madvise(pages.start as *mut c_void, pages.len(), advice) == 0 }
    }
}

/// Everywhere else there is nothing to ask for: [`reserve`] is `reserve_exact`.
#[cfg(not(all(target_os = "linux", not(miri))))]
mod thp {
    pub(super) const MADV_HUGEPAGE: i32 = 14;
    pub(super) const MADV_COLLAPSE: i32 = 25;

    pub(super) fn huge_page_bytes() -> Option<usize> {
        None
    }

    pub(super) fn advise(_pages: &std::ops::Range<usize>, _advice: i32) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HUGE: usize = 2 << 20;
    const MIB: usize = 1 << 20;

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

    /// The layout rule, row by row: where the vector's first byte lies,
    /// how many records of what size were asked for → the capacity
    /// `reserve` allocates, and the pages it advises (collapsing the first
    /// or not).
    #[test]
    fn the_layout_rule_rounds_to_whole_huge_pages_and_advises_from_an_aligned_start() {
        // glibc's mmapped chunk: the mapping is huge-aligned, the records
        // start after its 16-byte header.
        let map = 0x7f00_0000_0000;
        let aligned = map + 16;
        // The same, half a huge page further on.
        let unaligned = map + HUGE / 2 + 16;
        let whole = |pages: usize| pages * HUGE - CHUNK_OVERHEAD;
        let from_map = |pages: usize| Some((map..map + pages * HUGE, true));
        // name, start, records, record bytes → capacity, advice
        type Row = (
            &'static str,
            usize,
            usize,
            usize,
            usize,
            Option<(Range<usize>, bool)>,
        );
        let rows: [Row; 10] = [
            (
                "16 MiB, aligned",
                aligned,
                2 * MIB,
                8,
                whole(9) / 8,
                from_map(8),
            ),
            (
                "16 MiB, unaligned: the interior pages",
                unaligned,
                2 * MIB,
                8,
                whole(9) / 8,
                Some((
                    unaligned + 4080..(unaligned + whole(9)) / BASE_PAGE * BASE_PAGE,
                    false,
                )),
            ),
            (
                "below one huge page: exact, nothing",
                aligned,
                1000,
                8,
                1000,
                None,
            ),
            (
                "one byte short of a huge page",
                aligned,
                HUGE - 1,
                1,
                HUGE - 1,
                None,
            ),
            (
                "exactly one huge page",
                aligned,
                HUGE,
                1,
                whole(2),
                from_map(1),
            ),
            // The last page: the request (and the header) fill it 16 bytes
            // short of half, then exactly half.
            (
                "last huge page under half full",
                aligned,
                (17 * MIB - 32) / 8,
                8,
                whole(9) / 8,
                from_map(8),
            ),
            (
                "last huge page half full",
                aligned,
                (17 * MIB - 16) / 8,
                8,
                whole(9) / 8,
                from_map(9),
            ),
            // Records of 16 and 32 bytes divide the capacity, 28 does not.
            (
                "16-byte records",
                aligned,
                MIB,
                16,
                whole(9) / 16,
                from_map(8),
            ),
            (
                "28-byte records",
                aligned,
                16 * MIB / 28,
                28,
                whole(9) / 28,
                from_map(8),
            ),
            (
                "32-byte records",
                aligned,
                MIB / 2,
                32,
                whole(9) / 32,
                from_map(8),
            ),
        ];
        for (name, start, records, record, want_capacity, want_advice) in rows {
            let got = capacity(records, record, HUGE);
            assert_eq!(got, want_capacity, "{name}: capacity");
            assert!(got >= records, "{name}: room for the request");
            let alloc = got * record;
            let advised = advice(start, records * record, alloc, HUGE)
                .map(|Advice { pages, collapse }| (pages, collapse));
            assert_eq!(advised, want_advice, "{name}: advice");
            if let Some((pages, _)) = advised {
                // Every advised base page holds a byte of the allocation.
                assert!(pages.start + BASE_PAGE > start && pages.end < start + alloc + BASE_PAGE);
            }
        }
        // From one huge page up, a mapping of whole huge pages, which 8-,
        // 16- and 32-byte records fill to the last byte glibc leaves them.
        for record in [8, 16, 32] {
            for records in [HUGE / record, 3 * HUGE / record + 1, 5 * HUGE / record - 4] {
                let bytes = capacity(records, record, HUGE) * record;
                assert_eq!((bytes + CHUNK_OVERHEAD) % HUGE, 0, "{record} × {records}");
            }
        }
        // No record, no rounding.
        assert_eq!(capacity(usize::MAX, 0, HUGE), usize::MAX);
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

    /// Why a filled reservation cannot be checked for huge pages here, if
    /// it cannot.
    fn missing_precondition(start: usize) -> Option<String> {
        let Some(huge) = huge_page_bytes() else {
            return Some("no transparent huge pages (hpage_pmd_size absent, or Miri)".into());
        };
        let enabled = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled");
        if enabled.map_or(true, |e| e.contains("[never]")) {
            return Some("transparent huge pages are switched off".into());
        }
        let first = start / BASE_PAGE * BASE_PAGE;
        if !first.is_multiple_of(huge) {
            return Some(format!(
                "the allocator's mapping came back at {first:#x}, unaligned"
            ));
        }
        minor_faults()
            .is_none()
            .then(|| "no /proc/thread-self/stat to count faults in".into())
    }

    #[test]
    fn a_large_reservation_is_a_vec_and_is_advised() {
        const N: usize = (16 << 20) / 8;
        take_tally();
        let faults_before = minor_faults();
        let mut v = vec![7u64, 8, 9];
        reserve(&mut v, N - 3);
        assert_eq!(v, [7, 8, 9], "contents survive the move");
        assert!(v.capacity() >= N);
        let start = v.as_ptr() as usize;
        let bytes = v.capacity() * 8;
        v.extend((3..N as u64).map(|i| i * 3));
        let faults = minor_faults().zip(faults_before).map(|(a, b)| a - b);
        assert_eq!(v.as_ptr() as usize, start, "filling what was reserved");
        assert_eq!((v.len(), v[2], v[N - 1]), (N, 9, (N as u64 - 1) * 3));

        let tally = take_tally();
        assert_eq!(tally.reserved_bytes, bytes as u64);
        if let Some(missing) = missing_precondition(start) {
            println!("huge-page check skipped: {missing}");
        } else {
            let huge = huge_page_bytes().expect("checked");
            assert_eq!(bytes, capacity(N, 8, huge) * 8, "whole huge pages");
            assert_eq!(tally.advised_bytes, (N * 8 / huge * huge) as u64);
            let faults = faults.expect("checked");
            assert!(
                faults <= 16,
                "{faults} minor faults filling 16 MiB: not huge pages"
            );
        }

        // Room is there already: no allocation, so nothing to advise again.
        v.truncate(10);
        reserve(&mut v, N / 2);
        assert_eq!(v.as_ptr() as usize, start);
        assert_eq!(take_tally(), Tally::default());
    }

    #[test]
    fn minor_faults_count_this_threads_first_touches() {
        let Some(before) = minor_faults() else {
            println!("skipped: no /proc/thread-self/stat");
            return;
        };
        // Above glibc's largest dynamic mmap threshold (32 MiB), so a
        // fresh mapping whatever other tests freed before; zeroed by the
        // kernel, so nothing touches it until the stores below.
        let mut fresh = vec![0u8; 33 << 20];
        for page in 0..64 {
            fresh[page * 2 * BASE_PAGE] = 1;
        }
        std::hint::black_box(&fresh);
        let after = minor_faults().expect("still there");
        assert!(after > before, "{before} → {after}");
    }
}
