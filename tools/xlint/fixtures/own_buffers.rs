// xlint fixture: the two buffer-allocating functions of merge.rs building
// vectors of their own, and the kernel's huge-page call outside
// comm::pages. Scanned under crates/sdssort/src/merge.rs by
// tools/xlint/tests/fixtures.rs; never compiled.

pub fn merge_two_by_key<T: Copy, K: Ord>(a: &[T], b: &[T], key: impl Fn(&T) -> K) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len() + b.len()); // pages-owns-buffers (and no pages call)
    merge_into(a, b, &key, &mut out);
    out
}

pub fn kway_merge_into<T: Sortable>(runs: &[&[T]], out: &mut Vec<T>) {
    comm::pages::reserve(out, total_len(runs));
    let mut heads = vec![0usize; runs.len()]; // pages-owns-buffers
    out.reserve(1); // pages-owns-buffers
    let first = runs[0].to_vec(); // pages-owns-buffers
}

fn advise(start: *mut u8, len: usize) -> bool {
    extern "C" { // pages-owns-buffers: the foreign call belongs to comm::pages
        fn madvise(addr: *mut u8, length: usize, advice: i32) -> i32;
    }
    madvise(start, len, 14) == 0 // pages-owns-buffers
}
