// xlint fixture: the sanctioned spelling — each buffer-allocating function
// of merge.rs takes its buffer from comm::pages, through a `use` or by its
// full path, and a vector built outside those functions is not the rule's.
// Zero pages-owns-buffers findings under crates/sdssort/src/merge.rs.
// Never compiled.

use comm::pages;

pub fn merge_two_by_key<T: Copy, K: Ord>(a: &[T], b: &[T], key: impl Fn(&T) -> K) -> Vec<T> {
    let mut out = pages::with_capacity(a.len() + b.len());
    merge_into(a, b, &key, &mut out);
    out
}

pub fn kway_merge_into<T: Sortable>(runs: &[&[T]], out: &mut Vec<T>) {
    comm::pages::reserve(out, total_len(runs));
    loser_tree_merge(runs, out);
}

fn scratch_heads(k: usize) -> Vec<usize> {
    vec![0; k]
}
