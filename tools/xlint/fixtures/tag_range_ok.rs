// xlint fixture: sanctioned tag usage — named constants safely below the
// reserved boundary, const chains that stay in user space, and large
// non-tag constants (hash mixers, sign masks) that the name filter must
// ignore. Zero user-tag-range findings. Never compiled.

const BASE_TAG: u64 = 1 << 20;
const PIVOT_TAG: u64 = BASE_TAG + 1;
const CARVE_TAG: u64 = BASE_TAG + 2;
// Large by nature, but not tags: outside the rule's name filter.
const HASH_MIX: u64 = 0x9E37_79B9_7F4A_7C15;
const SIGN_MASK: u64 = 0x8000_0000_0000_0000;

fn user_space_tags(comm: &Comm) {
    comm.send_val(1, PIVOT_TAG, 9u64);
    let _: u64 = comm.recv_val(0, CARVE_TAG);
    let _ = comm.recv_vec::<u64>(0, BASE_TAG);
}

fn runtime_tags(comm: &Comm, round: u64) {
    // Runtime tag arithmetic is out of static reach; the dynamic check in
    // comm::check_user_tag covers it.
    comm.send_val(1, BASE_TAG + round, 9u64);
}
