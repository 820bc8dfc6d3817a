// xlint fixture: user-tag-range violations — tags wandering into the
// reserved collective space (>= 2^48) and reserved-tag RawComm calls
// outside the backend substrate. Scanned under an algorithm-crate path
// by tools/xlint/tests/fixtures.rs; never compiled.

const BASE_TAG: u64 = 1 << 47;
const PROBE_TAG: u64 = BASE_TAG + BASE_TAG; // user-tag-range: lands exactly on 2^48
const STEAL_TAG: u64 = MAX_USER_TAG + 3; // user-tag-range: reserved space by construction

fn reserved_literal(comm: &Comm) {
    comm.send_val(1, 281474976710656u64, 9u64); // user-tag-range (and tag-discipline: literal)
}

fn reserved_const(comm: &Comm) {
    comm.send_val(1, PROBE_TAG, 9u64); // user-tag-range: const chain evaluates to 2^48
}

fn raw_surface(comm: &Comm) {
    let _t = comm.next_coll_tag(); // user-tag-range: reserved-tag plumbing
    comm.send_raw(0, BASE_TAG, vec![1u64]); // user-tag-range: RawComm bypasses the check
}

const SHIFTED_TAG: u64 = 1 << 47 + 1; // user-tag-range: `+` binds first, so 1 << 48
