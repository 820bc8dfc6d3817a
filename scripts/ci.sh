#!/usr/bin/env bash
# CI gate: format, lints, tests, and a metrics-emission smoke test.
#
# Works both online and in sealed containers: the committed
# .cargo/config.toml patches the external crates (parking_lot, rand,
# proptest) to the std-only stubs under devstubs/, and the committed
# Cargo.lock records that resolution, so cargo never asks the index.
# --locked makes a stale lock file fail the run instead of being rewritten;
# --offline is added only if a fetch fails all the same.
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_OPTS=(--locked)
if ! cargo fetch --quiet --locked 2>/dev/null; then
    echo "ci: crates.io unreachable, running offline"
    CARGO_OPTS+=(--offline)
fi

run() {
    echo "ci: $*"
    "$@"
}

run cargo fmt --all --check
run cargo clippy --workspace --all-targets "${CARGO_OPTS[@]}" -- -D warnings
# A doc link to a private or ambiguous item renders as dead text.
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps "${CARGO_OPTS[@]}"
run cargo build --release --workspace "${CARGO_OPTS[@]}"
run cargo test -q --workspace "${CARGO_OPTS[@]}"

# The benchmark (benchmark/, a package of its own) is a consumer of the
# crates' public API: it must build, and its unit tests pass, against the
# workspace as it is now, so an API change that breaks it fails here and
# not in the benchmark pipeline.
run cargo build --release --offline --manifest-path benchmark/Cargo.toml --target-dir target
run cargo test -q --offline --manifest-path benchmark/Cargo.toml --target-dir target

# Workspace source lint: AST-driven semantic pass with no external crate (SPMD
# rank-divergence, partition arithmetic, tag ranges, and one table of banned
# calls — see DESIGN.md §13). Exceptions live in xlint.allow with
# justifications; stale entries and stale table scopes fail the run. Emits the
# versioned JSON report for CI artifact upload, then gates on the exit
# code (the --out report is written even when the run fails).
XLINT_REPORT="${XLINT_REPORT:-target/xlint-report.json}"
run cargo run --release -q "${CARGO_OPTS[@]}" -p xlint -- \
    --format json --out "$XLINT_REPORT"

# Miri over the unsafe-bearing modules (merge internals — the two-way
# kernel's four-chain lockstep and two-chain rounds, its co-rank oracle,
# exhaustive stable-oracle tests and one bounded replicated-key cut —
# radix scatter passes, the scratch swap and the gate, pivot sampling, the
# pod records' `Pod` proofs and their payload becoming a `Vec<Tagged<u64>>`;
# the spill path has no unsafe) and over the pods' `Wire` byte view and bulk decode, which every
# sockets send and receive of a pod buffer goes through, `Payload`'s read
# window and its words becoming a `Vec<T>`, and over comm::pages, whose
# arithmetic runs there while its `madvise` call is compiled out
# (`cfg(not(miri))`). Best effort: needs a nightly toolchain with the miri
# component, which sealed containers may not have.
if cargo +nightly miri --version >/dev/null 2>&1; then
    run cargo +nightly miri test "${CARGO_OPTS[@]}" -p sdssort --lib -- merge pivot radix record
    run cargo +nightly miri test "${CARGO_OPTS[@]}" -p comm --lib -- wire pages
else
    echo "ci: miri unavailable (no nightly toolchain with miri component); skipping"
fi

# AddressSanitizer over the unsafe-bearing crates' unit tests (sdssort's
# merge, radix, record and local-sort kernels, and the AVX-512 quicksort's
# vector path wherever the CPU has avx512f; comm's wire codec, payload
# and pages), over backend_equivalence, which drives every exchange path
# through all three backends, and over transport_conformance, which drives
# `Wire` encode/decode and `pages` through every collective with empty and
# uneven chunks — sockets ranks included, as re-execs of the instrumented
# test binary. Out-of-bounds reads and writes, use after
# free and double frees fail it; a read of an uninitialised slot does not
# (the stable-sort oracles stay the check for that). Gates whenever the
# nightly toolchain is installed, which the sanitizer flag needs.
if cargo +nightly --version >/dev/null 2>&1; then
    asan=(env RUSTFLAGS=-Zsanitizer=address cargo +nightly test -q "${CARGO_OPTS[@]}"
        --target x86_64-unknown-linux-gnu)
    run "${asan[@]}" -p sdssort -p comm --lib
    run "${asan[@]}" -p sds-sort-suite --test backend_equivalence --test transport_conformance
else
    echo "ci: AddressSanitizer step skipped: no nightly toolchain installed"
fi

# Smoke: sortcli must emit a metrics report that it can itself validate.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
run cargo run --release -q "${CARGO_OPTS[@]}" -p bench --bin sortcli -- \
    --sorter sds --workload zipf:1.4 --ranks 16 --records 2000 \
    --metrics-out "$tmp"
test -s "$tmp/BENCH_sortcli.json" || {
    echo "ci: sortcli did not write BENCH_sortcli.json" >&2
    exit 1
}
run cargo run --release -q "${CARGO_OPTS[@]}" -p bench --bin sortcli -- \
    --validate-metrics "$tmp/BENCH_sortcli.json"

# Threads-backend smoke: the real shared-memory backend (one OS thread per
# rank) must sort, validate, and emit a wall-clock metrics report that
# sortcli itself can validate. Small n so this stays sub-second.
run cargo run --release -q "${CARGO_OPTS[@]}" -p bench --bin sortcli -- \
    --backend threads --sorter sds --workload zipf:1.2 --ranks 4 \
    --records 5000 --metrics-out "$tmp/threads"
test -s "$tmp/threads/BENCH_sortcli.json" || {
    echo "ci: threads backend did not write BENCH_sortcli.json" >&2
    exit 1
}
run cargo run --release -q "${CARGO_OPTS[@]}" -p bench --bin sortcli -- \
    --validate-metrics "$tmp/threads/BENCH_sortcli.json"
# ... and the stable variant: the synchronous exchange, whose k-way merge
# reads the runs the peers lent in place (the run above overlaps).
run cargo run --release -q "${CARGO_OPTS[@]}" -p bench --bin sortcli -- \
    --backend threads --sorter sds-stable --workload zipf:1.2 --ranks 4 \
    --records 5000

# --trace smoke: the per-phase traffic table comes off the telemetry
# snapshot on the simulator and on threads, and since every sorter runs
# under the one driver (sdssort::driver) its rows are the driver's steps for
# each of them. Each run must print every step's row, the `exchange` row
# with messages in it, and at least the local-kernel decision; and because a
# send is counted under its sender's phase the table is a function of the
# program: two simulator runs must print it byte for byte the same. So must
# they the modelled makespan and the records the merges moved as
# replicated-key blocks: the simulator charges compute only from its model,
# so its merges pair chunks by a virtual arrival the program determines.
trace_table() {
    local out table step
    out="$("$@")"
    table="$(sed -n '/^traffic by phase:/,/^decisions:/p' <<<"$out")"
    for step in local-sort pivot-select partition 'exchange +[1-9][0-9]*' local-order; do
        if ! grep -Eq "^ *$step " <<<"$table"; then
            echo "ci: no '$step' row in the --trace table of: $*" >&2
            return 1
        fi
    done
    if ! grep -q '^  decision.local-kernel: ' <<<"$out"; then
        echo "ci: no decision.local-kernel line under --trace of: $*" >&2
        return 1
    fi
    printf '%s\n' "$table"
    grep -E '^ *modelled makespan |^moved as replicated-key blocks ' <<<"$out" || true
}
trace=(cargo run --release -q "${CARGO_OPTS[@]}" -p bench --bin sortcli -- \
    --workload zipf:1.4 --records 2000 --trace)
# (the rows of algos::Sorter)
for sorter in sds sds-stable hyksort ams hss; do
    echo "ci: ${trace[*]} --sorter $sorter --ranks 16 --cores 4 (twice), --backend threads --ranks 4 --cores 2"
    first="$(trace_table "${trace[@]}" --sorter "$sorter" --ranks 16 --cores 4)"
    second="$(trace_table "${trace[@]}" --sorter "$sorter" --ranks 16 --cores 4)"
    if ! grep -q 'modelled makespan' <<<"$first"; then
        echo "ci: no modelled makespan line from the simulator run of $sorter" >&2
        exit 1
    fi
    if [ "$first" != "$second" ]; then
        printf 'ci: two simulator runs of %s printed different --trace tables:\n%s\n%s\n' \
            "$sorter" "$first" "$second" >&2
        exit 1
    fi
    # (two nodes of two cores: with all four ranks on one node the single
    # leader has nobody to exchange with)
    trace_table "${trace[@]}" --sorter "$sorter" --backend threads --ranks 4 --cores 2 >/dev/null
done

# A two-way merge cuts out the blocks of keys that fill a sample stride and
# copies them (DESIGN.md §11.3): on zipf:1.4 the threads --trace must report
# the records it moved so, on uniform keys there are none and no line.
replicated=(cargo run --release -q "${CARGO_OPTS[@]}" -p bench --bin sortcli -- \
    --backend threads --ranks 2 --cores 1 --records 262144 --trace)
line='^moved as replicated-key blocks (merge.replicated_records): [1-9][0-9]* records$'
echo "ci: ${replicated[*]} --workload zipf:1.4 | uniform"
out="$("${replicated[@]}" --workload zipf:1.4)"
if ! grep -q "$line" <<<"$out"; then
    echo "ci: no merge.replicated_records line under --trace on zipf:1.4" >&2
    exit 1
fi
out="$("${replicated[@]}" --workload uniform)"
if grep -q 'merge.replicated_records' <<<"$out"; then
    echo "ci: a merge.replicated_records line under --trace on uniform keys" >&2
    exit 1
fi

# One short traced benchmark run on the simulator must end in a result
# line that parses and reports no failed operation, and so must one
# untraced on threads, where the exchange lends its runs: the benchmark's
# own per-repetition digest check must pass on them.
benchmark_smoke() {
    echo "ci: benchmark/run.sh measure $* (smoke)"
    bash benchmark/run.sh measure "$@" --seed 1 --seconds 2 |
        python3 -c 'import json, sys
r = json.loads(sys.stdin.readlines()[-1])
sys.exit(None if r["attempted"] > 0 and r["failed"] == 0 else f"ci: benchmark smoke: {r}")'
}
benchmark_smoke --workload sim-zipf-p16 --trace 1
benchmark_smoke --workload threads-presorted --trace 0
# ... and on uniform keys, whose local sort of a rank's 2^21 keys is the
# AVX-512 vector quicksort wherever the CPU has it: the digest check sees
# its output, on threads and on sockets.
benchmark_smoke --workload threads-uniform --trace 0
benchmark_smoke --workload sockets-uniform --trace 0
# ... and on the skewed input, whose 20-bit key span fits one counting pass
# of a rank's 2^21 keys: same digest check, the radix kernel's in-place
# counted form.
benchmark_smoke --workload threads-zipf --trace 0
# ... and on sockets, where every rank is a process of its own that builds
# its own Zipf table and draws its own keys: the only run of the digest
# check over a backend with rank processes.
benchmark_smoke --workload sockets-stable-tagged --trace 0
# ... and on the resident service, whose trials end by checking the output
# of their last jobs.
benchmark_smoke --workload service-closed-loop --trace 0

# Sockets-backend smoke: the distributed process-per-rank backend (one OS
# process per rank over Unix-domain sockets) must rendezvous, sort,
# validate, and emit a metrics report that sortcli itself can validate.
run cargo run --release -q "${CARGO_OPTS[@]}" -p bench --bin sortcli -- \
    --backend sockets --transport uds --sorter sds --workload zipf:1.2 \
    --ranks 4 --records 5000 --metrics-out "$tmp/sockets"
test -s "$tmp/sockets/BENCH_sortcli.json" || {
    echo "ci: sockets backend did not write BENCH_sortcli.json" >&2
    exit 1
}
run cargo run --release -q "${CARGO_OPTS[@]}" -p bench --bin sortcli -- \
    --validate-metrics "$tmp/sockets/BENCH_sortcli.json"
# ... and once more over TCP: the vectored frame write is a different
# kernel path there.
run cargo run --release -q "${CARGO_OPTS[@]}" -p bench --bin sortcli -- \
    --backend sockets --transport tcp --sorter sds --workload zipf:1.2 \
    --ranks 4 --records 5000
# ... and the stable variant on both transports: stable local sort, stable
# cuts, the synchronous exchange whose runs are the payloads the reader
# threads read (the runs above overlap), then the k-way merge.
for transport in uds tcp; do
    run cargo run --release -q "${CARGO_OPTS[@]}" -p bench --bin sortcli -- \
        --backend sockets --transport "$transport" --sorter sds-stable \
        --workload zipf:1.2 --ranks 4 --records 5000
done

# Fig 6c over sockets: the memory budget is real on every backend. Under a
# per-rank budget that holds SDS-Sort's fullest rank (5112 records), HykSort
# must end in the OOM report (exit 1), and resilient SDS-Sort must finish
# by spilling, leaving no run file behind.
fig6c=(cargo run --release -q "${CARGO_OPTS[@]}" -p bench --bin sortcli -- \
    --backend sockets --workload zipf:1.4 --ranks 8 --cores 1 --records 4000 \
    --budget 48000)
echo "ci: ${fig6c[*]} --sorter hyksort (must fail with OOM)"
status=0
out="$(timeout 60 "${fig6c[@]}" --sorter hyksort 2>&1)" || status=$?
if [ "$status" -ne 1 ] || ! grep -q "imbalance-induced crash" <<<"$out"; then
    echo "ci: HykSort's OOM over sockets was not reported (exit $status): $out" >&2
    exit 1
fi
echo "ci: ${fig6c[*]} --sorter sds --resilient $tmp/spill-sockets"
out="$(timeout 60 "${fig6c[@]}" --sorter sds --resilient "$tmp/spill-sockets" 2>&1)"
if ! grep -q "result: OK" <<<"$out" || ! grep -q "records were spilled" <<<"$out" ||
    [ -n "$(ls -A "$tmp/spill-sockets" 2>/dev/null)" ]; then
    echo "ci: resilient SDS-Sort did not spill over sockets: $out" >&2
    exit 1
fi

# Every table, figure, ablation and the shoot-out (EXPERIMENTS.md), from
# the one registry, recorded into a temporary copy: the recording fails if
# any shape verdict is DIVERGED (~1 min on 2 cores), and every entry that
# does not time the host must reproduce its committed golden document and
# its EXPERIMENTS.md block exactly. A figure that moved on purpose is
# re-recorded in place with scripts/record_golden.sh.
run bash scripts/record_golden.sh "$tmp/rec"
moved=0
diff -ru crates/bench/golden "$tmp/rec/crates/bench/golden" || moved=1
diff -u EXPERIMENTS.md "$tmp/rec/EXPERIMENTS.md" || moved=1
if [ "$moved" -ne 0 ]; then
    echo "ci: the modelled figures moved (diff above); re-record with scripts/record_golden.sh" >&2
    exit 1
fi

# Resident-service smoke: the long-lived SortService (persistent rank
# pool, bounded queue, arena reuse) must absorb a concurrent Zipf-sized
# job burst from several clients and emit a self-describing experiment
# document.
run cargo run --release -q "${CARGO_OPTS[@]}" -p bench --bin sortcli -- \
    --serve --ranks 4 --clients 4 --jobs 16 --records 4000 \
    --metrics-out "$tmp/svc"
test -s "$tmp/svc/BENCH_sortsvc.json" || {
    echo "ci: sortcli --serve did not write BENCH_sortsvc.json" >&2
    exit 1
}
# ... and it must say how much of a job's sort wall is key generation.
python3 - "$tmp/svc/BENCH_sortsvc.json" <<'PY'
import json, sys
v = json.load(open(sys.argv[1]))["series"][0]["points"][0]["values"]
g, w = v.get("generate_p50_s"), v.get("sort_wall_p50_s")
if g is None or w is None or not 0 < g <= w:
    sys.exit(f"ci: BENCH_sortsvc.json needs 0 < generate_p50_s <= sort_wall_p50_s: {g} vs {w}")
PY

# Faults smoke: the sort must survive heavy deterministic fault injection,
# and graceful degradation must complete (spilling) where the plain driver
# would OOM under the memory-pressure ramp.
run cargo run --release -q "${CARGO_OPTS[@]}" -p bench --bin sortcli -- \
    --sorter sds --workload zipf:1.2 --ranks 8 --records 3000 \
    --faults seed=7,delay=0.5:1e-4,stall=2:0.3:1e-4
run cargo run --release -q "${CARGO_OPTS[@]}" -p bench --bin sortcli -- \
    --sorter sds --workload adversarial --ranks 6 --cores 1 \
    --records 4000 --budget 60000 --faults seed=7,ramp=0:0:0.5 \
    --resilient "$tmp/spill"

# Memory guard: a process builds one Zipf table for all of its ranks and
# keeps none after they have drawn (`workloads::zipf`), so 512 simulated
# ranks on zipf:1.1 (RDFA 1.74, within the bound) must peak under 1 GiB.
# A table per rank peaked at 1.6–4 GiB.
guard=(cargo run --release -q "${CARGO_OPTS[@]}" -p bench --bin sortcli -- \
    --backend sim --ranks 512 --records 512 --cores 1 --workload zipf:1.1)
echo "ci: ${guard[*]} (peak RSS must stay under 1 GiB)"
python3 - "${guard[@]}" <<'PY'
import resource, subprocess, sys
run = subprocess.run(sys.argv[1:], stdout=subprocess.PIPE, text=True)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024
if run.returncode != 0 or "result: OK" not in run.stdout:
    sys.exit(f"ci: the memory-guard run failed:\n{run.stdout}")
if peak > 1 << 30:
    sys.exit(f"ci: the memory-guard run peaked at {peak / 2**30:.2f} GiB (limit 1 GiB)")
print(f"ci: memory guard peak RSS {peak / 2**20:.0f} MiB")
PY

# Node-merging smokes (4 cores/node, so only the 4 leaders exchange): a
# budget the leaders' receive buffers do not fit must end the run with the
# out-of-memory report on every rank — it used to hang — and the same run
# must complete by spilling, leaving no run file behind.
oom=(cargo run --release -q "${CARGO_OPTS[@]}" -p bench --bin sortcli -- \
    --sorter sds --workload zipf:1.4 --cores 4 --ranks 16 --records 4000 \
    --budget 100000)
echo "ci: ${oom[*]} (must fail with OOM)"
if out="$(timeout 60 "${oom[@]}" 2>&1)" || ! grep -q "OOM on rank" <<<"$out"; then
    echo "ci: the leaders' OOM was not reported: $out" >&2
    exit 1
fi
echo "ci: ${oom[*]} --resilient $tmp/spill-nodes"
out="$(timeout 60 "${oom[@]}" --resilient "$tmp/spill-nodes" 2>&1)"
if ! grep -q "result: OK" <<<"$out" || [ -n "$(ls -A "$tmp/spill-nodes")" ]; then
    echo "ci: spilling run failed or left files under $tmp/spill-nodes: $out" >&2
    exit 1
fi

echo "ci: all checks passed"
