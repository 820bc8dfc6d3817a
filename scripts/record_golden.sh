#!/usr/bin/env bash
# Record the golden of the modelled experiments.
#
#   scripts/record_golden.sh [DEST]      (DEST defaults to the repository root)
#
# Runs `experiments --all --metrics-out` once, at the default scale, and
# fails if that run fails (any shape verdict DIVERGED). Then, for every
# registry entry that `experiments --list` does not mark (host-timed):
#   - its document goes to DEST/crates/bench/golden/BENCH_<name>.json, less
#     the `meta.git_rev` line, so the golden does not move with each commit;
#   - its printed section, header bar to `shape:` line, replaces the first
#     fenced block under its (`name`) heading of EXPERIMENTS.md. The result
#     is written to DEST/EXPERIMENTS.md.
# scripts/ci.sh records into a temporary DEST and diffs against the
# committed files. A change that moves a figure re-records in place.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
dest="${1:-$root}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

experiments=(cargo run --release -q --locked --manifest-path "$root/Cargo.toml"
    -p bench --bin experiments --)
"${experiments[@]}" --list >"$tmp/list"
BENCH_SCALE=small "${experiments[@]}" --all --metrics-out "$tmp/docs" >"$tmp/out"
mkdir -p "$dest/crates/bench/golden"

python3 - "$root" "$dest" "$tmp" <<'PY'
import glob, os, re, sys

root, dest, tmp = sys.argv[1:]
names = [l.split()[0] for l in open(f"{tmp}/list") if "(host-timed)" not in l]

golden = f"{dest}/crates/bench/golden"
for old in glob.glob(f"{golden}/BENCH_*.json"):
    os.remove(old)
for name in names:
    doc = open(f"{tmp}/docs/BENCH_{name}.json").read()
    doc, found = re.subn(r'\n *"git_rev": "[^"]*",', "", doc, count=1)
    if not found:
        sys.exit(f"record_golden: BENCH_{name}.json has no meta.git_rev")
    open(f"{golden}/BENCH_{name}.json", "w").write(doc)

# Each section opens with a bar and `[name] title` and ends at `shape:`.
out = open(f"{tmp}/out").read()
sections = {
    m[2]: m[1]
    for m in re.finditer(r"(?ms)^(=+\n\[([a-z0-9-]+)\] .*?^shape: [^\n]*)$", out)
}
md = open(f"{root}/EXPERIMENTS.md").read()
for name in names:
    head = re.search(rf"(?m)^## .*\(`{re.escape(name)}`\)$", md)
    if not head:
        sys.exit(f"record_golden: EXPERIMENTS.md has no (`{name}`) heading")
    end = re.compile(r"(?m)^## ").search(md, head.end())
    block = re.compile(r"(?ms)^```\n(.*?)^```$").search(md, head.end())
    if not block or (end and block.start() > end.start()):
        sys.exit(f"record_golden: no fenced block under the (`{name}`) heading")
    if name not in sections:
        sys.exit(f"record_golden: experiments printed no section for {name}")
    md = md[: block.start(1)] + sections[name] + "\n" + md[block.end(1) :]
open(f"{dest}/EXPERIMENTS.md", "w").write(md)
print(f"record_golden: {len(names)} documents and sections written under {dest}")
PY
