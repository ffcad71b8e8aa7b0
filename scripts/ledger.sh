#!/usr/bin/env bash
# The CHANGES.md performance ledger, as one command: the parent commit
# against the working tree, through the unmodified `benchmark/` binary.
#
#   scripts/ledger.sh [--parent REV] [--pairs N] [--seconds S]
#                     [--workloads a,b,c] [--metrics m,n] [--seed X]
#                     [--trace 0|1] [--keep DIR]
#
# Both sides are built and run in ONE directory, because the path a
# binary is built under moves its host metrics by itself (the same source
# built under two paths has read 0.98x and 1.03x `host_tips`, and
# 1.03x `peak_rss_mib`). It unpacks REV (default HEAD: a change not yet
# committed; give HEAD~1 once it is) into `$tmp/src` with `git archive` —
# a worktree would do, but this leaves the repository's own state
# untouched — builds its `benchmark/` binary and saves it; then it removes
# the files the working tree no longer has, lays the working tree's files
# (tracked and untracked, not ignored) over the same path, builds again
# and saves that binary. The checkout itself is never built. Then it
# runs every workload N times on each side, from that path,
# alternating which side goes first, and prints the markdown table
# CHANGES.md entries carry: per metric the median [p25..p75] of each side,
# the ratio change/parent (base: the parent), the pairs the change won, and
# a verdict by the choosing-metrics §8 rule — `gain` (or `worse`) only when
# one side wins at least nine tenths of the pairs, ties counting for
# neither, and the medians differ by more than the parent's own p25..p75
# distance; `unresolved` otherwise; `same`/`DIFFERENT` for the simulated
# `sim_*` metrics, which must not move at all. Exits 1 on `DIFFERENT` or on
# a run with failed operations, 2 on usage.
#
# It reads the last stdout line of each run only and writes nothing in the
# checkout (set TMPDIR to put `$tmp` elsewhere).
# `--keep DIR` saves every run's result line as DIR/<workload>.<side>.jsonl
# — the raw material of "report every run made".
set -euo pipefail

parent=HEAD
pairs=10
seconds=15
workloads=dense_alu,divergent_interweave,mem_hierarchy,fuzz_kernels,sweep_fabric,serve_cold,serve_warm
metrics=host_tips,cells_per_s,rep_ms,setup_s,peak_rss_mib,sim_cycles,sim_ipc_gmean
seed=
trace=0
keep=

usage() {
    sed -n '2,8p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case "$1" in
        --parent) parent=$2 ;;
        --pairs) pairs=$2 ;;
        --seconds) seconds=$2 ;;
        --workloads) workloads=$2 ;;
        --metrics) metrics=$2 ;;
        --seed) seed=$2 ;;
        --trace) trace=$2 ;;
        --keep) keep=$2 ;;
        *) usage ;;
    esac
    shift 2
done
case "$pairs" in '' | *[!0-9]* | 0) usage ;; esac

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

rev=$(git -C "$root" rev-parse --short "$parent")
src=$tmp/src
mkdir "$src" "$tmp/bin" "$tmp/runs"
build() {
    echo "ledger: building $1 ($src)" >&2
    (cd "$src" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
    cp "$src/benchmark/target/release/warpweave-benchmark" "$tmp/bin/$1"
}
git -C "$root" archive "$parent" | tar -x -C "$src"
build parent
# The working tree's files, NUL-separated: tracked ones it still has, and
# untracked ones git does not ignore.
(cd "$root" && git ls-files -z -co --exclude-standard |
    while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done) |
    sort -zu >"$tmp/files"
git -C "$root" ls-tree -r -z --name-only "$parent" | sort -z >"$tmp/parent.files"
(cd "$src" && comm -z -23 "$tmp/parent.files" "$tmp/files" | xargs -0r rm -f --)
# `-m` stamps every file now, newer than the parent's build, so cargo
# rebuilds each crate the overlay touched whatever its mtime in the tree.
(cd "$root" && tar -c --null -T "$tmp/files") | tar -x -m -C "$src"
build change

# One run of `side` on `workload`: its result line, appended to the side's
# series. The binary looks for BENCHMARK.json in its working directory.
run_side() {
    local side=$1 workload=$2
    (cd "$src" && "$tmp/bin/$side" --workload "$workload" --seconds "$seconds" \
        --trace "$trace" ${seed:+--seed "$seed"} 2>/dev/null || true) |
        tail -n 1 >>"$tmp/runs/$workload.$side.jsonl"
}

for workload in ${workloads//,/ }; do
    for pair in $(seq "$pairs"); do
        echo "ledger: $workload pair $pair/$pairs" >&2
        if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do run_side "$side" "$workload"; done
    done
done

if [ -n "$keep" ]; then
    mkdir -p "$keep"
    cp "$tmp"/runs/*.jsonl "$keep"/
fi

python3 - "$root/BENCHMARK.json" "$tmp/runs" "$rev" "$workloads" "$metrics" <<'PY'
import json, sys

spec_path, runs, rev, workloads, metrics = sys.argv[1:6]
spec = json.load(open(spec_path))
better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def quantile(xs, q):
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def num(v):
    if float(v).is_integer():
        return str(int(v))
    return f"{v:.3f}" if abs(v) < 10 else f"{v:.2f}" if abs(v) < 1000 else f"{v:.1f}"


def spread(xs):
    """`median [p25..p75]`, in millions when the median is."""
    med, lo, hi = (quantile(xs, q) for q in (0.5, 0.25, 0.75))
    if abs(med) >= 1e6:
        return f"{med / 1e6:.2f} M [{lo / 1e6:.2f}..{hi / 1e6:.2f}]"
    return f"{num(med)} [{num(lo)}..{num(hi)}]"


print(f"| workload | metric | parent ({rev}) | change | change/parent | pairs won | verdict |")
print("|---|---|---|---|---|---|---|")
status = 0
for workload in workloads.split(","):
    sides = {}
    for side in ("parent", "change"):
        lines = [l for l in open(f"{runs}/{workload}.{side}.jsonl") if l.strip()]
        sides[side] = [json.loads(l) for l in lines]
        failed = sum(r["failed"] for r in sides[side])
        if failed or not all(r["correct"] for r in sides[side]):
            print(f"ledger: {workload} {side}: {failed} failed operations", file=sys.stderr)
            status = 1
    for metric in metrics.split(","):
        series = {
            side: [r["metrics"][metric]["value"] for r in rs if metric in r["metrics"]]
            for side, rs in sides.items()
        }
        p, c = series["parent"], series["change"]
        if not p or len(p) != len(c):
            continue
        higher = better[metric] == "higher"
        wins = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
        losses = sum((b < a) if higher else (b > a) for a, b in zip(p, c))
        mp, mc = quantile(p, 0.5), quantile(c, 0.5)
        ratio = f"{mc / mp:.3f}" if mp else "-"
        if metric.startswith("sim_"):
            verdict = "same" if p == c else "DIFFERENT"
            status |= verdict == "DIFFERENT"
        else:
            past_spread = abs(mc - mp) > quantile(p, 0.75) - quantile(p, 0.25)
            improved = (mc > mp) if higher else (mc < mp)
            if past_spread and improved and wins >= 0.9 * len(p):
                verdict = "gain"
            elif past_spread and not improved and losses >= 0.9 * len(p):
                verdict = "worse"
            else:
                verdict = "unresolved"
        print(
            f"| `{workload}` | `{metric}` | {spread(p)} | {spread(c)} "
            f"| {ratio} | {wins}/{len(p)} | {verdict} |"
        )
sys.exit(status)
PY
