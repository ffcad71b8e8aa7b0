#!/usr/bin/env bash
# Where the host time of a benchmark workload goes, by function: a SIGPROF
# stack sampler over the unmodified `benchmark/` release binary.
#
#   scripts/sample.sh WORKLOAD [SECONDS] [FUNCTION]   (default 10 s)
#
# Builds a small LD_PRELOAD library (a `setitimer(ITIMER_PROF)` tick every
# millisecond of CPU time; the handler stores the interrupted RIP and a
# `backtrace()`; everything is dumped at exit), runs the workload under it
# and prints, per function, its share of samples as the innermost frame
# (self) and anywhere on the stack (inclusive), inlined frames resolved
# through `addr2line -f -i`; a sample that lands outside the binary (libc
# `memset` / `memcpy`, libm) is listed under its first in-binary caller as
# `[outside] <- caller`. With FUNCTION (a name as the tables print it, or
# its last `::` segments, e.g. `Sm::tick`) it also prints where FUNCTION's
# own samples go: per immediate callee — the next frame inward of its
# innermost occurrence, inlined frames included — the share of FUNCTION's
# samples and of all samples, `[self]` for samples in FUNCTION itself.
# Needs only `cc`, `addr2line` and `python3`.
# It is what ROADMAP item 4's attribution tables come from until committed
# spans exist; the numbers are shares of CPU samples, not a ledger — compare
# two commits with scripts/ledger.sh.
#
# SAMPLE_BIN=path samples another binary (its arguments follow `--`, and
# FUNCTION, if any, comes before it):
# `SAMPLE_BIN=target/debug/deps/foo-123 scripts/sample.sh [FUNCTION] -- ARGS`.
set -euo pipefail

[ $# -ge 1 ] || { sed -n '2,6p' "$0" | sed 's/^# \{0,1\}//' >&2; exit 2; }
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

cat >"$tmp/sample.c" <<'C'
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

enum { DEPTH = 48, MAX = 1 << 16 };
static void *stacks[MAX][DEPTH]; /* [0] = interrupted RIP, then backtrace() */
static int depths[MAX];
static volatile int taken;

static void tick(int sig, siginfo_t *info, void *uc) {
    (void)sig, (void)info;
    int i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i >= MAX) return;
    stacks[i][0] = (void *)((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
    depths[i] = 1 + backtrace(&stacks[i][1], DEPTH - 1);
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SAMPLE_OUT");
    FILE *out = path ? fopen(path, "w") : NULL, *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    char line[512]; /* the executable's own mappings: "lo-hi perms off dev ino path" */
    while (fgets(line, sizeof line, maps))
        if (strstr(line, getenv("SAMPLE_EXE"))) fprintf(out, "map %s", line);
    int n = taken < MAX ? taken : MAX;
    for (int i = 0; i < n; i++) {
        for (int d = 0; d < depths[i]; d++) fprintf(out, "%p ", stacks[i][d]);
        fputc('\n', out);
    }
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    void *warm[4];
    backtrace(warm, 4); /* loads the unwinder now, not inside the handler */
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = tick;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
    atexit(dump);
}
C
cc -O2 -shared -fPIC -o "$tmp/libsample.so" "$tmp/sample.c"

focus=
if [ -n "${SAMPLE_BIN:-}" ]; then
    bin=$(realpath "$SAMPLE_BIN")
    if [ $# -ge 2 ] && [ "$2" = -- ]; then
        focus=$1
        shift
    fi
    [ "$1" = -- ] && shift
    args=("$@")
else
    (cd "$root" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
    bin=$root/benchmark/target/release/warpweave-benchmark
    args=(--workload "$1" --seconds "${2:-10}" --trace 0)
    focus=${3:-}
fi
# The binary looks for BENCHMARK.json in its working directory.
(cd "$root" && LD_PRELOAD="$tmp/libsample.so" SAMPLE_OUT="$tmp/samples" \
    SAMPLE_EXE="$(basename "$bin")" "$bin" "${args[@]}" >/dev/null)

python3 - "$bin" "$tmp/samples" "$focus" <<'PY'
import collections, subprocess, sys

binary, path, focus = sys.argv[1:4]
maps, stacks = [], []
for line in open(path):
    f = line.split()
    if f and f[0] == "map":
        lo, hi = (int(x, 16) for x in f[1].split("-"))
        maps.append((lo, hi, int(f[3], 16)))
    elif f:
        stacks.append([int(x, 16) for x in f])


# A PIE's first segment maps file offset 0 at its link address 0, so an
# address minus that mapping's start is the address `addr2line` knows.
base = min(lo for lo, _, off in maps if off == 0)


def linked(addr):
    return addr - base if any(lo <= addr < hi for lo, hi, _ in maps) else None


# backtrace() starts inside the handler: keep from the interrupted RIP down.
# Return addresses point past their call, so step back into it.
frames = []
for s in stacks:
    rip, bt = s[0], s[1:]
    below = bt[bt.index(rip) + 1:] if rip in bt else bt[2:]
    frames.append([rip] + [a - 1 for a in below])
offsets = sorted({o for fr in frames for a in fr if (o := linked(a)) is not None})
out = subprocess.run(
    ["addr2line", "-f", "-i", "-C", "-a", "-e", binary] + [hex(o) for o in offsets],
    capture_output=True, text=True, check=True,
).stdout.splitlines()
names, cur = {}, None  # offset -> [innermost inlined function, ..., the physical one]
for line in out:  # per address: its line, then (function, file:line) per inlining level
    if line.startswith("0x"):
        cur, is_function = names.setdefault(int(line, 16), []), True
    else:
        if is_function:
            cur.append(line)
        is_function = not is_function
self_n, incl_n = collections.Counter(), collections.Counter()
callee_n = collections.Counter()  # FUNCTION's immediate callees
OUTSIDE = "[outside the binary]"  # libc memset / memcpy, libm, the kernel's vdso
for fr in frames:
    per_frame = [names.get(linked(a), [OUTSIDE]) for a in fr]
    chain = [n for names_at in per_frame for n in names_at]
    # A sample outside is its caller's cost: name the physical function of
    # the first in-binary frame (inlined frames around a libc call carry
    # whatever line the optimiser left there).
    caller = next((names_at[-1] for names_at in per_frame if names_at[0] != OUTSIDE), None)
    if chain[0] == OUTSIDE and caller:
        chain[0] = f"[outside] <- {caller}"
    self_n[chain[0]] += 1
    incl_n.update(set(chain))
    if focus:
        at = next((i for i, n in enumerate(chain) if n == focus or n.endswith("::" + focus)), None)
        if at is not None:
            callee_n[chain[at - 1] if at else "[self]"] += 1
total = len(frames) or 1
print(f"{len(frames)} samples of {binary.rsplit('/', 1)[-1]}")


def table(title, rows):
    print(f"\n{title}\n{'self %':>7} {'incl %':>7}  function")
    for name in rows:
        print(f"{100 * self_n[name] / total:7.1f} {100 * incl_n[name] / total:7.1f}  {name}")


table("innermost frame, top 25 by self share:", [n for n, _ in self_n.most_common(25)])
ours = [n for n, k in incl_n.most_common() if "warpweave" in n and k * 200 >= total]
table("this repository's functions on the stack, 0.5 % inclusive and up:", ours)

if focus:
    inside = sum(callee_n.values())
    print(f"\nimmediate callees of {focus} ({inside} samples, {100 * inside / total:.1f} % of all)")
    print(f"{'of fn %':>7} {'all %':>7}  callee")
    for name, k in callee_n.most_common():
        if k * 200 >= inside:
            print(f"{100 * k / (inside or 1):7.1f} {100 * k / total:7.1f}  {name}")
PY
