#!/usr/bin/env bash
# Fails if any issue policy registered in core::policy::PolicyRegistry is
# missing from README.md's policy table. The registry is the source of
# truth (`bench_sweep frontends` prints it); the README must name
# every entry in backticks, which is exactly how the table renders them.
# Also fails if ARCHITECTURE.md's fenced copy of `pub trait IssuePolicy`
# does not list the methods the trait in crates/core/src/policy.rs declares,
# or if its "Scheduler hot path" section does not name, in backticks, every
# variant of `SlotState` in crates/core/src/pipeline.rs, or if its
# "Configuration surface" table does not have exactly one row per `pub`
# field of `SmConfig` in crates/core/src/config.rs, in declaration order.
set -euo pipefail
cd "$(dirname "$0")/.."

# The `fn` names between `pub trait IssuePolicy` and its closing brace.
trait_fns() {
    sed -n '/^pub trait IssuePolicy/,/^}/p' "$1" | sed -n 's/^ *fn \([a-z_]*\).*/\1/p'
}
code="$(trait_fns crates/core/src/policy.rs)"
docs="$(trait_fns ARCHITECTURE.md)"
if [ -z "$code" ] || [ "$code" != "$docs" ]; then
    echo "ARCHITECTURE.md's IssuePolicy block does not match crates/core/src/policy.rs" >&2
    echo "(< the trait, > the copy):" >&2
    diff <(echo "$code") <(echo "$docs") >&2 || true
    exit 1
fi

# The variant names between `pub enum SlotState` and its closing brace,
# against the section from its heading to the next `## `.
states="$(sed -n '/^pub enum SlotState/,/^}/p' crates/core/src/pipeline.rs \
    | sed -n 's/^    \([A-Z][A-Za-z]*\).*/\1/p')"
section="$(sed -n '/^## Scheduler hot path/,/^## /p' ARCHITECTURE.md)"
if [ -z "$states" ] || [ -z "$section" ]; then
    echo "no SlotState variants or no \"Scheduler hot path\" section found" >&2
    exit 1
fi
for state in $states; do
    if ! grep -qF "\`$state\`" <<<"$section"; then
        echo "ARCHITECTURE.md's \"Scheduler hot path\" does not name SlotState::$state" >&2
        exit 1
    fi
done

# The `pub` fields of `SmConfig`, against the first column of the table in
# the section from its heading to the next `## `.
fields="$(sed -n '/^pub struct SmConfig/,/^}/p' crates/core/src/config.rs \
    | sed -n 's/^    pub \([a-z_0-9]*\):.*/\1/p')"
rows="$(sed -n '/^## Configuration surface/,/^## /p' ARCHITECTURE.md \
    | sed -n 's/^| `\([a-z_0-9]*\)` |.*/\1/p')"
if [ -z "$fields" ] || [ "$fields" != "$rows" ]; then
    echo "ARCHITECTURE.md's \"Configuration surface\" table does not match SmConfig's pub fields" >&2
    echo "(< the struct, > the table):" >&2
    diff <(echo "$fields") <(echo "$rows") >&2 || true
    exit 1
fi

names="$(cargo run --release -q -p warpweave-bench --bin bench_sweep -- frontends)"
if [ -z "$names" ]; then
    echo "bench_sweep frontends printed no policies" >&2
    exit 1
fi

status=0
while IFS= read -r name; do
    [ -z "$name" ] && continue
    if ! grep -qF "\`$name\`" README.md; then
        echo "README.md policy table is missing registered policy '$name'" >&2
        status=1
    fi
done <<<"$names"

if [ "$status" -eq 0 ]; then
    echo "README.md policy table covers all registered policies:"
    printf '  %s\n' $names
fi
exit $status
