#!/usr/bin/env bash
# Size ledger: the numbers CHANGES.md quotes, counted one way.
#
#   scripts/size.sh            whole-workspace summary
#   scripts/size.sh FILE...    also: non-test lines of each FILE and their sum
#
# Counts tracked files only (`git ls-files`), so run it from a checkout.
# "Non-test lines" of a file are the lines before its first `#[cfg(test)]`.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

nontest() { awk '/#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "$1"; }
lines() { if [ "$#" -gt 0 ]; then cat "$@" | wc -l; else echo 0; fi; }

mapfile -t rs < <(git ls-files '*.rs')
mapfile -t rs_outside_perf < <(git ls-files '*.rs' | grep -v '^crates/perf/')
echo "rust lines: $(lines "${rs[@]}") total, $(lines "${rs_outside_perf[@]}") outside crates/perf"

echo "non-test lines per crate:"
for manifest in Cargo.toml $(git ls-files 'crates/*/Cargo.toml'); do
    dir=$(dirname "$manifest")
    name=$(awk -F'"' '/^name = /{print $2; exit}' "$manifest")
    if [ "$dir" = . ]; then pattern='src/*.rs'; else pattern="$dir/src/*.rs"; fi
    total=0
    while IFS= read -r f; do total=$((total + $(nontest "$f"))); done < <(git ls-files "$pattern")
    printf '  %-22s %6d\n' "$name" "$total"
done

echo "workspace crates: $(git ls-files 'crates/*/Cargo.toml' | wc -l)"
echo "bench bins: $(git ls-files 'crates/bench/src/bin/*.rs' | wc -l)"

# Every distinct `--flag` inside the `const USAGE` string literal.
flags() {
    awk '/^const USAGE/{on=1} on{print} on && /";$/{exit}' "$1" | grep -o -- '--[a-z][a-z-]*' | sort -u | wc -l
}
echo "usage flags: esse_master $(flags src/bin/esse_master.rs), esse_worker $(flags src/bin/esse_worker.rs)"

if [ "$#" -gt 0 ]; then
    echo "non-test lines of the named files:"
    sum=0
    for f in "$@"; do
        if git ls-files --error-unmatch "$f" >/dev/null 2>&1; then n=$(nontest "$f"); else n=0; fi
        printf '  %-34s %6d\n' "$f" "$n"
        sum=$((sum + n))
    done
    printf '  %-34s %6d\n' total "$sum"
fi
