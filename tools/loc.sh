#!/usr/bin/env bash
# Net lines of code, the metric of ROADMAP aim 2: per crate under crates/
# (the compat shims excluded) and for each file named on the command line,
# the non-blank, non-comment lines above the first `#[cfg(test)]`.
#
#   tools/loc.sh                       every crate, then the total
#   tools/loc.sh FILE...               the named files too, then their sum
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

loc() {
    awk '/^#\[cfg\(test\)\]/{exit} {print}' "$1" | grep -cvE '^\s*(//|$)' || true
}

total=0
for crate in crates/*/; do
    [ "$crate" = "crates/compat/" ] && continue
    sum=0
    while IFS= read -r file; do
        sum=$((sum + $(loc "$file")))
    done < <(find "$crate/src" -name '*.rs' | sort)
    printf '%7d  %s\n' "$sum" "${crate%/}"
    total=$((total + sum))
done
printf '%7d  total (crates/, compat excluded)\n' "$total"

if [ "$#" -gt 0 ]; then
    sum=0
    for file in "$@"; do
        n=$(loc "$file")
        printf '%7d  %s\n' "$n" "$file"
        sum=$((sum + n))
    done
    printf '%7d  sum of named files\n' "$sum"
fi
