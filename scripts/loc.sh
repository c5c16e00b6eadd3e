#!/usr/bin/env bash
# Code-only non-test lines per crate: under crates/*/src, the non-blank lines
# that are not `//` comments (docs included), above each file's first
# `#[cfg(test)]`. The last line is the total. A count, not a gate.
set -u
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/src; do
    crate=${dir#crates/}; crate=${crate%/src}
    n=$(find "$dir" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { live = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
        live && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
        END { print n + 0 }')
    printf '%-6s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-6s %6d\n' total "$total"
