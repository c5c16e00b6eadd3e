#!/usr/bin/env bash
# Code-only non-test lines under crates/*/src: the non-blank lines that are
# not `//` comments (docs included), above each file's first `#[cfg(test)]`.
# Per crate by default; `--files` gives one line per file instead. The last
# line is the total. A count, not a gate.
#
#   scripts/loc.sh           # crate  lines
#   scripts/loc.sh --files   # lines  crates/<crate>/src/<file>.rs
set -u
cd "$(dirname "$0")/.."

# One "<lines> <path>" line per source file, in path order.
per_file() {
    find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { if (path != "") print n + 0, path; path = FILENAME; n = 0; live = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
        live && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
        END { if (path != "") print n + 0, path }'
}

case "${1:-}" in
    --files)
        per_file | awk '{ printf "%6d %s\n", $1, $2; t += $1 } END { printf "%6d total\n", t }'
        ;;
    "")
        # Paths arrive sorted, so each crate's files are consecutive.
        per_file | awk '
            { split($2, p, "/"); if (p[2] != c) { if (c != "") printf "%-6s %6d\n", c, n; c = p[2]; n = 0 }
              n += $1; t += $1 }
            END { if (c != "") printf "%-6s %6d\n", c, n; printf "%-6s %6d\n", "total", t }'
        ;;
    *)
        echo "usage: $0 [--files]" >&2
        exit 2
        ;;
esac
