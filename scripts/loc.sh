#!/usr/bin/env bash
# Counts the non-test source lines of the workspace crates: every line of
# each `.rs` file under `crates/*/src`, up to the file's first `#[cfg(test)]`.
# Prints one `<lines> <code> <file>` row per file, sorted by path, then the
# totals: `lines` counts blank and comment lines too, `code` leaves out blank
# lines and lines holding only a `//` comment (doc comments included), so a
# reduction in code can be told apart from deleted docs.
#
# Usage:
#   scripts/loc.sh
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ $# -gt 0 ]]; then
    echo "usage: scripts/loc.sh (takes no options)" >&2
    exit 2
fi

find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { skip = 0; n[FILENAME] = 0; code[FILENAME] = 0; order[++files] = FILENAME }
    /#\[cfg\(test\)\]/ { skip = 1 }
    !skip { n[FILENAME]++ }
    !skip && !/^[ \t]*(\/\/.*)?$/ { code[FILENAME]++ }
    END {
        printf "%6s %6s %s\n", "lines", "code", "file"
        for (i = 1; i <= files; i++) {
            f = order[i]
            printf "%6d %6d %s\n", n[f], code[f], f
            total += n[f]
            total_code += code[f]
        }
        printf "%6d %6d total\n", total, total_code
    }
'
