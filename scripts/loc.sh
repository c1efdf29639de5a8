#!/usr/bin/env bash
# Counts the non-test source lines of the workspace crates: every line of
# each `.rs` file under `crates/*/src`, up to the file's first `#[cfg(test)]`
# (blank and comment lines included). Prints one `<lines> <file>` row per
# file, sorted by path, then the total.
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
    FNR == 1 { skip = 0; n[FILENAME] = 0; order[++files] = FILENAME }
    /#\[cfg\(test\)\]/ { skip = 1 }
    !skip { n[FILENAME]++ }
    END {
        for (i = 1; i <= files; i++) {
            printf "%6d %s\n", n[order[i]], order[i]
            total += n[order[i]]
        }
        printf "%6d total\n", total
    }
'
