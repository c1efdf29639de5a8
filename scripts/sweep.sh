#!/usr/bin/env bash
# Scenario-sweep entry point: builds the harness in release mode and runs
# every registered scenario in parallel, writing RESULTS.json at the repo
# root.
#
# Usage:
#   scripts/sweep.sh                  run the sweep, write RESULTS.json
#   scripts/sweep.sh --check          also diff against baselines/golden.json
#                                     and exit non-zero on any drift (CI gate)
#   scripts/sweep.sh --update-golden  regenerate the golden baseline (do this
#                                     in the same commit that legitimately
#                                     changes predictions, and say why)
#   scripts/sweep.sh --filter paper_scale
#                                     reproduce the paper's figures at the
#                                     paper's scale (numbers in RESULTS.json)
#   scripts/sweep.sh --list           list registered scenarios; composes with
#                                     --filter, e.g.
#                                     scripts/sweep.sh --list --filter eviction
#
#   scripts/sweep.sh --check --check-frozen base_golden.json
#                                     also require every metric of a past
#                                     golden (e.g. the base revision's,
#                                     extracted with `git show`) to be
#                                     bit-identical in this run
#
# All other flags (--threads, --filter, --out, --golden, --timings) are
# forwarded to the sweep binary; see `sweep --help`. --filter matches the
# scenario name or group, so `--filter eviction` selects the whole
# policy-comparison group; with --check, only the selected scenarios are
# checked. RESULTS.json is byte-identical for any --threads.
set -euo pipefail

cd "$(dirname "$0")/.."
cargo build --release -p harness
exec target/release/sweep "$@"
