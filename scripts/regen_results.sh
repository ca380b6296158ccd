#!/usr/bin/env bash
# Regenerate the checked-in experiment outputs and assert the simulator
# still reproduces them bit-for-bit, modulo the one nondeterministic part:
# the per-experiment wall-clock suffix ("(fig8 in 3.0s)" -> "(fig8)" after
# normalization).
#
#   results_all.txt      `experiments -run all`, the detailed sweep that
#                        EXPERIMENTS.md quotes.
#   results_sampled.txt  every experiment except gain (attribution cannot
#                        run sampled) at scale 4 under the README's sampled
#                        regime, so the fast-forward and warming paths are
#                        covered too.
#
# Usage:
#   scripts/regen_results.sh           # check: fail if tables drifted
#   scripts/regen_results.sh -update   # rewrite both files in place
set -euo pipefail

mode=check
if [[ "${1:-}" == "-update" || "${1:-}" == "--update" ]]; then
    mode=update
fi

cd "$(dirname "$0")/.."
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

go build -o "$work/experiments" ./cmd/experiments
"$work/experiments" -run all > "$work/results_all.txt"
"$work/experiments" \
    -run table1,table2,table3,fig8,fig9,fig10,fig11,fig12,fig13,fig14,fig15,fig16,fig17,ablate,ext-latency,ext-block,ext-bpred \
    -scale 4 -sample-warmup 500 -sample-measure 1000 -sample-period 30000 \
    > "$work/results_sampled.txt"

# The timing suffix is the only field allowed to differ between runs.
normalize() { sed -E 's/^\((.+) in [0-9.]+s\)$/(\1)/' "$1"; }

fail=0
for committed in results_all.txt results_sampled.txt; do
    fresh="$work/$committed"
    if [[ "$mode" == "update" ]]; then
        cp "$fresh" "$committed"
        echo "updated $committed ($(grep -c '' "$committed") lines)"
        continue
    fi
    if [[ ! -f "$committed" ]]; then
        echo "FAIL: $committed is missing — run scripts/regen_results.sh -update" >&2
        fail=1
        continue
    fi
    normalize "$committed" > "$work/committed.norm"
    normalize "$fresh" > "$work/fresh.norm"
    if ! cmp -s "$work/committed.norm" "$work/fresh.norm"; then
        echo "FAIL: regenerated tables differ from the committed $committed" >&2
        echo "      (diff below; if the change is intended, run scripts/regen_results.sh -update)" >&2
        diff "$work/committed.norm" "$work/fresh.norm" >&2 || true
        fail=1
        continue
    fi
    echo "PASS: regenerated tables are bit-identical to $committed (modulo timing)"
done
exit "$fail"
