#!/bin/sh
# Figure-artifact check: regenerates every figure artifact that has a
# golden copy in this directory (via FIGURES_DIR, into a temporary
# directory) and diffs it byte for byte against that golden.
#
# Usage, from anywhere in the repository:
#     tests/figures/check.sh        (or: make figures-check)
#
# fig8_conversation and fig10_conv_flow have no golden: two runs of the
# same binary already differ. fig8's `messages` count varies (87 vs 86),
# and fig10's `sequence` interleaves report and binding deliveries in a
# different order while the multiset of events stays the same. Both come
# from delivery timing in the decentralized conversation flow.
#
# After an intended change to a figure, regenerate its golden with
#     FIGURES_DIR=tests/figures cargo run -q -p blueprint-bench --bin <name>
set -eu
cd "$(dirname "$0")/../.."

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

cargo build -q -p blueprint-bench --bins
status=0
count=0
for golden in tests/figures/*.json; do
    name=$(basename "$golden" .json)
    FIGURES_DIR="$out" cargo run -q -p blueprint-bench --bin "$name" > /dev/null
    if ! diff -u "$golden" "$out/$name.json"; then
        echo "figures-check: $name differs from its golden" >&2
        status=1
    fi
    count=$((count + 1))
done
if [ "$status" -eq 0 ]; then
    echo "figures-check: $count artifacts match their goldens"
fi
exit "$status"
