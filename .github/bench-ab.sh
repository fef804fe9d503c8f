#!/bin/sh
# Same-runner benchmark A/B: run the benchmark suite on a base revision and
# on this checkout, alternating which side runs first, then judge the two
# sets of results with `run.py compare` against BENCHMARK.json's bounds.
#
# Usage, from the repository root:
#
#   sh .github/bench-ab.sh BASE_REV [PAIRS] [OUT_DIR]
#
# Each side runs its own tree's benchmarks/suite/run.py, which builds what
# it measures from that tree's src/. Exits 1 when compare reports a
# regression, or when any run fails (a crashed or digest-mismatched
# iteration).
set -eu
base_rev=$1
pairs=${2:-5}
out=${3:-bench-ab}
base_tree=$out/base-tree

rm -rf "$out"
mkdir -p "$out"
git worktree add --detach "$base_tree" "$base_rev"
trap 'git worktree remove --force "$base_tree"' EXIT

i=0
while [ "$i" -lt "$pairs" ]; do
    if [ $((i % 2)) -eq 0 ]; then order="base head"; else order="head base"; fi
    for side in $order; do
        if [ "$side" = base ]; then root=$base_tree; else root=.; fi
        echo "== pair $((i + 1))/$pairs: $side"
        python "$root/benchmarks/suite/run.py" --trace 0 --out "$out/$side"
    done
    i=$((i + 1))
done
python benchmarks/suite/run.py compare "$out/base" "$out/head"
