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
# iteration). The pairs judge speed at seed 1, whose digests are pinned;
# after them one quick run per tree at held-out seed 7 must give every
# workload the same digest in both trees. That check is skipped, with a
# notice, when this checkout's benchmarks/suite/pinned.json differs from
# the base's: a deliberate re-pin.
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
status=0
python benchmarks/suite/run.py compare "$out/base" "$out/head" || status=1

if git diff --quiet "$base_rev" -- benchmarks/suite/pinned.json; then
    for side in base head; do
        if [ "$side" = base ]; then root=$base_tree; else root=.; fi
        echo "== held-out seed 7: $side"
        python "$root/benchmarks/suite/run.py" --quick --trace 0 --seed 7 \
            --out "$out/seed7-$side" || status=1
    done
    python - "$out/seed7-base" "$out/seed7-head" <<'PY' || status=1
import glob
import json
import sys


def digests(directory):
    (path,) = glob.glob(f"{directory}/results-*.json")
    with open(path) as fh:
        workloads = json.load(fh)["workloads"]
    return {name: result.get("digest") for name, result in workloads.items()}


base, head = (digests(directory) for directory in sys.argv[1:3])
moved = sorted(name for name in set(base) | set(head) if base.get(name) != head.get(name))
for name in moved:
    print(f"held-out seed 7: {name} digest differs: {base.get(name)} (base), {head.get(name)} (head)")
if moved:
    sys.exit(1)
print(f"held-out seed 7: all {len(base)} workload digests equal")
PY
else
    echo "notice: benchmarks/suite/pinned.json differs from $base_rev (a deliberate re-pin);" \
        "skipping the held-out seed-7 digest check"
fi
exit "$status"
