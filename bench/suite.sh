#!/bin/sh
# Runs every workload ten times (seeds 1..10), plus once traced, for each
# given checkout, for BENCHMARK.json's run_seconds each. Each checkout's
# records -- host, seed, revision, every metric's raw samples -- go to a
# fresh file, bench/results/<rev>-<time>-<position>.jsonl under the
# current directory, so reruns and two checkouts of one revision never
# share a file. Given two checkouts (a parent and a change), it
# alternates them run by run, rotating which goes first on every seed, so
# host drift lands on both sides alike. Then compare the files it names
# at the end:
#
#   sh bench/suite.sh ../parent .
#   cd bench && go run ./cmp results/<parent file> results/<change file>
#
# Usage, from the repository root:
#   sh bench/suite.sh [checkout ...]   (default: .)
set -eu

seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)"
[ -n "$seconds" ] || { echo "suite.sh: no run_seconds in ./BENCHMARK.json" >&2; exit 2; }
results="$(pwd)/bench/results"
stamp="$(date -u +%Y%m%dT%H%M%SZ)"
mkdir -p "$results"
[ "$#" -gt 0 ] || set -- .

rev() {
    r="$(git -C "$1" rev-parse --short HEAD 2>/dev/null || basename "$(cd "$1" && pwd)")"
    if [ -n "$(git -C "$1" status --porcelain --untracked-files=no 2>/dev/null)" ]; then
        r="$r-dirty"
    fi
    echo "$r"
}

# bench DIR J ARGS... runs one invocation from DIR, the J-th checkout.
bench() {
    dir="$1"
    j="$2"
    shift 2
    r="$(rev "$dir")"
    (cd "$dir" && sh bench/run.sh --out "$results/$r-$stamp-$j.jsonl" --rev "$r" "$@")
}

n=$#
for w in business30 durable-graph scale100k serve-open; do
    for seed in 1 2 3 4 5 6 7 8 9 10; do
        for k in $(seq 1 "$n"); do
            j=$(((k + seed) % n + 1)) # rotate the order by seed
            eval "dir=\${$j}"
            echo "$w seed $seed: $dir" >&2
            bench "$dir" "$j" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 >/dev/null
        done
    done
    for j in $(seq 1 "$n"); do
        eval "dir=\${$j}"
        bench "$dir" "$j" --workload "$w" --seed 1 --seconds "$seconds" --trace 1
    done
done
for j in $(seq 1 "$n"); do
    eval "dir=\${$j}"
    echo "$dir: $results/$(rev "$dir")-$stamp-$j.jsonl" >&2
done
