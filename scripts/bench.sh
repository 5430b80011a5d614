#!/bin/sh
# Runs the parallel-stepping benchmarks — faults-off, the mixed
# fault-injection scenario, the allocation benchmark, and the
# snapshot/restore pair — with -benchmem, and
# converts the result lines into BENCH_PR9.json, a machine-readable
# record of tick/event throughput and memory cost per configuration
# (ticks/op, events/op,
# ns/tick, events/sec, B/op, allocs/op). Comparing the ns/tick of
# ParallelStep vs ParallelStepFaults bounds the injector overhead; the
# AllocStep pooled/unpooled pair measures
# what the tick-scratch pools save (see docs/PERFORMANCE.md); the
# Snapshot pair records FSNAP1 checkpoint cost — encode wall time and
# snapshot bytes on the 10-day world, plus the end-to-end restore time a
# resumed run pays (see docs/PERSISTENCE.md); the TraceStep sweep
# records FTRC1 span-tracing overhead at sample rates off, 1/1024,
# 1/16, and 1/1 — tracing-off must match ParallelStep within noise and
# the 1/1024 production rate stays within ~5% ns/tick (see
# docs/OBSERVABILITY.md); the DurableStep sweep records crash-tolerant
# durability cost at modes off (plain FSEV1 recording), batched fsync,
# and fsync-every-batch — the batched default must stay within 15%
# ns/tick of off, with the daily checkpoint priced separately as
# ckpt-ns (see docs/PERSISTENCE.md). Every
# point in the grid produces identical ticks/op and events/op — worker
# and pooling knobs are concurrency/memory knobs, never semantics.
#
# The final "ServeLoadgen" record is the network front end's arm: a
# quick world hosted by `footsteps serve`, an unthrottled NDJSON
# loadgen burst over /v1/batch, and a graceful SIGTERM drain. It
# reports sustained envelopes/sec plus client-side per-request latency
# quantiles (see docs/API.md); the serve path's budget is >=50k req/s
# on the 1-CPU CI host.
#
# Setting BENCH_SCALE=1 appends the million-account arm: a 1M-account,
# 90-day world (the paper's full population over its full measurement
# window) reporting ns/tick, live B/account, and the peak-heap
# high-water mark in MiB. It needs ~1 GiB of heap and a few minutes of
# wall clock, so it is opt-in rather than part of the default sweep
# (see docs/PERFORMANCE.md, "Scaling to 1M accounts").
#
# Usage: [BENCH_SCALE=1] scripts/bench.sh [output.json]
set -eu

out="${1:-BENCH_PR10.json}"
cd "$(dirname "$0")/.."

raw="$(go test -run '^$' -bench 'Benchmark(ParallelStep(Faults)?|AllocStep|Snapshot|TraceStep|DurableStep)$' -benchtime "${BENCHTIME:-1x}" -benchmem .)"
printf '%s\n' "$raw" >&2

recs="$(printf '%s\n' "$raw" | awk '
/^Benchmark(ParallelStep(Faults)?|AllocStep|Snapshot|TraceStep|DurableStep)\// {
    name = $1
    sub(/^Benchmark/, "", name)
    sub(/-[0-9]+$/, "", name)
    rec = "  {\"bench\": \"" name "\", \"iters\": " $2
    for (i = 3; i + 1 <= NF; i += 2) {
        rec = rec ", \"" $(i + 1) "\": " $i
    }
    rec = rec "}"
    print rec
}
')"

# Serve arm: host a quick world, drive a loadgen burst, drain on
# SIGTERM, and append the loadgen-json record.
bin="$(mktemp -d)/footsteps"
go build -o "$bin" ./cmd/footsteps
addr="127.0.0.1:${SERVE_PORT:-18473}"
"$bin" -quick -serve-addr "$addr" serve >serve-bench.log 2>&1 &
serve_pid=$!
for _ in $(seq 1 50); do
    if "$bin" -target "http://$addr" -duration 1ms -accounts 2 loadgen >/dev/null 2>&1; then
        break
    fi
    sleep 0.2
done
lg="$("$bin" -target "http://$addr" -duration "${SERVE_DURATION:-3s}" -conns 4 -batch 64 loadgen)"
printf '%s\n' "$lg" >&2
kill -TERM "$serve_pid"
wait "$serve_pid"
serve_rec="$(printf '%s\n' "$lg" | awk -F'loadgen-json: ' '/^loadgen-json: /{
    body = $2
    sub(/^\{/, "", body)
    print "  {\"bench\": \"ServeLoadgen\", " body
}')"
[ -n "$serve_rec" ] || { echo "bench.sh: loadgen produced no record" >&2; exit 1; }

# Opt-in million-account arm (BENCH_SCALE=1): run separately from the
# main sweep so its ~1 GiB heap never inflates the -benchmem numbers of
# the small-world benchmarks sharing the process.
scale_rec=""
if [ -n "${BENCH_SCALE:-}" ]; then
    scale_raw="$(go test -run '^$' -bench 'BenchmarkScaleWorld$' -benchtime 1x -timeout 60m .)"
    printf '%s\n' "$scale_raw" >&2
    scale_rec="$(printf '%s\n' "$scale_raw" | awk '
/^BenchmarkScaleWorld/ {
    name = $1
    sub(/^Benchmark/, "", name)
    sub(/-[0-9]+$/, "", name)
    rec = "  {\"bench\": \"" name "\", \"iters\": " $2
    for (i = 3; i + 1 <= NF; i += 2) {
        rec = rec ", \"" $(i + 1) "\": " $i
    }
    rec = rec "}"
    print rec
}
')"
    [ -n "$scale_rec" ] || { echo "bench.sh: scale arm produced no record" >&2; exit 1; }
fi

printf '%s\n%s\n%s\n' "$recs" "$serve_rec" "$scale_rec" | awk '
NF { recs[n++] = $0 }
END {
    print "["
    for (i = 0; i < n; i++) print recs[i] (i < n - 1 ? "," : "")
    print "]"
}
' >"$out"

echo "wrote $out" >&2
