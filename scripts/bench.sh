#!/usr/bin/env sh
# bench.sh — run the tier-1 perf benchmarks with -benchmem and fold the
# numbers into a JSON record (default bench/BENCH_pr12.json) via
# scripts/benchjson. Perf records live under bench/ so the repo root
# stays clean as the record set grows (bench/BENCH_pr2.json is the PR-2
# zero-alloc rewrite; bench/BENCH_pr4.json adds the telemetry-overhead
# proof; bench/BENCH_pr5.json adds the qdisc-layer figure benches —
# DCTCP's marking FIFO and pFabric's strict-priority scheduler path;
# bench/BENCH_pr7.json guards the fault-injection hooks: present but
# disabled, they must keep Fig3a within noise of the pr5 record and the
# engine benches at 0 allocs/op; bench/BENCH_pr8.json adds the sharded
# fat-tree k=16 scaling matrix — note its shards>1 rows only show a
# wall-clock win on multi-core machines, a GOMAXPROCS=1 recording
# measures pure coordination overhead; bench/BENCH_pr9.json adds the
# observability plane's ObsvOverhead pair — the "off" side is the
# nil-Observer path every other benchmark now exercises, and must stay
# within noise of Fig3a; bench/BENCH_pr10.json adds the ShardedPDQ
# matrix pricing the widened sharding eligibility — the flow-list
# protocol, telemetry and per-link loss streams all running under the
# sharded engine, byte-identical to the single-engine cell;
# bench/BENCH_pr12.json re-records the set after the event heap moved to
# inline keys and per-link delivery streams, which changed the code path
# of the benchdiff calibration bench, EngineScheduleFire — its "before"
# slot is the previous tree, its "after" slot this one. Every record is
# one -count 1 sample per benchmark, so a ratio between two slots is a
# single draw, not a measured speedup).
#
# Usage:
#   scripts/bench.sh [record.json]
#
# Environment:
#   BENCH_PATTERN  bench regex        (default: the PR-2 acceptance set,
#                                      the engine/allocator micro-benches,
#                                      the PR-4 TraceSinkOverhead pair,
#                                      the PR-5 DCTCP/pFabric figure benches
#                                      and the PR-9 ObsvOverhead pair)
#   BENCH_TIME     -benchtime value   (default 1s; CI smoke uses 10x)
#   BENCH_LABEL    record slot        (before|after; default: before when the
#                                      record is empty, after otherwise)
#
# The first run on a tree records the "before" slot; a later run fills
# "after" and the improvement factors are computed per benchmark.
set -eu
cd "$(dirname "$0")/.."

OUT="${1:-bench/BENCH_pr12.json}"
PATTERN="${BENCH_PATTERN:-Fig3a\$|Fig10\$|AblationPDQVariants|EngineSchedule|FlowAllocators|TraceSinkOverhead|DCTCPIncast|PFabricWebsearch|ShardedFatTree|ShardedPDQ|ObsvOverhead}"
TIME="${BENCH_TIME:-1s}"

mkdir -p "$(dirname "$OUT")"

CMD="go test -bench '$PATTERN' -benchmem -benchtime $TIME -run '^\$' -count 1 ."
echo "+ $CMD" >&2
go test -bench "$PATTERN" -benchmem -benchtime "$TIME" -run '^$' -count 1 . \
  | tee /dev/stderr \
  | go run ./scripts/benchjson -out "$OUT" -cmd "$CMD" ${BENCH_LABEL:+-label "$BENCH_LABEL"}
