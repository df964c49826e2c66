#!/usr/bin/env bash
# Scripted service hot path for the perf-telemetry gate.
#
# Boots ao_campaignd with --profile-dir, connects two remote ao_worker
# processes, and runs the three campaigns that between them light up every
# gated phase:
#   - an UNSHARDED mixed-kind campaign (queue-wait/admission/schedule/
#     execute/serialize on the in-process path),
#   - a SHARDED remote campaign (shard/transport/frame/merge over the
#     worker sockets),
#   - an unsharded REPLAY of the sharded campaign under a new name/client —
#     same content, so the schedule phase exercises the plan-cache hit path
#     (and the warm result cache serves the records without the workers).
# Then folds the daemon's per-campaign *.profile.json artifacts into one
# ao-bench/1 report with tools/bench_report.py.
#
#   tools/bench_hotpath.sh <build-dir> <scratch-dir> <out.json>
#
# The scratch dir is created (and should be empty); artifacts land in
# <scratch-dir>/profile. CI runs this twice and gates run 2 against run 1
# with bench_report.py compare (docs/observability.md).

set -euo pipefail

BUILD_DIR=${1:?usage: bench_hotpath.sh <build-dir> <scratch-dir> <out.json>}
SCRATCH=${2:?usage: bench_hotpath.sh <build-dir> <scratch-dir> <out.json>}
OUT=${3:?usage: bench_hotpath.sh <build-dir> <scratch-dir> <out.json>}
BUILD_DIR=$(cd "$BUILD_DIR" && pwd)
TOOLS_DIR=$(cd "$(dirname "$0")" && pwd)

mkdir -p "$SCRATCH/profile"
SOCK="$SCRATCH/ao.sock"

cleanup() {
  # The daemon owns the workers' sessions; kill whatever is still up.
  [ -n "${DAEMON_PID:-}" ] && kill "$DAEMON_PID" 2>/dev/null || true
  [ -n "${W1_PID:-}" ] && kill "$W1_PID" 2>/dev/null || true
  [ -n "${W2_PID:-}" ] && kill "$W2_PID" 2>/dev/null || true
  wait 2>/dev/null || true
}
trap cleanup EXIT

"$BUILD_DIR/ao_campaignd" --socket "$SOCK" --profile-dir "$SCRATCH/profile" &
DAEMON_PID=$!
for _ in $(seq 100); do [ -S "$SOCK" ] && break; sleep 0.1; done
[ -S "$SOCK" ] || { echo "bench_hotpath: daemon never bound $SOCK" >&2; exit 1; }

"$BUILD_DIR/ao_worker" --connect "$SOCK" --name bench-w1 &
W1_PID=$!
"$BUILD_DIR/ao_worker" --connect "$SOCK" --name bench-w2 &
W2_PID=$!
for _ in $(seq 100); do
  "$BUILD_DIR/ao_campaignctl" --socket "$SOCK" stats \
    | grep -q 'workers 2' && break
  sleep 0.1
done

# Campaign 1: unsharded — the in-process scheduler path (execute/serialize).
cat > "$SCRATCH/hot-inproc.txt" <<'EOF'
begin hot-inproc
chips m1,m3
impls cpu-single,gpu-mps
sizes 32,64
repetitions 3
stream 1,2 2 1024
gpu-stream 2 1024
precision 24
ane 32
fp64emu 24
sme 32
power 0.25
workers 2
run
EOF
"$BUILD_DIR/ao_campaignctl" --socket "$SOCK" --request "$SCRATCH/hot-inproc.txt" \
  > "$SCRATCH/hot-inproc.log"
grep -q '^done campaign ' "$SCRATCH/hot-inproc.log"

# Campaign 2: sharded over the two remote workers — shard/transport/frame/
# merge. Different name and sizes so the warm cache can't serve it whole.
cat > "$SCRATCH/hot-sharded.txt" <<'EOF'
begin hot-sharded
chips m1,m3
impls cpu-single,gpu-mps
sizes 48,96
repetitions 3
stream 1,2 2 2048
gpu-stream 2 2048
precision 32
ane 48
fp64emu 32
sme 48
power 0.25
workers 2
shards 2
run
EOF
"$BUILD_DIR/ao_campaignctl" --socket "$SOCK" --request "$SCRATCH/hot-sharded.txt" \
  > "$SCRATCH/hot-sharded.log"
grep -q '^done campaign .* shards 2 remote 2$' "$SCRATCH/hot-sharded.log"

# Campaign 3: the sharded campaign replayed unsharded under a new identity.
# Every content line matches hot-sharded — scheduling lines (name, client,
# shards) are outside the plan key — so scheduler checkout reuses the
# compiled expansion (a plan-cache hit on builds that have the cache) and
# the warm result cache serves the records without touching the workers.
cat > "$SCRATCH/hot-replay.txt" <<'EOF'
begin hot-replay
client bench-replayer
chips m1,m3
impls cpu-single,gpu-mps
sizes 48,96
repetitions 3
stream 1,2 2 2048
gpu-stream 2 2048
precision 32
ane 48
fp64emu 32
sme 48
power 0.25
workers 2
run
EOF
"$BUILD_DIR/ao_campaignctl" --socket "$SOCK" --request "$SCRATCH/hot-replay.txt" \
  > "$SCRATCH/hot-replay.log"
grep -q '^done campaign ' "$SCRATCH/hot-replay.log"

# The live timeline surface: a per-phase p50/p95 table for the sharded
# campaign, and the lifetime stats-phase totals.
"$BUILD_DIR/ao_campaignctl" --socket "$SOCK" profile --name hot-sharded \
  | tee "$SCRATCH/profile.log" | grep '^profile-phase ' || true
"$BUILD_DIR/ao_campaignctl" --socket "$SOCK" stats | grep '^stats-phase ' || true

"$BUILD_DIR/ao_campaignctl" --socket "$SOCK" shutdown
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

ls "$SCRATCH/profile/" >&2
# --by-origin: the sharded campaign's worker-measured spans get their own
# per-process breakdown in the report (informational; compare ignores it).
python3 "$TOOLS_DIR/bench_report.py" collect --profile-dir "$SCRATCH/profile" \
  --out "$OUT" --by-origin
