#!/usr/bin/env bash
# Fault harness for the serving ring: three simserve shards behind one
# simring coordinator, deployed as the README does it, driven by 8
# closed-loop simload clients (submit only, 400 keys drawn Zipf(1.2)) for
# 14 s, with every process pinned to one core. Four seconds in, shard 2
# (every shard, for down) suffers SCENARIO:
#
#   none     nothing happens
#   hang     SIGSTOP, never resumed within the run (a hung shard)
#   slow     paused 200 ms out of every 400 ms until the end (a slow shard)
#   restart  SIGKILL, started again over the same address 4 s later
#   down     all three shards SIGSTOPped, resumed together 3 s later
#
# Prints one line: completed requests, of them the 429/503 answers, p99 and
# max submit latency, the requests still in flight at close and the oldest
# one's age, how many of the ten seconds from the fault on had a request
# complete, the simulations run cluster-wide, and the jobs the shards still
# held unfinished up to 10 s after the load (0: every job a shard accepted
# completed). Against a coordinator that still has a degraded-mode local
# queue, the line ends with simring_degraded_enqueued_total.
#
# Usage: scripts/ring_faults.sh SCENARIO [SEED]
#   BIN=dir          simserve and simring binaries (default: built from here)
#   LOADGEN=path     simload binary (default: $BIN/simload)
#   SIMRING_ARGS=…   extra simring flags, e.g. -no-hedge
#   CPU=n            the core every process runs on (default 0)
#   PORT_BASE=n      coordinator port; shards take the next three (19200)
#
# Needs curl and taskset.
set -euo pipefail
cd "$(dirname "$0")/.."

SCENARIO="${1:?usage: ring_faults.sh none|hang|slow|restart|down [SEED]}"
SEED="${2:-1}"
CPU="${CPU:-0}"
PORT_BASE="${PORT_BASE:-19200}"
TMP="$(mktemp -d)"
PIDS=()
SLOW_PID=""

cleanup() {
  [[ -n "$SLOW_PID" ]] && kill "$SLOW_PID" 2>/dev/null || true
  for pid in "${PIDS[@]:-}"; do
    if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
      kill -CONT "$pid" 2>/dev/null || true
      kill -KILL "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
  rm -rf "$TMP"
}
trap cleanup EXIT

if [[ -z "${BIN:-}" ]]; then
  BIN="$TMP/bin"
  for cmd in simserve simring simload; do
    go build -o "$BIN/$cmd" "./cmd/$cmd"
  done
fi
LOADGEN="${LOADGEN:-$BIN/simload}"

ADDRS=()
for i in 1 2 3; do ADDRS+=("127.0.0.1:$((PORT_BASE + i))"); done
RING="http://127.0.0.1:$PORT_BASE"

start_shard() { # start_shard INDEX -> pid
  taskset -c "$CPU" "$BIN/simserve" -addr "${ADDRS[$1]}" >>"$TMP/shards.log" 2>&1 &
  echo $!
}
SHARDS=()
for i in 0 1 2; do
  SHARDS+=("$(start_shard "$i")")
done
PIDS+=("${SHARDS[@]}")
# shellcheck disable=SC2086 # SIMRING_ARGS is a flag list
taskset -c "$CPU" "$BIN/simring" -addr "127.0.0.1:$PORT_BASE" ${SIMRING_ARGS:-} \
  -backends "http://${ADDRS[0]},http://${ADDRS[1]},http://${ADDRS[2]}" >>"$TMP/ring.log" 2>&1 &
PIDS+=("$!")

wait_ready() { # wait_ready URL
  for _ in $(seq 1 100); do
    curl -fsS "$1/readyz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "ring_faults: $1 never became ready" >&2
  exit 1
}
for a in "${ADDRS[@]}"; do wait_ready "http://$a"; done
wait_ready "$RING"

# shard_stat ADDR NAME: one counter from a shard's /metrics.json.
shard_stat() {
  curl -fsS -m 5 "http://$1/metrics.json" | sed -n "s/.*\"$2\": \([0-9]*\).*/\1/p" | head -1
}
# executed: simulations a shard has run.
executed() { shard_stat "$1" executed; }
# unfinished: jobs the shards have accepted and not yet finished.
unfinished() {
  local n=0 a
  for a in "${ADDRS[@]}"; do
    n=$((n + $(shard_stat "$a" jobs_accepted) - $(shard_stat "$a" jobs_done) - $(shard_stat "$a" jobs_failed)))
  done
  echo "$n"
}

taskset -c "$CPU" "$LOADGEN" -target "$RING" -duration 14s -concurrency 8 \
  -keys 400 -zipf-s 1.2 -seed "$SEED" -json "$TMP/load.json" >/dev/null 2>&1 &
LOAD_PID=$!
sleep 4
VICTIM="${SHARDS[1]}"
LOST=0 # simulations the restarted shard ran before it died
case "$SCENARIO" in
  none) ;;
  hang) kill -STOP "$VICTIM" ;;
  slow)
    (while kill -STOP "$VICTIM" 2>/dev/null; do
       sleep 0.2; kill -CONT "$VICTIM" 2>/dev/null; sleep 0.2
     done) &
    SLOW_PID=$!
    ;;
  restart)
    LOST="$(executed "${ADDRS[1]}")"
    kill -KILL "$VICTIM"
    wait "$VICTIM" 2>/dev/null || true
    sleep 4
    SHARDS[1]="$(start_shard 1)"
    PIDS+=("${SHARDS[1]}")
    ;;
  down)
    kill -STOP "${SHARDS[@]}"
    sleep 3
    kill -CONT "${SHARDS[@]}"
    ;;
  *) echo "ring_faults: unknown scenario $SCENARIO" >&2; exit 1 ;;
esac
wait "$LOAD_PID" || true # exit 2 reports transport errors; the JSON has them
if [[ -n "$SLOW_PID" ]]; then kill "$SLOW_PID" 2>/dev/null || true; wait "$SLOW_PID" 2>/dev/null || true; SLOW_PID=""; fi
kill -CONT "${SHARDS[1]}" 2>/dev/null || true

EXEC="$LOST"
for a in "${ADDRS[@]}"; do EXEC=$((EXEC + $(executed "$a"))); done
for _ in $(seq 1 100); do
  UNFINISHED="$(unfinished)"
  [[ "$UNFINISHED" == 0 ]] && break
  sleep 0.1
done
DEGRADED="$(curl -fsS -m 5 "$RING/metrics" | sed -n 's/^simring_degraded_enqueued_total \([0-9.e+]*\)$/\1/p')"

field() { sed -n "s/^  \"$1\": \([0-9]*\).*/\1/p" "$TMP/load.json" | head -1; }
P99="$(sed -n '/"latency_us"/,/}/s/.*"p99": \([0-9]*\).*/\1/p' "$TMP/load.json" | head -1)"
MAX="$(sed -n '/"latency_us"/,/}/s/.*"max": \([0-9]*\).*/\1/p' "$TMP/load.json" | head -1)"
# Seconds from the fault on (buckets 4..13) in which some request started
# and completed.
SERVED="$(awk '/"s":/ {s = $2 + 0; per = 1}
               /"requests":/ && per {if (s >= 4 && $2 + 0 > 0) n++; per = 0}
               END {print n + 0}' "$TMP/load.json")"
echo "scenario=$SCENARIO seed=$SEED requests=$(field requests)" \
  "backpressure_429_503=$(sed -n 's/.*"backpressure_429_503": \([0-9]*\).*/\1/p' "$TMP/load.json" | head -1)" \
  "p99_us=$P99 max_us=$MAX" \
  "in_flight_at_close=$(field in_flight_at_close) oldest_in_flight_us=$(field oldest_in_flight_us)" \
  "served_secs_after_fault=$SERVED/10 simulations=$EXEC unfinished=$UNFINISHED${DEGRADED:+ degraded_enqueued=$DEGRADED}"
