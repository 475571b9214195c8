#!/usr/bin/env bash
# Smoke test for multi-node serving: boot three simserve shards behind one
# simring coordinator, then drive the cluster through its contract end to end:
#
#   submit -> poll -> fetch through the coordinator (r- IDs, not j- IDs)
#   repeat submit          -> cache hit
#   SIGSTOP one shard mid-load   -> breaker opens, submissions keep answering,
#                                   and after SIGCONT it closes again and
#                                   every accepted job completes
#   SIGSTOP every shard          -> every breaker opens and a submission
#                                   answers 503 + Retry-After; after SIGCONT
#                                   the breakers close and the spec completes
#   SIGKILL one shard mid-load   -> breaker opens, traffic re-routes, and
#                                   every accepted job still completes
#   SIGTERM                -> graceful drain
#
# No dependencies beyond curl, same as simserve_smoke.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

RING_ADDR="${SIMRING_ADDR:-127.0.0.1:19100}"
B1_ADDR="127.0.0.1:19101"
B2_ADDR="127.0.0.1:19102"
B3_ADDR="127.0.0.1:19103"
RING="http://$RING_ADDR"
TMP="$(mktemp -d)"
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
      kill -CONT "$pid" 2>/dev/null || true # a stopped shard cannot take TERM
      kill -TERM "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
  rm -rf "$TMP"
}
trap cleanup EXIT

fail() { echo "simring_smoke: FAIL: $*" >&2; exit 1; }

spec() { # spec SEED [MEASURE]
  echo "{\"scheme\":\"PR\",\"pattern\":\"PAT271\",\"radix\":[2,2],\"rate\":0.02,\"warmup\":-1,\"measure\":${2:-2000},\"seed\":$1}"
}

go build -o "$TMP/simserve" ./cmd/simserve
go build -o "$TMP/simring" ./cmd/simring

start_backend() { # start_backend ADDR -> pid
  "$TMP/simserve" -addr "$1" -workers 2 -queue 16 >>"$TMP/backends.log" 2>&1 &
  echo $!
}
B1_PID="$(start_backend "$B1_ADDR")"
B2_PID="$(start_backend "$B2_ADDR")"
B3_PID="$(start_backend "$B3_ADDR")"
PIDS+=("$B1_PID" "$B2_PID" "$B3_PID")

"$TMP/simring" -addr "$RING_ADDR" \
  -backends "http://$B1_ADDR,http://$B2_ADDR,http://$B3_ADDR" \
  -probe-interval 100ms -hedge-max 500ms >>"$TMP/ring.log" 2>&1 &
RING_PID=$!
PIDS+=("$RING_PID")

# Ready means the coordinator sees at least one live backend.
for i in $(seq 1 50); do
  curl -fsS "$RING/readyz" >/dev/null 2>&1 && break
  [[ $i == 50 ]] && fail "coordinator never became ready (ring.log: $(tail -5 "$TMP/ring.log" 2>/dev/null))"
  sleep 0.2
done
echo "simring_smoke: cluster up ($RING over 3 shards)"

# --- submit -> poll -> fetch through the coordinator ------------------------
curl -sS -X POST "$RING/v1/runs" -d "$(spec 1)" -o "$TMP/submit.json" \
     -w '%{http_code}' > "$TMP/submit.code"
CODE="$(cat "$TMP/submit.code")"
[[ "$CODE" == 202 || "$CODE" == 200 ]] || fail "submit: HTTP $CODE: $(cat "$TMP/submit.json")"
JOB_ID="$(sed -n 's/.*"id": "\(r-[0-9]*\)".*/\1/p' "$TMP/submit.json" | head -1)"
[[ -n "$JOB_ID" ]] || fail "no coordinator job id (r-NNNNNN) in: $(cat "$TMP/submit.json")"

poll_done() { # poll_done JOB_ID OUT
  for i in $(seq 1 100); do
    curl -fsS "$RING/v1/runs/$1" -o "$2"
    grep -q '"status": "done"' "$2" && return 0
    grep -q '"status": "failed"' "$2" && fail "job $1 failed: $(cat "$2")"
    sleep 0.2
  done
  fail "job $1 did not finish: $(cat "$2")"
}
poll_done "$JOB_ID" "$TMP/poll.json"
grep -q '"digest":' "$TMP/poll.json" || fail "done job has no delivery digest"
SPEC_HASH="$(sed -n 's/.*"spec_hash": "\([0-9a-f]*\)".*/\1/p' "$TMP/poll.json" | head -1)"
[[ -n "$SPEC_HASH" ]] || fail "no spec_hash in: $(cat "$TMP/poll.json")"
echo "simring_smoke: $JOB_ID done (hash $SPEC_HASH)"

# Content-addressed fetch through the coordinator.
curl -fsS "$RING/v1/runs/$SPEC_HASH" -o "$TMP/byhash.json"
grep -q '"digest":' "$TMP/byhash.json" || fail "by-hash fetch has no result: $(cat "$TMP/byhash.json")"

# Repeat submit through the coordinator: served from cache.
curl -sS -X POST "$RING/v1/runs" -d "$(spec 1)" -o "$TMP/repeat.json" \
     -w '%{http_code}' > "$TMP/repeat.code"
[[ "$(cat "$TMP/repeat.code")" == 200 ]] || fail "repeat submit: HTTP $(cat "$TMP/repeat.code")"
grep -q '"cached": true' "$TMP/repeat.json" || fail "repeat submit missed the cache: $(cat "$TMP/repeat.json")"
echo "simring_smoke: repeat submit served from cache"

# wait_breaker ADDR STATE: /v1/cluster must show the shard's breaker in
# STATE ("open" = down, "closed" = up) within five seconds.
wait_breaker() {
  for i in $(seq 1 50); do
    curl -fsS "$RING/v1/cluster" -o "$TMP/cluster.json"
    grep -A2 "$1" "$TMP/cluster.json" | grep -q "\"breaker\": \"$2\"" && return 0
    sleep 0.1
  done
  fail "breaker for $1 never $2: $(cat "$TMP/cluster.json")"
}

# submit_wave FIRST LAST: submit seeds FIRST..LAST through the coordinator,
# each answered within 10 s (the proxied client timeout is 30 s, so a
# request stuck on a stopped shard fails here), and append their IDs to IDS.
IDS=()
submit_wave() {
  for seed in $(seq "$1" "$2"); do
    curl -sS -m 10 -X POST "$RING/v1/runs" -d "$(spec "$seed" 3000)" -o "$TMP/wave.json" \
         -w '%{http_code}' > "$TMP/wave.code" || fail "seed $seed: no answer within 10s"
    CODE="$(cat "$TMP/wave.code")"
    [[ "$CODE" == 202 || "$CODE" == 200 ]] || fail "seed $seed: HTTP $CODE"
    IDS+=("$(sed -n 's/.*"id": "\(r-[0-9]*\)".*/\1/p' "$TMP/wave.json" | head -1)")
  done
}

# --- chaos: SIGSTOP one shard mid-load --------------------------------------
# A stopped shard still accepts TCP connections but never answers: the hung
# shard, not the dead one. Its breaker must open on a failed probe, every
# submission must still answer (keys it owns go to its ring successor), and
# after SIGCONT a probe must close the breaker and every job accepted before,
# during and after the pause must complete.
submit_wave 100 111
kill -STOP "$B2_PID"
echo "simring_smoke: shard 2 SIGSTOPped with ${#IDS[@]} jobs accepted"
wait_breaker "$B2_ADDR" open
submit_wave 112 141
echo "simring_smoke: 30 submissions answered with shard 2 stopped"
kill -CONT "$B2_PID"
wait_breaker "$B2_ADDR" closed
for ID in "${IDS[@]}"; do
  poll_done "$ID" "$TMP/pause_poll.json"
done
echo "simring_smoke: shard 2 back up; all ${#IDS[@]} accepted jobs completed"

# --- chaos: SIGSTOP every shard ---------------------------------------------
# With no replica to take a spec the coordinator answers as one full shard
# would, 503 with Retry-After, and holds nothing of its own. Once the shards
# resume, the breakers close and the same spec is accepted and completes.
kill -STOP "$B1_PID" "$B2_PID" "$B3_PID"
for A in "$B1_ADDR" "$B2_ADDR" "$B3_ADDR"; do wait_breaker "$A" open; done
curl -sS -m 10 -X POST "$RING/v1/runs" -d "$(spec 200 3000)" -D "$TMP/down.hdr" -o "$TMP/down.json" \
     -w '%{http_code}' > "$TMP/down.code" || fail "every shard stopped: no answer within 10s"
[[ "$(cat "$TMP/down.code")" == 503 ]] || fail "every shard stopped: HTTP $(cat "$TMP/down.code"), want 503: $(cat "$TMP/down.json")"
grep -qi '^retry-after: [0-9]' "$TMP/down.hdr" || fail "every shard stopped: 503 without Retry-After"
echo "simring_smoke: every shard stopped; submission answered 503 with Retry-After"
kill -CONT "$B1_PID" "$B2_PID" "$B3_PID"
for A in "$B1_ADDR" "$B2_ADDR" "$B3_ADDR"; do wait_breaker "$A" closed; done
IDS=()
submit_wave 200 200
poll_done "${IDS[0]}" "$TMP/down_poll.json"
echo "simring_smoke: shards resumed; the refused spec completed as ${IDS[0]}"

# --- chaos: SIGKILL one shard mid-load --------------------------------------
# Accept a wave of jobs, hard-kill shard 3 (no drain, no goodbye), keep
# submitting, and require every accepted job — both waves — to complete.
IDS=()
submit_wave 10 21
kill -KILL "$B3_PID"
wait "$B3_PID" 2>/dev/null || true
echo "simring_smoke: shard 3 SIGKILLed with ${#IDS[@]} jobs accepted"

wait_breaker "$B3_ADDR" open
echo "simring_smoke: breaker open for killed shard"

# Traffic keeps flowing: submit until the reroute counter moves past where
# the pause left it (a key owned by the dead shard routes to its ring
# successor).
reroutes() { curl -fsS "$RING/metrics" | sed -n 's/^simring_reroutes_total \([0-9]*\).*/\1/p'; }
R0="$(reroutes)"
REROUTED=0
for seed in $(seq 30 69); do
  curl -sS -X POST "$RING/v1/runs" -d "$(spec "$seed" 3000)" -o "$TMP/wave.json" \
       -w '%{http_code}' > "$TMP/wave.code"
  CODE="$(cat "$TMP/wave.code")"
  [[ "$CODE" == 202 || "$CODE" == 200 ]] || fail "wave-2 seed $seed: HTTP $CODE"
  IDS+=("$(sed -n 's/.*"id": "\(r-[0-9]*\)".*/\1/p' "$TMP/wave.json" | head -1)")
  R="$(reroutes)"
  if [[ -n "$R" && "$R" -gt "${R0:-0}" ]]; then REROUTED=1; break; fi
done
[[ "$REROUTED" == 1 ]] || fail "no re-routes recorded across 40 post-kill submissions"
echo "simring_smoke: traffic re-routed around dead shard"

# Zero accepted-job loss: every ID from both waves completes.
for ID in "${IDS[@]}"; do
  poll_done "$ID" "$TMP/chaos_poll.json"
done
echo "simring_smoke: all ${#IDS[@]} accepted jobs completed after shard loss"

# Breaker-open transitions are on the metrics page.
curl -fsS "$RING/metrics" -o "$TMP/ring_metrics.prom"
grep -q "simring_breaker_transitions_total{backend=\"http://$B3_ADDR\",to=\"open\"}" "$TMP/ring_metrics.prom" \
  || fail "no breaker-open transition recorded for killed shard"
grep -q '^simring_live_backends 2$' "$TMP/ring_metrics.prom" \
  || fail "live backends != 2 after kill: $(grep simring_live_backends "$TMP/ring_metrics.prom")"

# --- graceful drain ---------------------------------------------------------
kill -TERM "$RING_PID"
wait "$RING_PID" || fail "coordinator exited non-zero on SIGTERM"
PIDS=("$B1_PID" "$B2_PID")
echo "simring_smoke: PASS"
