#!/usr/bin/env bash
# Smoke test for serving mode: boot simserve, drive the HTTP API end to
# end — submit, poll to completion, fetch, check /metrics — then resubmit
# the identical spec and require a byte-identical cache hit, and read the
# -trace file back after the drain. Exercises the same path CI and a fresh
# checkout use: no dependencies beyond curl.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${SIMSERVE_ADDR:-127.0.0.1:18080}"
BASE="http://$ADDR"
SPEC='{"scheme":"PR","pattern":"PAT271","radix":[4,4],"rate":0.02,"measure":2000}'
TMP="$(mktemp -d)"
SERVER_PID=

cleanup() {
  if [[ -n "$SERVER_PID" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -TERM "$SERVER_PID"
    wait "$SERVER_PID" || true
  fi
  rm -rf "$TMP"
}
trap cleanup EXIT

fail() { echo "simserve_smoke: FAIL: $*" >&2; exit 1; }

go build -o "$TMP/simserve" ./cmd/simserve
"$TMP/simserve" -addr "$ADDR" -workers 2 -queue 8 -cache-dir "$TMP/cache" -trace "$TMP/trace.jsonl" &
SERVER_PID=$!

for i in $(seq 1 50); do
  curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
  [[ $i == 50 ]] && fail "server did not come up on $ADDR"
  sleep 0.2
done
echo "simserve_smoke: server up on $ADDR"

# Cold submit: must be accepted (202) and not served from cache.
curl -sS -X POST "$BASE/v1/runs" -d "$SPEC" -o "$TMP/submit.json" \
     -w '%{http_code}' > "$TMP/submit.code"
[[ "$(cat "$TMP/submit.code")" == 202 ]] || fail "cold submit: HTTP $(cat "$TMP/submit.code"): $(cat "$TMP/submit.json")"
grep -q '"cached": false' "$TMP/submit.json" || fail "cold submit claims cached: $(cat "$TMP/submit.json")"
JOB_ID="$(sed -n 's/.*"id": "\(j-[0-9]*\)".*/\1/p' "$TMP/submit.json" | head -1)"
[[ -n "$JOB_ID" ]] || fail "no job id in: $(cat "$TMP/submit.json")"

# Poll until done; the result payload rides along.
for i in $(seq 1 100); do
  curl -fsS "$BASE/v1/runs/$JOB_ID" -o "$TMP/poll.json"
  grep -q '"status": "done"' "$TMP/poll.json" && break
  grep -q '"status": "failed"' "$TMP/poll.json" && fail "job failed: $(cat "$TMP/poll.json")"
  [[ $i == 100 ]] && fail "job $JOB_ID did not finish"
  sleep 0.2
done
grep -q '"digest":' "$TMP/poll.json" || fail "done job has no delivery digest"
echo "simserve_smoke: $JOB_ID done"

# Repeat submit: HTTP 200, cached, byte-identical result payload.
curl -sS -X POST "$BASE/v1/runs" -d "$SPEC" -o "$TMP/repeat.json" \
     -w '%{http_code}' > "$TMP/repeat.code"
[[ "$(cat "$TMP/repeat.code")" == 200 ]] || fail "repeat submit: HTTP $(cat "$TMP/repeat.code")"
grep -q '"cached": true' "$TMP/repeat.json" || fail "repeat submit missed the cache: $(cat "$TMP/repeat.json")"
# The result object is the last field of a job body, so slicing from its
# opening brace to EOF isolates it; the slices must match byte for byte.
sed -n '/"result": {/,$p' "$TMP/poll.json" > "$TMP/result.cold"
sed -n '/"result": {/,$p' "$TMP/repeat.json" > "$TMP/result.warm"
[[ -s "$TMP/result.cold" ]] || fail "done job carries no result payload"
cmp -s "$TMP/result.cold" "$TMP/result.warm" || fail "cached result not byte-identical"
grep -q '"digest":' "$TMP/result.warm" || fail "cached result has no delivery digest"
echo "simserve_smoke: cache hit byte-identical"

# Hardened service path: an invalid spec is rejected with 400 and the
# server keeps serving afterwards.
curl -sS -X POST "$BASE/v1/runs" -d '{"scheme":"NO-SUCH-SCHEME"}' \
     -o "$TMP/invalid.json" -w '%{http_code}' > "$TMP/invalid.code"
[[ "$(cat "$TMP/invalid.code")" == 400 ]] || fail "invalid spec: HTTP $(cat "$TMP/invalid.code"): $(cat "$TMP/invalid.json")"
grep -q '"error":' "$TMP/invalid.json" || fail "invalid spec carries no error body: $(cat "$TMP/invalid.json")"
# A spec over the size bound used to pass, queue and kill the server with an
# out-of-memory fatal error; it is a 400 naming the field (healthz is next).
curl -sS -X POST "$BASE/v1/runs" -d '{"radix":[1048576,1048576]}' | grep -q '"error": ".*Radix' || fail "oversized radix not refused by name"
curl -fsS "$BASE/healthz" >/dev/null || fail "healthz down after invalid spec"
echo "simserve_smoke: invalid spec rejected, server healthy"

# Metrics reflect the session: one executed simulation, one cache hit.
curl -fsS "$BASE/metrics.json" -o "$TMP/metrics.json"
grep -q '"executed": 1' "$TMP/metrics.json" || fail "metrics executed != 1: $(cat "$TMP/metrics.json")"
grep -q '"hits": 1' "$TMP/metrics.json" || fail "metrics hits != 1: $(cat "$TMP/metrics.json")"

# /metrics serves well-formed Prometheus text exposition: every non-blank
# line is a # HELP/# TYPE comment or a sample, and the simsvc counters from
# this session are present with the right values.
curl -fsS "$BASE/metrics" -o "$TMP/metrics.prom" -w '%{content_type}' > "$TMP/metrics.ct"
grep -q 'text/plain' "$TMP/metrics.ct" || fail "/metrics content type: $(cat "$TMP/metrics.ct")"
BAD_LINE="$(grep -vE '^$|^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*|^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? -?([0-9]|\+Inf|-Inf|NaN)' "$TMP/metrics.prom" || true)"
[[ -z "$BAD_LINE" ]] || fail "malformed exposition line(s): $BAD_LINE"
grep -q '^simsvc_cache_executed_total 1$' "$TMP/metrics.prom" || fail "prometheus executed != 1"
grep -q '^simsvc_cache_hits_total 1$' "$TMP/metrics.prom" || fail "prometheus hits != 1"
grep -q '^# TYPE simsvc_http_request_duration_seconds histogram$' "$TMP/metrics.prom" || fail "http histogram family missing"
grep -q '^go_goroutines ' "$TMP/metrics.prom" || fail "runtime metrics missing"
grep -q '^build_info{' "$TMP/metrics.prom" || fail "build_info missing"
echo "simserve_smoke: prometheus exposition well-formed"

# Every response carries a request ID; a client-supplied one is echoed.
RID="$(curl -fsS -D - -o /dev/null "$BASE/healthz" | tr -d '\r' | sed -n 's/^X-Request-Id: //Ip')"
[[ -n "$RID" ]] || fail "no X-Request-ID on healthz response"
ECHOED="$(curl -fsS -D - -o /dev/null -H 'X-Request-ID: smoke-rid-1' "$BASE/healthz" | tr -d '\r' | sed -n 's/^X-Request-Id: //Ip')"
[[ "$ECHOED" == "smoke-rid-1" ]] || fail "X-Request-ID not echoed: got '$ECHOED'"
echo "simserve_smoke: request ids minted and echoed"

# Graceful drain on SIGTERM.
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || fail "server exited non-zero on SIGTERM"
SERVER_PID=

# The drained server has flushed its trace: every line names its job, the one
# simulation left machine events, and each job submitted above (the cold run
# and its cache hit) closed with exactly one job record.
[[ "$(grep -vc '"job":' "$TMP/trace.jsonl" || true)" == 0 ]] || fail "trace lines without a job key: $(grep -v '"job":' "$TMP/trace.jsonl" | head -3)"
[[ "$(grep -c '"kind":' "$TMP/trace.jsonl" || true)" -gt 0 ]] || fail "trace holds no machine events"
[[ "$(grep -c '"spec_hash":' "$TMP/trace.jsonl" || true)" == 2 ]] || fail "trace holds $(grep -c '"spec_hash":' "$TMP/trace.jsonl") job records for 2 jobs"
echo "simserve_smoke: trace names its job on every line"
echo "simserve_smoke: PASS"
