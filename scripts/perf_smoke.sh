#!/usr/bin/env bash
# Perf-regression smoke: measure the simulation-cycle hot path with
# cmd/benchjson and fail if ns/cycle regresses more than the threshold
# against the newest committed baseline artifact (BENCH_PR*.json; override
# with PERF_BASELINE). CI runners are noisy, so the 15% default catches
# real regressions (a new branch or allocation on the hot path) without
# flaking on scheduler jitter.
#
# Blind spot: benchjson steps with the CWG scan off (CWGInterval = 0), so
# this gate cannot see the deadlock-scan layer that every default run pays
# for every 50 cycles. That layer is pinned by TestStepZeroAllocsWithScan,
# TestScanAtZeroAllocs and BenchmarkScanAt (CI step "Allocation pins") and
# measured end to end by bench/run.sh (deadlock.scan_us).
set -euo pipefail
cd "$(dirname "$0")/.."

# Newest BENCH_PR*.json that actually carries a ns/cycle measurement: some
# artifacts (BENCH_PR10.json) record serving-path throughput from simload
# and have no ns_per_op, so they cannot gate the simulation hot path.
if [[ -n "${PERF_BASELINE:-}" ]]; then
  BASELINE_FILE="$PERF_BASELINE"
else
  BASELINE_FILE=""
  for f in $(ls BENCH_PR*.json 2>/dev/null | sort -rV); do
    if grep -q '"ns_per_op"' "$f"; then BASELINE_FILE="$f"; break; fi
  done
  [[ -n "$BASELINE_FILE" ]] || { echo "perf_smoke: FAIL: no BENCH_PR*.json with ns_per_op found" >&2; exit 1; }
fi
# PERF_SMOKE_TOLERANCE overrides the regression gate (percent over baseline);
# PERF_THRESHOLD_PCT is the older name, kept working.
THRESHOLD_PCT="${PERF_SMOKE_TOLERANCE:-${PERF_THRESHOLD_PCT:-15}}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fail() { echo "perf_smoke: FAIL: $*" >&2; exit 1; }

[[ -f "$BASELINE_FILE" ]] || fail "baseline $BASELINE_FILE not found"
# The baseline is the LAST entry of the newest BENCH file — that should be the
# post-PR record at the default rate, not a pre-PR or low-rate entry. Echo its
# label and note so a mislabeled or reordered artifact is visible in CI logs
# instead of silently gating against the wrong number.
BASE_NS="$(sed -n 's/.*"ns_per_op": \([0-9.]*\).*/\1/p' "$BASELINE_FILE" | tail -1)"
BASE_LABEL="$(sed -n 's/.*"label": "\([^"]*\)".*/\1/p' "$BASELINE_FILE" | tail -1)"
BASE_NOTE="$(sed -n 's/.*"note": "\([^"]*\)".*/\1/p' "$BASELINE_FILE" | tail -1)"
[[ -n "$BASE_NS" ]] || fail "no ns_per_op in $BASELINE_FILE"
echo "perf_smoke: baseline '$BASE_LABEL' (${BASE_NOTE:-no note}) from $BASELINE_FILE"
case "$BASE_NOTE" in
  *rate=0.01*|"") ;;
  *) echo "perf_smoke: WARNING: baseline note '$BASE_NOTE' is not a rate=0.01 entry; comparison may be apples-to-oranges" >&2 ;;
esac

# Minimum of three runs: the minimum is the measurement least polluted by
# scheduler preemption and frequency throttling, which only ever add time.
# The min-of-N lives in benchjson itself (-runs): one invocation, one entry.
# The old shell loop appended N single-run entries and took the smallest
# ns_per_op found in the file, so an interrupted loop (CI timeout, OOM kill)
# left a partial artifact that silently gated against fewer runs than
# requested. Now an interruption leaves no artifact at all (benchjson writes
# atomically), and anything other than exactly one measurement fails loudly.
RUNS="${PERF_RUNS:-3}"
go run ./cmd/benchjson -label perf-smoke -runs "$RUNS" -o "$TMP/bench.json" >/dev/null
ENTRIES="$(grep -c '"ns_per_op"' "$TMP/bench.json" 2>/dev/null || true)"
[[ "$ENTRIES" == "1" ]] || fail "expected exactly 1 measurement in $TMP/bench.json, found ${ENTRIES:-0} (partial or stale artifact)"
CUR_NS="$(sed -n 's/.*"ns_per_op": \([0-9.]*\).*/\1/p' "$TMP/bench.json")"
[[ -n "$CUR_NS" ]] || fail "benchjson produced no measurement"
case "$(sed -n 's/.*"note": "\([^"]*\)".*/\1/p' "$TMP/bench.json")" in
  *"min-of-$RUNS"*) ;;
  *) fail "measurement note does not record min-of-$RUNS; benchjson -runs disagreement" ;;
esac

# Integer percent of baseline; awk does the float math portably.
PCT="$(awk -v c="$CUR_NS" -v b="$BASE_NS" 'BEGIN { printf "%.1f", 100 * c / b }')"
echo "perf_smoke: ${CUR_NS} ns/cycle vs baseline ${BASE_NS} (${PCT}% of baseline, limit $((100 + THRESHOLD_PCT))%)"
awk -v c="$CUR_NS" -v b="$BASE_NS" -v t="$THRESHOLD_PCT" \
    'BEGIN { exit !(c <= b * (1 + t / 100)) }' \
  || fail "hot path regressed: ${CUR_NS} ns/cycle > ${BASE_NS} + ${THRESHOLD_PCT}%"
echo "perf_smoke: PASS"
