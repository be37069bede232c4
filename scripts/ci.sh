#!/bin/sh
# The tier-1 gate in one command: build, test, lint with warnings hard,
# then a one-repetition benchmark smoke to prove the measurement path
# still runs. Anything here failing means the tree is not mergeable.
#
# Extra cargo flags (e.g. --offline on an air-gapped box) can be passed
# through CARGO_FLAGS: `CARGO_FLAGS=--offline scripts/ci.sh`.
set -eu
cd "$(dirname "$0")/.."

CARGO_FLAGS="${CARGO_FLAGS:-}"

echo "==> cargo build --release"
# shellcheck disable=SC2086  # CARGO_FLAGS is intentionally word-split
cargo build --release $CARGO_FLAGS

echo "==> cargo test -q"
cargo test -q $CARGO_FLAGS

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace $CARGO_FLAGS -- -D warnings

echo "==> cargo bench -p epre-bench --no-run"
# Compile every bench target, not only the two the smokes below run:
# table1, table2 and hierarchy call the pass API directly.
# shellcheck disable=SC2086
cargo bench -p epre-bench --no-run $CARGO_FLAGS

echo "==> bench smoke"
CARGO_FLAGS="$CARGO_FLAGS" scripts/bench_smoke.sh

echo "==> perfbench selftest"
# The benchmark driver links the workspace crates: a change to any of them
# must keep the driver building, its tests passing and its metric list
# equal to BENCHMARK.json's.
python3 perfbench/run.py selftest

echo "==> BENCH_OPT schema check (cpus, coalesce_share, monotonic runs)"
# Every appended run must record the host's cpu count (so parallel
# speedups are interpretable) and the coalesce share of pass time (so the
# hot-spot trajectory is visible per PR); the bench itself asserts the
# appended run keeps the monotonic `run` history, and `epre report` below
# refuses to read the file otherwise — a second, independent enforcement.
grep -q '"cpus":' BENCH_OPT.json || { echo "BENCH_OPT.json missing cpus field" >&2; exit 1; }
grep -q '"coalesce_share":' BENCH_OPT.json || { echo "BENCH_OPT.json missing coalesce_share field" >&2; exit 1; }

echo "==> report smoke (epre report --quick)"
tmpdir="$(mktemp -d)"
serve_pid=""
trap '[ -n "$serve_pid" ] && kill -9 "$serve_pid" 2>/dev/null; rm -rf "$tmpdir"' EXIT
target/release/epre report --quick --out "$tmpdir/BENCH_TABLE1.json" > /dev/null
grep -q '^{"bench":"table1","levels":\["baseline","partial","reassociation","distribution"\]' \
    "$tmpdir/BENCH_TABLE1.json"

echo "==> trace schema sanity"
# Export a JSONL trace for a tiny module and require every line to carry
# the telemetry schema: a leading dense seq plus pass and function tags.
cat > "$tmpdir/trace_smoke.iloc" << 'ILOC'
module data 0
function smoke(r0:i) -> i
block b0:
  r1 <- loadi 2:i
  r2 <- add.i r0, r1
  r3 <- add.i r0, r1
  r4 <- mul.i r2, r3
  ret r4
end
ILOC
target/release/epre opt "$tmpdir/trace_smoke.iloc" \
    --trace "$tmpdir/trace.jsonl" --trace-format jsonl > /dev/null
target/release/epre opt "$tmpdir/trace_smoke.iloc" \
    --trace "$tmpdir/trace.json" --trace-format chrome > /dev/null
target/release/epre lint --json crates/suite/tests/corpus/critical_edge.iloc > "$tmpdir/lint.json"
lines="$(wc -l < "$tmpdir/trace.jsonl")"
schema_ok="$(grep -c '^{"seq":[0-9]*,.*"function":.*"pass":' "$tmpdir/trace.jsonl")"
[ "$lines" -gt 0 ] && [ "$schema_ok" -eq "$lines" ] || {
    echo "trace schema check failed: $schema_ok of $lines line(s) well-formed" >&2
    exit 1
}

echo "==> serve smoke (daemon, warm cache, kill -9, recovery)"
# Start the daemon on an ephemeral port, scrape the bound address, and
# submit the same module twice: the second answer must come entirely from
# the cache and be byte-identical to the first.
start_serve() {
    : > "$tmpdir/serve.log"
    target/release/epre serve --port 0 --cache "$tmpdir/serve.cache" \
        --telemetry "$tmpdir/serve.tel" > "$tmpdir/serve.log" 2>/dev/null &
    serve_pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/^listening on //p' "$tmpdir/serve.log")"
        [ -n "$addr" ] && return 0
        sleep 0.1
    done
    echo "serve daemon did not come up" >&2
    exit 1
}
start_serve
target/release/epre submit "$tmpdir/trace_smoke.iloc" --addr "$addr" \
    > "$tmpdir/serve1.iloc" 2>/dev/null
target/release/epre submit "$tmpdir/trace_smoke.iloc" --addr "$addr" \
    > "$tmpdir/serve2.iloc" 2>/dev/null
cmp -s "$tmpdir/serve1.iloc" "$tmpdir/serve2.iloc" || {
    echo "cached resubmit diverged from the cold answer" >&2
    exit 1
}
# Capture stats before grepping: `grep -q` closing the pipe early would
# make the client's stdout writes fail mid-listing.
stats="$(target/release/epre submit --stats --addr "$addr")"
printf '%s\n' "$stats" | grep -q '^cache_hits 1$' || {
    echo "warm resubmit did not hit the cache" >&2
    exit 1
}
# Crash the daemon outright; a restart over the same cache must serve the
# same module from the recovered entries, byte-identically.
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
start_serve
target/release/epre submit "$tmpdir/trace_smoke.iloc" --addr "$addr" \
    > "$tmpdir/serve3.iloc" 2>/dev/null
cmp -s "$tmpdir/serve1.iloc" "$tmpdir/serve3.iloc" || {
    echo "post-crash answer diverged" >&2
    exit 1
}
stats="$(target/release/epre submit --stats --addr "$addr")"
printf '%s\n' "$stats" | grep -q '^cache_recovered 1$' || {
    echo "restart did not recover the journaled cache entry" >&2
    exit 1
}
target/release/epre submit --shutdown --addr "$addr" > /dev/null
wait "$serve_pid" || { echo "daemon did not exit cleanly on shutdown" >&2; exit 1; }
serve_pid=""

echo "==> metrics smoke (live metrics schema, SIGQUIT flight recorder)"
# A daemon with the full observability surface on: one submit, then the
# protocol metrics scrape must carry the required series with the fixed
# histogram schema, and a SIGQUIT must checkpoint the flight recorder as
# valid JSONL — without disturbing service.
: > "$tmpdir/metrics.log"
target/release/epre serve --port 0 --slow-ms 0 \
    --flight-recorder "$tmpdir/flight.jsonl" > "$tmpdir/metrics.log" 2>/dev/null &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^listening on //p' "$tmpdir/metrics.log")"
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "metrics daemon did not come up" >&2; exit 1; }
target/release/epre submit "$tmpdir/trace_smoke.iloc" --addr "$addr" > /dev/null 2>/dev/null
metrics="$(target/release/epre metrics --addr "$addr")"
for series in \
    'epre_requests_total 1' \
    '# TYPE epre_request_latency_us histogram' \
    'epre_request_latency_us_bucket{class="cold",le="+Inf"} 1' \
    'epre_request_latency_us_count{class="warm"} 0' \
    'epre_pass_runs_total{pass=' \
    'epre_queue_depth' \
    'epre_workers_saturated_total 0' \
    'epre_slow_requests_total 1'; do
    printf '%s\n' "$metrics" | grep -qF "$series" || {
        echo "metrics render missing: $series" >&2
        exit 1
    }
done
kill -QUIT "$serve_pid"
for _ in $(seq 1 100); do
    [ -s "$tmpdir/flight.jsonl" ] && break
    sleep 0.1
done
[ -s "$tmpdir/flight.jsonl" ] || { echo "SIGQUIT flight-recorder dump missing" >&2; exit 1; }
head -1 "$tmpdir/flight.jsonl" | grep -q '^{"flight_recorder":true,' || {
    echo "flight-recorder dump missing its header line" >&2
    exit 1
}
bad="$(grep -cv '^{.*}$' "$tmpdir/flight.jsonl" || true)"
[ "$bad" -eq 0 ] || { echo "flight-recorder dump has $bad non-JSONL line(s)" >&2; exit 1; }
grep -q '"kind":"request"' "$tmpdir/flight.jsonl" || {
    echo "flight-recorder dump recorded no requests" >&2
    exit 1
}
# --slow-ms 0 makes every request slow: the slow log must hold the
# submit with its full span breakdown.
grep -q '"spans":{"admission":' "$tmpdir/flight.jsonl.slow" || {
    echo "slow-request log missing the span breakdown" >&2
    exit 1
}
# The checkpoint did not disturb service: the daemon still answers and
# drains cleanly.
target/release/epre submit --ping --addr "$addr" > /dev/null
target/release/epre submit --shutdown --addr "$addr" > /dev/null
wait "$serve_pid" || { echo "daemon did not exit cleanly after SIGQUIT" >&2; exit 1; }
serve_pid=""

echo "==> serve bench smoke"
# shellcheck disable=SC2086
cargo bench -p epre-bench --bench serve $CARGO_FLAGS -- --quick
grep -q '^{"bench":"serve","runs":\[' BENCH_SERVE.json || {
    echo "BENCH_SERVE.json schema check failed" >&2
    exit 1
}

echo "==> loadgen smoke (sustained mixed load, zero wrong answers)"
# ~10s of cold/warm/poison/oversized traffic against a self-served
# daemon with a tight cache cap. The binary itself exits nonzero on any
# wrong answer, hang, or cap breach; the greps then pin the recorded
# schema: a loadgen run with per-class percentiles must have landed in
# BENCH_SERVE.json.
target/release/epre loadgen --clients 4 --duration-ms 8000 \
    --cache-max-bytes 65536 --seed 2026 --metrics-snapshot > "$tmpdir/loadgen.txt"
grep -q '"loadgen":true' BENCH_SERVE.json || {
    echo "BENCH_SERVE.json missing the loadgen run" >&2
    exit 1
}
grep -q '"p50_ms":' BENCH_SERVE.json && grep -q '"p95_ms":' BENCH_SERVE.json \
    && grep -q '"p99_ms":' BENCH_SERVE.json || {
    echo "BENCH_SERVE.json loadgen run missing per-class percentiles" >&2
    exit 1
}
# --metrics-snapshot rides along: the recorded run carries the daemon's
# own view of the load (scraped live metrics, distilled).
grep -q '"server":{"requests":' BENCH_SERVE.json || {
    echo "BENCH_SERVE.json loadgen run missing the server metrics snapshot" >&2
    exit 1
}

echo "==> JSON artifacts parse with an independent parser"
# The greps above pin schema needles; this pins well-formedness. Python's
# json module shares no code with the workspace codec, and NaN, Infinity
# and duplicate keys are refused on top of its defaults.
json_check() {
    python3 -c '
import json, sys

def pairs(kv):
    if len({k for k, _ in kv}) != len(kv):
        raise ValueError("duplicate key")
    return dict(kv)

def constant(name):
    raise ValueError("non-JSON constant " + name)

mode = sys.argv[1]
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as f:
        text = f.read()
    docs = text.splitlines() if mode == "lines" else [text]
    if not docs:
        sys.exit(path + ": empty")
    for n, doc in enumerate(docs, 1):
        try:
            json.loads(doc, object_pairs_hook=pairs, parse_constant=constant)
        except ValueError as e:
            sys.exit("%s:%d: not JSON: %s" % (path, n, e))
' "$@"
}
json_check doc BENCH_OPT.json BENCH_SERVE.json BENCH_TABLE1.json \
    "$tmpdir/BENCH_TABLE1.json" "$tmpdir/trace.json" "$tmpdir/lint.json"
json_check lines "$tmpdir/trace.jsonl" "$tmpdir/flight.jsonl" "$tmpdir/flight.jsonl.slow"

echo "==> report refuses a non-monotonic BENCH_SERVE.json"
# A corrupted run history must be an error, not a silently absorbed
# trend: `epre report` in a directory whose BENCH_SERVE.json runs go
# backwards has to exit nonzero before measuring anything.
mkdir -p "$tmpdir/refuse"
printf '{"bench":"serve","runs":[{"run":1},{"run":0}]}\n' > "$tmpdir/refuse/BENCH_SERVE.json"
if (cd "$tmpdir/refuse" && "$OLDPWD/target/release/epre" report --quick \
        --out t.json > /dev/null 2>&1); then
    echo "report accepted a non-monotonic BENCH_SERVE.json" >&2
    exit 1
fi

echo "==> ci: all green"
