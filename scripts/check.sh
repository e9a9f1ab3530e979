#!/usr/bin/env bash
# One-command local gate: configure + build + ctest + format check.
# Usage: scripts/check.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 2)"

echo "== configure =="
# Warnings fail the main build. -Werror stays out of CMakeLists.txt, which
# perfbench's build pulls in through add_subdirectory.
cmake -B "$BUILD_DIR" -S . -DCMAKE_CXX_FLAGS=-Werror

echo "== build =="
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "== test =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "== bench smoke: disjunctive union stopping =="
# Small-row smoke run of the §4.1.2 joint-stopping bench: emits one JSON line
# per error bound and exits nonzero on any execution failure.
"$BUILD_DIR"/bench_disjunctive 200000

echo "== bench smoke: adaptive pipeline scheduling =="
# Small-row smoke run of the adaptive-vs-uniform scheduling bench (the full
# 2M-row run is where the >=20% blocks-saved target is measured).
"$BUILD_DIR"/bench_adaptive 200000

echo "== bench smoke: operate-on-compressed dict predicate =="
# Small-row run of the scan-throughput bench. The filter-only dict-index
# path must not lose to decode-then-filter on the pinned dict-win query
# (steady-state it wins ~2x; the 0.9 factor absorbs small-run noise).
BENCH_OUT="$(mktemp)"
"$BUILD_DIR"/bench_scan_throughput 400000 >"$BENCH_OUT"
awk -F'[:,]' '
  /"query":"dict_filter_count"/ && /"mode":"vectorized"/ && /"threads":1[,}]/ {
    for (i = 1; i <= NF; ++i) {
      if ($i ~ /"storage"/) storage = $(i + 1);
      if ($i ~ /"rows_per_sec"/) rps = $(i + 1) + 0;
    }
    gsub(/"/, "", storage);
    rate[storage] = rps;
  }
  END {
    if (!("compressed" in rate) || !("compressed_decode" in rate)) {
      print "bench emitted no dict_filter_count compressed modes"; exit 2;
    }
    printf "dict_filter_count 1-thread: views %.0f rows/s vs decode %.0f rows/s\n",
           rate["compressed"], rate["compressed_decode"];
    exit (rate["compressed"] >= 0.9 * rate["compressed_decode"]) ? 0 : 1;
  }' "$BENCH_OUT" || { echo "dict-index path lost to the decode path"; exit 1; }
rm -f "$BENCH_OUT"

echo "== server smoke: streaming partials over the wire =="
# Boot the demo server on an ephemeral port, run one bounded query through
# blinkdb_cli, and require that at least one PARTIAL frame precedes FINAL —
# the wire contract of docs/PROTOCOL.md, end to end.
PORT_FILE="$(mktemp)"
SMOKE_OUT="$(mktemp)"
SMOKE_OUT2="$(mktemp)"
# Default 120k-row demo table: large enough that the streamed resolution
# spans several 4-block rounds (smaller tables can resolve entirely from the
# §4.4 probe prefix and legitimately skip PARTIALs).
"$BUILD_DIR"/blinkdb_server --port-file "$PORT_FILE" >/dev/null 2>&1 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -f "$PORT_FILE" "$SMOKE_OUT" "$SMOKE_OUT2"' EXIT
for _ in $(seq 1 100); do
  [ -s "$PORT_FILE" ] && break
  sleep 0.2
done
[ -s "$PORT_FILE" ] || { echo "server never wrote its port"; exit 1; }
"$BUILD_DIR"/blinkdb_cli --port "$(cat "$PORT_FILE")" --execute \
  "SELECT COUNT(*) FROM sessions WHERE city = 'city_9' ERROR WITHIN 1% AT CONFIDENCE 95%" \
  | tee "$SMOKE_OUT"
grep -q '^PARTIAL #' "$SMOKE_OUT" || { echo "no PARTIAL frame before FINAL"; exit 1; }
grep -q '^FINAL ' "$SMOKE_OUT" || { echo "no FINAL frame"; exit 1; }
awk '/^FINAL /{seen_final=1} /^PARTIAL /{if (seen_final) exit 1}' "$SMOKE_OUT" ||
  { echo "a PARTIAL arrived after FINAL"; exit 1; }
echo "server smoke OK"

echo "== server smoke: repeated bounded query hits the answer cache =="
# The same bounded query again, on the still-warm server: the answer cache
# must serve the stored FINAL — no streaming, zero blocks consumed this run,
# and a rendered answer byte-identical to the cold run's.
"$BUILD_DIR"/blinkdb_cli --port "$(cat "$PORT_FILE")" --execute \
  "SELECT COUNT(*) FROM sessions WHERE city = 'city_9' ERROR WITHIN 1% AT CONFIDENCE 95%" \
  | tee "$SMOKE_OUT2"
grep -q ' cache=hit' "$SMOKE_OUT2" || { echo "repeat query did not hit the answer cache"; exit 1; }
grep -q ' blocks=0/' "$SMOKE_OUT2" || { echo "cache hit consumed blocks"; exit 1; }
! grep -q '^PARTIAL #' "$SMOKE_OUT2" || { echo "a cache hit streamed PARTIALs"; exit 1; }
diff <(sed -n '/^FINAL /,$p' "$SMOKE_OUT" | tail -n +2) \
     <(sed -n '/^FINAL /,$p' "$SMOKE_OUT2" | tail -n +2) >/dev/null ||
  { echo "cache-hit answer differs from the cold answer"; exit 1; }
echo "cache smoke OK"

echo "== server smoke: AVG over a union whose parts match nothing =="
# Every disjunct of this AVG selects no row, so the union has no mean. The
# answer must be the empty estimate in a FINAL frame the CLI decodes, never
# a decode error.
"$BUILD_DIR"/blinkdb_cli --port "$(cat "$PORT_FILE")" --execute \
  "SELECT AVG(sessiontimems) FROM sessions WHERE city = 'nope1' OR os = 'nope2' ERROR WITHIN 10% AT CONFIDENCE 95%" \
  | tee "$SMOKE_OUT"
grep -q '^FINAL family=union' "$SMOKE_OUT" || { echo "empty-union AVG has no FINAL"; exit 1; }
grep -q '^0 +/- 0' "$SMOKE_OUT" || { echo "empty-union AVG is not the empty estimate"; exit 1; }
kill "$SERVER_PID" 2>/dev/null || true
echo "empty-union AVG smoke OK"

echo "== coordinator smoke: 2-shard scatter/gather bit-identity =="
# Boot two shard workers (each holding one row stripe of the same demo
# table), scatter one bounded query through blinkdb_coord, and require the
# combined answer to be bit-identical (%.17g) to the in-process reference
# rebuilt from the recorded per-shard consumed prefixes — the distributed
# acceptance bar of docs/ARCHITECTURE.md "Distributed scatter/gather".
W0_PORT_FILE="$(mktemp)"
W1_PORT_FILE="$(mktemp)"
COORD_OUT="$(mktemp)"
"$BUILD_DIR"/blinkdb_server --rows 30000 --shard-index 0 --shard-count 2 \
  --port-file "$W0_PORT_FILE" >/dev/null 2>&1 &
W0_PID=$!
"$BUILD_DIR"/blinkdb_server --rows 30000 --shard-index 1 --shard-count 2 \
  --port-file "$W1_PORT_FILE" >/dev/null 2>&1 &
W1_PID=$!
trap 'kill "$SERVER_PID" "$W0_PID" "$W1_PID" 2>/dev/null || true;
      rm -f "$PORT_FILE" "$SMOKE_OUT" "$SMOKE_OUT2" \
            "$W0_PORT_FILE" "$W1_PORT_FILE" "$COORD_OUT"' EXIT
for _ in $(seq 1 100); do
  [ -s "$W0_PORT_FILE" ] && [ -s "$W1_PORT_FILE" ] && break
  sleep 0.2
done
[ -s "$W0_PORT_FILE" ] && [ -s "$W1_PORT_FILE" ] ||
  { echo "shard workers never wrote their ports"; exit 1; }
"$BUILD_DIR"/blinkdb_coord \
  --workers "127.0.0.1:$(cat "$W0_PORT_FILE"),127.0.0.1:$(cat "$W1_PORT_FILE")" \
  --rows 30000 --selfcheck --query \
  "SELECT AVG(bitrate) FROM sessions WHERE city = 'city_9' ERROR WITHIN 5% AT CONFIDENCE 95%" \
  | tee "$COORD_OUT"
grep -q '^selfcheck: OK' "$COORD_OUT" ||
  { echo "distributed answer not bit-identical to the in-process reference"; exit 1; }
# The two other query shapes coord_test covers in-process, on the same two
# workers: a grouped paced query and an unbounded one-shot scatter.
for SELFCHECK_SQL in \
  "SELECT city, COUNT(*) FROM sessions WHERE bitrate > 2000 GROUP BY city ERROR WITHIN 10% AT CONFIDENCE 95%" \
  "SELECT SUM(bitrate) FROM sessions WHERE city = 'city_3'"; do
  "$BUILD_DIR"/blinkdb_coord \
    --workers "127.0.0.1:$(cat "$W0_PORT_FILE"),127.0.0.1:$(cat "$W1_PORT_FILE")" \
    --rows 30000 --selfcheck --query "$SELFCHECK_SQL" | tee "$COORD_OUT"
  grep -q '^selfcheck: OK' "$COORD_OUT" ||
    { echo "not bit-identical to the in-process reference: $SELFCHECK_SQL"; exit 1; }
done
echo "coordinator smoke OK"

echo "== coordinator smoke: 50 back-to-back queries on one front session =="
# Serve mode over the same two workers: one blinkdb_cli REPL session sends 50
# bounded queries, each as soon as the previous FINAL arrives. Every one must
# end in a sharded FINAL; a QUERY that reaches the front before it has
# marked the previous query done would draw ERROR BUSY.
COORD_PORT_FILE="$(mktemp)"
"$BUILD_DIR"/blinkdb_coord \
  --workers "127.0.0.1:$(cat "$W0_PORT_FILE"),127.0.0.1:$(cat "$W1_PORT_FILE")" \
  --port-file "$COORD_PORT_FILE" >/dev/null 2>&1 &
COORD_PID=$!
trap 'kill "$SERVER_PID" "$W0_PID" "$W1_PID" "$COORD_PID" 2>/dev/null || true;
      rm -f "$PORT_FILE" "$SMOKE_OUT" "$SMOKE_OUT2" \
            "$W0_PORT_FILE" "$W1_PORT_FILE" "$COORD_OUT" "$COORD_PORT_FILE"' EXIT
for _ in $(seq 1 100); do
  [ -s "$COORD_PORT_FILE" ] && break
  sleep 0.2
done
[ -s "$COORD_PORT_FILE" ] || { echo "coordinator never wrote its port"; exit 1; }
for i in $(seq 1 50); do
  echo "SELECT AVG(bitrate) FROM sessions WHERE city = 'city_$((i % 20))' ERROR WITHIN 10% AT CONFIDENCE 95%"
done | "$BUILD_DIR"/blinkdb_cli --port "$(cat "$COORD_PORT_FILE")" >"$COORD_OUT"
FINALS="$(grep -c 'FINAL family=sharded' "$COORD_OUT" || true)"
! grep -q 'ERROR' "$COORD_OUT" || { grep 'ERROR' "$COORD_OUT"; echo "a front query failed"; exit 1; }
[ "$FINALS" -eq 50 ] || { echo "$FINALS of 50 queries ended in a sharded FINAL"; exit 1; }
# A sharded FINAL carries its slowest shard's modeled execution time. A shard
# whose probe already covered its whole sample reuses that answer and charges
# 0 execution (probe time instead), so single FINALs may read 0.0 us, but the
# shards' latencies must reach some report.
grep 'FINAL family=sharded' "$COORD_OUT" | grep -qv 'exec=0.0 us' ||
  { echo "every sharded FINAL reports exec=0.0 us"; exit 1; }
kill "$COORD_PID" "$W0_PID" "$W1_PID" 2>/dev/null || true
echo "coordinator front smoke OK"

echo "== ingest smoke: append mid-stream, repeat query sees the rows =="
# Streaming-ingest wire contract (docs/PROTOCOL.md §3.8): boot a fresh demo
# server, record a bounded COUNT, APPEND a batch through blinkdb_cli, and
# require that (a) the append acks with the new manifest version, (b) a
# repeat query finishes within its bound and runs the leveled union plan,
# and (c) it sees exactly the appended rows on top of the cold answer.
INGEST_PORT_FILE="$(mktemp)"
INGEST_COLD="$(mktemp)"
INGEST_WARM="$(mktemp)"
"$BUILD_DIR"/blinkdb_server --rows 40000 --port-file "$INGEST_PORT_FILE" >/dev/null 2>&1 &
INGEST_PID=$!
trap 'kill "$SERVER_PID" "$W0_PID" "$W1_PID" "$COORD_PID" "$INGEST_PID" 2>/dev/null || true;
      rm -f "$PORT_FILE" "$SMOKE_OUT" "$SMOKE_OUT2" \
            "$W0_PORT_FILE" "$W1_PORT_FILE" "$COORD_OUT" "$COORD_PORT_FILE" \
            "$INGEST_PORT_FILE" "$INGEST_COLD" "$INGEST_WARM"' EXIT
for _ in $(seq 1 100); do
  [ -s "$INGEST_PORT_FILE" ] && break
  sleep 0.2
done
[ -s "$INGEST_PORT_FILE" ] || { echo "ingest server never wrote its port"; exit 1; }
INGEST_SQL="SELECT COUNT(*) FROM sessions ERROR WITHIN 0.0001% AT CONFIDENCE 95%"
"$BUILD_DIR"/blinkdb_cli --port "$(cat "$INGEST_PORT_FILE")" \
  --execute "$INGEST_SQL" | tee "$INGEST_COLD"
grep -q '^FINAL ' "$INGEST_COLD" || { echo "no FINAL from the cold query"; exit 1; }
"$BUILD_DIR"/blinkdb_cli --port "$(cat "$INGEST_PORT_FILE")" \
  --append-rows 5000 --execute "$INGEST_SQL" | tee "$INGEST_WARM"
grep -q '^APPENDED rows=5000 version=' "$INGEST_WARM" ||
  { echo "APPEND did not ack"; exit 1; }
grep -q '^FINAL ' "$INGEST_WARM" || { echo "post-append query never finished"; exit 1; }
grep -q '^FINAL family=leveled' "$INGEST_WARM" ||
  { echo "post-append query did not run the leveled union plan"; exit 1; }
# Both runs are never-stop COUNT(*)s over the same pinned base, and the
# appended level-0 run is scanned exactly (weight 1), so warm - cold is 5000
# up to the renderer's %.4g rounding. The value row is two lines after FINAL
# (header, then "<value> +/- <err>").
COLD_COUNT="$(awk '/^FINAL /{mark=NR} mark && NR==mark+2 {print $1; exit}' "$INGEST_COLD")"
WARM_COUNT="$(awk '/^FINAL /{mark=NR} mark && NR==mark+2 {print $1; exit}' "$INGEST_WARM")"
awk -v cold="$COLD_COUNT" -v warm="$WARM_COUNT" \
  'BEGIN { d = warm - cold; exit (d >= 4900 && d <= 5100) ? 0 : 1 }' ||
  { echo "repeat query did not see the 5000 appended rows (cold=$COLD_COUNT warm=$WARM_COUNT)"; exit 1; }
kill "$INGEST_PID" 2>/dev/null || true
echo "ingest smoke OK"

echo "== benchmark: build perfbench and run its self-test =="
# perfbench/ (BENCHMARK.json) compiles against the runtime, cache, server and
# coordinator APIs; building it here catches a library change that breaks it
# before a benchmark run does. Its build tree lives under the build dir.
CARGO_TARGET_DIR="$BUILD_DIR/bench" python3 perfbench/run.py --self-test
echo "benchmark self-test OK"

echo "== sanitizers: codec + exec + plan driver + session core under ASan/UBSan =="
# The compressed scan path is the bit-twiddling hot spot; run its tests (and
# the execution layers above it, the plan driver and its budget pool
# included) under AddressSanitizer + UBSan, together with the server and
# coordinator tests: the session core both servers share is where untrusted
# bytes enter. GCC's `undefined` group leaves out
# float-cast-overflow, the check that catches a wire double cast to an
# integer it cannot hold, so it is named here. Override the check set with
# BLINK_SANITIZE=..., or skip with BLINK_SANITIZE=off (e.g. on toolchains
# without libasan).
SAN="${BLINK_SANITIZE:-address,undefined,float-cast-overflow}"
if [ "$SAN" = "off" ]; then
  echo "BLINK_SANITIZE=off; skipping sanitizer build"
else
  cmake -B "$BUILD_DIR-asan" -S . -DBLINK_SANITIZE="$SAN" >/dev/null
  cmake --build "$BUILD_DIR-asan" -j "$JOBS" --target \
    codec_test storage_test exec_test parallel_exec_test fuzz_differential_test \
    plan_test incremental_test server_test coord_test
  ctest --test-dir "$BUILD_DIR-asan" --output-on-failure -j "$JOBS" \
    -R '^(codec_test|storage_test|exec_test|parallel_exec_test|fuzz_differential_test|plan_test|incremental_test|server_test|coord_test)$'
  echo "sanitizers clean"
fi

echo "== sanitizers: server + coordinator + cache + admission + ingest under TSan =="
# The admission queue, answer cache, morsel executor, the streaming ingest
# path (appends/merges racing pinned streamed queries) and the coordinator
# front's session and query threads are the concurrency hot spots; run their
# tests under ThreadSanitizer in a separate build tree. Shares the
# BLINK_SANITIZE=off escape hatch for toolchains without libtsan.
if [ "$SAN" = "off" ]; then
  echo "BLINK_SANITIZE=off; skipping TSan build"
else
  cmake -B "$BUILD_DIR-tsan" -S . -DBLINK_SANITIZE=thread >/dev/null
  cmake --build "$BUILD_DIR-tsan" -j "$JOBS" --target \
    server_test coord_test answer_cache_test cache_resume_test parallel_exec_test ingest_test
  ctest --test-dir "$BUILD_DIR-tsan" --output-on-failure -j "$JOBS" \
    -R '^(server_test|coord_test|answer_cache_test|cache_resume_test|parallel_exec_test|ingest_test)$'
  echo "tsan clean"
fi

echo "== docs =="
scripts/check_docs.sh

echo "== format =="
if command -v clang-format >/dev/null 2>&1; then
  # Dry run: fails (non-zero) if any file under src/ needs reformatting.
  find src tests bench tools -name '*.cc' -o -name '*.h' | xargs clang-format --dry-run --Werror
  echo "format clean"
else
  echo "clang-format not installed; skipping format check"
fi

echo "== OK =="
