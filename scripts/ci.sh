#!/usr/bin/env bash
# CI driver: lint, release tests, bench smoke, then the sanitizer matrix.
#
#   0. Lint gate: clang-format --check + clang-tidy (bugprone/performance/
#      concurrency over src/obs and src/isolation). Skips cleanly when the
#      clang tools are absent; REQUIRE_LINT=1 (set on CI runners) turns a
#      missing tool into a failure.
#   1. Release build, full ctest suite (tier-1 gate).
#   2. Bench smoke: bench_perm_engine (google-benchmark JSON) and
#      bench_degraded_mode (JSONL rows) with tiny iteration counts, output
#      validated against scripts/bench_schema.json — a bench that bitrots
#      into empty or malformed output fails here, not on report day. The
#      checked-in artifacts (BENCH_perm_engine.json,
#      BENCH_reconciliation_live.json, BENCH_throughput_pressure.json) are
#      schema-validated too, and check_bench_regress.py gates the smoke
#      NUMBERS against scripts/bench_baselines.json tolerance bands. Last,
#      the bench_e2e package (BENCHMARK.json's benchmark) is built in its
#      own tree with -Werror against src/ and its smoke test runs, so a
#      src/ change that breaks the benchmark fails here.
#   3. Wire loopback TCP smoke (DESIGN.md §15): bench_wire's framing row,
#      then a real `sdnshield serve` process driven by `sdnshield cbench`
#      over 127.0.0.1 — the full epoll frontend, handshake, and closed-loop
#      flow-mod path in separate processes — once unsharded and once with
#      --shards 2 (two shard loops + two io reactors, DESIGN.md §16). Rows
#      are schema-validated (wire_row) and regression-gated; the checked-in
#      BENCH_wire.json is schema-validated too.
#   4. Chaos-campaign smoke (DESIGN.md §13): the campaign binary runs twice
#      with a fixed seed; the two scorecards must be byte-identical (the
#      determinism contract), schema-valid, and exit 0 (every invariant
#      held and every attacker was contained). A third run on --shards 4
#      must reproduce the same bytes (the shard count is an execution
#      detail, not an outcome). The checked-in BENCH_campaign.json is
#      schema-validated too.
#   5. Interleaving exploration: `ctest -L mck` — the deterministic model
#      checker suites (DESIGN.md §12), which exhaustively explore the
#      market's concurrency scenarios and replay the pinned counterexample.
#      Runs in the quick job too: it is the only gate that PROVES the
#      epoch-swap atomicity claims instead of stress-sampling them, and
#      --no-tests=error catches label bitrot selecting zero tests.
#   6. ASan+UBSan build, full ctest suite — any finding fails the run
#      (UBSan is non-recoverable via SDNSHIELD_SANITIZE wiring).
#   7. TSan build, `ctest -L concurrency` — the threaded engine suites, the
#      supervision suite, the wire reactor/differential suites and the obs
#      registry/tracer suites all carry the label; data races fail the run.
#   8. Fault-injection pass: `ctest -L faultinject` under ASan, exercising
#      every FaultInjector site (crash/hang/flood) with the allocator
#      poisoned — a contained fault that corrupts memory fails here even if
#      the counters look right.
#
# Usage: scripts/ci.sh [--skip-sanitizers]
#   --skip-sanitizers runs stages 0-5 only (the <10 min quick job).
#
# Every ctest invocation uses --no-tests=error: a build or label change
# that silently selects zero tests is a failure, not a green run.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 2)"

run_suite() {
  local dir="$1"
  shift
  cmake -B "$dir" -S . "$@" >/dev/null
  cmake --build "$dir" -j "$JOBS"
}

echo "=== [0/8] Lint gate (clang-format, clang-tidy, typed API errors) ==="
scripts/format.sh --check
scripts/tidy.sh build
# Typed-error gate: ApiResult/ApiResponse failures carry an ApiErrc, never a
# bare string, and callers branch on code() — never on error-message text.
if grep -rn --include='*.cpp' --include='*.h' -E '::failure\(\s*"' \
    src tests bench examples; then
  echo "lint: string-literal API failure; use ApiErrc codes" >&2
  exit 1
fi
if grep -rn --include='*.cpp' --include='*.h' -E \
    '\.error\(\)\.detail\.find\(|\.error\(\)\.toString\(\)\.find\(' \
    src tests; then
  echo "lint: matching on API error text; compare ApiErrc codes instead" >&2
  exit 1
fi
# One flow-mod permission context: the OWN_FLOWS and rule-count attributes
# of every mediated flow-mod come from engine::flowModCall, so no src/ file
# outside src/core/engine queries the ownership tracker for them itself.
if grep -rn --include='*.cpp' --include='*.h' -E \
    '(ownsAllMatching|overridesForeignFlow)\(' src | grep -v '^src/core/engine/'; then
  echo "lint: flow-mod ownership context built outside engine::flowModCall" >&2
  exit 1
fi

echo "=== [1/8] Release build + full test suite ==="
run_suite build
(cd build && ctest --output-on-failure --no-tests=error -j "$JOBS")

echo "=== [2/8] Bench smoke (schema-validated output) ==="
./build/bench/bench_perm_engine --benchmark_min_time=0.01 \
    --benchmark_format=json > build/bench_smoke_perm.json
python3 scripts/check_bench_json.py --schema scripts/bench_schema.json \
    --key gbench build/bench_smoke_perm.json
./build/bench/bench_degraded_mode --events 200 > build/bench_smoke_degraded.txt
python3 scripts/check_bench_json.py --schema scripts/bench_schema.json \
    --key degraded_mode_row --jsonl build/bench_smoke_degraded.txt
./build/bench/bench_throughput --pressure --duration-ms 150 \
    > build/bench_smoke_throughput.txt
# Shards mode rides the same smoke file: its rows share the throughput_row
# schema, and the regress gate below pins the shards=1 rate.
./build/bench/bench_throughput --shards --duration-ms 150 \
    >> build/bench_smoke_throughput.txt
python3 scripts/check_bench_json.py --schema scripts/bench_schema.json \
    --key throughput_row --jsonl build/bench_smoke_throughput.txt
./build/bench/bench_reconciliation --live > build/bench_smoke_live.txt
python3 scripts/check_bench_json.py --schema scripts/bench_schema.json \
    --key live_update_row --jsonl build/bench_smoke_live.txt
# The checked-in artifacts are validated too: a schema change that orphans
# the recorded numbers fails here, not on report day.
python3 scripts/check_bench_json.py --schema scripts/bench_schema.json \
    --key throughput_row --jsonl BENCH_throughput_pressure.json
python3 scripts/check_bench_json.py --schema scripts/bench_schema.json \
    --key live_update_row --jsonl BENCH_reconciliation_live.json
python3 scripts/check_bench_json.py --schema scripts/bench_schema.json \
    --key perm_engine_summary BENCH_perm_engine.json
# The end-to-end benchmark package builds src/ in its own tree.
cmake -S bench_e2e -B .bench_build >/dev/null
cmake --build .bench_build --target bench_e2e -j "$JOBS"
ctest --test-dir .bench_build -L bench --output-on-failure --no-tests=error

echo "=== [3/8] Wire loopback TCP smoke (serve + cbench over 127.0.0.1) ==="
# Framing throughput row (pure CPU, no sockets) starts the smoke file.
./build/bench/bench_wire --framing --duration-ms 200 > build/bench_smoke_wire.txt
# Then the real thing: `sdnshield serve` in its own process, driven by
# `sdnshield cbench` over loopback TCP. --max-seconds bounds a wedged server;
# the port file hands the ephemeral port to the client.
rm -f build/wire_port
./build/src/sdnshield serve --port 0 --port-file build/wire_port \
    --max-seconds 60 >/dev/null &
WIRE_SERVE_PID=$!
for _ in $(seq 100); do [[ -s build/wire_port ]] && break; sleep 0.1; done
[[ -s build/wire_port ]] || { echo "wire smoke: serve never bound" >&2; exit 1; }
./build/src/sdnshield cbench --port "$(cat build/wire_port)" \
    --connections 8 --rounds 5 --json build/bench_smoke_wire.txt
kill "$WIRE_SERVE_PID" 2>/dev/null || true
wait "$WIRE_SERVE_PID" 2>/dev/null || true
# Same smoke against a sharded server: two shard loops, two io reactors,
# sessions round-robined across them. Rows go to their own file so the
# regress gate keeps reading exactly one unsharded wire row.
rm -f build/wire_port_shards
./build/src/sdnshield serve --port 0 --port-file build/wire_port_shards \
    --shards 2 --max-seconds 60 >/dev/null &
WIRE_SHARDS_PID=$!
for _ in $(seq 100); do [[ -s build/wire_port_shards ]] && break; sleep 0.1; done
[[ -s build/wire_port_shards ]] || {
  echo "wire smoke: sharded serve never bound" >&2; exit 1; }
./build/src/sdnshield cbench --port "$(cat build/wire_port_shards)" \
    --connections 8 --rounds 5 --json build/bench_smoke_wire_shards.txt
kill "$WIRE_SHARDS_PID" 2>/dev/null || true
wait "$WIRE_SHARDS_PID" 2>/dev/null || true
python3 scripts/check_bench_json.py --schema scripts/bench_schema.json \
    --key wire_row --jsonl build/bench_smoke_wire.txt
python3 scripts/check_bench_json.py --schema scripts/bench_schema.json \
    --key wire_row --jsonl build/bench_smoke_wire_shards.txt
# The checked-in wire numbers stay schema-valid too.
python3 scripts/check_bench_json.py --schema scripts/bench_schema.json \
    --key wire_row --jsonl BENCH_wire.json
# Perf-regression gate (stages 2+3 smoke numbers): every metric must stay
# inside the per-metric tolerance bands of scripts/bench_baselines.json
# (wide enough for smoke noise, narrow enough that an order-of-magnitude
# regression fails here).
python3 scripts/check_bench_regress.py --baselines scripts/bench_baselines.json \
    --perm build/bench_smoke_perm.json \
    --live build/bench_smoke_live.txt \
    --throughput build/bench_smoke_throughput.txt \
    --wire build/bench_smoke_wire.txt

echo "=== [4/8] Chaos-campaign smoke (fixed seed, determinism + invariants) ==="
./build/bench/campaign --seed 7 --out build/campaign_smoke_a.json
./build/bench/campaign --seed 7 --out build/campaign_smoke_b.json
# Same seed => byte-identical scorecard; any drift is a determinism bug.
cmp build/campaign_smoke_a.json build/campaign_smoke_b.json
# The shard count is an execution detail, not an outcome: the same seed on
# four shard loops must reproduce the single-loop scorecard byte-for-byte.
./build/bench/campaign --seed 7 --shards 4 \
    --out build/campaign_smoke_shards.json
cmp build/campaign_smoke_a.json build/campaign_smoke_shards.json
python3 scripts/check_bench_json.py --schema scripts/campaign_schema.json \
    --key campaign_scorecard build/campaign_smoke_a.json
# The checked-in scorecard must stay schema-valid as well.
python3 scripts/check_bench_json.py --schema scripts/campaign_schema.json \
    --key campaign_scorecard BENCH_campaign.json

echo "=== [5/8] Interleaving exploration (ctest -L mck) ==="
(cd build && ctest --output-on-failure --no-tests=error -j "$JOBS" -L mck)

if [[ "${1:-}" == "--skip-sanitizers" ]]; then
  echo "=== Sanitizer stages skipped ==="
  exit 0
fi

echo "=== [6/8] ASan+UBSan build + full test suite ==="
run_suite build-asan -DSDNSHIELD_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
(cd build-asan && ctest --output-on-failure --no-tests=error -j "$JOBS")

echo "=== [7/8] TSan build + concurrency suites (ctest -L concurrency) ==="
run_suite build-tsan -DSDNSHIELD_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
# Suppressions: cross-thread exception propagation via std::promise is
# synchronized inside the (uninstrumented) libstdc++ — see scripts/tsan.supp.
(cd build-tsan && TSAN_OPTIONS="suppressions=$PWD/../scripts/tsan.supp" \
    ctest --output-on-failure --no-tests=error -j "$JOBS" -L concurrency)

echo "=== [8/8] Fault-injection pass (ctest -L faultinject under ASan) ==="
(cd build-asan && ctest --output-on-failure --no-tests=error -j "$JOBS" \
    -L faultinject)

echo "=== CI passed ==="
