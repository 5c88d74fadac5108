#!/usr/bin/env bash
# Per-PR gate for the GreenNFV tree:
#   1. a check that nothing under src/ includes a tests/ header, then
#      the tier-1 verify line from ROADMAP.md (Release build, full ctest),
#      then a run_scenario smoke over the ci-smoke preset so the one
#      evaluation path (a static scenario through the fleet orchestrator,
#      full scheduler roster, tiny budgets) is exercised end to end in the
#      gate, a 200-node fleet replayed twice in parallel with identical
#      stdout, the end-to-end benchmark's self-test
#      (perfbench/run.py --selftest), and a portable build of the RL
#      kernels (GREENNFV_NATIVE_KERNELS=OFF) that must pass the bit-exact
#      RL suites and reproduce every fleet golden
#   2. an ASan/UBSan Debug build of the test suite, with the nfvsim suites
#      (threaded engine, mempool, ring) always run under the sanitizers —
#      that's where lifetime bugs would land.
#   3. a ThreadSanitizer build (GREENNFV_TSAN) of the tests and examples,
#      running every suite that exercises concurrent code — thread pool,
#      telemetry shards and trace rings, the threaded engine with its
#      mempool and rings, concurrent replay buffers and Ape-X, parallel
#      campaigns, parallel fleet replay and the fleet goldens (a node's
#      environment is reconfigured in place, on whichever pool thread
#      runs its next block) — then a 200-node fleet and a
#      16-node fleet campaign at jobs=2 and jobs=1 end to end, halting on
#      the first data-race report.
#
# Usage: scripts/ci.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "=== [1/3] tier-1 verify: Release build + full ctest ==="
# The reference oracles live in tests/support, which only the suites,
# bench_fleet and bench_train link; the shipped libraries may not reach
# back into them.
if grep -rnE '^[[:space:]]*#[[:space:]]*include[[:space:]]*[<"]tests/' src; then
  echo "ci.sh: a file under src/ includes a tests/ header" >&2
  exit 1
fi
# With GREENNFV_REGEN_GOLDEN set, the golden suites rewrite their pins and
# pass; the gate must compare against the committed pins instead.
unset GREENNFV_REGEN_GOLDEN
# Pin every option: a stale build/ cache (Debug, sanitizers, bench off...)
# must not silently weaken what this gate claims to have checked.
cmake -B build -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DGREENNFV_SANITIZE=OFF \
  -DGREENNFV_BUILD_TESTS=ON \
  -DGREENNFV_BUILD_BENCH=ON \
  -DGREENNFV_BUILD_EXAMPLES=ON
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure --no-tests=error -j "$JOBS")
# No suite may leave the committed goldens changed (skipped outside a git
# checkout, where there is nothing to compare against).
if git rev-parse --is-inside-work-tree >/dev/null 2>&1 && \
   ! git diff --quiet -- tests/orchestrator/golden; then
  echo "ci.sh: tests/orchestrator/golden differs from the checkout" >&2
  git diff --stat -- tests/orchestrator/golden >&2
  exit 1
fi

echo
echo "=== [1b] scenario smoke: ci-smoke preset, full roster ==="
./build/example_run_scenario scenario=ci-smoke

echo
echo "=== [1c] campaign smoke: 2 presets x 2 seeds, jobs=2 ==="
# fresh=1 so the gate always exercises real parallel execution (not a
# cache hit from a previous run), then the manifest must parse with every
# aggregate field finite.
./build/example_run_campaign campaign=ci-campaign-smoke jobs=2 fresh=1
./build/example_run_campaign \
  validate_manifest=out/ci-campaign-smoke/manifest.json

echo
echo "=== [1c2] fleet smoke: dynamic 3-node fleet through the orchestrator ==="
# Online arrivals/departures, consolidation migrations, and power gating
# end to end (the consolidate policy + reactive models keep it seconds).
./build/example_run_scenario scenario=fleet-smoke models=baseline,ee-pstate

echo
echo "=== [1c3] placement-sweep smoke: 3 cells at jobs=2 ==="
# A 3-cell expansion of the placement-sweep preset (one fleet size, every
# placement value: static deployments placed once through the fleet
# orchestrator's policy registry, first-fit-decreasing as first-fit) with
# CI-sized windows, then the manifest must parse with every aggregate
# field finite — same contract as the campaign smoke.
./build/example_run_campaign campaign=placement-sweep \
  sweep.nodes=3 \
  sweep.placement=first-fit-decreasing,least-loaded,energy-bestfit \
  models=baseline eval_windows=3 sub_windows=2 window_s=2 \
  jobs=2 fresh=1
./build/example_run_campaign \
  validate_manifest=out/placement-sweep/manifest.json

echo
echo "=== [1c4] mega-fleet smoke: 500 nodes / ~50k arrivals + baseline check ==="
# The indexed fleet engine at CI scale: builds the shrunk mega-fleet
# geometry, proves it bit-identical to the window-synchronous reference
# engine (hard failure on divergence), and reports events/sec. The
# baseline comparison warns — never fails — on a >30% regression of the
# indexed-vs-reference speedup, so a future PR cannot silently lose the
# indexed engine's win but a noisy machine cannot block the gate either.
./build/bench_fleet smoke=1 baseline=bench/baselines/BENCH_fleet.json \
  trace_check=1 series_check=1

echo
echo "=== [1c5] topology fleet smoke: leaf-spine fabric + latency SLA ==="
# The network subsystem end to end: routed placement over a 3-node
# leaf-spine fabric with the topology-aware policy, link energy folded
# into the decomposition, and the 40 us latency SLA gating the SLA column.
./build/example_run_scenario scenario=fleet-smoke models=baseline,ee-pstate \
  topology.enabled=1 topology.preset=leaf-spine \
  fleet.policy=topology-aware-bestfit sla.latency=40
# Routing at scale: 200 hosts on a leaf-spine fabric under widest routing.
# Every arrival is scored by a full preview_hosts pass before its commit,
# link failures send their riders through try_move, and crashed nodes'
# chains are released and committed again on their new hosts.
./build/example_run_scenario scenario=mega-fleet nodes=200 \
  fleet.arrival_rate=50 fleet.horizon=140 topology.enabled=1 \
  topology.preset=leaf-spine topology.core_gbps=20000 topology.link_gbps=400 \
  fault.enabled=1 fault.node_crash_rate=0.002 fault.rack_outage_rate=0.01 \
  fault.link_fail_rate=0.01 sla.latency=60 \
  fleet.policy=topology-aware-bestfit topology.routing=widest models=baseline

echo
echo "=== [1c6] path-frontier smoke: 2 topology cells at jobs=2 ==="
# A 2-cell slice of the path-frontier preset (one preset axis value, two
# policies, one latency budget) on the starved fabric, then the manifest
# must parse with every aggregate field finite.
./build/example_run_campaign campaign=path-frontier \
  sweep.topology.preset=leaf-spine \
  sweep.fleet.policy=energy-bestfit,topology-aware-bestfit \
  sweep.sla.latency=40 \
  models=baseline eval_windows=3 sub_windows=2 window_s=2 \
  jobs=2 fresh=1
./build/example_run_campaign \
  validate_manifest=out/path-frontier/manifest.json

echo
echo "=== [1c7] flight recorder: traced runs, trace validation, timing ==="
# Observability end to end: a traced fleet smoke must emit a Perfetto
# JSON that validate_trace accepts (schema keys, finite timestamps,
# per-thread completion order), and a traced parallel campaign must print
# the per-cell timing table while leaving artifacts byte-identical (the
# telemetry.TraceDeterminism suite pins the byte-identity itself).
./build/example_run_scenario scenario=fleet-smoke models=baseline \
  trace=ci_fleet_smoke.trace.json metrics=1
./build/example_run_scenario validate_trace=out/ci_fleet_smoke.trace.json
./build/example_run_campaign campaign=ci-campaign-smoke jobs=4 fresh=1 \
  trace=campaign.trace.json timing=1
./build/example_run_scenario \
  validate_trace=out/ci-campaign-smoke/campaign.trace.json

echo
echo "=== [1c8] fault smoke: crashes, repairs, recovery under SLA pressure ==="
# The fault subsystem end to end: the fault-smoke preset (node crashes,
# rack-outage chance, wake storms, exponential repairs) through the full
# model evaluation, then a 2-cell slice of the resilience-frontier preset
# (one crash rate, two recovery policies) at jobs=2 with the same
# manifest contract as every other campaign smoke.
./build/example_run_scenario scenario=fault-smoke models=baseline,ee-pstate
./build/example_run_campaign campaign=resilience-frontier \
  sweep.fault.node_crash_rate=0.3 \
  sweep.fleet.policy=energy-bestfit,topology-aware-bestfit \
  sweep.sla.latency=40 \
  models=baseline eval_windows=3 sub_windows=2 window_s=2 \
  jobs=2 fresh=1
./build/example_run_campaign \
  validate_manifest=out/resilience-frontier/manifest.json

echo
echo "=== [1c9] health series + campaign report: generate and validate ==="
# The observability stack end to end: a 2-cell resilience-frontier slice
# with per-window series sampling on and an HTML report rendered from the
# finished directory, then every artifact class (per-run series CSV +
# JSON, report model, dashboard HTML) must pass its schema validator, and
# a counter snapshot must land as parseable JSON. The byte-identity of
# sampled vs unsampled runs is pinned by telemetry.SeriesDeterminism in
# the tier-1 suite above.
./build/example_run_campaign campaign=resilience-frontier \
  sweep.fault.node_crash_rate=0.3 \
  sweep.fleet.policy=energy-bestfit,topology-aware-bestfit \
  sweep.sla.latency=40 \
  models=baseline eval_windows=3 sub_windows=2 window_s=2 \
  jobs=2 fresh=1 series=1 report=report.html metrics_out=metrics.json
./build/example_run_report validate=out/resilience-frontier/report.html
./build/example_run_report validate=out/resilience-frontier/report.json
for series_file in out/resilience-frontier/runs/*.series.csv \
                   out/resilience-frontier/runs/*.series.json; do
  ./build/example_run_report validate="$series_file"
done
python3 -c "import json; json.load(open('out/resilience-frontier/metrics.json'))"
# Post-hoc generation must reproduce the dashboard from artifacts alone.
./build/example_run_report dir=out/resilience-frontier html=report_posthoc.html
./build/example_run_report validate=out/resilience-frontier/report_posthoc.html

echo
echo "=== [1c10] bench history: append + warn-only delta print ==="
# Two smoke benches back to back: the second run must find the first's
# record in out/bench_history.jsonl and print its rate deltas. The gate
# asserts the file grows and the delta line appears; the deltas
# themselves are warn-only by design.
history_before=$(wc -l < out/bench_history.jsonl 2>/dev/null || echo 0)
./build/bench_fleet smoke=1 | tee /tmp/greennfv_bench_history.log
history_after=$(wc -l < out/bench_history.jsonl)
if [ "$history_after" -le "$history_before" ]; then
  echo "ci.sh: bench_history.jsonl did not grow" >&2
  exit 1
fi
if [ "$history_after" -ge 2 ] && \
   ! grep -q '^\[history\] .*_per_sec' /tmp/greennfv_bench_history.log; then
  echo "ci.sh: bench history delta line missing" >&2
  exit 1
fi

echo
echo "=== [1c11] parallel replay: a 200-node fleet twice, identical stdout ==="
# Fleets of 8 or more nodes replay their nodes on every hardware thread,
# and the thread interleavings differ from run to run; the report, the
# fleet summary and every [train] line before the metrics table may not.
replay_run() {
  ./build/example_run_scenario scenario=mega-fleet nodes=200 \
    fleet.horizon=30 models=baseline,ee-pstate metrics=1 |
    sed '/^\[metrics\]/,$d'
}
replay_run > /tmp/greennfv_replay_a.log
replay_run > /tmp/greennfv_replay_b.log
if ! cmp -s /tmp/greennfv_replay_a.log /tmp/greennfv_replay_b.log; then
  echo "ci.sh: parallel replay stdout differs between two runs" >&2
  diff /tmp/greennfv_replay_a.log /tmp/greennfv_replay_b.log >&2 || true
  exit 1
fi

echo
echo "=== [1d] RL training microbench: smoke mode + baseline check ==="
# Smoke-sized run of the batched training engine (train_steps/sec,
# actions/sec -> out/BENCH_train.json). The baseline comparison warns —
# never fails — on a >30% train-throughput regression, so a future PR
# cannot silently lose the batched-GEMM win but a noisy machine cannot
# block the gate either.
./build/bench_train smoke=1 baseline=bench/baselines/BENCH_train.json

echo
echo "=== [1e] end-to-end benchmark self-test ==="
# Builds the perfbench harness against this tree's public API, checks that
# its wrapped roster evaluates fleet-smoke bit-identically to the plain
# one, and runs every workload at tiny size on two seeds, traced and
# untraced. A non-zero exit fails the gate: the benchmark must keep
# building and agreeing with the program it measures.
python3 perfbench/run.py --selftest

echo
echo "=== [1f] portable RL kernels: native == portable, bit for bit ==="
# The RL kernel sources build with -march=native by default, where the
# GEMM micro-kernel runs the host's widest vectors. A portable build runs
# 2-lane vectors; it must pass the bit-exact RL suites and reproduce every
# fleet golden, the trained roster's included, byte for byte.
cmake -B build-portable -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DGREENNFV_SANITIZE=OFF \
  -DGREENNFV_TSAN=OFF \
  -DGREENNFV_NATIVE_KERNELS=OFF \
  -DGREENNFV_BUILD_TESTS=ON \
  -DGREENNFV_BUILD_BENCH=OFF \
  -DGREENNFV_BUILD_EXAMPLES=OFF
cmake --build build-portable -j "$JOBS"
(cd build-portable && ctest --output-on-failure --no-tests=error -j "$JOBS" \
  -R '^rl\.|^orchestrator\.FleetGolden\.')

echo
echo "=== [2/3] sanitizer gate: ASan/UBSan Debug build ==="
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DGREENNFV_SANITIZE=ON \
  -DGREENNFV_BUILD_TESTS=ON \
  -DGREENNFV_BUILD_BENCH=OFF \
  -DGREENNFV_BUILD_EXAMPLES=OFF
cmake --build build-asan -j "$JOBS"

# The threaded data path, the fleet index's pooled allocators, the
# policies that read the index in place and the reuse state the node
# model and the replay plan keep in long-lived buffers are the
# sanitizer-critical surfaces; run their suites explicitly (pattern match
# keeps this in sync as suites are added), then the rest of the tree.
# SANITIZER_FIRST is named once, so the last step runs exactly its
# complement.
export ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
SANITIZER_FIRST='^common\.(Arena|ArenaAllocator|BucketQueue)\.|^orchestrator\.(FleetGolden|FleetDeterminism|FleetFault|FleetTopology|FleetWakeRegression|FleetPolicy|FleetPlacementOracle|FleetReplayPlan)\.|^topology\.|^telemetry\.|^hwmodel\.|^core\.(EnvReconfigure|EnvFootprint)\.'
(cd build-asan && ctest --output-on-failure --no-tests=error -j "$JOBS" -R '^nfvsim\.')
(cd build-asan && ctest --output-on-failure --no-tests=error -j "$JOBS" \
  -R "$SANITIZER_FIRST")
(cd build-asan && ctest --output-on-failure --no-tests=error -j "$JOBS" \
  -E "^nfvsim\\.|$SANITIZER_FIRST")

echo
echo "=== [3/3] ThreadSanitizer gate: TSan build of the concurrent suites ==="
cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DGREENNFV_SANITIZE=OFF \
  -DGREENNFV_TSAN=ON \
  -DGREENNFV_BUILD_TESTS=ON \
  -DGREENNFV_BUILD_BENCH=OFF \
  -DGREENNFV_BUILD_EXAMPLES=ON
cmake --build build-tsan -j "$JOBS"

# halt_on_error turns the first race report into a failed test instead of
# a warning at exit.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
(cd build-tsan && ctest --output-on-failure --no-tests=error -j "$JOBS" \
  -R '^common\.ThreadPool\.|^telemetry\.|^nfvsim\.|^rl\.(PerConcurrent|Apex)|^campaign\.(CampaignRunner|FleetCampaign)\.|^orchestrator\.(FleetDeterminism|FleetFault|FleetGolden|FleetTopology|FleetParallelReplay|FleetReplayPlan)\.|^integration\.Determinism\.')
./build-tsan/example_run_scenario scenario=mega-fleet nodes=200 \
  fleet.horizon=30 models=baseline,ee-pstate
# Both kinds of range in one process: at jobs=2 the campaign's cells hold
# the pool and each 16-node fleet replays inline inside its cell; at
# jobs=1 the cells run inline and each fleet replays on the pool. The two
# campaigns' artifacts must be byte-identical.
for jobs in 2 1; do
  ./build-tsan/example_run_campaign name=ci-wide-fleet scenarios=mega-fleet \
    nodes=16 fleet.horizon=12 models=baseline,ee-pstate seeds=1,2,3 fresh=1 \
    jobs="$jobs" out="/tmp/greennfv_wide_fleet_jobs$jobs"
done
diff -r /tmp/greennfv_wide_fleet_jobs2/ci-wide-fleet \
  /tmp/greennfv_wide_fleet_jobs1/ci-wide-fleet

echo
echo "ci.sh: all green"
