#!/usr/bin/env sh
# Drive the per-figure bench binaries and a set of swan_cli sweep grids
# through the shared sweep engine. A common on-disk result cache means
# experiment points computed by one bench are served to every later one
# without re-simulation; run it twice and the second pass is all hits.
#
# Usage: bench/run_all.sh [BUILD_DIR]   (default: build)
set -eu

BUILD_DIR=${1:-build}
JOBS=${SWAN_JOBS:-$(nproc 2>/dev/null || echo 2)}
CACHE_DIR=${SWAN_SWEEP_CACHE_DIR:-$BUILD_DIR/.sweep-cache}

if [ ! -x "$BUILD_DIR/swan" ]; then
    echo "run_all.sh: $BUILD_DIR/swan not found; build first:" >&2
    echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
    exit 1
fi

export SWAN_JOBS="$JOBS"
export SWAN_SWEEP_CACHE_DIR="$CACHE_DIR"
echo "== sweep cache: $CACHE_DIR, jobs: $JOBS =="

echo "== swan sweep: headline kernels, Scalar vs Neon, prime =="
"$BUILD_DIR/swan" sweep --impls scalar,neon --cores prime \
    --jobs "$JOBS" --format table

echo "== swan sweep: Figure-5 kernels across widths (CSV) =="
"$BUILD_DIR/swan" sweep --wider --bits 128,256,512,1024 --cores wider \
    --ws scalability --jobs "$JOBS" --format csv

echo "== swan sweep: Figure-5 kernels across core scaling (JSONL) =="
"$BUILD_DIR/swan" sweep --wider --cores 4W-2V,4W-4V,4W-6V,6W-6V,4W-8V,8W-8V \
    --ws scalability --jobs "$JOBS" --format jsonl

echo "== fig02_perf_energy =="
"$BUILD_DIR/fig02_perf_energy"

echo "== fig04_core_arch =="
"$BUILD_DIR/fig04_core_arch"

echo "== tab05_microarch =="
"$BUILD_DIR/tab05_microarch"

echo "== fig05a_wider_registers =="
"$BUILD_DIR/fig05a_wider_registers"

echo "== fig05b_more_units =="
"$BUILD_DIR/fig05b_more_units"

echo "== tab06_strided =="
"$BUILD_DIR/tab06_strided"

# Replay-engine perf gate: the fused decode->step engine must hold
# >= 1.3x over block-delivery replay at N=3 configs and >= 1.5x at
# N=4 (half a lane block), with no regression at N=1 (>= 1.0x) and
# >= 1.2x on the saturation corpus. Enforced here on optimized
# builds; CI runs the smoke report-only by presetting
# SWAN_PERF_ENFORCE=0 — noisy shared runners. The emitted JSON
# records the dispatched decode/step kernels so a gate failure can
# be attributed to the code or to running on non-AVX2 hardware.
echo "== perf_smoke (BENCH_trace_replay.json, BENCH_sim_replay.json) =="
SWAN_PERF_ENFORCE="${SWAN_PERF_ENFORCE:-1}" "$BUILD_DIR/perf_smoke" \
    "$BUILD_DIR/BENCH_trace_replay.json" "$BUILD_DIR/BENCH_sim_replay.json"

# Observability overhead gate: fused replay with a live telemetry
# collector + sinks must stay within 2% of metrics-off wall time
# (call-granularity spans, never per-instruction cost). Same
# SWAN_PERF_ENFORCE policy as perf_smoke.
echo "== obs_overhead (BENCH_sweep_obs.json) =="
SWAN_PERF_ENFORCE="${SWAN_PERF_ENFORCE:-1}" "$BUILD_DIR/obs_overhead" \
    "$BUILD_DIR/BENCH_sweep_obs.json"

echo "== done =="
