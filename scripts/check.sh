#!/usr/bin/env bash
# One-command verification gate (referenced from README "Development"):
#
#   scripts/check.sh            tier-1 build + full ctest sweep
#                               + a warning-free Release build
#                                 (-DNVC_WERROR=ON)
#                               + asan build of the policy tier (admission/
#                                 wear suites, `ctest -L policy`)
#                               + asan pass of the recovery tier (the
#                                 image-corruption fuzzer + salvage units,
#                                 `ctest -L recovery`)
#                               + the recovery tier again in an NVC_NO_SIMD
#                                 build (table CRC32C fallback)
#                               + a tsan build of the suites that drive the
#                                 shared write-back path against a real
#                                 flush worker (fault injection, crash
#                                 matrix, runtime) and of the shadow
#                                 image's power-cut clock (pmem)
#                               + the bench regression gate when a fresh
#                                 BENCH_micro.json exists at the repo root
#
# Flags / env:
#   --no-asan        skip the asan policy tier (e.g. hosts without the rt)
#   --no-tsan        skip the tsan write-back-path suites
#   --no-bench       skip the compare.py gate
#   CTEST_PARALLEL   ctest -j value (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="${CTEST_PARALLEL:-$(nproc)}"
run_asan=1
run_tsan=1
run_bench=1
for arg in "$@"; do
  case "$arg" in
    --no-asan) run_asan=0 ;;
    --no-tsan) run_tsan=0 ;;
    --no-bench) run_bench=0 ;;
    *) echo "usage: scripts/check.sh [--no-asan] [--no-tsan] [--no-bench]" >&2
       exit 2 ;;
  esac
done

echo "== tier-1: default build + full test sweep =="
cmake --preset default >/dev/null
cmake --build build -j "$(nproc)"
ctest --test-dir build -j "$jobs" --output-on-failure

# Every warning is a build failure in Release (the optimizer's own
# diagnostics, e.g. -Wrestrict, only fire there).
echo "== werror: Release build, warnings as errors =="
cmake -B build-werror -S . -DCMAKE_BUILD_TYPE=Release -DNVC_WERROR=ON \
    >/dev/null
cmake --build build-werror -j "$(nproc)"

# The durable-structure tier runs again with FliT elision DISABLED: the
# flush-everything baseline is a distinct protocol dimension (every
# persist_help hits media), so the linearizability + power-cut oracles get
# one fuzzer iteration against it too.
echo "== structures: durable suite, elision off (NVC_ELIDE=0) =="
NVC_ELIDE=0 NVC_FUZZ_ITERS=1 \
  ctest --test-dir build -L structures -j "$jobs" --output-on-failure

if [ "$run_asan" = 1 ]; then
  echo "== asan: policy tier (admission + wear suites) =="
  cmake --preset asan >/dev/null
  cmake --build build-asan -j "$(nproc)" --target test_admission test_fuzz_crash
  ctest --test-dir build-asan -L policy -j "$jobs" --output-on-failure

  # The hardened-recovery tier (DESIGN.md §14) walks deliberately hostile
  # bytes — exactly where an out-of-bounds read would hide — so the
  # image-corruption fuzzer and the salvage units get a dedicated asan pass.
  echo "== asan: recovery tier (salvage units + image-corruption fuzzer) =="
  cmake --build build-asan -j "$(nproc)" \
      --target test_recovery_units test_recovery_fuzz
  ctest --test-dir build-asan -L recovery -j "$jobs" --output-on-failure
fi

# CRC32C runs on the SSE4.2 crc32 instruction wherever the build targets
# it, so on such hosts the default and asan builds never execute the table
# fallback. An NVC_NO_SIMD build forces it; the recovery tier (checksum
# known answers, differential and chaining tests, salvage, scrub) must pass
# there unchanged.
echo "== nosimd: recovery tier on the table CRC32C fallback =="
cmake -B build-nosimd -S . -DNVC_NO_SIMD=ON -DNVC_BUILD_BENCH=OFF \
    -DNVC_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-nosimd -j "$(nproc)" \
    --target test_recovery_units test_recovery_fuzz
ctest --test-dir build-nosimd -L recovery -j "$jobs" --output-on-failure

# Runtime and crash rig share one FaseContext and WritebackPath; these suites
# run it against the real flush worker (fault latches, async crash matrix,
# runtime threads), and test_pmem races a flusher against a store across
# the shadow image's power cut, so the producer/worker handoffs get a
# ThreadSanitizer pass.
if [ "$run_tsan" = 1 ]; then
  echo "== tsan: write-back path suites (fault, crash matrix, runtime, pmem) =="
  cmake --preset tsan -DNVC_BUILD_BENCH=OFF -DNVC_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-tsan -j "$(nproc)" \
      --target test_fault_injection test_crash_matrix test_runtime test_pmem
  for suite in test_fault_injection test_crash_matrix test_runtime \
      test_pmem; do
    ./build-tsan/tests/"$suite"
  done
fi

if [ "$run_bench" = 1 ]; then
  if [ -f BENCH_micro.json ]; then
    echo "== bench: regression gate (bench/compare.py) =="
    python3 bench/compare.py
  else
    echo "== bench: no BENCH_micro.json at repo root; run" \
         "./build/bench/micro_gbench first (skipping gate) =="
  fi
fi

echo "check.sh: all selected gates passed"
