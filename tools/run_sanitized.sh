#!/usr/bin/env bash
# Build and run the full test suite under ASan+UBSan, then re-run the
# end-to-end soak smoke (label `soak_smoke`) on its own: the supervised
# runtime's kill/restore path is the likeliest place for lifetime bugs, so
# it gets a dedicated, serial sanitizer pass with visible output.  The
# adversarial estimation smoke (label `adversarial`) gets the same
# treatment: consensus/bootstrap exercise the widest span of estimation
# code under corrupted inputs.  So does the fleet smoke (label
# `fleet_smoke`): 64 sessions over 4 fault domains with a correlated
# outage, the widest object-lifetime churn in the runtime.  The tracking
# smoke (label `track_smoke`) covers the square-root filter bank and the
# track lifecycle over the clean/dropout/outage arms.  The capture
# fuzz corpus (capture_test: bit flips, truncation, duplicated chunks,
# garbage splices against the record/replay format) and the end-to-end
# record/replay smoke (label `replay_smoke`) round out the set: the capture
# CRCs must stop damage before any decoder walks out of bounds, which is
# exactly what ASan/UBSan verify.  The checkpoint text codec's tests
# (CheckpointCodec: differential runs against the iostream codec over
# seeded writer output, divergence tokens and byte mutations) get a pass of
# their own: the reader walks raw string_views with hand-written scanning,
# where an off-by-one is an out-of-bounds read.  The crash-consistency
# smoke (label `crash_smoke`) drives every durable writer through
# thousands of simulated power cuts and recoveries -- heavy allocation
# churn across torn buffers, a good ASan payload.
#
# A final pass builds with ThreadSanitizer (its own build dir -- TSan
# cannot share objects with ASan) and runs the `tsan`-labeled tests: the
# lock-free MPMC ring, the obs metric atomics, the fleet worker pool
# (runtime_test includes the pool-vs-inline parity test) and the spectrum
# kernel's thread_local scratch (profile_contract_test evaluates one
# profile from four threads, through the public entry points and at every
# kernel level the host supports), i.e. every place the codebase relies on
# acquire/release or relaxed memory orders or shares state across threads.
# The threaded queue tests then run 20 more times each: a test whose
# outcome depends on the thread schedule fails that repeat pass instead of
# passing most runs.
#
# Usage: tools/run_sanitized.sh [build-dir] [extra ctest args...]
# Default build dir: build-asan (the TSan pass uses <build-dir>-tsan).
# Set TAGSPIN_SKIP_TSAN=1 to skip the ThreadSanitizer pass.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"
shift || true

GEN_ARGS=()
if command -v ninja >/dev/null 2>&1; then
  GEN_ARGS=(-G Ninja)
fi

cmake -B "$BUILD_DIR" -S . "${GEN_ARGS[@]}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DTAGSPIN_SANITIZE="address;undefined"
cmake --build "$BUILD_DIR" -j"$(nproc)"

export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:strict_string_checks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)" "$@"

echo
echo "== soak smoke under sanitizers (ctest -L soak_smoke) =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -L soak_smoke

echo
echo "== adversarial estimation smoke under sanitizers (ctest -L adversarial) =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -L adversarial

echo
echo "== fleet smoke under sanitizers (ctest -L fleet_smoke) =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -L fleet_smoke

echo
echo "== tracking smoke under sanitizers (ctest -L track_smoke) =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -L track_smoke

echo
echo "== capture fuzz corpus under sanitizers (ctest -R CaptureFormatFuzz) =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -R 'CaptureFormatFuzz'

echo
echo "== checkpoint text codec under sanitizers (ctest -R CheckpointCodec) =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -R 'CheckpointCodec'

echo
echo "== record/replay smoke under sanitizers (ctest -L replay_smoke) =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -L replay_smoke

echo
echo "== crash-consistency smoke under sanitizers (ctest -L crash_smoke) =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -L crash_smoke

echo
echo "== resource-exhaustion smoke under sanitizers (ctest -L oom_smoke) =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -L oom_smoke

echo
echo "== malloc-failure smoke (ASan allocator_may_return_null=1) =="
# Re-run the OOM exploration with the ASan allocator returning null instead
# of aborting on its internal limits: the harness's injected denials already
# cover the MemEnv seam, and this pass confirms nothing in the surrounding
# code paths (std::bad_alloc propagation, container growth) trips ASan when
# real allocation failure is on the table.
ASAN_OPTIONS="${ASAN_OPTIONS}:allocator_may_return_null=1" \
  ctest --test-dir "$BUILD_DIR" --output-on-failure -L oom_smoke

if [[ "${TAGSPIN_SKIP_TSAN:-0}" != "1" ]]; then
  TSAN_BUILD_DIR="${BUILD_DIR}-tsan"
  echo
  echo "== ThreadSanitizer pass over runtime + obs + kernel (ctest -L tsan) =="
  cmake -B "$TSAN_BUILD_DIR" -S . "${GEN_ARGS[@]}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTAGSPIN_SANITIZE="thread"
  cmake --build "$TSAN_BUILD_DIR" -j"$(nproc)" --target runtime_test obs_test profile_contract_test
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"
  ctest --test-dir "$TSAN_BUILD_DIR" --output-on-failure -L tsan

  echo
  echo "== threaded queue tests repeated under ThreadSanitizer (until-fail:20) =="
  ctest --test-dir "$TSAN_BUILD_DIR" --output-on-failure -L tsan \
    -R IngestQueueThreaded --repeat until-fail:20
fi
