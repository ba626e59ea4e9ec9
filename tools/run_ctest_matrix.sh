#!/usr/bin/env bash
#===- tools/run_ctest_matrix.sh - Build + ctest across sanitizer configs -===#
#
# Part of the STENSO reproduction, released under the MIT License.
#
#===----------------------------------------------------------------------===#
#
# The CI job matrix in one script: configures, builds, and tests the tree
# in five configurations —
#
#   release   plain RelWithDebInfo, full ctest suite
#   asan      STENSO_SANITIZE=ON (ASan+UBSan), full ctest suite
#   tsan      STENSO_TSAN=ON (ThreadSanitizer), `ctest -L tsan` only:
#             the parallel-search surface (ThreadPool, the shared-state
#             hammers, the parallel differential/robustness cases), since
#             TSan slows the full suite ~10x for no extra race coverage
#   lint      clang-tidy over the tree with the checks in .clang-tidy
#             (configure-only: uses CMAKE_EXPORT_COMPILE_COMMANDS); the
#             leg SKIPs — it does not fail — on hosts without clang-tidy
#   bench-regression
#             runs the observability bench binaries in the release tree
#             and gates their BENCH_*.json against the checked-in
#             baselines with tools/check_bench_regression.sh (SKIPs on
#             hosts without python3)
#
# After its ctest run, each of release/asan/tsan checks that every test
# name is stable (tools/check_test_names.sh) and validates a traced run;
# release and asan add the fuzz smoke and store crash-recovery legs.
#
# Usage:
#   tools/run_ctest_matrix.sh             # all five configurations
#   tools/run_ctest_matrix.sh tsan        # just one
#                                         # (release|asan|tsan|lint|
#                                         #  bench-regression)
#
# Each configuration builds into build-matrix-<name>/ so the matrix never
# dirties the default build/ tree.  The script stops at the first failing
# configuration and always prints a per-config summary line.
#
#===----------------------------------------------------------------------===#

set -u

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 2)"
CONFIGS=("${@:-release asan tsan lint bench-regression}")
# Word-split the default list when no argument was given.
[ $# -eq 0 ] && CONFIGS=(release asan tsan lint bench-regression)

# clang-tidy over every first-party translation unit, against a
# configure-only build tree's compile_commands.json.  Returns 77 (the
# suite's skip convention) when clang-tidy is not installed.
run_lint() {
  local TIDY
  TIDY="$(command -v clang-tidy || true)"
  if [ -z "${TIDY}" ]; then
    echo "=== [lint] clang-tidy not installed; skipping ==="
    return 77
  fi
  local BUILD_DIR="build-matrix-lint"
  echo "=== [lint] configure (compile_commands.json) ==="
  cmake -B "${BUILD_DIR}" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON || return 1
  local FILES
  FILES="$(git ls-files 'src/*.cpp' 'src/**/*.cpp' 'tools/*.cpp' \
                        'bench/*.cpp' 'tests/*.cpp')"
  [ -n "${FILES}" ] || { echo "no sources found" >&2; return 1; }
  echo "=== [lint] clang-tidy (${JOBS} jobs) ==="
  # xargs fans files out across cores; -quiet keeps output to findings.
  echo "${FILES}" | xargs -P "${JOBS}" -n 8 \
      "${TIDY}" -p "${BUILD_DIR}" -quiet || return 1

  # Strict pass over the analysis + synthesis layers: the bugprone-* and
  # performance-* families promoted to errors.  These are the hot,
  # correctness-critical directories (the admissible bound must never
  # silently truncate or copy its way into a wrong floor); the rest of
  # the tree stays on the advisory default above.
  local STRICT_FILES
  STRICT_FILES="$(git ls-files 'src/analysis/*.cpp' 'src/synth/*.cpp')"
  [ -n "${STRICT_FILES}" ] || { echo "no strict sources found" >&2
                                return 1; }
  echo "=== [lint] clang-tidy strict (bugprone-*,performance-* as" \
       "errors: src/analysis src/synth) ==="
  echo "${STRICT_FILES}" | xargs -P "${JOBS}" -n 4 \
      "${TIDY}" -p "${BUILD_DIR}" -quiet \
      -checks='bugprone-*,performance-*,-bugprone-easily-swappable-parameters,-bugprone-branch-clone' \
      -warnings-as-errors='bugprone-*,performance-*' || return 1
}

# The perf-regression gate: run the contract-carrying benches in the
# release matrix tree (reusing it when the release leg already built it)
# and compare the fresh BENCH_*.json against the checked-in baselines.
# Beyond the observability pair this covers the differential benches:
# analysis pruning and the persistent store — each embeds a
# result-identity contract the gate enforces.  check_bench_regression.sh returns 77 when python3 is
# missing; that propagates as a SKIP.
run_bench_regression() {
  local BUILD_DIR="build-matrix-release"
  local TARGETS=(bench_observe_overhead bench_report bench_analysis_pruning
                 bench_persist)
  echo "=== [bench-regression] configure + build ==="
  cmake -B "${BUILD_DIR}" -S . || return 1
  cmake --build "${BUILD_DIR}" -j "${JOBS}" --target "${TARGETS[@]}" \
      || return 1
  echo "=== [bench-regression] run benches ==="
  local BIN
  for BIN in "${TARGETS[@]}"; do
    (cd "${BUILD_DIR}/bench" && "./${BIN}") || return 1
  done
  echo "=== [bench-regression] compare against baselines ==="
  tools/check_bench_regression.sh --fresh-dir "${BUILD_DIR}/bench" \
      BENCH_observe BENCH_report BENCH_analysis_pruning BENCH_persist
}

run_config() {
  local NAME="$1"
  local BUILD_DIR="build-matrix-${NAME}"
  local CMAKE_FLAGS=()
  local CTEST_FLAGS=(--output-on-failure)
  case "${NAME}" in
    release) ;;
    asan) CMAKE_FLAGS+=(-DSTENSO_SANITIZE=ON) ;;
    tsan)
      CMAKE_FLAGS+=(-DSTENSO_TSAN=ON)
      CTEST_FLAGS+=(-L tsan)
      ;;
    *)
      echo "unknown configuration '${NAME}' (use release|asan|tsan)" >&2
      return 2
      ;;
  esac

  echo "=== [${NAME}] configure ==="
  cmake -B "${BUILD_DIR}" -S . "${CMAKE_FLAGS[@]}" || return 1
  echo "=== [${NAME}] build (-j${JOBS}) ==="
  cmake --build "${BUILD_DIR}" -j "${JOBS}" || return 1
  echo "=== [${NAME}] ctest ${CTEST_FLAGS[*]} ==="
  (cd "${BUILD_DIR}" && ctest "${CTEST_FLAGS[@]}") || return 1

  # Test-name leg: every ctest name is a pure function of the source, so
  # test lists compare across builds (no ASLR bytes in any name).
  echo "=== [${NAME}] test-name stability ==="
  tools/check_test_names.sh "${BUILD_DIR}" || return 1

  # Trace-validation leg: one traced end-to-end run per configuration,
  # with the emitted Chrome/Perfetto JSON checked by validate_trace.sh
  # (exit 77 = no python3 on this host; treated as a skip, not a failure).
  echo "=== [${NAME}] trace validation ==="
  local TRACE_FILE="${BUILD_DIR}/matrix_trace.json"
  "${BUILD_DIR}/tools/stenso-opt" \
      --program examples/programs/diag_dot.stenso --timeout 60 \
      --trace "${TRACE_FILE}" || return 1
  tools/validate_trace.sh "${TRACE_FILE}"
  local RC=$?
  if [ "${RC}" -ne 0 ] && [ "${RC}" -ne 77 ]; then
    return 1
  fi

  # Fuzz-smoke leg (release + asan; under ASan the whole differential
  # stack runs instrumented, which is where a fuzz-found memory bug
  # would surface): a fixed-seed, ~30s-budget coverage-guided run over
  # the full oracle stack must finish with zero findings.  No wall-clock
  # timeout — the deterministic node/solver caps bound each evaluation,
  # so the leg is bit-reproducible across hosts.
  if [ "${NAME}" != "tsan" ]; then
    echo "=== [${NAME}] fuzz smoke ==="
    "${BUILD_DIR}/tools/stenso-fuzz" \
        --seed 1 --budget 12 --timeout 0 \
        --corpus tests/fuzz_corpus || return 1
  fi

  # Store crash-recovery leg (release + asan; the tsan config covers the
  # store through `ctest -L tsan` instead): SIGKILL a store-backed run
  # mid-search, resume against the same store, and require the resumed
  # run to complete with the byte-identical program of a store-less
  # reference run.
  if [ "${NAME}" != "tsan" ]; then
    echo "=== [${NAME}] store crash recovery ==="
    local STORE_DIR="${BUILD_DIR}/matrix.stenso-cache"
    local REF_OUT="${BUILD_DIR}/matrix_ref.out"
    local RES_OUT="${BUILD_DIR}/matrix_resume.out"
    rm -rf "${STORE_DIR}"
    "${BUILD_DIR}/tools/stenso-opt" \
        --program examples/programs/diag_dot.stenso \
        --cost_estimator flops --timeout 600 --no-store \
        > "${REF_OUT}" || return 1
    "${BUILD_DIR}/tools/stenso-opt" \
        --program examples/programs/diag_dot.stenso \
        --cost_estimator flops --timeout 600 --store "${STORE_DIR}" \
        > /dev/null 2>&1 &
    local OPT_PID=$!
    sleep 2
    kill -9 "${OPT_PID}" 2>/dev/null
    wait "${OPT_PID}" 2>/dev/null
    "${BUILD_DIR}/tools/stenso-opt" \
        --program examples/programs/diag_dot.stenso \
        --cost_estimator flops --timeout 600 --store "${STORE_DIR}" \
        > "${RES_OUT}" || return 1
    rm -rf "${STORE_DIR}"
    if ! cmp -s "${REF_OUT}" "${RES_OUT}"; then
      echo "store crash recovery: resumed result diverged" >&2
      return 1
    fi
  fi
}

STATUS=0
SUMMARY=""
for NAME in "${CONFIGS[@]}"; do
  if [ "${NAME}" = "lint" ]; then
    run_lint
    RC=$?
    if [ "${RC}" -eq 0 ]; then
      SUMMARY+="lint: PASS"$'\n'
    elif [ "${RC}" -eq 77 ]; then
      SUMMARY+="lint: SKIP (clang-tidy not installed)"$'\n'
    else
      SUMMARY+="lint: FAIL"$'\n'
      STATUS=1
      break
    fi
    continue
  fi
  if [ "${NAME}" = "bench-regression" ]; then
    run_bench_regression
    RC=$?
    if [ "${RC}" -eq 0 ]; then
      SUMMARY+="bench-regression: PASS"$'\n'
    elif [ "${RC}" -eq 77 ]; then
      SUMMARY+="bench-regression: SKIP (python3 not installed)"$'\n'
    else
      SUMMARY+="bench-regression: FAIL"$'\n'
      STATUS=1
      break
    fi
    continue
  fi
  if run_config "${NAME}"; then
    SUMMARY+="${NAME}: PASS"$'\n'
  else
    SUMMARY+="${NAME}: FAIL"$'\n'
    STATUS=1
    break
  fi
done

echo
echo "=== matrix summary ==="
printf '%s' "${SUMMARY}"
exit "${STATUS}"
