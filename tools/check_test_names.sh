#!/usr/bin/env bash
#===- tools/check_test_names.sh - ctest names must be stable -------------===#
#
# Part of the STENSO reproduction, released under the MIT License.
#
#===----------------------------------------------------------------------===#
#
# Fails when a test name is not a pure function of the source.  gtest
# appends each parameter's printed value to a parameterized test's name;
# a parameter type without a PrintTo is printed as its raw bytes
# ("24-byte object <54-78 07-B8 ...>"), pointers included, and ASLR
# moves those on every process start.  Such a name changes from one run
# to the next, so a comparison of test lists across builds sees tests
# vanish and appear that never changed.
#
# Checks, against an already-built tree:
#   * `ctest -N`, run twice in separate processes, lists the same names;
#   * every gtest binary under tests/, listed twice in separate
#     processes, prints the same names (ctest -N reads the list that
#     gtest_discover_tests wrote at build time, so this is the check that
#     sees ASLR at work);
#   * no name contains "byte object".
#
# Usage:
#   tools/check_test_names.sh [BUILD_DIR]     # default: build
#
#===----------------------------------------------------------------------===#

set -u

BUILD_DIR="${1:-build}"
if [ ! -d "${BUILD_DIR}/tests" ]; then
  echo "check_test_names: no built tree at ${BUILD_DIR}" >&2
  exit 2
fi

STATUS=0
fail() {
  echo "check_test_names: $*" >&2
  STATUS=1
}

ctest_names() {
  (cd "${BUILD_DIR}" && ctest -N) | sed -n 's/^ *Test *#[0-9]*: //p'
}

FIRST="$(ctest_names)"
SECOND="$(ctest_names)"
[ -n "${FIRST}" ] || fail "ctest -N listed no tests"
if [ "${FIRST}" != "${SECOND}" ]; then
  fail "two ctest -N runs listed different names:"
  diff <(echo "${FIRST}") <(echo "${SECOND}") | head -20 >&2
fi

for BIN in "${BUILD_DIR}"/tests/*Test; do
  [ -x "${BIN}" ] || continue
  A="$("${BIN}" --gtest_list_tests)" || { fail "${BIN} failed to list"; continue; }
  B="$("${BIN}" --gtest_list_tests)" || { fail "${BIN} failed to list"; continue; }
  if [ "${A}" != "${B}" ]; then
    fail "$(basename "${BIN}") lists different names in two processes:"
    diff <(echo "${A}") <(echo "${B}") | head -20 >&2
  fi
done

UNSTABLE="$(echo "${FIRST}" | grep -c 'byte object')"
if [ "${UNSTABLE}" -ne 0 ]; then
  fail "${UNSTABLE} test name(s) embed a raw parameter byte dump" \
       "(give the parameter type a PrintTo):"
  echo "${FIRST}" | grep 'byte object' | head -5 >&2
fi

[ "${STATUS}" -eq 0 ] &&
  echo "check_test_names: $(echo "${FIRST}" | wc -l) stable test names"
exit "${STATUS}"
