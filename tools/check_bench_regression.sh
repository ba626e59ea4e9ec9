#!/usr/bin/env bash
#===- tools/check_bench_regression.sh - Gate fresh BENCH_*.json ----------===#
#
# Part of the STENSO reproduction, released under the MIT License.
#
#===----------------------------------------------------------------------===#
#
# Compares freshly produced BENCH_*.json files against the checked-in
# baselines at the repo root, metric by metric, and prints a pass/warn/
# fail table.
#
# Three kinds of metric, with different strictness:
#
#   contract   deterministic correctness facts (cross-checks pass,
#              differential mismatches are zero, the monitored run
#              returned the identical result).  A violation FAILs:
#              these do not move with host load.
#   budget     the policy booleans the bench binaries compute
#              (inactive-span overhead <= 5%, heartbeat overhead <= 2%).
#              A violation WARNs: the budgets hold on a quiet host, but
#              this gate shares CI machines with sanitizer jobs.
#   perf       timings and throughputs, compared to the baseline value
#              with generous relative tolerances (hosts differ): drift
#              past the warn ratio WARNs, past the fail ratio FAILs.
#
# Usage:
#   tools/check_bench_regression.sh [--fresh-dir DIR] [--baseline-dir DIR]
#                                   [BENCH_observe] [BENCH_report] ...
#
#   --fresh-dir     where the just-run bench binaries wrote their JSON
#                   (default: build/bench)
#   --baseline-dir  where the checked-in baselines live (default: the
#                   repo root)
#
# With no bench names, every baseline that has a fresh counterpart is
# checked; a named bench whose fresh file is missing is an error.
# Exit: 0 all pass (warnings allowed), 1 any fail or usage error,
# 77 when python3 is unavailable (the suite's skip convention).
#
#===----------------------------------------------------------------------===#

set -u

cd "$(dirname "$0")/.."

if ! command -v python3 >/dev/null 2>&1; then
  echo "check_bench_regression: python3 not found; skipping" >&2
  exit 77
fi

FRESH_DIR="build/bench"
BASELINE_DIR="."
BENCHES=()
while [ $# -gt 0 ]; do
  case "$1" in
    --fresh-dir)
      FRESH_DIR="${2:?--fresh-dir needs a directory}"
      shift 2 || exit 1
      ;;
    --baseline-dir)
      BASELINE_DIR="${2:?--baseline-dir needs a directory}"
      shift 2 || exit 1
      ;;
    -*)
      echo "unknown option '$1'" >&2
      exit 1
      ;;
    *)
      BENCHES+=("$1")
      shift
      ;;
  esac
done

python3 - "$FRESH_DIR" "$BASELINE_DIR" "${BENCHES[@]:-}" <<'PYEOF'
import json
import sys

fresh_dir, baseline_dir = sys.argv[1], sys.argv[2]
requested = [b for b in sys.argv[3:] if b]

# Metric spec per bench file.  Dotted paths index into the JSON
# (integer segments index arrays).  Kinds:
#   contract  boolean that must be true / count that must be zero -> FAIL
#   budget    policy boolean -> WARN when false
#   time      lower is better; ratio fresh/baseline gates warn/fail
#   rate      higher is better; ratio baseline-relative, inverted gates
SPEC = {
    "BENCH_observe": [
        ("within_budget", "budget", None, None),
        ("overhead_inactive_percent", "time", 2.0, 5.0),
        ("ns_per_inactive_site", "time", 2.0, 5.0),
        ("ns_per_event_active", "time", 2.0, 5.0),
        ("ns_per_counter_add", "time", 2.0, 5.0),
    ],
    "BENCH_report": [
        ("synthetic_cross_check_ok", "contract", None, None),
        ("live_cross_check_ok", "contract", None, None),
        ("observation_only_result_identical", "contract", None, None),
        ("heartbeat_within_budget", "budget", None, None),
        ("heartbeat_overhead_percent", "time", 2.5, 6.0),
        ("ingest_lines_per_second", "rate", 1.5, 3.0),
        ("build_seconds", "time", 1.5, 3.0),
    ],
    "BENCH_analysis_pruning": [
        ("runs.0.differential_mismatches", "contract", None, None),
        ("runs.1.differential_mismatches", "contract", None, None),
        ("runs.2.differential_mismatches", "contract", None, None),
        ("runs.3.differential_mismatches", "contract", None, None),
        ("coverage_ok", "contract", None, None),
        ("runs.2.wall_seconds", "time", 1.5, 3.0),
    ],
    "BENCH_parallel": [
        ("runs.0.differential_mismatches", "contract", None, None),
        ("runs.1.differential_mismatches", "contract", None, None),
        ("runs.2.differential_mismatches", "contract", None, None),
        ("runs.3.differential_mismatches", "contract", None, None),
        ("runs.0.wall_seconds", "time", 1.5, 3.0),
    ],
    "BENCH_persist": [
        ("differential_mismatches", "contract", None, None),
        ("cold_wall_seconds", "time", 1.5, 3.0),
        ("warm_wall_seconds", "time", 1.5, 3.0),
        ("recovery_seconds", "time", 2.0, 4.0),
    ],
}


def load(path):
    with open(path) as f:
        return json.load(f)


def lookup(doc, dotted):
    node = doc
    for seg in dotted.split("."):
        if isinstance(node, list):
            node = node[int(seg)]
        elif isinstance(node, dict):
            if seg not in node:
                return None
            node = node[seg]
        else:
            return None
    return node


import os

if requested:
    names = requested
else:
    names = sorted(
        n for n in SPEC
        if os.path.exists(os.path.join(baseline_dir, n + ".json"))
        and os.path.exists(os.path.join(fresh_dir, n + ".json"))
    )
    if not names:
        print("check_bench_regression: no bench with both a baseline and "
              "a fresh file; nothing to check", file=sys.stderr)
        sys.exit(1)

rows = []
failed = False
for name in names:
    if name not in SPEC:
        print(f"check_bench_regression: no metric spec for '{name}'",
              file=sys.stderr)
        sys.exit(1)
    fresh_path = os.path.join(fresh_dir, name + ".json")
    base_path = os.path.join(baseline_dir, name + ".json")
    try:
        fresh = load(fresh_path)
    except (OSError, ValueError) as e:
        print(f"check_bench_regression: cannot read fresh {fresh_path}: {e}",
              file=sys.stderr)
        sys.exit(1)
    try:
        base = load(base_path)
    except (OSError, ValueError) as e:
        print(f"check_bench_regression: cannot read baseline {base_path}: "
              f"{e}", file=sys.stderr)
        sys.exit(1)

    for metric, kind, warn, fail in SPEC[name]:
        fv = lookup(fresh, metric)
        bv = lookup(base, metric)
        if fv is None:
            rows.append((name, metric, "FAIL", "missing in fresh output"))
            failed = True
            continue
        if kind == "contract":
            ok = fv is True if isinstance(fv, bool) else fv == 0
            if ok:
                rows.append((name, metric, "pass", f"{fv}"))
            else:
                rows.append((name, metric, "FAIL", f"contract violated: "
                                                   f"{fv}"))
                failed = True
        elif kind == "budget":
            if fv is True:
                rows.append((name, metric, "pass", "true"))
            else:
                rows.append((name, metric, "warn", "budget exceeded "
                                                   "(noisy host?)"))
        else:
            if bv is None or not isinstance(bv, (int, float)) or bv == 0:
                rows.append((name, metric, "warn",
                             f"no usable baseline ({bv!r}); fresh {fv:g}"))
                continue
            ratio = fv / bv if kind == "time" else bv / fv if fv else 1e9
            detail = f"{fv:g} vs baseline {bv:g} ({ratio:.2f}x)"
            if ratio > fail:
                rows.append((name, metric, "FAIL", detail))
                failed = True
            elif ratio > warn:
                rows.append((name, metric, "warn", detail))
            else:
                rows.append((name, metric, "pass", detail))

wb = max(len(r[0]) for r in rows)
wm = max(len(r[1]) for r in rows)
print(f"{'bench':<{wb}}  {'metric':<{wm}}  result  detail")
print("-" * (wb + wm + 40))
for bench, metric, status, detail in rows:
    print(f"{bench:<{wb}}  {metric:<{wm}}  {status:<6}  {detail}")

npass = sum(1 for r in rows if r[2] == "pass")
nwarn = sum(1 for r in rows if r[2] == "warn")
nfail = sum(1 for r in rows if r[2] == "FAIL")
print(f"\n{npass} pass, {nwarn} warn, {nfail} fail")
sys.exit(1 if failed else 0)
PYEOF
