#!/usr/bin/env bash
# Builds and runs the tracked benches, leaving BENCH_assign.json and
# BENCH_sim.json in the repo root so successive PRs can track the perf
# and scenario trajectories.
#
# Usage: tools/run_bench.sh [--list] [--only SWEEP] [build_dir]
#                           [extra bench_assign_kernel args...]
#   EKM_THREADS caps the pool for the multi-threaded series.
#   BENCH_sim.json is bitwise deterministic for a fixed seed at any
#   EKM_THREADS (it lives on the simulator's virtual clock).
#   --list prints the splice-able --only section names, one per line,
#   and exits (it asks the bench binary itself, so the list can never
#   drift from what --only accepts).
#   --only SWEEP re-runs a single BENCH_sim.json sweep (cells |
#   deadline_sweep | realloc_sweep | pipeline_sweep | churn_sweep |
#   fleet_scale_sweep | attribution) and splices that section — plus fresh
#   provenance — into the existing BENCH_sim.json, leaving every other
#   section's bytes untouched (each bench cell is independent of which
#   other sections ran, so the splice equals a full run byte for
#   byte). Requires an existing BENCH_sim.json (run the full bench
#   once first) and skips BENCH_assign.json entirely.
#
# Each bench writes to a temp file that is moved into place only after
# the binary exits cleanly: a crashing bench fails this script loudly
# and leaves the previously committed JSON untouched, instead of
# shipping a partial or stale trajectory.
set -euo pipefail

# --list builds just the sim bench and defers to its own --list, the
# single source of truth for which sections --only can splice.
if [[ "${1:-}" == "--list" ]]; then
  repo_root="$(cd "$(dirname "$0")/.." && pwd)"
  build_dir="${2:-$repo_root/build}"
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$build_dir" --target bench_sim_scenarios -j >/dev/null
  exec "$build_dir/bench_sim_scenarios" --list
fi

only=""
if [[ "${1:-}" == "--only" ]]; then
  only="${2:?--only requires a sweep name}"
  shift 2
fi

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
shift || true

# Any temp file not yet renamed into place is removed on exit — a bench
# that crashes (or a Ctrl-C mid-run) must not leave BENCH_*.json.XXXXXX
# litter next to the committed trajectories. `mv` removes the source, so
# cleaning up an already-promoted tmp is a harmless no-op.
tmp_files=()
cleanup() {
  ((${#tmp_files[@]})) && rm -f "${tmp_files[@]}"
  return 0
}
trap cleanup EXIT

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release >/dev/null
if [[ -n "$only" ]]; then
  cmake --build "$build_dir" --target bench_sim_scenarios -j >/dev/null
else
  cmake --build "$build_dir" --target bench_assign_kernel bench_sim_scenarios -j >/dev/null
fi

# Provenance block stamped into both JSONs (the bench emits it as a
# top-level "provenance" object): enough to answer "which commit,
# which compiler, how many threads produced this trajectory?" when two
# BENCH files disagree. Values degrade to "unknown" rather than failing
# the run — a bench result without provenance still beats no result.
git_sha="$(git -C "$repo_root" rev-parse HEAD 2>/dev/null || echo unknown)"
if ! git -C "$repo_root" diff --quiet HEAD -- 2>/dev/null; then
  git_sha="$git_sha-dirty"
fi
compiler="$(grep -m1 '^CMAKE_CXX_COMPILER:' "$build_dir/CMakeCache.txt" 2>/dev/null | cut -d= -f2- || true)"
if [[ -n "$compiler" ]] && command -v "$compiler" >/dev/null 2>&1; then
  compiler="$("$compiler" --version 2>/dev/null | head -1 || echo "$compiler")"
fi
cxx_flags="$(grep -m1 '^CMAKE_CXX_FLAGS_RELEASE:' "$build_dir/CMakeCache.txt" 2>/dev/null | cut -d= -f2- || true)"
# Host facts: the CPU model string and the ISA the binary actually runs
# on. Wall-clock bench numbers (BENCH_assign.json) are meaningless
# across hosts without them; the sim numbers don't need them but carry
# them for free. /proc/cpuinfo covers Linux; sysctl covers macOS; both
# degrade to "unknown" elsewhere.
cpu_model="$(awk -F': ' '/^model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || true)"
if [[ -z "$cpu_model" ]] && command -v sysctl >/dev/null 2>&1; then
  cpu_model="$(sysctl -n machdep.cpu.brand_string 2>/dev/null || true)"
fi
isa="$(uname -m 2>/dev/null || true)"
if [[ "$isa" == "x86_64" ]] && grep -qm1 ' avx2' /proc/cpuinfo 2>/dev/null; then
  if grep -qm1 ' avx512f' /proc/cpuinfo 2>/dev/null; then
    isa="x86_64+avx512"
  else
    isa="x86_64+avx2"
  fi
fi
meta_args=(
  --meta "git_sha=${git_sha:-unknown}"
  --meta "compiler=${compiler:-unknown}"
  --meta "cxx_flags_release=${cxx_flags:-unknown}"
  --meta "ekm_threads=${EKM_THREADS:-default}"
  --meta "cpu_model=${cpu_model:-unknown}"
  --meta "isa=${isa:-unknown}"
)

run_bench() {
  local binary="$1" target="$2"
  shift 2
  local tmp
  # No suffix after the Xs: BSD/macOS mktemp rejects templates with one.
  tmp="$(mktemp "$target.XXXXXX")"
  tmp_files+=("$tmp")
  if ! "$binary" --json "$tmp" "$@" || [[ ! -s "$tmp" ]]; then
    rm -f "$tmp"
    echo "error: $(basename "$binary") failed — $target left untouched" >&2
    return 1
  fi
  # A bench that exits 0 but emits broken JSON (truncated table, a
  # printf that drifted from the closing braces) must not replace the
  # committed trajectory: validate before promoting. Skipped quietly
  # where python3 is unavailable — the exit-status and non-empty checks
  # above still hold.
  if command -v python3 >/dev/null 2>&1; then
    if ! python3 -m json.tool "$tmp" >/dev/null 2>&1; then
      rm -f "$tmp"
      echo "error: $(basename "$binary") emitted invalid JSON — $target left untouched" >&2
      return 1
    fi
  fi
  mv "$tmp" "$target"
  echo "wrote $target"
}

# --only: re-run one sim sweep and splice its section (plus fresh
# provenance) into the committed BENCH_sim.json textually — a
# brace-depth scan, not a parse/re-serialize round trip, so every
# untouched section keeps its exact bytes.
if [[ -n "$only" ]]; then
  sim_json="$repo_root/BENCH_sim.json"
  if [[ ! -s "$sim_json" ]]; then
    echo "error: --only splices into an existing $sim_json — run the full bench first" >&2
    exit 1
  fi
  if ! command -v python3 >/dev/null 2>&1; then
    echo "error: --only needs python3 for the section splice" >&2
    exit 1
  fi
  frag="$(mktemp "$sim_json.XXXXXX")"
  tmp_files+=("$frag")
  # The bench validates the sweep name itself (exit 2 listing the
  # sections), so a typo fails here before anything is touched.
  "$build_dir/bench_sim_scenarios" --json "$frag" --only "$only" "${meta_args[@]}"
  [[ -s "$frag" ]] || { echo "error: bench_sim_scenarios wrote no JSON" >&2; exit 1; }
  spliced="$(mktemp "$sim_json.XXXXXX")"
  tmp_files+=("$spliced")
  python3 - "$frag" "$sim_json" "$only" > "$spliced" <<'PYEOF'
import sys

frag_path, target_path, name = sys.argv[1], sys.argv[2], sys.argv[3]
frag = open(frag_path).read()
target = open(target_path).read()


def extract(txt, key):
    """Span of the two-space-indented `"key": <value>` member, where
    <value> is a {...} or [...] scanned to its matching close (string-
    aware, so a brace inside a scenario spec cannot derail it)."""
    anchor = '\n  "%s":' % key
    i = txt.find(anchor)
    if i < 0:
        return None
    start = i + 1  # first char of the member line
    p = i + len(anchor)
    while txt[p] in ' \t':
        p += 1
    open_ch = txt[p]
    close_ch = {'[': ']', '{': '}'}[open_ch]
    depth = 0
    in_str = False
    while True:
        c = txt[p]
        if in_str:
            if c == '\\':
                p += 2
                continue
            if c == '"':
                in_str = False
        elif c == '"':
            in_str = True
        elif c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return txt[start:p + 1], start, p + 1
        p += 1


frag_sec = extract(frag, name)
if frag_sec is None:
    sys.exit("splice: fragment JSON has no section '%s'" % name)
old_sec = extract(target, name)
if old_sec is not None:
    target = target[:old_sec[1]] + frag_sec[0] + target[old_sec[2]:]
else:
    # First run of a newly added sweep: append it after the last
    # section, just inside the closing brace.
    end = target.rfind('\n}')
    if end < 0:
        sys.exit("splice: %s does not end in a closing brace" % target_path)
    target = target[:end] + ',\n' + frag_sec[0] + target[end:]
frag_prov = extract(frag, 'provenance')
old_prov = extract(target, 'provenance')
if frag_prov is not None and old_prov is not None:
    target = target[:old_prov[1]] + frag_prov[0] + target[old_prov[2]:]
sys.stdout.write(target)
PYEOF
  if ! python3 -m json.tool "$spliced" >/dev/null 2>&1; then
    echo "error: splice produced invalid JSON — $sim_json left untouched" >&2
    exit 1
  fi
  mv "$spliced" "$sim_json"
  echo "wrote $sim_json (spliced $only)"
  exit 0
fi

# The sim bench's scenario strings are constants compiled into the
# bench itself and already emitted as each sweep's "scenario" field, so
# the provenance block only adds build/host facts, never duplicates them.
run_bench "$build_dir/bench_assign_kernel" "$repo_root/BENCH_assign.json" \
  "${meta_args[@]}" "$@"
run_bench "$build_dir/bench_sim_scenarios" "$repo_root/BENCH_sim.json" \
  "${meta_args[@]}"
