#!/usr/bin/env bash
# Fails when library code is reached only by tests.
#
#   tools/check_reachability.sh [build_dir]     (default: build-reach/)
#
# Builds the ekm library and every production binary at -O0 with one
# section per function and data object, links with --gc-sections, and
# lists each strong library function (nm type T) that survives in none
# of them. Production means: `ekm`, every bench/bench_*.cpp, every
# examples/*.cpp and e2ebench's e2e_bench, which is built through
# e2ebench/CMakeLists.txt; that project pulls in the whole repository,
# so one library build serves every binary. Tests do not count.
#
# -O0 because an optimizing build inlines a helper whose only callers
# sit in its own file, and the helper's symbol then survives nowhere.
#
# Exit 0: every strong function is reached or allowlisted. Exit 1: an
# unreached function, a stale allowlist entry, or a production target
# that was not built (bench_micro, for one, builds only when
# google-benchmark is installed).
set -euo pipefail
export LC_ALL=C

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-$root/build-reach}

# Unreached functions that stay, by their demangled name, each with its
# reason. Keep this list short: a test-only helper belongs in tests/.
allowlist=(
  # Tests write small matrices as literals (about 55 call sites).
  'ekm::Matrix::Matrix(std::initializer_list<std::initializer_list<double> >)'
)

binaries=("$build/e2e_bench" "$build/ekm/ekm")
for src in "$root"/bench/bench_*.cpp; do
  binaries+=("$build/ekm/$(basename "$src" .cpp)")
done
for src in "$root"/examples/*.cpp; do
  binaries+=("$build/ekm/example_$(basename "$src" .cpp)")
done
# Only what this build links counts, not a binary an earlier one left.
rm -f "${binaries[@]}"

generator=()
if command -v ninja > /dev/null; then generator=(-G Ninja); fi
cmake -S "$root/e2ebench" -B "$build" "${generator[@]}" \
  -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0 \
  -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" > /dev/null
if ! cmake --build "$build" -j "$(nproc)" \
  --target ekm e2e_bench ekm_cli benches examples > "$build/build.log"; then
  cat "$build/build.log"
  exit 1
fi

for bin in "${binaries[@]}"; do
  if [ ! -x "$bin" ]; then
    echo "error: production target $(basename "$bin") was not built" >&2
    exit 1
  fi
done

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
nm --defined-only "$build/ekm/libekm.a" 2> /dev/null |
  awk '$2 == "T" { print $3 }' | sort -u > "$work/library"
for bin in "${binaries[@]}"; do
  nm --defined-only "$bin" | awk '{ print $3 }'
done | sort -u > "$work/linked"
comm -23 "$work/library" "$work/linked" | c++filt | sort -u > "$work/unreached"
printf '%s\n' "${allowlist[@]}" | sort -u > "$work/allowed"

status=0
while IFS= read -r name; do
  echo "unreached: $name"
  status=1
done < <(comm -23 "$work/unreached" "$work/allowed")
comm -12 "$work/unreached" "$work/allowed" | sed 's/^/allowlisted: /'
while IFS= read -r name; do
  echo "stale allowlist entry (reached or gone): $name"
  status=1
done < <(comm -13 "$work/unreached" "$work/allowed")
total=$(c++filt < "$work/library" | sort -u | wc -l)
echo "$(wc -l < "$work/unreached") of $total strong library functions reach" \
  "no production binary; ${#allowlist[@]} allowlisted"
exit "$status"
