#!/usr/bin/env bash
# Net lines per crate, non-test vs test (ROADMAP item 6: every PR reports
# this). Usage: scripts/loc.sh [checkout-root]   (default: this checkout)
#
# A `src/**/*.rs` (or `examples/*.rs`) file's test lines run from its first
# line-start `#[cfg(test)]` to EOF; everything under `tests/` and `benches/`
# is test. `crates/bench/src/bin/e2e/` — the benchmark, frozen by
# BENCHMARK.json — is left out of every row.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

row() { # <name> <crate dir>
  local name=$1 dir=$2 non_test=0 test=0 f t n
  while IFS= read -r f; do
    n=$(wc -l <"$f")
    case "$f" in
      */tests/* | */benches/*) t=$n ;;
      *) t=$(awk '/^#\[cfg\(test\)\]/{f=1} f{c++} END{print c+0}' "$f") ;;
    esac
    test=$((test + t))
    non_test=$((non_test + n - t))
  done < <(find "$dir/src" "$dir/examples" "$dir/tests" "$dir/benches" -name '*.rs' \
    -not -path '*/bin/e2e/*' 2>/dev/null | sort)
  printf '%-22s %9d %9d\n' "$name" "$non_test" "$test"
  case "$dir" in crates/insta-core | crates/serve) pair=$((pair + non_test)) ;; esac
  total_non_test=$((total_non_test + non_test))
  total_test=$((total_test + test))
}

total_non_test=0
total_test=0
pair=0
printf '%-22s %9s %9s\n' crate non-test test
for dir in crates/*/; do
  row "${dir%/}/src" "${dir%/}"
done
row ". (umbrella crate)" .
printf '%-22s %9d %9d\n' "workspace" "$total_non_test" "$total_test"
# ROADMAP item 10's budget: non-test lines of the engine and the daemon.
printf '%-22s %9d %9s  (budget 11700)\n' "insta-core + serve" "$pair" ""
