#!/usr/bin/env bash
# Counts Rust lines under crates/ one way, so "fewer lines" has one meter.
#
# Per crate, over src/**/*.rs only (tests/ and benches/ are excluded):
#   total     every line
#   non-test  every line before the file's first `#[cfg(test)]` at column 0
#             (the test module; an indented one marks a single test-only item)
#   code      non-test lines that are neither blank nor a `//` comment
#
# A `vendor` line after TOTAL counts the offline stand-ins under vendor/ the
# same way. It is not part of TOTAL, so TOTAL stays comparable across changes
# that add or delete a stub, and the stub's lines still show.
#
# Usage: ci/loc.sh [repo-root]   (default: the checkout this script lives in)
set -euo pipefail
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

# Prints "total non-test code" over the *.rs files under the given dirs.
counts() {
  find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { in_test = 0 }
    { total++ }
    /^#\[cfg\(test\)\]/ { in_test = 1 }
    in_test { next }
    { nontest++ }
    /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    { code++ }
    END { print total + 0, nontest + 0, code + 0 }'
}

printf '%-12s %8s %9s %8s\n' crate total non-test code
sum_total=0 sum_nontest=0 sum_code=0
for dir in crates/*/; do
  crate=$(basename "$dir")
  read -r total nontest code < <(counts "$dir/src")
  printf '%-12s %8d %9d %8d\n' "$crate" "$total" "$nontest" "$code"
  sum_total=$((sum_total + total))
  sum_nontest=$((sum_nontest + nontest))
  sum_code=$((sum_code + code))
done
printf '%-12s %8d %9d %8d\n' TOTAL "$sum_total" "$sum_nontest" "$sum_code"
read -r total nontest code < <(counts vendor/*/src)
printf '%-12s %8d %9d %8d\n' vendor "$total" "$nontest" "$code"
