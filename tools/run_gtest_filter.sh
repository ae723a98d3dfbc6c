#!/usr/bin/env bash
# Run one GoogleTest binary under --gtest_filter, but fail when the
# filter selects no test: gtest itself passes an empty selection, so a
# renamed or deleted test would otherwise drop out of a CI gate silently.
#
#   tools/run_gtest_filter.sh BINARY FILTER
set -euo pipefail
if [ "$#" -ne 2 ]; then
  echo "usage: $0 BINARY FILTER" >&2
  exit 2
fi
binary=$1
filter=$2
# --gtest_list_tests prints suites flush left and their tests indented.
count=$("$binary" --gtest_list_tests --gtest_filter="$filter" |
  grep -c '^  ' || true)
if [ "$count" -eq 0 ]; then
  echo "::error::$binary --gtest_filter='$filter' selects no tests" >&2
  exit 1
fi
echo "$binary: $count tests match '$filter'"
exec "$binary" --gtest_filter="$filter"
