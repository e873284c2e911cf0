#!/usr/bin/env bash
# Usage-error contract of hdpower_cli: malformed numeric flags and widths,
# and flags that no longer exist, exit 2 with a message naming the flag; a
# zero budget passes the parser but the library rejects it (exit 1)
# without storing a model.
#
# Usage: tests/cli_usage_test.sh path/to/hdpower_cli
set -uo pipefail

cli=$1
models=$(mktemp -d)
trap 'rm -rf "$models"' EXIT
failures=0

# expect <exit code> <stderr pattern> <args...>
expect() {
  local want=$1 pattern=$2
  shift 2
  local err
  err=$("$cli" "$@" --models "$models" 2>&1 >/dev/null)
  local got=$?
  if [ "$got" -ne "$want" ] || ! grep -qF -- "$pattern" <<<"$err"; then
    echo "FAIL: hdpower_cli $* -> exit $got (want $want), stderr:"
    echo "$err" | head -3
    failures=$((failures + 1))
  else
    echo "ok: hdpower_cli $* -> exit $got"
  fi
}

expect 2 "invalid value '-1' for --threads" characterize ripple_adder 4 --threads -1
expect 2 "invalid value 'abc' for --budget" characterize ripple_adder 4 --budget abc
expect 2 "invalid value '-5' for --budget" characterize ripple_adder 4 --budget -5
expect 2 "invalid value '+5' for --budget" characterize ripple_adder 4 --budget +5
expect 2 "invalid value '12x' for --patterns" estimate ripple_adder 4 --data I --patterns 12x
expect 2 "invalid value '99999999999' for --threads" characterize ripple_adder 4 --threads 99999999999
expect 2 "invalid value '18446744073709551616' for --shard-size" characterize ripple_adder 4 --shard-size 18446744073709551616
expect 2 "invalid value '4x' for width" characterize ripple_adder 4x
expect 2 "invalid value '2.5' for --enhanced" characterize ripple_adder 4 --enhanced 2.5
expect 2 "unknown flag '--kernel'" estimate ripple_adder 4 --data I --kernel scalar
expect 2 "unknown flag '--warmup'" characterize ripple_adder 4 --warmup per-record
expect 1 "max_transitions must be positive" characterize ripple_adder 4 --budget 0

if [ -n "$(ls -A "$models")" ]; then
  echo "FAIL: rejected runs left files in the model library:"
  ls -A "$models"
  failures=$((failures + 1))
fi

if [ "$failures" -ne 0 ]; then
  echo "$failures check(s) failed"
  exit 1
fi
