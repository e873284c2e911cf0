#!/usr/bin/env bash
# Usage-error contract of the command-line binaries: malformed numeric
# flags and widths, a zero --repeat, and flags that no longer exist, exit
# 2 with a message naming the flag, and so do a --corner beside --corners and a corner
# listed twice in --corners; a zero budget passes hdpower_cli's parser but
# the library rejects it (exit 1) without storing a model.
#
# Usage: tests/cli_usage_test.sh path/to/hdpower_cli path/to/hdpowerd \
#            path/to/hdpowerd_client path/to/hdpower_fleet
set -uo pipefail

cli=$1
daemon=$2
client=$3
fleet=$4
models=$(mktemp -d)
scratch=$(mktemp -d)
trap 'rm -rf "$models" "$scratch"' EXIT
failures=0

# check <exit code> <stderr pattern> <binary> <args...>
check() {
  local want=$1 pattern=$2 bin=$3
  shift 3
  local err
  err=$("$bin" "$@" 2>&1 >/dev/null)
  local got=$?
  if [ "$got" -ne "$want" ] || ! grep -qF -- "$pattern" <<<"$err"; then
    echo "FAIL: $(basename "$bin") $* -> exit $got (want $want), stderr:"
    echo "$err" | head -3
    failures=$((failures + 1))
  else
    echo "ok: $(basename "$bin") $* -> exit $got"
  fi
}

# expect <exit code> <stderr pattern> <hdpower_cli args...>
expect() {
  check "$1" "$2" "$cli" "${@:3}" --models "$models"
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
expect 2 "invalid value '0' for --repeat" estimate ripple_adder 4 --data I --repeat 0
expect 2 "unknown flag '--kernel'" estimate ripple_adder 4 --data I --kernel scalar
expect 2 "unknown flag '--warmup'" characterize ripple_adder 4 --warmup per-record
expect 1 "max_transitions must be positive" characterize ripple_adder 4 --budget 0
# A sweep takes its corners from --corners alone, each once.
expect 2 "--corner and --corners are mutually exclusive" characterize ripple_adder 4 --corner 2.5:85 --corners 3.3:25,2.7:85
expect 2 "--corners lists corner v3300t250n twice" characterize ripple_adder 4 --corners 3.3:25,3.3:25

# The daemon, its client and hdpower_fleet parse numbers the same way,
# before they bind, connect or touch the fleet directory.
check 2 "invalid value '-1' for --workers" "$daemon" --socket "$scratch/d.sock" --workers -1
check 2 "invalid value '12x' for --queue" "$daemon" --socket "$scratch/d.sock" --queue 12x
check 2 "invalid value '-1' for --retries" "$client" --socket "$scratch/none.sock" --retries -1 ping
check 2 "invalid value 'abc' for --timeout-ms" "$client" --socket "$scratch/none.sock" --timeout-ms abc ping
check 2 "missing value for --retries" "$client" --retries
check 2 "unknown flag '--bogus'" "$client" --bogus 3 ping
check 2 "invalid value '0' for --repeat" "$client" --socket "$scratch/none.sock" estimate ripple_adder 4 --data I --repeat 0
# Commands read their flags before they connect, so an unknown one is
# refused whether or not a daemon answers.
check 2 "unknown flag '--bogus'" "$client" --socket "$scratch/none.sock" hold --bogus
check 2 "unknown flag '--bogus'" "$client" --socket "$scratch/none.sock" ping --bogus
check 2 "invalid value '-5' for --poll" "$fleet" work ripple_adder 4 --fleet "$scratch/fleet" --poll -5
check 2 "invalid value '3x' for --lease-shards" "$fleet" coordinate ripple_adder 4 --fleet "$scratch/fleet" --models "$models" --lease-shards 3x
# A worker id is one lease-file token and part of a publish path: a space
# or a slash is refused before the worker touches the fleet directory.
check 2 "invalid value 'a b' for --worker-id" "$fleet" work ripple_adder 8 --fleet "$scratch/fleet" --budget 2000 --worker-id "a b"
check 2 "invalid value 'a/b' for --worker-id" "$fleet" work ripple_adder 8 --fleet "$scratch/fleet" --budget 2000 --worker-id "a/b"
# Workers run on one thread each and the coordinator never simulates.
check 2 "unknown flag '--threads'" "$fleet" work ripple_adder 4 --fleet "$scratch/fleet" --threads 2

if [ -n "$(ls -A "$models")" ]; then
  echo "FAIL: rejected runs left files in the model library:"
  ls -A "$models"
  failures=$((failures + 1))
fi

if [ "$failures" -ne 0 ]; then
  echo "$failures check(s) failed"
  exit 1
fi
