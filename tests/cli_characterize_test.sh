#!/usr/bin/env bash
# hdpower_cli characterize simulates at most once: a run into a fresh
# model library collects records once (one progress line on stderr, one
# "collected" line on stdout) and stores its models; an identical second
# run finds every model stored, prints no progress, no "collected" line
# and no quality report (which is only ever made from a run's records),
# and leaves every model file byte-identical. Cases: basic, enhanced,
# two-corner --corners sweeps under both backends, and an event sweep over
# two load classes.
#
# Usage: tests/cli_characterize_test.sh path/to/hdpower_cli
set -uo pipefail

cli=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
failures=0

fail() {
  echo "FAIL: $*"
  failures=$((failures + 1))
}

# count <pattern> <file>: lines of <file> containing <pattern>.
count() {
  grep -cF -- "$1" "$2"
}

# twice <name> <model files expected> <characterize args...>
twice() {
  local name=$1 want_files=$2
  shift 2
  local models="$work/$name/models"
  local run before=$failures
  for run in 1 2; do
    if ! "$cli" characterize ripple_adder 4 --budget 2000 --threads 2 \
        --models "$models" "$@" >"$work/$name/out$run" 2>"$work/$name/err$run"; then
      fail "[$name] run $run exited non-zero:"
      head -3 "$work/$name/err$run"
      return
    fi
    if [ "$run" -eq 1 ]; then
      cp -a "$models" "$work/$name/after1"
    fi
  done

  local files
  files=$(find "$work/$name/after1" -type f | wc -l)
  [ "$files" -eq "$want_files" ] ||
    fail "[$name] first run stored $files model file(s), want $want_files"
  [ "$(count "characterizing:" "$work/$name/err1")" -eq 1 ] ||
    fail "[$name] first run did not print exactly one progress line"
  [ "$(count "collected " "$work/$name/out1")" -eq 1 ] ||
    fail "[$name] first run did not print exactly one collected line"
  [ "$(count "characterization quality:" "$work/$name/out1")" -eq "$want_files" ] ||
    fail "[$name] first run did not print one quality report per corner"
  [ "$(count "characterizing:" "$work/$name/err2")" -eq 0 ] ||
    fail "[$name] second run simulated (progress line on stderr)"
  [ "$(count "collected " "$work/$name/out2")" -eq 0 ] ||
    fail "[$name] second run printed a collected line"
  [ "$(count "characterization quality:" "$work/$name/out2")" -eq 0 ] ||
    fail "[$name] second run printed a quality report"
  diff -r "$work/$name/after1" "$models" >/dev/null ||
    fail "[$name] second run changed the model files"
  if [ "$failures" -eq "$before" ]; then
    echo "ok: [$name] $files model file(s), second run simulated nothing"
  fi
}

mkdir -p "$work"/{basic,enhanced,sweep_event,sweep_emulation,sweep_event_classes}
twice basic 1
twice enhanced 1 --enhanced
twice sweep_event 2 --corners 3.3:25,2.7:85
twice sweep_emulation 2 --enhanced 2 --backend emulation --corners 3.3:25,2.7:85:heavy
twice sweep_event_classes 2 --corners 3.3:25,3.3:25:heavy

if [ "$failures" -ne 0 ]; then
  echo "$failures check(s) failed"
  exit 1
fi
