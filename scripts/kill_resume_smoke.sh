#!/usr/bin/env bash
# Kill-and-resume smoke test for the checkpointed characterization runtime.
#
# For each case, runs an uninterrupted reference characterization, then a
# checkpointed run that is SIGKILLed as soon as its journal appears on disk,
# resumes it, and requires the resumed model files to be byte-identical to
# the reference. Also checks that the journal (and any .tmp of its first
# publish) is retired after the clean finish. A kill that lands mid-append
# tears the journal's last block; the resume then sets the torn file aside
# as <journal>.corrupt and replays the whole blocks before the tear. Cases:
#   - single corner;
#   - a two-corner sweep (--corners), whose one journal holds both
#     corners' records in every shard block.
# Every run of both cases takes --shard-size 500 (12 shards; shard size is
# part of the plan, so the reference and resumed bytes still compare): at
# the default 2000 the 3 shards finish together on 4 threads, and the
# journal is often published and retired between two polls.
#
# Usage: scripts/kill_resume_smoke.sh [BUILD_DIR]   (default: build)

set -u -o pipefail

BUILD_DIR="${1:-build}"
CLI="$BUILD_DIR/examples/hdpower_cli"
MODULE="csa_multiplier"
WIDTH=16
BUDGET=6000

if [[ ! -x "$CLI" ]]; then
    echo "error: $CLI not found or not executable (build the examples first)" >&2
    exit 1
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# --enhanced keeps each run on a single pairs-mode collection pass, so the
# checkpoint journals belong to exactly one record collection.
run_characterize() {
    local models_dir="$1"
    shift
    "$CLI" characterize "$MODULE" "$WIDTH" --enhanced --budget "$BUDGET" \
        --models "$models_dir" "$@"
}

# kill_resume_case NAME [EXTRA_ARGS...]
# Kills the checkpointed run once its journal exists.
kill_resume_case() {
    local name="$1"
    shift
    local dir="$WORK/$name"
    local journal="$dir/ckpt.journal"
    mkdir -p "$dir"

    echo "== [$name] reference run (uninterrupted) =="
    run_characterize "$dir/ref_models" "$@" || return 1

    echo "== [$name] checkpointed run, killed mid-flight =="
    local interrupted=0
    local attempt pid
    for attempt in 1 2 3; do
        rm -rf "$dir/res_models" "$journal"*
        # Background the binary itself (not a shell function) so $! is the
        # CLI process and kill -9 actually hits it.
        "$CLI" characterize "$MODULE" "$WIDTH" --enhanced --budget "$BUDGET" \
            --models "$dir/res_models" --checkpoint "$journal" "$@" &
        pid=$!
        # Wait for the first journal publish, then kill hard. If the run is
        # too fast and finishes first, the journal is retired and we retry.
        for _ in $(seq 1 2000); do
            if [[ -f "$journal" ]] || ! kill -0 "$pid" 2>/dev/null; then
                break
            fi
            sleep 0.005
        done
        if kill -0 "$pid" 2>/dev/null; then
            kill -9 "$pid"
            wait "$pid" 2>/dev/null
            if [[ -f "$journal" ]]; then
                interrupted=1
                break
            fi
            echo "(attempt $attempt: killed before the first publish, retrying)"
        else
            wait "$pid" 2>/dev/null
            echo "(attempt $attempt: run finished before we could kill it, retrying)"
        fi
    done

    if [[ "$interrupted" -ne 1 ]]; then
        echo "error: [$name] could not interrupt a run with a published journal" >&2
        return 1
    fi
    echo "journal survives the kill: $(wc -c < "$journal") bytes"

    echo "== [$name] resumed run =="
    local resume_log="$dir/resume.log"
    run_characterize "$dir/res_models" --checkpoint "$journal" "$@" \
        | tee "$resume_log" || return 1

    if ! grep -q "resumed" "$resume_log"; then
        echo "error: [$name] resumed run did not report resuming from the journal" >&2
        return 1
    fi
    if [[ -e "$journal.corrupt" ]]; then
        echo "(the kill tore the last block; the resume salvaged the prefix)"
    fi
    local leftover
    for leftover in "$journal" "$journal.tmp"; do
        if [[ -e "$leftover" ]]; then
            echo "error: [$name] $(basename "$leftover") was left behind" \
                "after the clean finish" >&2
            return 1
        fi
    done

    echo "== [$name] comparing model files =="
    local status=0 count=0 ref model
    for ref in "$dir"/ref_models/*; do
        model="$(basename "$ref")"
        if ! cmp -s "$ref" "$dir/res_models/$model"; then
            echo "MISMATCH: [$name] $model differs between reference and resumed run" >&2
            status=1
        fi
        count=$((count + 1))
    done
    if [[ "$count" -eq 0 ]]; then
        echo "error: [$name] reference run produced no model files" >&2
        return 1
    fi
    if [[ "$status" -eq 0 ]]; then
        echo "OK: [$name] $count model file(s) byte-identical after kill + resume"
    fi
    return "$status"
}

status=0
kill_resume_case single --shard-size 500 || status=1
kill_resume_case sweep --corners 3.3:25,2.5:85 --shard-size 500 || status=1
exit "$status"
