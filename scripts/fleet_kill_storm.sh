#!/usr/bin/env bash
# Kill-storm test for the crash-tolerant characterization fleet.
#
# Runs an uninterrupted single-process reference characterization, then the
# same plan as a fleet: one coordinator plus four workers, of which two are
# SIGKILLed mid-run (victims and kill trigger derived from a pinned seed) and
# replaced, so the coordinator must expire the dead workers' leases and
# re-lease their shard ranges. The merged, fitted model file must be
# byte-identical to the reference.
#
# The kills are triggered by progress, not by a timer, so they land on any
# host speed: once the fleet directory holds the trigger number of done
# files, each victim is SIGKILLed the moment it is seen holding a lease.
#
# Usage: scripts/fleet_kill_storm.sh [BUILD_DIR]   (default: build)
# Env:   KILL_SEED   pins the victims and the done-count trigger (default 42)

set -u -o pipefail

BUILD_DIR="${1:-build}"
CLI="$BUILD_DIR/examples/hdpower_cli"
FLEET="$BUILD_DIR/examples/hdpower_fleet"
MODULE="csa_multiplier"
WIDTH=12
BUDGET=6000
SHARD_SIZE=250
LEASE_SHARDS=2
# Workers heartbeat between shards, so the TTL must comfortably exceed one
# shard's wall time (~0.3 s here); too tight a TTL re-leases live workers.
TTL_MS=2500
KILL_SEED="${KILL_SEED:-42}"

for bin in "$CLI" "$FLEET"; do
    if [[ ! -x "$bin" ]]; then
        echo "error: $bin not found or not executable (build the examples first)" >&2
        exit 1
    fi
done

WORK="$(mktemp -d)"
cleanup() {
    # shellcheck disable=SC2046
    kill -9 $(jobs -p) 2>/dev/null
    wait 2>/dev/null
    rm -rf "$WORK"
}
trap cleanup EXIT

# Deterministic storm schedule: which two of the four workers die, and after
# how many published ranges (the plan has 12).
VICTIM_A=$((KILL_SEED % 4 + 1))
VICTIM_B=$(((KILL_SEED / 4) % 4 + 1))
if [[ "$VICTIM_B" -eq "$VICTIM_A" ]]; then
    VICTIM_B=$((VICTIM_A % 4 + 1))
fi
KILL_AFTER_DONE=$((1 + KILL_SEED % 3)) # 1 .. 3 done files
echo "storm schedule (seed $KILL_SEED): kill worker $VICTIM_A and $VICTIM_B" \
     "while they hold leases, once $KILL_AFTER_DONE range(s) are done"

echo "== reference run (single process, uninterrupted) =="
"$CLI" characterize "$MODULE" "$WIDTH" --budget "$BUDGET" \
    --shard-size "$SHARD_SIZE" --threads 1 --models "$WORK/ref_models" \
    > /dev/null 2>&1 || exit 1

# True when worker id $2 holds a lease in fleet directory $1. Pure bash
# builtins: the poll loop must be fast enough for a fleet that finishes in
# about 0.1 s.
holds_lease() {
    local lease line
    for lease in "$1"/range_*.lease; do
        [[ -e "$lease" ]] || continue
        while IFS= read -r line; do
            [[ "$line" == "worker $2" ]] && return 0
        done 2>/dev/null < "$lease"
    done
    return 1
}

storm_round() {
    local round="$1"
    local fleet_dir="$WORK/fleet_$round"
    local models_dir="$WORK/fleet_models_$round"
    rm -rf "$fleet_dir" "$models_dir"

    char_flags=(--budget "$BUDGET" --shard-size "$SHARD_SIZE" --threads 1)

    "$FLEET" coordinate "$MODULE" "$WIDTH" --fleet "$fleet_dir" \
        --models "$models_dir" "${char_flags[@]}" \
        --lease-shards "$LEASE_SHARDS" --ttl "$TTL_MS" --poll 25 \
        --idle-timeout 120000 > "$WORK/coordinator_$round.log" &
    local coordinator_pid=$!

    local -a worker_pids=()
    for w in 1 2 3 4; do
        "$FLEET" work "$MODULE" "$WIDTH" --fleet "$fleet_dir" \
            "${char_flags[@]}" --worker-id "w$w" --poll 25 \
            > "$WORK/worker${w}_$round.log" 2>&1 &
        worker_pids[$w]=$!
    done

    # Poll the fleet's progress; kill each victim while it holds a lease
    # once KILL_AFTER_DONE ranges are done. Stop when both are dead or the
    # coordinator has finished. Each poll first waits 2 ms with a builtin
    # read on a pipe nobody writes (no fork), so the loop does not take a
    # core from the fleet it is timing.
    local killed=0
    local -A dead=()
    local -a done_files
    local pause
    exec {pause}<> <(:)
    while [[ "$killed" -lt 2 ]] && kill -0 "$coordinator_pid" 2>/dev/null; do
        read -r -t 0.002 -u "$pause"
        done_files=("$fleet_dir"/range_*.done)
        if [[ ! -e "${done_files[0]}" ||
            "${#done_files[@]}" -lt "$KILL_AFTER_DONE" ]]; then
            continue
        fi
        for victim in "$VICTIM_A" "$VICTIM_B"; do
            if [[ -z "${dead[$victim]:-}" ]] &&
                holds_lease "$fleet_dir" "w$victim" &&
                kill -9 "${worker_pids[$victim]}" 2>/dev/null; then
                dead[$victim]=1
                killed=$((killed + 1))
            fi
        done
    done
    exec {pause}<&-
    echo "killed $killed worker(s) mid-run"

    # Replacements, so the fleet finishes even though half of it died.
    for w in 5 6; do
        "$FLEET" work "$MODULE" "$WIDTH" --fleet "$fleet_dir" \
            "${char_flags[@]}" --worker-id "w$w" --poll 25 \
            > "$WORK/worker${w}_$round.log" 2>&1 &
        worker_pids[$w]=$!
    done

    if ! wait "$coordinator_pid"; then
        echo "error: coordinator failed" >&2
        cat "$WORK/coordinator_$round.log" >&2
        return 2
    fi
    for w in 1 2 3 4 5 6; do
        wait "${worker_pids[$w]}" 2>/dev/null
    done
    cat "$WORK/coordinator_$round.log"

    if [[ "$killed" -lt 2 ]]; then
        echo "(round $round: only $killed kill(s) landed — fleet finished too" \
             "fast, retrying)"
        return 1
    fi

    echo "== comparing model files (round $round) =="
    local status=0 count=0
    for ref in "$WORK"/ref_models/*; do
        name="$(basename "$ref")"
        if ! cmp -s "$ref" "$models_dir/$name"; then
            echo "MISMATCH: $name differs between reference and fleet run" >&2
            status=2
        fi
        count=$((count + 1))
    done
    if [[ "$count" -eq 0 ]]; then
        echo "error: reference run produced no model files" >&2
        return 2
    fi
    if [[ "$status" -eq 0 ]]; then
        echo "OK: $count model file(s) byte-identical after the kill storm"
    fi
    return "$status"
}

for round in 1 2 3; do
    storm_round "$round"
    result=$?
    if [[ "$result" -eq 0 ]]; then
        exit 0
    elif [[ "$result" -eq 2 ]]; then
        exit 1
    fi
done

echo "error: could not land 2 kills on a live fleet in 3 rounds" >&2
exit 1
