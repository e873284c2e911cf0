#!/usr/bin/env bash
# Kill-storm test for the crash-tolerant characterization fleet.
#
# Two cases, each compared against an uninterrupted single-process
# reference characterization of the same plan:
#
#  - event: one coordinator plus four workers, of which two are SIGKILLed
#    mid-run while holding range leases (victims and kill trigger derived
#    from a pinned seed) and replaced, so the coordinator must expire the
#    dead workers' leases and re-lease their shard ranges.
#  - emulation: the power-emulation backend with its default glitch
#    calibration, which the fleet runs as leased pieces before any range.
#    The first worker seen named in a calibration piece lease is
#    SIGKILLed, so the coordinator must expire that lease and a survivor
#    or a replacement must run the piece again.
#
# In both cases the merged, fitted model file must be byte-identical to the
# reference.
#
# The kills are triggered by progress, not by a timer, so they land on any
# host speed: each victim is SIGKILLed the moment it is seen holding a
# lease of the case's kind (in the event case, once the fleet directory
# holds the trigger number of done files).
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
# how many published ranges (the plan has 12). The emulation case kills one
# worker, the first seen holding a calibration piece lease (checked from
# VICTIM_A on): the calibration phase lasts milliseconds, and a worker that
# starts late may find every piece taken.
VICTIM_A=$((KILL_SEED % 4 + 1))
VICTIM_B=$(((KILL_SEED / 4) % 4 + 1))
if [[ "$VICTIM_B" -eq "$VICTIM_A" ]]; then
    VICTIM_B=$((VICTIM_A % 4 + 1))
fi
KILL_AFTER_DONE=$((1 + KILL_SEED % 3)) # 1 .. 3 done files
echo "storm schedule (seed $KILL_SEED): event case kills worker $VICTIM_A and" \
     "$VICTIM_B while they hold range leases, once $KILL_AFTER_DONE range(s) are" \
     "done; emulation case kills the first worker seen holding a calibration lease"

# True when worker id $3 holds a lease matching "$1"/$2 (range_*.lease or
# calib_*.lease). Pure bash builtins: the poll loop must be fast enough for
# a fleet that finishes in about 0.1 s.
holds_lease() {
    local lease line
    for lease in "$1"/$2; do
        [[ -e "$lease" ]] || continue
        while IFS= read -r line; do
            [[ "$line" == "worker $3" ]] && return 0
        done 2>/dev/null < "$lease"
    done
    return 1
}

# storm_round <case> <round>: one fleet run of the case, with its kills.
# Returns 0 on a byte-identical model, 1 when the kills did not land (retry)
# and 2 on failure.
storm_round() {
    local case="$1" round="$2"
    local fleet_dir="$WORK/fleet_${case}_$round"
    local models_dir="$WORK/fleet_models_${case}_$round"
    rm -rf "$fleet_dir" "$models_dir"

    local -a char_flags=(--budget "$BUDGET" --shard-size "$SHARD_SIZE")
    local -a victims=("$VICTIM_A" "$VICTIM_B")
    local lease_glob="range_*.lease" kill_after=$KILL_AFTER_DONE
    local want_kills=2
    if [[ "$case" == emulation ]]; then
        char_flags+=(--backend emulation)
        victims=()
        for w in 0 1 2 3; do
            victims+=($(((VICTIM_A - 1 + w) % 4 + 1)))
        done
        want_kills=1
        lease_glob="calib_*.lease"
        kill_after=0
    fi

    local log="$WORK/${case}_$round"
    "$FLEET" coordinate "$MODULE" "$WIDTH" --fleet "$fleet_dir" \
        --models "$models_dir" "${char_flags[@]}" \
        --lease-shards "$LEASE_SHARDS" --ttl "$TTL_MS" --poll 25 \
        --idle-timeout 120000 > "${log}_coordinator.log" &
    local coordinator_pid=$!

    local -a worker_pids=()
    for w in 1 2 3 4; do
        "$FLEET" work "$MODULE" "$WIDTH" --fleet "$fleet_dir" \
            "${char_flags[@]}" --worker-id "w$w" --poll 25 \
            > "${log}_worker$w.log" 2>&1 &
        worker_pids[$w]=$!
    done

    # Poll the fleet's progress; kill each victim while it holds a lease of
    # the case's kind, once kill_after ranges are done. Stop when every
    # victim is dead or the coordinator has finished. Each poll first waits
    # 2 ms with a builtin read on a pipe nobody writes (no fork), so the
    # loop does not take a core from the fleet it is timing.
    local killed=0
    local -A dead=()
    local -a done_files
    local pause
    exec {pause}<> <(:)
    while [[ "$killed" -lt "$want_kills" ]] && kill -0 "$coordinator_pid" 2>/dev/null; do
        read -r -t 0.002 -u "$pause"
        if [[ "$kill_after" -gt 0 ]]; then
            done_files=("$fleet_dir"/range_*.done)
            if [[ ! -e "${done_files[0]}" ||
                "${#done_files[@]}" -lt "$kill_after" ]]; then
                continue
            fi
        fi
        for victim in "${victims[@]}"; do
            if [[ "$killed" -lt "$want_kills" && -z "${dead[$victim]:-}" ]] &&
                holds_lease "$fleet_dir" "$lease_glob" "w$victim" &&
                kill -9 "${worker_pids[$victim]}" 2>/dev/null; then
                dead[$victim]=1
                killed=$((killed + 1))
            fi
        done
    done
    exec {pause}<&-
    echo "killed $killed worker(s) mid-run"

    # Replacements, so the fleet finishes even though part of it died.
    for w in 5 6; do
        "$FLEET" work "$MODULE" "$WIDTH" --fleet "$fleet_dir" \
            "${char_flags[@]}" --worker-id "w$w" --poll 25 \
            > "${log}_worker$w.log" 2>&1 &
        worker_pids[$w]=$!
    done

    if ! wait "$coordinator_pid"; then
        echo "error: coordinator failed" >&2
        cat "${log}_coordinator.log" >&2
        return 2
    fi
    for w in 1 2 3 4 5 6; do
        wait "${worker_pids[$w]}" 2>/dev/null
    done
    cat "${log}_coordinator.log"

    if [[ "$killed" -lt "$want_kills" ]]; then
        echo "(round $round: only $killed kill(s) landed — fleet finished too" \
             "fast, retrying)"
        return 1
    fi
    # A victim killed mid-work leaves a lease only the coordinator's expiry
    # frees. None expired means every kill landed in the instant between a
    # publish and its lease release, with nothing left to redo.
    local expired
    expired=$(sed -n 's/^ *leases expired: *//p' "${log}_coordinator.log")
    if [[ "${expired:-0}" -lt 1 ]]; then
        echo "(round $round: no lease expired — the kills landed after their" \
             "work was published, retrying)"
        return 1
    fi

    echo "== comparing model files ($case, round $round) =="
    local status=0 count=0
    for ref in "$WORK/ref_models_$case"/*; do
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
        echo "OK: $count model file(s) byte-identical after the kill storm ($case)"
    fi
    return "$status"
}

# storm_case <case> [backend flags...]: the reference run, then up to three
# fleet rounds until the kills land.
storm_case() {
    local case="$1"
    shift
    echo "== $case: reference run (single process, uninterrupted) =="
    "$CLI" characterize "$MODULE" "$WIDTH" --budget "$BUDGET" \
        --shard-size "$SHARD_SIZE" --threads 1 "$@" \
        --models "$WORK/ref_models_$case" > /dev/null 2>&1 || return 1
    local round result
    for round in 1 2 3; do
        storm_round "$case" "$round"
        result=$?
        if [[ "$result" -eq 0 ]]; then
            return 0
        elif [[ "$result" -eq 2 ]]; then
            return 1
        fi
    done
    echo "error: could not land the $case kills on a live fleet in 3 rounds" >&2
    return 1
}

storm_case event || exit 1
storm_case emulation --backend emulation || exit 1
