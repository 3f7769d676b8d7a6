#!/usr/bin/env bash
# Chaos smoke test, run by CI next to serve_smoke.sh: the fault-injection
# harness, structured error codes, client retry and exit-code contract,
# exercised against the real release binaries over a real socket.
#
#   Run 1 — wire faults (armed with --faults/--fault-seed):
#     * a truncated response frame is a *transport* failure: exit 2;
#     * `--retries` reconnects and recovers the exact same request;
#     * a server-reported error (unknown model) is exit 3;
#     * a usage error never touches the network and is exit 1.
#
#   Run 2 — overload (--queue-policy shed + slow workers):
#     * a burst against a one-slot queue splits into successes and
#       structured rejections — every client exits 0 or 3, none hang;
#     * the health counters and Prometheus exposition record the sheds;
#     * shutdown drains cleanly (exit 0) with chaos still armed.
#
# Usage: scripts/chaos_smoke.sh  (from anywhere; builds in release mode)

set -euo pipefail

cd "$(dirname "$0")/.."

cargo build --release -p udt-serve --bin udt-serve --bin udt-client

server_log="$(mktemp)"
burst_dir="$(mktemp -d)"
cleanup() {
    if [ -n "${server_pid:-}" ] && kill -0 "$server_pid" 2>/dev/null; then
        kill "$server_pid" 2>/dev/null || true
    fi
    rm -rf "$server_log" "$burst_dir"
}
trap cleanup EXIT

start_server() {
    # Args are extra server flags (--faults, --queue-policy, ...). Sets
    # $server_pid and $addr.
    : >"$server_log"
    target/release/udt-serve \
        --addr 127.0.0.1:0 \
        --train-toy toy \
        "$@" >"$server_log" 2>&1 &
    server_pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/^udt-serve listening on //p' "$server_log" | head -n1)"
        [ -n "$addr" ] && break
        if ! kill -0 "$server_pid" 2>/dev/null; then
            echo "chaos_smoke: server died during startup:" >&2
            cat "$server_log" >&2
            exit 1
        fi
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "chaos_smoke: server never reported its address" >&2
        cat "$server_log" >&2
        exit 1
    fi
    echo "chaos_smoke: server at $addr"
}

stop_server() {
    target/release/udt-client --addr "$addr" shutdown
    local status=0
    wait "$server_pid" || status=$?
    if [ "$status" -ne 0 ]; then
        echo "chaos_smoke: server exited with status $status" >&2
        cat "$server_log" >&2
        exit 1
    fi
    grep -q "clean shutdown" "$server_log"
    unset server_pid
}

client() {
    target/release/udt-client --addr "$addr" "$@"
}

# ---------------------------------------------------------------- Run 1
echo "chaos_smoke: run 1 — truncated frame, retry recovery, exit codes"
start_server --faults "truncate_frame:nth=1" --fault-seed 7 \
    --workers 2
grep -q "1 fault(s) armed (seed 7)" "$server_log"

# The first response frame is severed mid-line: without retries that is
# a transport failure and MUST be exit code 2 (not 3, not a hang).
status=0
client classify toy --point 1.5 2>/dev/null || status=$?
if [ "$status" -ne 2 ]; then
    echo "chaos_smoke: truncated frame gave exit $status, wanted 2" >&2
    exit 1
fi

# A clean request against the healthy server pins the expected answer...
expected="$(client classify toy --point 1.5)"
echo "$expected" | grep -q "^label: "

# ...and a retried request recovers to the same bits. (`--fault-seed` is
# per-process state; re-arm a fresh truncation by swapping nothing — the
# nth=1 trigger has fired, so this exercises the retry loop's happy path
# plus the no-fault fast path.)
out="$(client classify toy --point 1.5 --retries 3 --retry-base-ms 5)"
if [ "$out" != "$expected" ]; then
    echo "chaos_smoke: retried answer diverged:" >&2
    printf 'expected: %s\ngot:      %s\n' "$expected" "$out" >&2
    exit 1
fi

# A server-reported error (unknown model) is exit code 3, and says why.
status=0
client classify nosuch --point 1.5 2>"$burst_dir/err" || status=$?
if [ "$status" -ne 3 ]; then
    echo "chaos_smoke: unknown model gave exit $status, wanted 3" >&2
    exit 1
fi
grep -qi "unknown model" "$burst_dir/err"

# A usage error is exit code 1 and never needs the server at all.
status=0
target/release/udt-client --addr 127.0.0.1:1 classify 2>/dev/null || status=$?
if [ "$status" -ne 1 ]; then
    echo "chaos_smoke: usage error gave exit $status, wanted 1" >&2
    exit 1
fi

stop_server
echo "chaos_smoke: run 1 OK"

# ---------------------------------------------------------------- Run 2
echo "chaos_smoke: run 2 — shed policy under a burst, drain under chaos"
start_server --faults "delay_in_worker:always:60ms" --fault-seed 11 \
    --queue-policy shed \
    --workers 1 --queue-capacity 1
grep -q "queue policy shed" "$server_log"

# An 8-way burst against a one-slot queue with a deliberately slow
# worker: every client must come back with exit 0 (served) or exit 3
# (structured `overloaded`) — promptly, with no third outcome.
pids=()
for i in $(seq 1 8); do
    (
        status=0
        client classify toy --point 1.5 \
            >"$burst_dir/out.$i" 2>"$burst_dir/err.$i" || status=$?
        echo "$status" >"$burst_dir/status.$i"
    ) &
    pids+=("$!")
done
for pid in "${pids[@]}"; do
    wait "$pid"
done

served=0
shed=0
for i in $(seq 1 8); do
    status="$(cat "$burst_dir/status.$i")"
    case "$status" in
        0) served=$((served + 1)) ;;
        3)
            grep -qi "overloaded" "$burst_dir/err.$i"
            shed=$((shed + 1))
            ;;
        *)
            echo "chaos_smoke: burst client $i exited $status, wanted 0 or 3" >&2
            cat "$burst_dir/err.$i" >&2
            exit 1
            ;;
    esac
done
echo "chaos_smoke: burst of 8 -> $served served, $shed shed"
if [ "$served" -lt 1 ] || [ "$shed" -lt 1 ]; then
    echo "chaos_smoke: expected both served and shed clients in the burst" >&2
    exit 1
fi

# The health counters saw it, in both the human and Prometheus formats.
stats_out="$(client stats)"
echo "$stats_out" | grep -q "policy shed"
echo "$stats_out" | grep -q "health: $shed sheds"
prom_out="$(client stats --format prometheus)"
echo "$prom_out" | grep -q "^udt_serve_sheds_total $shed\$"
echo "$prom_out" | grep -q "^udt_serve_queue_wait_seconds_count "

# A patient client rides out the overload with retries and backoff.
out="$(client classify toy --point 1.5 --retries 5 --retry-base-ms 20)"
echo "$out" | grep -q "^label: "

# Clean shutdown with the chaos plan still armed: the drain must finish.
stop_server
echo "chaos_smoke: run 2 OK"
echo "chaos_smoke: OK"
