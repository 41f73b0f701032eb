#!/bin/sh
# End-to-end exercise of the serve stack: build a small population
# with loadgen mkdb, start pcaused on an ephemeral port, drive it
# with loadgen run --verify (every served verdict diffed against a
# direct store query), and check the BUSY/throughput gates. Invoked
# by ctest with the pcaused and loadgen binary paths as $1 and $2.
set -eu

if [ $# -lt 2 ]; then
    echo "usage: serve_smoke.sh <pcaused> <loadgen>" >&2
    exit 2
fi
PCAUSED="$1"
LOADGEN="$2"
for bin in "$PCAUSED" "$LOADGEN"; do
    if [ ! -x "$bin" ]; then
        echo "FAIL: binary not found or not executable: $bin" >&2
        exit 1
    fi
done

WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2> /dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM HUP
cd "$WORK"

"$LOADGEN" mkdb --out smoke.pcdb --records 500 | grep -q "500 records"

# Flags are read strictly: a value that is not a number in its flag's
# range is refused naming the flag (exit 1, never an abort), before
# anything is written or served.
refused() { # refused FLAG COMMAND...
    flag="$1"
    shift
    rc=0
    "$@" > refused.out 2>&1 || rc=$?
    if [ "$rc" -ne 1 ] || ! grep -q -- "$flag" refused.out; then
        echo "FAIL: $* exited $rc: $(cat refused.out)" >&2
        exit 1
    fi
}
refused --records "$LOADGEN" mkdb --out negative.pcdb --records -5
[ ! -e negative.pcdb ] || { echo "FAIL: a refused mkdb wrote" >&2; exit 1; }
refused --port "$PCAUSED" --db smoke.pcdb --port abc

"$PCAUSED" --db smoke.pcdb --port-file port.txt > server.log 2>&1 &
SERVER_PID=$!

# Wait for the port file (store load takes a moment).
tries=0
while [ ! -s port.txt ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
        echo "FAIL: pcaused never published its port" >&2
        cat server.log >&2
        exit 1
    fi
    if ! kill -0 "$SERVER_PID" 2> /dev/null; then
        echo "FAIL: pcaused exited during startup" >&2
        cat server.log >&2
        exit 1
    fi
    sleep 0.1
done
PORT="$(cat port.txt)"

# Closed + open loop with full divergence checking; conservative
# throughput floor (the perf bench enforces the real one).
"$LOADGEN" run --db smoke.pcdb --port "$PORT" --requests 200 \
    --connections 2 --open-rps 100 --verify yes --min-rps 50 \
    --json BENCH_serve_smoke.json

grep -q '"divergences": 0' BENCH_serve_smoke.json
grep -q '"pass": true' BENCH_serve_smoke.json

# The mmap backend serves the same file read-only.
kill "$SERVER_PID"
wait "$SERVER_PID" 2> /dev/null || true
SERVER_PID=""
rm -f port.txt

"$PCAUSED" --db smoke.pcdb --mmap yes --port-file port.txt \
    > server2.log 2>&1 &
SERVER_PID=$!
tries=0
while [ ! -s port.txt ]; do
    tries=$((tries + 1))
    [ "$tries" -gt 100 ] && {
        echo "FAIL: mmap pcaused never published its port" >&2
        cat server2.log >&2; exit 1; }
    sleep 0.1
done
grep -q "mmap backend" server2.log
PORT="$(cat port.txt)"

"$LOADGEN" run --db smoke.pcdb --port "$PORT" --requests 100 \
    --connections 2 --open-rps 100 --verify yes \
    --json BENCH_serve_mmap.json
grep -q '"divergences": 0' BENCH_serve_mmap.json

echo "serve smoke test passed"
