#!/usr/bin/env bash
# Placement-service smoke: replay the golden api/v1 corpus
# (scripts/api_v1_corpus.jsonl) through the offline applier, lenient and
# strict, and compare with its recorded transcripts; then boot `sapsim
# serve` against the paper estate, drive a scripted
# place/dry-run/commit/resize/evacuate session through the HTTP front
# end and, on a second server, through the JSONL-over-TCP front end, and
# diff each transcript byte-for-byte against the offline applier running
# the same script (plus: the final state hashes must agree, /metrics must
# expose the serve families, and each server must exit within 10 s of
# the `shutdown` sent over its own front end).
#
# The session script is assembled in two phases because the commit token
# and the vm/node names are deterministic but estate-derived: a probe
# run of the static prefix (scripts/serve_smoke.jsonl) reveals them, and
# the full session replays that prefix with the dynamic suffix appended.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=${SAPSIM_BIN:-target/release/sapsim}
if [ ! -x "$BIN" ]; then
  cargo build --release -p sapsim-cli
fi

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"; [ -n "${SERVER_PID:-}" ] && kill "$SERVER_PID" 2>/dev/null || true' EXIT

field() { # file line-number python-expression-over-r
  python3 - "$1" "$2" <<'EOF' "$3"
import json, sys
path, line, expr = sys.argv[1], int(sys.argv[2]), sys.argv[3]
with open(path) as f:
    r = json.loads(f.readlines()[line - 1])
print(eval(expr))
EOF
}

# ---- phase 0: the golden api/v1 corpus ----------------------------------
# Every op and the wire's edge cases (nulls, integral floats, ranges,
# unknown fields, bad JSON), lenient and strict, must answer byte for
# byte as recorded.
"$BIN" serve --scale 0.05 --seed 0 --script scripts/api_v1_corpus.jsonl > "$WORK/corpus.out"
cmp "$WORK/corpus.out" scripts/api_v1_corpus.out
"$BIN" serve --scale 0.05 --seed 0 --strict --script scripts/api_v1_corpus.jsonl > "$WORK/corpus.strict.out"
cmp "$WORK/corpus.strict.out" scripts/api_v1_corpus.strict.out
echo "serve_smoke: api/v1 corpus transcripts match, lenient and strict"

# ---- phase 1: probe the deterministic ids -------------------------------
"$BIN" serve --script scripts/serve_smoke.jsonl > "$WORK/probe.out"
VM=$(field "$WORK/probe.out" 1 'r["placed"][0]["vm"]')
NODE=$(field "$WORK/probe.out" 1 'r["placed"][0]["node"]')
TOKEN=$(field "$WORK/probe.out" 2 'r["txn"]')
echo "serve_smoke: probe placed vm $VM on $NODE, plan token $TOKEN"

# ---- phase 2: the full session, offline ---------------------------------
cp scripts/serve_smoke.jsonl "$WORK/session.jsonl"
cat >> "$WORK/session.jsonl" <<EOF
{"schema":"sapsim.api/v1","op":"commit","txn":"$TOKEN"}
{"schema":"sapsim.api/v1","op":"resize","vm":$VM,"vcpus":8,"memory_mib":32768}
{"schema":"sapsim.api/v1","op":"evacuate","node":"$NODE"}
{"schema":"sapsim.api/v1","op":"state"}
EOF
"$BIN" serve --script "$WORK/session.jsonl" > "$WORK/offline.out"

# ---- phase 3: the same session against live servers ---------------------
echo '{"schema":"sapsim.api/v1","op":"shutdown"}' > "$WORK/shutdown.jsonl"

boot() { # server-output-file; sets SERVER_PID, HTTP_ADDR, TCP_ADDR
  "$BIN" serve --listen 127.0.0.1:0 --tcp 127.0.0.1:0 > "$1" &
  SERVER_PID=$!
  TCP_ADDR=""
  for _ in $(seq 1 200); do
    TCP_ADDR=$(sed -n 's/.*jsonl-tcp on \([0-9.:]*\).*/\1/p' "$1" | head -1)
    [ -n "$TCP_ADDR" ] && break
    sleep 0.05
  done
  [ -n "$TCP_ADDR" ] || { echo "serve_smoke: server never booted" >&2; exit 1; }
  HTTP_ADDR=$(sed -n 's/.*http on \([0-9.:]*\).*/\1/p' "$1" | head -1)
}

stop() { # client-option address: send `shutdown` there, then reap the server
  "$BIN" serve "$1" "$2" --script "$WORK/shutdown.jsonl" > /dev/null
  # A hung accept loop fails here instead of hanging the job.
  if ! timeout 10 tail --pid="$SERVER_PID" -s 0.1 -f /dev/null; then
    echo "serve_smoke: server still running 10 s after shutdown via $1" >&2
    exit 1
  fi
  wait "$SERVER_PID"
  SERVER_PID=""
}

# HTTP: one POST per line.
boot "$WORK/server-http.out"
curl -sf "http://$HTTP_ADDR/healthz" > /dev/null
"$BIN" serve --connect "$HTTP_ADDR" --script "$WORK/session.jsonl" > "$WORK/online-http.out"
curl -sf "http://$HTTP_ADDR/metrics" > "$WORK/metrics.prom"
grep -q 'sapsim_serve_requests_total' "$WORK/metrics.prom"
grep -q 'sapsim_serve_placements_total' "$WORK/metrics.prom"
grep -q 'sapsim_serve_request_us_bucket' "$WORK/metrics.prom"
stop --connect "$HTTP_ADDR"

# JSONL over TCP: one persistent connection; `shutdown` over the same port.
boot "$WORK/server-tcp.out"
"$BIN" serve --connect-tcp "$TCP_ADDR" --script "$WORK/session.jsonl" > "$WORK/online-tcp.out"
stop --connect-tcp "$TCP_ADDR"

# ---- phase 4: the differential checks -----------------------------------
OFFLINE_HASH=$(field "$WORK/offline.out" 6 'r["hash"]')
for leg in http tcp; do
  cmp "$WORK/offline.out" "$WORK/online-$leg.out"
  SERVER_HASH=$(sed -n 's/.*(state \([0-9a-f]*\)).*/\1/p' "$WORK/server-$leg.out" | head -1)
  if [ "$OFFLINE_HASH" != "$SERVER_HASH" ]; then
    echo "serve_smoke: state hash mismatch: offline $OFFLINE_HASH vs $leg server $SERVER_HASH" >&2
    exit 1
  fi
done
echo "serve_smoke: transcripts byte-identical, state hash $OFFLINE_HASH on the offline, HTTP and JSONL-TCP paths"
