#!/usr/bin/env bash
# Two-process replication smoke test: build cpserve, run a leader and a
# follower as separate processes, register a dataset and step a clean session
# on the leader, wait for the follower to catch up, and byte-diff every read
# answer between the two. Also checks the follower's write gate (421 + Leader
# header). Then stops both, restarts the follower alone from its data
# directory (the WAL it wrote while following), and diffs the same reads
# against the leader's saved answers. Exits non-zero on any divergence.
set -euo pipefail

LEADER_PORT="${LEADER_PORT:-18080}"
FOLLOWER_PORT="${FOLLOWER_PORT:-18081}"
LEADER="http://127.0.0.1:${LEADER_PORT}"
FOLLOWER="http://127.0.0.1:${FOLLOWER_PORT}"

WORK="$(mktemp -d)"
LEADER_PID=""
FOLLOWER_PID=""
cleanup() {
  [ -n "$FOLLOWER_PID" ] && kill "$FOLLOWER_PID" 2>/dev/null || true
  [ -n "$LEADER_PID" ] && kill "$LEADER_PID" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== building cpserve"
go build -o "$WORK/cpserve" ./cmd/cpserve

echo "== starting leader on $LEADER"
"$WORK/cpserve" -addr "127.0.0.1:${LEADER_PORT}" -data-dir "$WORK/leader" \
  -advertise "$LEADER" -wal-sync-interval 1ms >"$WORK/leader.log" 2>&1 &
LEADER_PID=$!

echo "== starting follower on $FOLLOWER"
"$WORK/cpserve" -addr "127.0.0.1:${FOLLOWER_PORT}" -data-dir "$WORK/follower" \
  -follow "$LEADER" -wal-sync-interval 1ms >"$WORK/follower.log" 2>&1 &
FOLLOWER_PID=$!

wait_http() { # url: poll until it answers 200
  for _ in $(seq 1 100); do
    if curl -fsS -o /dev/null "$1" 2>/dev/null; then return 0; fi
    sleep 0.1
  done
  echo "timed out waiting for $1" >&2
  return 1
}
wait_http "$LEADER/v1/stats"
wait_http "$FOLLOWER/v1/stats"

echo "== registering a dataset on the leader"
cat >"$WORK/register.json" <<'EOF'
{"name":"smoke","num_labels":2,"k":3,"examples":[
  {"candidates":[[0.0,0.1]],"label":0},
  {"candidates":[[0.2,0.0],[1.8,1.9]],"label":0},
  {"candidates":[[0.1,0.3]],"label":0},
  {"candidates":[[2.0,2.1]],"label":1},
  {"candidates":[[1.9,2.2],[0.1,0.2]],"label":1},
  {"candidates":[[2.2,1.8]],"label":1},
  {"candidates":[[0.4,0.2],[2.1,2.0]],"label":0},
  {"candidates":[[1.7,2.3]],"label":1}
]}
EOF
curl -fsS -X POST -H 'Content-Type: application/json' \
  --data-binary @"$WORK/register.json" "$LEADER/v1/datasets" >/dev/null

echo "== starting and stepping a clean session on the leader"
SESSION_ID="$(curl -fsS -X POST -H 'Content-Type: application/json' \
  -d '{"truth":[0,0,0,0,1,0,1,0],"val_points":[[0.1,0.1],[2.0,2.0],[1.0,1.0]]}' \
  "$LEADER/v1/datasets/smoke/clean" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
[ -n "$SESSION_ID" ] || { echo "no session id" >&2; exit 1; }
curl -fsS -X POST "$LEADER/v1/clean/$SESSION_ID/next?steps=2" >/dev/null

echo "== waiting for the follower to catch up"
lag() { curl -fsS "$FOLLOWER/v1/stats" | sed -n 's/.*"lag_records":\([0-9-]*\).*/\1/p'; }
for _ in $(seq 1 100); do
  [ "$(lag)" = "0" ] && break
  sleep 0.1
done
[ "$(lag)" = "0" ] || { echo "follower never caught up" >&2; curl -fsS "$FOLLOWER/v1/stats" >&2; exit 1; }
# Lag 0 plus a quiescent leader means every journaled record is applied.

echo "== diffing read answers byte for byte"
QUERY='{"points":[[0.15,0.1],[2.0,2.05],[1.1,0.9],[0.3,1.7]]}'
fetch_route() { # base method path [body] [accept]: the answer on stdout
  local base="$1" method="$2" path="$3" body="${4:-}" accept="${5:-application/json}"
  local args=(-fsS -X "$method" -H "Accept: $accept")
  [ -n "$body" ] && args+=(-H 'Content-Type: application/json' -d "$body")
  curl "${args[@]}" "$base$path"
}
same_or_die() { # want got what
  if ! diff -q "$1" "$2" >/dev/null; then
    echo "DIVERGED: $3" >&2
    diff "$1" "$2" >&2 || true
    exit 1
  fi
  echo "   identical: $3"
}
read_routes() { # runs "$1" once per read route: n method path [body] [accept]
  "$1" 1 GET  /v1/datasets
  "$1" 2 POST /v1/datasets/smoke/query "$QUERY"
  "$1" 3 POST /v1/datasets/smoke/query "$QUERY" application/x-ndjson
  "$1" 4 POST "/v1/clean/$SESSION_ID/query" "$QUERY"
  "$1" 5 POST "/v1/clean/$SESSION_ID/query" "$QUERY" application/x-ndjson
}
diff_live() { # the leader's answer is kept as leader.$1 for the restart leg
  local n="$1"; shift
  fetch_route "$LEADER" "$@" >"$WORK/leader.$n"
  fetch_route "$FOLLOWER" "$@" >"$WORK/follower.resp"
  same_or_die "$WORK/leader.$n" "$WORK/follower.resp" "$1 $2 (${4:-application/json})"
}
read_routes diff_live

echo "== checking the follower rejects writes with 421 + Leader header"
REJECT_HEADERS="$(curl -sS -o /dev/null -D - -X POST -H 'Content-Type: application/json' \
  --data-binary @"$WORK/register.json" "$FOLLOWER/v1/datasets")"
echo "$REJECT_HEADERS" | grep -q "^HTTP/1.1 421" || { echo "expected 421, got:"; echo "$REJECT_HEADERS"; exit 1; } >&2
echo "$REJECT_HEADERS" | grep -qi "^Leader: $LEADER" || { echo "missing Leader header:"; echo "$REJECT_HEADERS"; exit 1; } >&2

echo "== stopping both processes; restarting the follower alone from its data directory"
kill -TERM "$FOLLOWER_PID" "$LEADER_PID"
wait "$FOLLOWER_PID" "$LEADER_PID" 2>/dev/null || true
LEADER_PID=""
"$WORK/cpserve" -addr "127.0.0.1:${FOLLOWER_PORT}" -data-dir "$WORK/follower" \
  -follow "$LEADER" -wal-sync-interval 1ms >"$WORK/follower-restart.log" 2>&1 &
FOLLOWER_PID=$!
wait_http "$FOLLOWER/v1/stats"

echo "== diffing the recovered follower's answers against the leader's saved ones"
diff_recovered() {
  local n="$1"; shift
  fetch_route "$FOLLOWER" "$@" >"$WORK/follower.resp"
  same_or_die "$WORK/leader.$n" "$WORK/follower.resp" "$1 $2 (${4:-application/json}) after restart"
}
read_routes diff_recovered

echo "replication smoke: OK"
