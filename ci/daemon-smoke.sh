#!/usr/bin/env bash
# End-to-end smoke for the cornetd service mode, run from the repo root
# with release binaries already built:
#
#   1. gate      clean bundle accepted (201), defective bundle refused (422)
#   2. complete  the accepted campaign runs to phase=completed; `cornet
#                watch` follows it to the end of its event stream and
#                prints exactly as many lines as the snapshot counts events
#   2b. blast    a bundle whose declared campaign races a live one is
#                refused (409 + CN0601 JSONL) while a disjoint bundle is
#                admitted (201); blast radii are owner-only (403 foreign)
#   3. kill      SIGKILL mid-campaign, restart on the same state dir; the
#                campaign resumes from its journal (blocks_recovered > 0)
#                and lands on the same fingerprint as an uninterrupted run
#                of the same spec — submitted past a campaign directory
#                that a crash left without a manifest (201, not a 500)
#   4. ingest    /v1/ingest accepts a JSONL sample feed, streams live
#                detections, and reports a go verdict on a clean uplift
#   5. shutdown  POST /v1/shutdown drains and the process exits cleanly
#   6. restart   cornetd restarted on the same state dir reads every
#                campaign's phase and outcome back from its journal: the
#                GET /v1/campaigns list equals the one before the shutdown,
#                the SIGKILL-resumed campaign included
set -euo pipefail

CORNET=${CORNET:-target/release/cornet}
CORNETD=${CORNETD:-target/release/cornetd}
WORK=$(mktemp -d)
STATE="$WORK/state"
PID=""
trap 'kill -9 $PID 2>/dev/null || true; rm -rf "$WORK"' EXIT

fail() {
  echo "FAIL: $*" >&2
  [ -f "$WORK/daemon.out" ] && sed 's/^/  daemon: /' "$WORK/daemon.out" >&2
  exit 1
}

start_daemon() {
  "$CORNETD" --listen 127.0.0.1:0 --state-dir "$STATE" --fsync always \
    --pool 4 --default-quota 2 >"$WORK/daemon.out" 2>&1 &
  PID=$!
  ADDR=""
  for _ in $(seq 1 100); do
    # tail -n1: never scrape a stale announcement if the log ever carries
    # more than one "listening on" line (e.g. extra startup output).
    ADDR=$(sed -n 's/^cornetd listening on //p' "$WORK/daemon.out" | tail -n1)
    [ -n "$ADDR" ] && return
    kill -0 "$PID" 2>/dev/null || fail "cornetd exited during startup"
    sleep 0.1
  done
  fail "cornetd never announced its listen address"
}

cli() { "$CORNET" "$@" --daemon "$ADDR"; }

# Every campaign of the default tenant: id, phase and outcome.
campaigns() {
  curl -s -H 'X-Cornet-Tenant: default' "http://$ADDR/v1/campaigns" \
    | jq -S '[.[] | {id, phase, outcome}]'
}

# POST /v1/shutdown and wait for the process to exit.
shutdown_daemon() {
  local code
  code=$(curl -s -o "$WORK/shutdown.json" -w '%{http_code}' -X POST "http://$ADDR/v1/shutdown")
  [ "$code" = 202 ] || fail "POST /v1/shutdown returned HTTP $code"
  for _ in $(seq 1 100); do
    if ! kill -0 "$PID" 2>/dev/null; then
      PID=""
      return
    fi
    sleep 0.1
  done
  fail "cornetd still running after shutdown"
}
snap() { cli status "$1"; }

# Poll a campaign to a terminal phase; print its final snapshot.
wait_terminal() {
  local id=$1 p
  for _ in $(seq 1 600); do
    p=$(snap "$id" | jq -r .phase)
    case "$p" in
      completed) snap "$id"; return ;;
      failed | cancelled) fail "campaign $id ended $p" ;;
    esac
    sleep 0.1
  done
  fail "campaign $id did not reach a terminal phase"
}

echo "== start cornetd =="
start_daemon
echo "   listening on $ADDR (state dir $STATE)"

echo "== gate: clean bundle accepted =="
ACCEPT=$(cli submit examples/check/clean.json)
echo "   $ACCEPT"
CID=$(echo "$ACCEPT" | jq -r .id)

echo "== gate: defective bundle refused =="
if cli submit examples/check/defective.json 2>"$WORK/refused.txt"; then
  fail "defective bundle was accepted"
fi
grep -q 'refused by the pre-deploy check gate' "$WORK/refused.txt"
echo "   refused with $(grep -c '"severity"' "$WORK/refused.txt") diagnostics"

echo "== accepted campaign completes; the follow stream is its event log =="
# `watch` returns when the stream ends, and the stream ends only once the
# campaign is terminal: the snapshot right after it is final.
cli watch "$CID" >"$WORK/watch.jsonl"
FINAL=$(snap "$CID")
[ "$(echo "$FINAL" | jq -r .phase)" = completed ] \
  || fail "stream of $CID ended before the campaign did: $FINAL"
WATCHED=$(wc -l <"$WORK/watch.jsonl")
EVENTS=$(echo "$FINAL" | jq -r .events)
[ "$WATCHED" -eq "$EVENTS" ] \
  || fail "cornet watch printed $WATCHED lines, the snapshot counts $EVENTS events"
echo "   followed $WATCHED events to phase=completed"

echo "== interference gate: racing live campaign refused, disjoint admitted =="
# Two bundles that declare campaigns on the same inventory node at the
# same slot (a CN0601 write-write race) and a third on a disjoint node.
# Scenario latency is simulated (virtual clock), so wall-clock runtime
# cannot keep the first campaign live; pausing it does, once the pause
# lands. It must land before the campaign ends, so the campaign has 1 600
# instances, far longer than a submit-then-pause round trip (at 160 a
# campaign often completed first and the pause was refused).
declared_bundle() {
  cat <<EOF
{"name": "ci-blast-$1", "scenario": {"nodes": $3, "latency_ms": 1},
 "workflows": [{"name": "wave-$1",
                "inputs": {"node": "string", "software_version": "string"},
                "sequence": ["software_upgrade"]}],
 "inventory": [{"name": "$2", "nf_type": "enb"}],
 "campaigns": [{"workflow": "wave-$1", "assignments": [[0, 1]]}]}
EOF
}
declared_bundle a smoke-enb-0 1600 >"$WORK/decl-a.json"
declared_bundle b smoke-enb-0 6 >"$WORK/decl-b.json"
declared_bundle c smoke-gnb-9 6 >"$WORK/decl-c.json"

AID=$(cli submit "$WORK/decl-a.json" | jq -r .id)
PHASE=$(curl -s -X POST -H 'X-Cornet-Tenant: default' \
  "http://$ADDR/v1/campaigns/$AID/pause" | jq -r .phase)
[ "$PHASE" = paused ] || fail "campaign $AID is $PHASE, not paused"
CODE=$(curl -s -o "$WORK/conflict.jsonl" -w '%{http_code}' -X POST \
  -H 'X-Cornet-Tenant: default' --data-binary @"$WORK/decl-b.json" \
  "http://$ADDR/v1/campaigns")
[ "$CODE" = 409 ] || fail "interfering submission returned HTTP $CODE (want 409)"
grep -q '"code":"CN0601"' "$WORK/conflict.jsonl" \
  || fail "409 body carries no CN0601 diagnostic: $(cat "$WORK/conflict.jsonl")"
CODE=$(curl -s -o "$WORK/disjoint.json" -w '%{http_code}' -X POST \
  -H 'X-Cornet-Tenant: default' --data-binary @"$WORK/decl-c.json" \
  "http://$ADDR/v1/campaigns")
[ "$CODE" = 201 ] || fail "disjoint submission returned HTTP $CODE (want 201)"
DID=$(jq -r .id "$WORK/disjoint.json")

# Blast radii are owner-only.
CODE=$(curl -s -o "$WORK/blast.json" -w '%{http_code}' \
  -H 'X-Cornet-Tenant: default' "http://$ADDR/v1/campaigns/$AID/blast")
[ "$CODE" = 200 ] || fail "GET blast for the owner returned HTTP $CODE"
grep -q '"writes"' "$WORK/blast.json" || fail "blast body has no effect sets"
CODE=$(curl -s -o /dev/null -w '%{http_code}' \
  -H 'X-Cornet-Tenant: intruder' "http://$ADDR/v1/campaigns/$AID/blast")
[ "$CODE" = 403 ] || fail "GET blast for a foreign tenant returned HTTP $CODE (want 403)"

curl -s -o /dev/null -X POST -H 'X-Cornet-Tenant: default' \
  "http://$ADDR/v1/campaigns/$AID/resume"
wait_terminal "$AID" >/dev/null
wait_terminal "$DID" >/dev/null
echo "   racing bundle refused with 409/CN0601, disjoint admitted as $DID, blast owner-only"

echo "== kill-safety: SIGKILL mid-campaign, restart, resume =="
cat >"$WORK/big.json" <<'EOF'
{"name": "ci-kill-smoke", "scenario": {"nodes": 160, "latency_ms": 1, "fault_rate_milli": 0}}
EOF
KID=$(cli submit "$WORK/big.json" | jq -r .id)
LIVE=0
for _ in $(seq 1 600); do
  LIVE=$(snap "$KID" | jq -r .blocks_live)
  [ "$LIVE" -ge 1 ] && break
  sleep 0.05
done
[ "$LIVE" -ge 1 ] || fail "campaign $KID never got a block in flight"
# What a crash between mkdir and the manifest write leaves behind: the id
# allocator must count past it, not collide with it.
mkdir "$STATE/campaigns/c999990"
{ kill -9 "$PID" && wait "$PID"; } 2>/dev/null || true
echo "   killed cornetd with $LIVE blocks journaled on campaign $KID"

start_daemon
FINAL=$(wait_terminal "$KID")
RECOVERED=$(echo "$FINAL" | jq -r .blocks_recovered)
FP=$(echo "$FINAL" | jq -r .outcome.fingerprint)
[ "$RECOVERED" -ge 1 ] || fail "resumed campaign recovered no journaled blocks"

# An uninterrupted run of the same spec must land on the same fingerprint.
RID=$(cli submit "$WORK/big.json" | jq -r .id) \
  || fail "submission after a restart over an orphan campaign directory was refused"
[ "$RID" = c999991 ] || fail "post-restart campaign is $RID (want c999991, past the orphan)"
REF=$(wait_terminal "$RID" | jq -r .outcome.fingerprint)
[ "$FP" = "$REF" ] || fail "fingerprint mismatch: resumed $FP vs uninterrupted $REF"
echo "   resumed $RECOVERED recovered blocks, fingerprint $FP matches clean run"

echo "== streaming ingest =="
# 100 ticks × 4 streams (2 study + 2 control) on a 60-minute grid; the
# study streams gain +25 from minute 1800 on, so the online verifier
# should both fire changepoint detections and report a "go" verdict for
# expect=improve. Mirrors the in-crate snapshot test configuration.
awk 'BEGIN {
  for (k = 0; k < 100; k++) {
    m = k * 60
    v = 100 + (k % 5) * 0.2
    shift = (m >= 1800) ? 25 : 0
    printf "{\"node\":\"study-0\",\"kpi\":\"thr\",\"minute\":%d,\"value\":%.1f}\n", m, v + shift
    printf "{\"node\":\"study-1\",\"kpi\":\"thr\",\"minute\":%d,\"value\":%.1f}\n", m, v + shift
    printf "{\"node\":\"control-0\",\"kpi\":\"thr\",\"minute\":%d,\"value\":%.1f}\n", m, v
    printf "{\"node\":\"control-1\",\"kpi\":\"thr\",\"minute\":%d,\"value\":%.1f}\n", m, v
  }
}' >"$WORK/ingest.jsonl"
INGEST_URL="http://$ADDR/v1/ingest?nodes=2&kpi=thr&change_minute=1800&expect=improve"

CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary @"$WORK/ingest.jsonl" "$INGEST_URL")
[ "$CODE" = 400 ] || fail "POST /v1/ingest without tenant header returned HTTP $CODE (want 400)"

CODE=$(curl -s -o "$WORK/receipt.json" -w '%{http_code}' -X POST \
  -H 'X-Cornet-Tenant: smoke' --data-binary @"$WORK/ingest.jsonl" "$INGEST_URL")
[ "$CODE" = 200 ] || fail "POST /v1/ingest returned HTTP $CODE"
ACCEPTED=$(jq -r .accepted "$WORK/receipt.json")
[ "$ACCEPTED" = 400 ] || fail "ingest accepted $ACCEPTED of 400 samples"

curl -s -H 'X-Cornet-Tenant: smoke' "http://$ADDR/v1/ingest" >"$WORK/ingest-snap.json"
PROCESSED=$(jq -r .stats.processed "$WORK/ingest-snap.json")
DECISION=$(jq -r '.verdicts[0].decision' "$WORK/ingest-snap.json")
DETS=$(jq -r '.detections | length' "$WORK/ingest-snap.json")
[ "$PROCESSED" = 400 ] || fail "ingest session processed $PROCESSED of 400 samples"
[ "$DECISION" = go ] || fail "streaming verdict was '$DECISION' (want go)"
[ "$DETS" -ge 1 ] || fail "streaming session reported no changepoint detections"

CODE=$(curl -s -o /dev/null -w '%{http_code}' -X DELETE -H 'X-Cornet-Tenant: smoke' "http://$ADDR/v1/ingest")
[ "$CODE" = 405 ] || fail "DELETE /v1/ingest returned HTTP $CODE (want 405)"
echo "   ingested 400 samples, $DETS detections, verdict go"

echo "== clean shutdown =="
BEFORE=$(campaigns)
shutdown_daemon

echo "== restart: every campaign reads its outcome back from its journal =="
start_daemon
AFTER=$(campaigns)
COUNT=$(echo "$BEFORE" | jq length)
[ "$COUNT" -ge 5 ] || fail "expected at least 5 campaigns before the restart: $BEFORE"
echo "$BEFORE" | jq -e 'all(.[]; .phase == "completed" and .outcome != null)' >/dev/null \
  || fail "a campaign was not completed before the restart: $BEFORE"
echo "$BEFORE" | jq -e --arg k "$KID" 'any(.[]; .id == $k)' >/dev/null \
  || fail "the SIGKILL-resumed campaign $KID is missing from the list"
jq -e -n --argjson a "$BEFORE" --argjson b "$AFTER" '$a == $b' >/dev/null \
  || fail "campaigns read back differently after a restart: before $BEFORE, after $AFTER"
echo "   $COUNT campaigns read back the same phase and outcome, $KID included"
shutdown_daemon

echo "daemon smoke OK: gate, completion, interference 409/201, SIGKILL+resume ($RECOVERED blocks recovered, fingerprint $FP), streaming ingest ($DETS detections, verdict go), clean shutdown, restart ($COUNT campaigns read back)"
