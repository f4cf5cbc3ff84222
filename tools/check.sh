#!/bin/sh
# Repository check: an interface step (every module under lib/ has an
# .mli, and no file under lib/server/ is longer than 600 lines), then
# `dune build @check-all` (full build, every test suite and every
# named gate).  The build compiles the two C files,
# lib/bignum/montmul.c (the Montgomery multiply) and
# lib/crypto/compress.c (the hash compressions, with a SHA-256 kernel
# on the x86 SHA extensions compiled through a function-level target
# attribute), with -Wall -Wextra -Werror, and the test suites run
# test_zmod and test_digest both native and as bytecode, so that the
# kernels' bytecode entry points are linked and exercised.
# test_digest checks the SHA-extension kernel against the portable one
# and shows those checks as skipped on a CPU without the extensions.
# The gates:
# crash-point enumeration, pooled commit-signing determinism, the
# network chaos soak, shard determinism, the lineage and proof suites
# with their smoke gates, the event-loop service gate and the
# toy-scale end-to-end benchmark of the real daemon.  Then five
# scripted provdbd sessions:
#   - daemon session: insert -> query -> verify, SIGTERM drain with a
#     stable root across restart, tamper -> remote verify exit 3;
#   - sharded daemon session: writes on both shards of a 2-shard
#     workspace, root-of-roots stable across drain + restart, then the
#     local verify/audit/checkpoint/stats/lineage select on the same
#     workspace, whose stats root must be the daemon's root-of-roots,
#     and a damaged audit.ckpt is refused;
#   - lineage session: insert -> derive -> lineage why -> tamper ->
#     detect;
#   - proof session: insert 40 rows -> remote prove VERIFIED (also past
#     the 32nd row, through a chunked table node) -> tamper -> remote
#     prove exit 3 -> sampled audit exit 3;
#   - stale-workspace session: a daemon killed after a remote
#     checkpoint, or with un-checkpointed WAL frames (an aggregate
#     among them), must not restart until `provdb recover`, which
#     brings back the pre-crash root; `provdb prune` survives
#     `provdb recover`, and an audit after prune stays clean; a WAL
#     whose magic was damaged after a crash is refused by both a
#     restart and `provdb recover`.
# With TEP_CHAOS_SEED set, the chaos soak also runs once more under
# that seed (the @chaos gate itself pins tep-chaos-0).
set -eu
cd "$(dirname "$0")/.."

echo "== interfaces (an .mli per lib/ module, lib/server/ files <= 600 lines) =="
iface_ok=1
for ml in $(find lib -name '*.ml' | sort); do
  if [ ! -f "${ml}i" ]; then
    echo "FAIL: $ml has no interface file ${ml}i"
    iface_ok=0
  fi
done
for ml in lib/server/*.ml; do
  lines=$(wc -l < "$ml")
  if [ "$lines" -gt 600 ]; then
    echo "FAIL: $ml is $lines lines long (at most 600)"
    iface_ok=0
  fi
done
[ "$iface_ok" -eq 1 ] || exit 1

echo "== dune build @check-all =="
dune build @check-all

if [ -n "${TEP_CHAOS_SEED:-}" ]; then
  echo "== chaos (network fault soak, seed $TEP_CHAOS_SEED) =="
  dune exec test/test_chaos.exe
fi

echo "== daemon session (scripted provdbd session) =="
PROVDB=_build/default/bin/provdb.exe
PROVDBD=_build/default/bin/provdbd.exe
ws=$(mktemp -d)/ws
ws2=$(mktemp -d)/ws
ws3=$(mktemp -d)/ws
ws4=$(mktemp -d)/ws
ws5=$(mktemp -d)/ws
ws6=$(mktemp -d)/ws
cleanup() {
  if [ -n "${daemon_pid:-}" ]; then
    kill "$daemon_pid" 2>/dev/null || true
    wait "$daemon_pid" 2>/dev/null || true
  fi
  rm -rf "$(dirname "$ws")" "$(dirname "$ws2")" "$(dirname "$ws3")" \
    "$(dirname "$ws4")" "$(dirname "$ws5")" "$(dirname "$ws6")"
}
trap cleanup EXIT

"$PROVDB" init "$ws" --table 'stock:sku,qty@int'
"$PROVDB" participant "$ws" alice

wait_for_socket() {
  i=0
  while [ ! -S "$1/provdbd.sock" ]; do
    i=$((i + 1))
    [ "$i" -le 100 ] || { echo "daemon socket never appeared"; exit 1; }
    sleep 0.1
  done
}

# explicit reactor flags: a small worker pool and a non-default idle
# timeout, exercising the provdbd flag surface
"$PROVDBD" "$ws" --io-threads 2 --idle-timeout 120 & daemon_pid=$!
wait_for_socket "$ws"
"$PROVDB" remote insert "$ws" --as alice --table stock --values 'WIDGET-1,100'
"$PROVDB" remote query "$ws" --as alice > /dev/null
"$PROVDB" remote verify "$ws" --as alice

# SIGTERM drain: the daemon must stop accepting, finish in-flight
# batches, checkpoint, and exit 0 — and a restarted daemon must come
# back with the same root hash it drained with.
root_before=$("$PROVDB" remote root-hash "$ws" --as alice)
kill -TERM "$daemon_pid"
drain_status=0
wait "$daemon_pid" || drain_status=$?
if [ "$drain_status" -ne 0 ]; then
  echo "FAIL: SIGTERM drain exited $drain_status, expected 0"
  exit 1
fi
daemon_pid=
"$PROVDBD" "$ws" & daemon_pid=$!
wait_for_socket "$ws"
root_after=$("$PROVDB" remote root-hash "$ws" --as alice)
if [ "$root_before" != "$root_after" ]; then
  echo "FAIL: root hash changed across SIGTERM drain + restart"
  echo "  before: $root_before"
  echo "  after:  $root_after"
  exit 1
fi
echo "drain: SIGTERM exited 0, root hash stable across restart"
kill -TERM "$daemon_pid"
wait "$daemon_pid"
daemon_pid=

"$PROVDB" tamper "$ws" --attack data

"$PROVDBD" "$ws" & daemon_pid=$!
wait_for_socket "$ws"
status=0
"$PROVDB" remote verify "$ws" --as alice || status=$?
kill -TERM "$daemon_pid"
wait "$daemon_pid" || true
if [ "$status" -ne 3 ]; then
  echo "FAIL: remote verify after tampering exited $status, expected 3"
  exit 1
fi
echo "daemon session: tampering reported over the wire (exit 3)"

echo "== sharded daemon session (scripted multi-shard provdbd session) =="
# Two tables the routing hash places on different shards of a 2-shard
# workspace: stock -> shard 1, orders -> shard 0.
"$PROVDB" init "$ws2" --shards 2 \
  --table 'stock:sku,qty@int' --table 'orders:id@int,amount@int'
"$PROVDB" participant "$ws2" alice

TEP_DOMAINS=4 "$PROVDBD" "$ws2" & daemon_pid=$!
wait_for_socket "$ws2"
"$PROVDB" remote insert "$ws2" --as alice --table stock --values 'WIDGET-1,100'
"$PROVDB" remote insert "$ws2" --as alice --table orders --values '1,250'
"$PROVDB" remote verify "$ws2" --as alice
stats=$("$PROVDB" remote stats "$ws2" --as alice)
echo "$stats"
if ! echo "$stats" | grep -q '^shard 1:'; then
  echo "FAIL: remote stats did not report a second shard"
  exit 1
fi

# kill + restart: the published root-of-roots must survive the drain
# and cover both shards identically on the way back up
roots_before=$("$PROVDB" remote root-hash "$ws2" --as alice)
kill -TERM "$daemon_pid"
drain_status=0
wait "$daemon_pid" || drain_status=$?
if [ "$drain_status" -ne 0 ]; then
  echo "FAIL: multi-shard SIGTERM drain exited $drain_status, expected 0"
  exit 1
fi
daemon_pid=
TEP_DOMAINS=4 "$PROVDBD" "$ws2" & daemon_pid=$!
wait_for_socket "$ws2"
roots_after=$("$PROVDB" remote root-hash "$ws2" --as alice)
kill -TERM "$daemon_pid"
wait "$daemon_pid" || true
daemon_pid=
if [ "$roots_before" != "$roots_after" ]; then
  echo "FAIL: root-of-roots changed across multi-shard drain + restart"
  echo "  before: $roots_before"
  echo "  after:  $roots_after"
  exit 1
fi
echo "sharded daemon session: writes landed on both shards, root-of-roots stable \
across restart"

# The local whole-database commands on the drained 2-shard workspace.
"$PROVDB" verify "$ws2"
"$PROVDB" audit "$ws2"
# A damaged audit checkpoint is refused, naming the file, instead of
# being replaced by a first audit that drops every anchor.
printf 'X' | dd of="$ws2/shard-000/audit.ckpt" bs=1 seek=0 count=1 \
  conv=notrunc 2>/dev/null
status=0
audit_out=$("$PROVDB" audit "$ws2" 2>&1) || status=$?
echo "$audit_out"
if [ "$status" -ne 1 ] || ! echo "$audit_out" | grep -q 'audit\.ckpt'; then
  echo "FAIL: provdb audit over a damaged audit.ckpt exited $status" \
    "or did not name the file"
  exit 1
fi
"$PROVDB" checkpoint "$ws2"
local_stats=$("$PROVDB" stats "$ws2")
echo "$local_stats"
local_root=$(echo "$local_stats" | sed -n 's/^root hash: *//p')
if [ "$local_root" != "$roots_after" ]; then
  echo "FAIL: local stats root differs from the daemon's root-of-roots"
  echo "  local:  $local_root"
  echo "  daemon: $roots_after"
  exit 1
fi
"$PROVDB" lineage select "$ws2" --table stock --where 'qty > 0' \
  --agg 'sum(qty)' --save sharded1 --as alice
"$PROVDB" verify "$ws2"
echo "sharded local session: verify, audit, checkpoint, stats and signed \
lineage select agree with the daemon"

echo "== lineage (scripted daemon lineage session) =="
"$PROVDB" init "$ws3" --table 'stock:sku,qty@int'
"$PROVDB" participant "$ws3" alice
"$PROVDB" insert "$ws3" --as alice --table stock --values 'WIDGET-1,100'
"$PROVDB" insert "$ws3" --as alice --table stock --values 'WIDGET-2,7'

"$PROVDBD" "$ws3" & daemon_pid=$!
wait_for_socket "$ws3"
# Rows 0 and 1 of the only table sit at deterministic forest oids 2
# and 5 (root 0, table 1, then row + two cell leaves each).
agg_out=$("$PROVDB" remote aggregate "$ws3" --as alice --oids 2,5 --value 107)
echo "$agg_out"
agg_oid=$(echo "$agg_out" | sed -n 's/^aggregate object #\([0-9]*\).*/\1/p')
if [ -z "$agg_oid" ]; then
  echo "FAIL: could not extract the aggregate oid"
  exit 1
fi
why=$("$PROVDB" remote lineage "$ws3" --as alice --kind why --oid "$agg_oid")
echo "$why"
if ! echo "$why" | grep -q 'o2\*o5'; then
  echo "FAIL: lineage why did not name both input rows"
  exit 1
fi
sel=$("$PROVDB" remote select "$ws3" --as alice --table stock \
  --where 'qty > 50' --agg count)
echo "$sel"
if ! echo "$sel" | grep -q 'VERIFIED'; then
  echo "FAIL: remote annotated select did not verify its annotation"
  exit 1
fi
kill -TERM "$daemon_pid"
wait "$daemon_pid" || true
daemon_pid=

# Save a signed annotation locally, tamper with the annotation store,
# and require verify to report the forgery with exit 3.
"$PROVDB" lineage select "$ws3" --table stock --where 'qty > 0' \
  --agg 'sum(qty)' --save audit1 --as alice
"$PROVDB" verify "$ws3"
"$PROVDB" tamper "$ws3" --attack annotation
status=0
"$PROVDB" verify "$ws3" || status=$?
if [ "$status" -ne 3 ]; then
  echo "FAIL: verify after annotation tampering exited $status, expected 3"
  exit 1
fi
echo "lineage: annotation tampering detected (exit 3)"

echo "== proof (scripted daemon proof session) =="
"$PROVDB" init "$ws4" --table 'stock:sku,qty@int'
"$PROVDB" participant "$ws4" alice

"$PROVDBD" "$ws4" & daemon_pid=$!
wait_for_socket "$ws4"
"$PROVDB" remote insert "$ws4" --as alice --table stock --values 'WIDGET-1,100'
"$PROVDB" remote insert "$ws4" --as alice --table stock --values 'WIDGET-2,7'
# Past 32 rows the table node commits through its chunk tree, so the
# proofs below also cross a chunked step.
i=3
while [ "$i" -le 40 ]; do
  "$PROVDB" remote insert "$ws4" --as alice --table stock \
    --values "WIDGET-$i,$i" > /dev/null
  i=$((i + 1))
done

# O(log n) path: the client fetches a membership proof + checksum
# chain and rechecks the whole hash chain locally against the
# published root it fetched independently.
prove_out=$("$PROVDB" remote prove "$ws4" --as alice --table stock --row 0)
echo "$prove_out"
if ! echo "$prove_out" | grep -q 'VERIFIED'; then
  echo "FAIL: remote prove did not verify a clean cell"
  exit 1
fi
"$PROVDB" remote prove "$ws4" --as alice --table stock --row 1 --col 1 \
  > /dev/null
wide_out=$("$PROVDB" remote prove "$ws4" --as alice --table stock --row 37)
echo "$wide_out"
if ! echo "$wide_out" | grep -q 'VERIFIED'; then
  echo "FAIL: remote prove did not verify a row past the 32nd"
  exit 1
fi

# proof-path counters must be visible remotely (second prove above
# also exercises the single-cell form)
pstats=$("$PROVDB" remote stats "$ws4" --as alice)
echo "$pstats"
if ! echo "$pstats" | grep -q 'proofs_served=[1-9]'; then
  echo "FAIL: remote stats did not count the served proofs"
  exit 1
fi

# sampled continuous audit: seed-reproducible, clean history -> exit 0.
# The sample is a function of the seed and the live oids alone, so its
# size is pinned: a change to the DRBG stream or the draw order fails
# here.
sample_out=$("$PROVDB" remote audit "$ws4" --as alice --sample 0.5 --seed check-sh)
echo "$sample_out"
if ! echo "$sample_out" | grep -qxF 'sampled 69 of 122 live object(s) (alpha = 0.5, seed "check-sh")'; then
  echo "FAIL: sampled audit did not draw the pinned sample for seed check-sh"
  exit 1
fi

kill -TERM "$daemon_pid"
wait "$daemon_pid" || true
daemon_pid=

# The tampered cell is row 0's; its proof crosses the chunked table
# node of the 40-row table.
"$PROVDB" tamper "$ws4" --attack data

"$PROVDBD" "$ws4" & daemon_pid=$!
wait_for_socket "$ws4"
status=0
"$PROVDB" remote prove "$ws4" --as alice --table stock --row 0 || status=$?
if [ "$status" -ne 3 ]; then
  echo "FAIL: remote prove after tampering exited $status, expected 3"
  exit 1
fi
status=0
"$PROVDB" remote audit "$ws4" --as alice --sample 1.0 --seed check-sh \
  || status=$?
kill -TERM "$daemon_pid"
wait "$daemon_pid" || true
daemon_pid=
if [ "$status" -ne 3 ]; then
  echo "FAIL: sampled audit after tampering exited $status, expected 3"
  exit 1
fi
echo "proof: chain mismatch and sampled audit both reported (exit 3)"

echo "== stale workspace (scripted crash regressions) =="
"$PROVDB" init "$ws5" --table 'stock:sku,qty@int'
"$PROVDB" participant "$ws5" alice

# The helpers act on the workspace in $sws.
sws=$ws5

# SIGKILL the daemon and remove its stale socket, as a crash leaves it.
crash_daemon() {
  kill -KILL "$daemon_pid"
  wait "$daemon_pid" 2>/dev/null || true
  daemon_pid=
  rm -f "$sws/provdbd.sock"
}

# A restart over the crashed workspace must exit 1 without listening
# and send the operator to `provdb recover`.
expect_refusal() {
  status=0
  timeout 20 "$PROVDBD" "$sws" > /dev/null 2> "$sws.err" || status=$?
  cat "$sws.err"
  if [ "$status" -ne 1 ] || [ -S "$sws/provdbd.sock" ]; then
    echo "FAIL: provdbd over a stale workspace ($1) exited $status, expected 1"
    exit 1
  fi
  if ! grep -q 'provdb recover' "$sws.err"; then
    echo "FAIL: the stale-workspace refusal ($1) does not name provdb recover"
    exit 1
  fi
}

# After recovery, a restarted daemon serves the root from before the crash.
expect_recovered_root() {
  "$PROVDB" recover "$sws" > /dev/null
  "$PROVDBD" "$sws" & daemon_pid=$!
  wait_for_socket "$sws"
  root_now=$("$PROVDB" remote root-hash "$sws" --as alice)
  if [ "$root_now" != "$1" ]; then
    echo "FAIL: recovered root differs from the pre-crash root ($2)"
    echo "  before: $1"
    echo "  after:  $root_now"
    exit 1
  fi
}

# (a) a remote checkpoint newer than the flat files, then a crash
"$PROVDBD" "$ws5" & daemon_pid=$!
wait_for_socket "$ws5"
"$PROVDB" remote insert "$ws5" --as alice --table stock --values 'WIDGET-1,100'
"$PROVDB" remote insert "$ws5" --as alice --table stock --values 'WIDGET-2,7'
"$PROVDB" remote checkpoint "$ws5" --as alice
root_crash=$("$PROVDB" remote root-hash "$ws5" --as alice)
crash_daemon
expect_refusal "checkpoint newer than the saved files"
expect_recovered_root "$root_crash" "checkpoint newer than the saved files"

# (b) an acknowledged write only in the WAL, then a crash
"$PROVDB" remote insert "$ws5" --as alice --table stock --values 'WIDGET-3,3'
root_crash=$("$PROVDB" remote root-hash "$ws5" --as alice)
crash_daemon
expect_refusal "un-checkpointed WAL frames"
expect_recovered_root "$root_crash" "un-checkpointed WAL frames"
kill -TERM "$daemon_pid"
wait "$daemon_pid"
daemon_pid=

# prune persists: `provdb recover` must not restore the pruned records
record_count() {
  "$PROVDB" stats "$ws5" | sed -n 's/^provenance records: *//p'
}
"$PROVDB" delete "$ws5" --as alice --table stock --row 0
before_prune=$(record_count)
"$PROVDB" prune "$ws5"
after_prune=$(record_count)
"$PROVDB" recover "$ws5" > /dev/null
after_recover=$(record_count)
if [ "$after_prune" -ge "$before_prune" ] || \
   [ "$after_recover" != "$after_prune" ]; then
  echo "FAIL: prune then recover: records $before_prune -> $after_prune" \
    "-> $after_recover"
  exit 1
fi
"$PROVDB" verify "$ws5"

# (c) on a fresh workspace, an aggregate and then an insert only in the
# WAL, then a crash: the insert lands on the pre-crash oids only if
# recovery redoes the aggregate, and otherwise verify reports tampering
"$PROVDB" init "$ws6" --table 'stock:sku,qty@int'
"$PROVDB" participant "$ws6" alice
sws=$ws6
"$PROVDBD" "$ws6" & daemon_pid=$!
wait_for_socket "$ws6"
"$PROVDB" remote insert "$ws6" --as alice --table stock --values 'WIDGET-1,100'
"$PROVDB" remote insert "$ws6" --as alice --table stock --values 'WIDGET-2,7'
# rows 0 and 1 sit at oids 2 and 5, as in the lineage session
"$PROVDB" remote aggregate "$ws6" --as alice --oids 2,5 --value 107
"$PROVDB" remote insert "$ws6" --as alice --table stock --values 'WIDGET-3,3'
root_crash=$("$PROVDB" remote root-hash "$ws6" --as alice)
crash_daemon
expect_refusal "an aggregate in the WAL"
expect_recovered_root "$root_crash" "an aggregate in the WAL"
status=0
"$PROVDB" remote verify "$ws6" --as alice || status=$?
kill -TERM "$daemon_pid"
wait "$daemon_pid" || true
daemon_pid=
if [ "$status" -ne 0 ]; then
  echo "FAIL: remote verify after recovering an aggregate exited $status, expected 0"
  exit 1
fi
status=0
recover_out=$("$PROVDB" recover "$ws6") || status=$?
echo "$recover_out"
if [ "$status" -ne 0 ] || echo "$recover_out" | grep -q 'MISMATCH'; then
  echo "FAIL: provdb recover after recovering an aggregate exited $status" \
    "or reported a MISMATCH"
  exit 1
fi

# audit across prune: row 0 is audited at seq 1, deleted, and pruned
# back to the seq-0 record the aggregate cites; prune forgets its audit
# mark, so the next audit is clean
"$PROVDB" audit "$ws6"
"$PROVDB" update "$ws6" --as alice --table stock --row 0 --column qty \
  --value 90
"$PROVDB" audit "$ws6"
"$PROVDB" delete "$ws6" --as alice --table stock --row 0
"$PROVDB" prune "$ws6"
status=0
"$PROVDB" audit "$ws6" || status=$?
if [ "$status" -ne 0 ]; then
  echo "FAIL: provdb audit after prune exited $status, expected 0"
  exit 1
fi

# (d) a crash with an acknowledged write in the WAL, then one flipped
# byte in the log's magic: both a restart and `provdb recover` must
# refuse the log, naming it, instead of reading it as empty
"$PROVDBD" "$ws6" & daemon_pid=$!
wait_for_socket "$ws6"
"$PROVDB" remote insert "$ws6" --as alice --table stock --values 'WIDGET-4,4'
crash_daemon
printf 'X' | dd of="$ws6/wal.log" bs=1 seek=0 count=1 conv=notrunc 2>/dev/null
expect_refusal "a damaged WAL magic"
status=0
recover_out=$("$PROVDB" recover "$ws6" 2>&1) || status=$?
echo "$recover_out"
if [ "$status" -eq 0 ] || ! echo "$recover_out" | grep -q 'wal\.log'; then
  echo "FAIL: provdb recover over a damaged WAL magic exited $status" \
    "or did not name the log file"
  exit 1
fi
echo "stale workspace: crashed daemons refused until recover, pre-crash roots \
restored (also past an aggregate), prune survives recover, a damaged WAL \
magic is refused"

echo "check: OK"
