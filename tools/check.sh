#!/bin/sh
# Repository check: full build, every test suite, an explicit run of
# the crash-point enumeration harness (the durability gate), the
# pooled commit-signing determinism gate, the network chaos soak, the
# shard determinism suite, the lineage engine gates (@prov unit suite,
# @prov-smoke annotated-query overhead gate), the remote verification
# gates (@proof unit suite, @proof-smoke bytes/latency gate), the
# event-loop service gate (@serve-loop) and the toy-scale end-to-end
# benchmark of the real daemon (@bench-e2e-smoke: every workload with
# all of its checks).  Then four scripted provdbd sessions:
#   - daemon session: insert -> query -> verify, SIGTERM drain with a
#     stable root across restart, tamper -> remote verify exit 3;
#   - sharded daemon session: writes on both shards of a 2-shard
#     workspace, root-of-roots stable across drain + restart;
#   - lineage session: insert -> derive -> lineage why -> tamper ->
#     detect;
#   - proof session: insert 40 rows -> remote prove VERIFIED (also past
#     the 32nd row, through a chunked table node) -> tamper -> remote
#     prove exit 3 -> sampled audit exit 3.
# Equivalent to `dune build @check-all` plus the daemon sessions.
set -eu
cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== crash-point enumeration =="
dune exec test/test_crash.exe

echo "== sign-parallel (pooled commit-signing determinism gate) =="
TEP_DOMAINS=4 dune exec test/test_sign_parallel.exe

echo "== chaos (network fault soak) =="
TEP_CHAOS_SEED="${TEP_CHAOS_SEED:-tep-chaos-0}" dune exec test/test_chaos.exe

echo "== shard (shard determinism suite) =="
TEP_DOMAINS=4 dune exec test/test_shard.exe

echo "== prov (lineage engine suite) =="
dune exec test/test_prov.exe

echo "== prov-smoke (annotated-query overhead gate) =="
TEP_SCALE=smoke TEP_BENCH_JSON=0 dune exec bench/main.exe -- prov

echo "== proof (remote verification suite) =="
dune exec test/test_proof_rpc.exe

echo "== proof-smoke (proof bytes / latency gate) =="
TEP_SCALE=smoke TEP_BENCH_JSON=0 dune exec bench/main.exe -- proof

echo "== serve-loop (event-loop reactor gate) =="
dune build @serve-loop

echo "== bench-e2e-smoke (end-to-end benchmark at toy scale) =="
dune build @bench-e2e-smoke

echo "== daemon session (scripted provdbd session) =="
PROVDB=_build/default/bin/provdb.exe
PROVDBD=_build/default/bin/provdbd.exe
ws=$(mktemp -d)/ws
ws2=$(mktemp -d)/ws
ws3=$(mktemp -d)/ws
ws4=$(mktemp -d)/ws
cleanup() {
  if [ -n "${daemon_pid:-}" ]; then
    kill "$daemon_pid" 2>/dev/null || true
    wait "$daemon_pid" 2>/dev/null || true
  fi
  rm -rf "$(dirname "$ws")" "$(dirname "$ws2")" "$(dirname "$ws3")" \
    "$(dirname "$ws4")"
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

TEP_DOMAINS=4 "$PROVDBD" "$ws2" --shards 2 & daemon_pid=$!
wait_for_socket "$ws2"
"$PROVDB" remote insert "$ws2" --as alice --table stock --values 'WIDGET-1,100'
"$PROVDB" remote insert "$ws2" --as alice --table orders --values '1,250'
"$PROVDB" remote verify "$ws2" --as alice
stats=$("$PROVDB" remote shard-stats "$ws2" --as alice)
echo "$stats"
if ! echo "$stats" | grep -q '^shard 1:'; then
  echo "FAIL: shard-stats did not report a second shard"
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

# sampled continuous audit: seed-reproducible, clean history -> exit 0
"$PROVDB" remote audit "$ws4" --as alice --sample 0.5 --seed check-sh

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

echo "check: OK"
