#!/usr/bin/env bash
# coldstore.sh — CI drill for the beyond-RAM serving path: build a
# dataset whose artifacts come from ehnad-mkstore (flat v3 snapshot +
# prebuilt HNSW graph + exact-truth file), boot ehnad with -store=mmap
# so the vector slabs are served straight from the mapping, and assert
#   (a) boot is O(1): the daemon is answering within seconds regardless
#       of dataset size (boot_s is printed for the log),
#   (b) quality holds: mean recall@10 over the truth queries clears
#       MIN_RECALL (ehnad-mkstore -check is the gate),
#   (c) a read pass — READS single-id queries over ids spread across
#       the store, one curl -sf each — completes with zero errors, and
#   (d) RSS stays bounded: process.resident_bytes from /healthz must
#       stay under RSS_BUDGET_MB after the read pass. The budget bounds
#       the whole process (Go heap, where the HNSW graph keeps its links
#       but no vectors, + resident pages of the mapping); the mapped
#       slab itself is reclaimable page cache, and the drill prints
#       mapped vs resident, and resident minus mapped (what the heap and
#       the binary hold), so regressions in either are visible in the CI
#       log.
#
# ulimit -v is deliberately NOT used: it caps address space, which is
# exactly what mmap-mode spends freely by design. The RSS gate reads
# the daemon's own /proc-backed gauge instead.
#
# Tunables (env): NODES DIM READS MIN_RECALL RSS_BUDGET_MB
#                 EF_SEARCH HNSW_M EF_CONSTRUCTION
set -euo pipefail
cd "$(dirname "$0")/.."

nodes="${NODES:-200000}"
dim="${DIM:-64}"
reads="${READS:-1000}"
min_recall="${MIN_RECALL:-0.95}"
rss_budget_mb="${RSS_BUDGET_MB:-512}"
# Isotropic Gaussian dim-64 data is HNSW's hardest case (no cluster
# structure, near-orthogonal vectors); a denser graph and a wide beam
# buy the recall the gate demands. Real embeddings cluster and need
# far less (the library defaults hold ≥0.95 at 100k on dim-32).
ef_search="${EF_SEARCH:-512}"
hnsw_m="${HNSW_M:-32}"
ef_construction="${EF_CONSTRUCTION:-400}"
port=$((20000 + RANDOM % 20000))
addr="127.0.0.1:$port"

workdir="$(mktemp -d)"
daemon_pid=""
cleanup() {
  if [ -n "$daemon_pid" ]; then
    kill "$daemon_pid" 2>/dev/null || true
    wait "$daemon_pid" 2>/dev/null || true
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/ehnad" ./cmd/ehnad
go build -o "$workdir/ehnad-mkstore" ./cmd/ehnad-mkstore

echo "== artifacts: $nodes × dim-$dim sq8 + hnsw graph + exact truth =="
"$workdir/ehnad-mkstore" -out "$workdir/data" -n "$nodes" -dim "$dim" \
  -precision sq8 -queries 100 -k 10 -hnsw \
  -m "$hnsw_m" -ef-construction "$ef_construction"

echo "== boot -store=mmap =="
"$workdir/ehnad" -addr "$addr" -store=mmap \
  -snapshot "$workdir/data/store.snap" \
  -index hnsw -hnsw-graph "$workdir/data/graph.gob" \
  -precision sq8 -ef-search "$ef_search" &
daemon_pid=$!

for _ in $(seq 1 100); do
  curl -sf "http://$addr/healthz" >/dev/null 2>&1 && break
  kill -0 "$daemon_pid" 2>/dev/null || { echo "coldstore: daemon died during boot" >&2; exit 1; }
  sleep 0.1
done
health="$(curl -sf "http://$addr/healthz")"

# healthz_num FIELD — pull a numeric field out of the /healthz JSON
# without depending on jq being present on the CI runner.
healthz_num() {
  grep -o "\"$1\":[0-9.]*" <<<"$health" | head -1 | cut -d: -f2
}
grep -q '"store_mode":"mmap"' <<<"$health" || { echo "coldstore: daemon is not in mmap mode" >&2; exit 1; }
echo "boot_s=$(healthz_num boot_s) mapped_bytes=$(healthz_num mapped_bytes)" \
  "mapped_payload_bytes=$(healthz_num mapped_payload_bytes)" \
  "mapped_resident_bytes=$(healthz_num mapped_resident_bytes)"

echo "== recall gate: mean recall@10 over the truth queries =="
"$workdir/ehnad-mkstore" -check "$workdir/data" -target "http://$addr" \
  -min-recall "$min_recall"

echo "== read pass: $reads single-id queries spread over $nodes ids =="
# curl -f fails on any status >= 400 or a refused connection, and the
# first failure stops the drill: finishing the loop is the zero-errors
# gate.
for i in $(seq 0 $((reads - 1))); do
  id=$((i * nodes / reads))
  curl -sf -o /dev/null -X POST "http://$addr/v1/neighbors" -d "{\"id\":$id,\"k\":10}" ||
    { echo "coldstore: read of id $id failed" >&2; exit 1; }
done
echo "read pass: $reads queries, 0 errors"

echo "== RSS gate: resident_bytes < ${rss_budget_mb}MB after the read pass =="
health="$(curl -sf "http://$addr/healthz")"
rss="$(healthz_num resident_bytes)"
mapped_res="$(healthz_num mapped_resident_bytes)"
[ -n "$rss" ] || { echo "coldstore: /healthz carries no process.resident_bytes" >&2; exit 1; }
echo "resident_bytes=$rss mapped_resident_bytes=$mapped_res budget=$((rss_budget_mb * 1024 * 1024))"
echo "resident_minus_mapped_bytes=$((rss - ${mapped_res:-0}))"
if [ "$rss" -ge $((rss_budget_mb * 1024 * 1024)) ]; then
  echo "coldstore: RSS $rss exceeds budget ${rss_budget_mb}MB" >&2
  exit 1
fi
echo "coldstore: ok"
