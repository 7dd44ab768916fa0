#!/usr/bin/env bash
# soak.sh — the adversarial durability harness, runnable locally:
#
#   1. churn soak under the race detector: concurrent upserts, deletes
#      and searches on one HNSW graph whose inserts reuse freed slots
#      (recall gate 0.9, slot count <= peak live count, zero-alloc check
#      after the churn), plus the overwrite/delete slot-reuse gate
#   2. crash/replay: a real daemon process SIGKILLed mid-write-stream
#      with a torn WAL tail injected, recovered and diffed against the
#      acknowledged-prefix reference — run under -race as well
#   3. WAL property tests (idempotent replay, composition, truncation
#      safety) under -race
#   4. coverage-guided fuzzing of the WAL frame decoder
#
# Usage: scripts/soak.sh            # ~1-2 minutes
#        FUZZTIME=5m scripts/soak.sh  # longer fuzz budget
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== churn soak + slot reuse (race) =="
go test -race -run 'TestChurnSoak|TestHNSWOverwriteChurn' -count=1 -v ./internal/ann/ | grep -E '^(=== RUN|--- (PASS|FAIL)|PASS|FAIL|ok)'

echo "== crash recovery + wal properties (race) =="
go test -race -count=1 ./internal/wal/ ./cmd/ehnad/

echo "== wal decoder fuzz (${FUZZTIME:-30s}) =="
go test -run=NONE -fuzz=FuzzWALDecode -fuzztime="${FUZZTIME:-30s}" ./internal/wal/

echo "soak: all green"
