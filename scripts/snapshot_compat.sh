#!/usr/bin/env bash
# Old snapshots still open — checked across commits, not inside one build.
#
#   scripts/snapshot_compat.sh <rev> [old-ddc-serve]
#
# Builds `ddc-serve` at <rev> (from a `git archive` of it, in a temp
# directory; pass an already-built binary of that revision as the second
# argument to skip the build), has it `--save-snapshot` a 2 000 × 32
# synthetic engine for each of the five operators × {l2, ip, cosine}
# (HNSW, plus one IVF cell for DDCopq, one HNSW cell with m = 4 whose
# level-0 lists sit at their 2m cap, and one 1 000 × 256 DDCres cell whose
# PCA fit runs at a power-of-two dimension) and answer three fixed queries, then
# boots the working tree's `ddc-serve --snapshot` on each container and
# requires byte-identical `/search` bodies (`ids`, `distances`, `counters`).
# The working tree's binary then builds each cell itself with the same
# flags and `--save-snapshot`, and its container must `cmp` equal to the
# one <rev> wrote: builds are identical across the two revisions. A change
# that deliberately moves a graph or an operator's state fails this part
# by design.
#
# Every persistence test in the suites is a round trip inside one build, so
# a symmetric change to `state_bytes`/`restore` passes all of them while
# orphaning every container on disk; this is the check that does not.
set -euo pipefail

REV=${1:?usage: scripts/snapshot_compat.sh <rev> [old-ddc-serve]}
ROOT=$(git rev-parse --show-toplevel)
WORK=$(mktemp -d)
SRV=
cleanup() {
  [ -n "$SRV" ] && kill "$SRV" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

OLD=${2:-}
if [ -z "$OLD" ]; then
  mkdir "$WORK/old"
  git -C "$ROOT" archive "$REV" | tar -x -C "$WORK/old"
  (cd "$WORK/old" && CARGO_TARGET_DIR="$WORK/old-target" cargo build --release --quiet -p ddc-server)
  OLD=$WORK/old-target/release/ddc-serve
fi
(cd "$ROOT" && cargo build --release --quiet -p ddc-server)
NEW=${CARGO_TARGET_DIR:-$ROOT/target}/release/ddc-serve

# query <seed> <dim>: one of three fixed queries (none of them zero:
# cosine normalises).
query() { awk -v s="$1" -v d="$2" 'BEGIN { printf "{\"k\":10,\"query\":["; for (i = 0; i < d; i++) printf "%s%.4f", (i ? "," : ""), sin(i * 0.7 + s) + s / 4; printf "]}" }'; }

# boot <binary> <args...>: starts a server, waits for its port, sets PORT.
boot() {
  rm -f "$WORK/port"
  "$@" --addr 127.0.0.1:0 --port-file "$WORK/port" --workers 1 >"$WORK/serve.log" 2>&1 &
  SRV=$!
  for _ in $(seq 1 240); do [ -s "$WORK/port" ] && break; sleep 0.25; done
  [ -s "$WORK/port" ] || { echo "server never came up: $*"; cat "$WORK/serve.log"; exit 1; }
  PORT=$(cat "$WORK/port")
}

# stop: stops the server `boot` started.
stop() {
  kill "$SRV"
  wait "$SRV" 2>/dev/null || true
  SRV=
}

# answers <file> <dim>: the three /search bodies, one per line; stops the
# server.
answers() {
  for s in 0 1 2; do
    curl -fsS -X POST --data "$(query $s "$2")" "http://127.0.0.1:$PORT/search"
    echo
  done >"$1"
  stop
}

CELLS=()
for dco in "exact" "adsampling(delta_d=8)" "ddcres(init_d=8,delta_d=8)" "ddcpca(init_d=8,delta_d=8)" "ddcopq(m=8,nbits=4)"; do
  for metric in l2 ip cosine; do
    CELLS+=("hnsw(m=8,ef_construction=60)|$dco|$metric")
  done
done
CELLS+=("ivf(nlist=16)|ddcopq(m=8,nbits=4)|l2")
# Saturated degree: with m = 4 most level-0 lists are full (2m ids), so the
# loader's conversion of full lists is checked across revisions too.
CELLS+=("hnsw(m=4,ef_construction=60)|ddcres(init_d=8,delta_d=8)|l2")
# 256-d, the deep256 benchmark's dimension: the PCA fit's eigensolver
# works at a power-of-two row length, where a layout change matters most.
CELLS+=("hnsw(m=8,ef_construction=60)|ddcres(init_d=32,delta_d=32)|l2|1000|256")

fail=0
for cell in "${CELLS[@]}"; do
  IFS='|' read -r index dco metric n dim <<<"$cell"
  n=${n:-2000} dim=${dim:-32}
  snap=$WORK/engine.snap
  rebuilt=$WORK/rebuilt.snap
  rm -f "$snap" "$rebuilt"
  flags=(--n "$n" --dim "$dim" --immutable --index "$index" --dco "$dco" --metric "$metric")
  boot "$OLD" "${flags[@]}" --save-snapshot "$snap"
  answers "$WORK/old.json" "$dim"
  [ -s "$snap" ] || { echo "FAIL $cell: $REV wrote no snapshot"; cat "$WORK/serve.log"; exit 1; }
  boot "$NEW" --snapshot "$snap"
  answers "$WORK/new.json" "$dim"
  if cmp -s "$WORK/old.json" "$WORK/new.json" && [ "$(grep -c '"ids":\[' "$WORK/new.json")" -eq 3 ]; then
    echo "ok   $index × $dco × $metric"
  else
    echo "FAIL $index × $dco × $metric: answers differ from $REV's"
    diff "$WORK/old.json" "$WORK/new.json" | head -8 || true
    fail=1
  fi
  boot "$NEW" "${flags[@]}" --save-snapshot "$rebuilt"
  stop
  if [ -s "$rebuilt" ] && cmp -s "$snap" "$rebuilt"; then
    echo "ok   $index × $dco × $metric: built identically"
  else
    echo "FAIL $index × $dco × $metric: the container this tree builds differs from $REV's"
    cmp "$snap" "$rebuilt" || true
    fail=1
  fi
done
[ "$fail" -eq 0 ] && echo "snapshot_compat: all ${#CELLS[@]} cells written at $REV open, answer and rebuild byte-identically"
exit "$fail"
