#!/usr/bin/env bash
# CI check: build and test the repo in two configurations —
#
#   1. Release        — the tier-1 suite as shipped.
#   2. ThreadSanitizer (-DTURBOBC_SANITIZE=thread) — the same suite with the
#      host-parallel execution engine under TSan. The engine's contract is
#      that its only shared-memory traffic is either synchronized (pool
#      hand-off), relaxed-atomic (buffer element access in concurrent mode)
#      or deferred to the single-threaded merge (float atomic adds), so the
#      suite must be race-free.
#
# plus a focused ASan+UBSan stage (-DTURBOBC_SANITIZE=address): the
# direction-optimizing smoke and the differential fuzz smoke — the paths
# that juggle the bitmap buffers, the widened convergence-flag readback,
# and the oracle's mode cross-checks — and the simulator's own suite plus
# the per-launch goldens, which drive the cost model's fixed-size stack
# sector buffers (an overflow there is silent in Release), so heap, stack
# errors and UB surface without paying for a third full-suite run.
#
# Usage: ci/check.sh [build-dir-prefix]   (default: build-ci)
set -euo pipefail

cd "$(dirname "$0")/.."
prefix="${1:-build-ci}"

run_config() {
  local name="$1" dir="$2"
  shift 2
  echo "=== [$name] configure ==="
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release "$@"
  echo "=== [$name] build ==="
  cmake --build "$dir" -j "$(nproc)"
  echo "=== [$name] ctest ==="
  (cd "$dir" && ctest --output-on-failure -j "$(nproc)")
  # Differential fuzz smoke: fixed seed, fixed budget, every oracle
  # invariant armed. Any violation (non-zero exit) fails CI; minimized
  # reproducers land in the build dir for post-mortem.
  echo "=== [$name] fuzz-smoke ==="
  "$dir/src/tools/turbobc_fuzz" --seed 1 --budget 2000 \
    --corpus-dir "$dir/fuzz-failures"
  # Approximate-BC smoke: generate a mid-size scale-free graph, run the
  # adaptive estimator end to end through the CLI on both engines, and pin
  # the bit-identical-at-any-width contract by diffing --threads 1 vs 8.
  # --max-sources keeps the wall clock CI-friendly on small runners.
  echo "=== [$name] approx-smoke ==="
  local cli="$dir/src/tools/turbobc_cli" g="$dir/approx_smoke.mtx"
  "$cli" generate --family preferential --n 2000 --m-attach 3 --out "$g"
  "$cli" approx "$g" --seed 1 --max-sources 256 --json --threads 1 \
    > "$dir/approx_smoke_t1.json"
  "$cli" approx "$g" --seed 1 --max-sources 256 --json --threads 8 \
    > "$dir/approx_smoke_t8.json"
  cmp "$dir/approx_smoke_t1.json" "$dir/approx_smoke_t8.json"
  "$cli" approx "$g" --seed 1 --max-sources 256 --engine batched \
    --sampler degree --json > /dev/null
  # CLI misuse must exit 2 (usage), not crash or exit 1.
  if "$cli" approx "$g" --epsilon banana > /dev/null 2>&1; then
    echo "approx-smoke: malformed flag should have failed" >&2; exit 1
  fi
  # Distributed-engine smoke: both strategies on a K=4 modeled topology over
  # a small suite graph, --verify pinning the BC against sequential Brandes,
  # and the repo-wide determinism contract pinned end to end by diffing the
  # full --devices 4 JSON (BC, modeled times, comm bytes, shard rows) at
  # pool width 8 against width 1, byte for byte.
  echo "=== [$name] dist-smoke ==="
  local dg="$dir/dist_smoke.mtx"
  "$cli" generate --family mycielski --order 7 --out "$dg"
  "$cli" bc "$dg" --exact --devices 4 --verify > /dev/null
  "$cli" bc "$dg" --exact --devices 4 --dist partition --verify > /dev/null
  "$cli" bc "$dg" --exact --devices 4 --dist partition --json --threads 1 \
    > "$dir/dist_smoke_t1.json"
  "$cli" bc "$dg" --exact --devices 4 --dist partition --json --threads 8 \
    > "$dir/dist_smoke_t8.json"
  cmp "$dir/dist_smoke_t1.json" "$dir/dist_smoke_t8.json"
  # The partitioned level driver's two other paths: the directed
  # device-order ring (a directed erdos-renyi graph) and the
  # direction-optimizing sweep (--advance auto). Each must print the
  # single-device ranking and Brandes line with the variant pinned on both
  # sides (DESIGN.md §8.3), and be pool-width invariant byte for byte.
  local ddg="$dir/dist_smoke_directed.mtx"
  "$cli" generate --family erdos-renyi --n 400 --arcs 2400 --seed 3 \
    --out "$ddg"
  dist_partition_check "$cli" "$dir" directed "$ddg"
  dist_partition_check "$cli" "$dir" auto "$dg" --advance auto
  # Out-of-range user input is misuse (exit 2), never an internal check.
  expect_usage "bc --source past n" "$cli" bc "$dg" --source 1000
  expect_usage "bfs --source past n" "$cli" bfs "$dg" --source 1000
  expect_usage "bc --batch 65" "$cli" bc "$dg" --exact --batch 65
  expect_usage "approx --batch 65" "$cli" approx "$dg" --engine batched \
    --batch 65
  expect_usage "dist --batch 65" "$cli" bc "$dg" --exact --devices 2 \
    --dist partition --batch 65
  expect_usage "bc --batch --edge-bc" "$cli" bc "$dg" --exact --batch 8 \
    --edge-bc
  "$cli" info --json > /dev/null
  dobfs_smoke "$name" "$dir"
  msbfs_smoke "$name" "$dir"
  serve_smoke "$name" "$dir"
  ooc_smoke "$name" "$dir"
  daemon_smoke "$name" "$dir"
  hybrid_smoke "$name" "$dir"
}

# Run "$@" and require the CLI-misuse exit code 2; $1 names the probe.
expect_usage() {
  local what="$1" rc=0
  shift
  "$@" > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "$what should exit 2, got $rc" >&2; exit 1
  fi
}

# One partitioned configuration (extra flags in "$@") against the
# single-device engine, both pinned to scCSC: the "top" ranking and the
# Brandes verification line must match, and the full --devices 4 JSON must
# be identical at --threads 1 and 8.
dist_partition_check() {
  local cli="$1" dir="$2" tag="$3" g="$4"
  shift 4
  local out="$dir/dist_smoke_$tag"
  "$cli" bc "$g" --exact --variant sccsc --verify --json "$@" \
    | grep -E '"top"|"verify_max_rel_err"' > "${out}_single.txt"
  "$cli" bc "$g" --exact --variant sccsc --devices 4 --dist partition \
    --verify --json --threads 1 "$@" > "${out}_t1.json"
  "$cli" bc "$g" --exact --variant sccsc --devices 4 --dist partition \
    --verify --json --threads 8 "$@" > "${out}_t8.json"
  cmp "${out}_t1.json" "${out}_t8.json"
  grep -E '"top"|"verify_max_rel_err"' "${out}_t1.json" > "${out}_dist.txt"
  cmp "${out}_single.txt" "${out}_dist.txt"
}

# Hybrid co-execution smoke: `bc --exact --hybrid` must reproduce the
# single-engine BC (the "top" ranking and the Brandes verification line —
# modeled makespan and peak legitimately differ), the full hybrid JSON
# (schedule, makespan, per-processor stats) must be pool-width invariant
# byte for byte at --threads 1 vs 8, and the misuse surfaces must exit 2:
# --hybrid without --exact, --hybrid with --dist, and the daemon's
# --readers 0 zero-count (the get_count validation this PR adds). The
# Release stage additionally runs bench_hybrid, whose bit-identity /
# >=1.2x-makespan-speedup / pool-width gates are enforced by its exit code.
hybrid_smoke() {
  local name="$1" dir="$2"
  echo "=== [$name] hybrid-smoke ==="
  local cli="$dir/src/tools/turbobc_cli" g="$dir/hybrid_smoke.mtx"
  "$cli" generate --family smallworld --n 700 --k 6 --p 0.1 --out "$g"
  "$cli" bc "$g" --exact --verify --json > "$dir/hybrid_smoke_single.json"
  "$cli" bc "$g" --exact --hybrid --devices 2 --verify --json --threads 1 \
    > "$dir/hybrid_smoke_t1.json"
  "$cli" bc "$g" --exact --hybrid --devices 2 --verify --json --threads 8 \
    > "$dir/hybrid_smoke_t8.json"
  cmp "$dir/hybrid_smoke_t1.json" "$dir/hybrid_smoke_t8.json"
  for f in single t1; do
    grep -E '"top"|"verify_max_rel_err"' "$dir/hybrid_smoke_$f.json" \
      > "$dir/hybrid_smoke_${f}_bc.json"
  done
  cmp "$dir/hybrid_smoke_single_bc.json" "$dir/hybrid_smoke_t1_bc.json"
  local rc=0
  "$cli" bc "$g" --source 3 --hybrid >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "hybrid-smoke: --hybrid without --exact should exit 2, got $rc" \
      >&2; exit 1
  fi
  rc=0
  "$cli" bc "$g" --exact --hybrid --dist partition >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "hybrid-smoke: --hybrid with --dist should exit 2, got $rc" \
      >&2; exit 1
  fi
  rc=0
  "$cli" daemon "$g" --listen 127.0.0.1:0 --readers 0 >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "hybrid-smoke: daemon --readers 0 should exit 2, got $rc" \
      >&2; exit 1
  fi
  if [ "$name" = "release" ]; then
    echo "=== [$name] bench-hybrid ==="
    cmake --build "$dir" -j "$(nproc)" --target bench_hybrid
    "$dir/bench/bench_hybrid" --out "$dir/BENCH_hybrid.json"
  fi
}

# Daemon smoke: a real socket round trip through `turbobc_cli daemon` /
# `turbobc_cli client` — start the daemon on an ephemeral TCP port, parse
# the resolved address from its 'listening' banner, replay a mixed session
# through the client, and diff the client transcript byte for byte against
# `serve --wire --json --script` on the same graph (the byte-identity the
# qa daemon_agreement invariant pins in-process, here pinned across a real
# TCP hop and the CLI surface). A second connection's `shutdown` then stops
# the server gracefully; its exit status and stopped-banner are checked.
# Runs under TSan too — this is the repo's only real-concurrency subsystem.
# The Release stage additionally runs bench_daemon, whose >=2x reader-lane
# throughput-scaling / digest-vs-scratch-replay / zero-drop gates are
# enforced by its exit code.
daemon_smoke() {
  local name="$1" dir="$2"
  echo "=== [$name] daemon-smoke ==="
  local cli="$dir/src/tools/turbobc_cli" g="$dir/daemon_smoke.mtx"
  "$cli" generate --family mycielski --order 6 --out "$g"
  printf 'bc 5\ninsert 0 40\ntop 5\ndelete 0 40\nbc 5\nstats\n' \
    > "$dir/daemon_smoke_session.txt"
  "$cli" daemon "$g" --listen 127.0.0.1:0 --json \
    > "$dir/daemon_smoke_server.log" &
  local daemon_pid=$!
  local addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/^daemon: listening on //p' "$dir/daemon_smoke_server.log")
    [ -n "$addr" ] && break
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "daemon-smoke: server never printed its listening banner" >&2
    kill "$daemon_pid" 2>/dev/null || true
    exit 1
  fi
  "$cli" client --connect "$addr" --script "$dir/daemon_smoke_session.txt" \
    > "$dir/daemon_smoke_client.jsonl"
  "$cli" serve "$g" --wire --json --script "$dir/daemon_smoke_session.txt" \
    > "$dir/daemon_smoke_serve.jsonl"
  cmp "$dir/daemon_smoke_client.jsonl" "$dir/daemon_smoke_serve.jsonl"
  printf 'shutdown\n' | "$cli" client --connect "$addr" > /dev/null
  wait "$daemon_pid"
  grep -q '^daemon: stopped after 2 connection' "$dir/daemon_smoke_server.log"
  if [ "$name" = "release" ]; then
    echo "=== [$name] bench-daemon ==="
    cmake --build "$dir" -j "$(nproc)" --target bench_daemon
    "$dir/bench/bench_daemon" --out "$dir/BENCH_daemon.json"
  fi
}

# Out-of-core smoke: the compressed (delta-varint CCSC) engine must
# reproduce the uncompressed BC byte for byte (the "top" ranking and the
# Brandes verification line — modeled time, transactions, and peak
# legitimately differ) on the scalar push path, under --advance auto, and
# on the --batch 64 MS-BFS path, the streamed run (LRU shard window over the PCIe
# model) must be pool-width invariant byte for byte across the full JSON
# at --threads 1 vs 8, and the two failure surfaces must map to their
# documented exit codes: a malformed chunk mid-ingest is a data error
# (exit 1 with a clean ParseError line, never a crash — the CLI-misuse
# class, exit 2, is probed via --stream-window without --compress). The
# Release stage additionally runs bench_ooc, whose compression-ratio /
# bit-identity / transaction-reduction / OOM-crossing gates are enforced
# by its exit code, and re-checks select_variant's 50x in-degree COOC
# rule against the vendored real-graph fixtures via bench_ablation_scf.
ooc_smoke() {
  local name="$1" dir="$2"
  echo "=== [$name] ooc-smoke ==="
  local cli="$dir/src/tools/turbobc_cli" g="$dir/ooc_smoke.mtx"
  "$cli" generate --family smallworld --n 800 --k 6 --p 0.05 --out "$g"
  "$cli" bc "$g" --exact --verify --json > "$dir/ooc_smoke_plain.json"
  "$cli" bc "$g" --exact --compress --verify --json \
    > "$dir/ooc_smoke_compressed.json"
  for f in plain compressed; do
    grep -E '"top"|"verify_max_rel_err"' "$dir/ooc_smoke_$f.json" \
      > "$dir/ooc_smoke_${f}_bc.json"
  done
  cmp "$dir/ooc_smoke_plain_bc.json" "$dir/ooc_smoke_compressed_bc.json"
  # The same comparison on the paths whose kernels are instantiated over
  # both storages: the direction-optimizing sweep and the MS-BFS batch.
  local mode tag
  for mode in "--advance auto" "--batch 64"; do
    tag="${mode##* }"
    # $mode is unquoted on purpose: it is a flag plus its value.
    "$cli" bc "$g" --exact $mode --verify --json \
      | grep -E '"top"|"verify_max_rel_err"' > "$dir/ooc_smoke_${tag}_plain.txt"
    "$cli" bc "$g" --exact $mode --compress --verify --json \
      | grep -E '"top"|"verify_max_rel_err"' \
      > "$dir/ooc_smoke_${tag}_compressed.txt"
    cmp "$dir/ooc_smoke_${tag}_plain.txt" "$dir/ooc_smoke_${tag}_compressed.txt"
  done
  "$cli" bc "$g" --exact --compress --stream-window 2 --stream-shards 6 \
    --json --threads 1 > "$dir/ooc_smoke_stream_t1.json"
  "$cli" bc "$g" --exact --compress --stream-window 2 --stream-shards 6 \
    --json --threads 8 > "$dir/ooc_smoke_stream_t8.json"
  cmp "$dir/ooc_smoke_stream_t1.json" "$dir/ooc_smoke_stream_t8.json"
  # Directed graphs take the streamed scatter: one launch per shard in
  # ascending column order must reproduce the resident compressed BC.
  local dg="$dir/ooc_smoke_directed.mtx"
  "$cli" generate --family erdos-renyi --n 500 --arcs 3000 --seed 5 \
    --out "$dg"
  "$cli" bc "$dg" --exact --compress --verify --json \
    | grep -E '"top"|"verify_max_rel_err"' \
    > "$dir/ooc_smoke_directed_resident.txt"
  "$cli" bc "$dg" --exact --compress --stream-window 2 --stream-shards 6 \
    --verify --json | grep -E '"top"|"verify_max_rel_err"' \
    > "$dir/ooc_smoke_directed_streamed.txt"
  cmp "$dir/ooc_smoke_directed_resident.txt" \
    "$dir/ooc_smoke_directed_streamed.txt"
  printf '%%%%MatrixMarket matrix coordinate pattern general\n5 5 4\n1 2\n2 3\n7 !\n' \
    > "$dir/ooc_smoke_bad.mtx"
  local rc=0
  "$cli" bc "$dir/ooc_smoke_bad.mtx" --compress >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "ooc-smoke: malformed chunk should exit 1, got $rc" >&2; exit 1
  fi
  rc=0
  "$cli" bc "$g" --stream-window 2 >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "ooc-smoke: --stream-window without --compress should exit 2," \
      "got $rc" >&2; exit 1
  fi
  if [ "$name" = "release" ]; then
    echo "=== [$name] bench-ooc ==="
    cmake --build "$dir" -j "$(nproc)" --target bench_ooc bench_ablation_scf
    "$dir/bench/bench_ooc" --out "$dir/BENCH_ooc.json"
    "$dir/bench/bench_ablation_scf" \
      bench/fixtures/karate.mtx bench/fixtures/florentine.mtx \
      bench/fixtures/mawi_tail.mtx bench/fixtures/midskew.mtx > /dev/null
  fi
}

# Serving smoke: a scripted session through `turbobc_cli serve`, the
# warm-cache post-update query compared against a cold (all-scratch)
# session on the same mutated graph, the JSON transcript diffed at
# --threads 1 vs 8 byte for byte, and a malformed script probing the
# exit-2 usage surface. The Release stage additionally runs bench_serve,
# whose >=5x serving-speedup / bit-identity / pool-width gates are
# enforced by its exit code.
serve_smoke() {
  local name="$1" dir="$2"
  echo "=== [$name] serve-smoke ==="
  local cli="$dir/src/tools/turbobc_cli" g="$dir/serve_smoke.mtx"
  "$cli" generate --family mycielski --order 7 --out "$g"
  printf 'bc 5\ninsert 0 90\ntop 5\nbc 5\ndelete 0 90\nbc 5\nstats\n' \
    > "$dir/serve_smoke_session.txt"
  "$cli" serve "$g" --script "$dir/serve_smoke_session.txt" \
    > "$dir/serve_smoke.txt"
  "$cli" serve "$g" --script "$dir/serve_smoke_session.txt" --json \
    --threads 1 > "$dir/serve_smoke_t1.json"
  "$cli" serve "$g" --script "$dir/serve_smoke_session.txt" --json \
    --threads 8 > "$dir/serve_smoke_t8.json"
  cmp "$dir/serve_smoke_t1.json" "$dir/serve_smoke_t8.json"
  # Incremental vs scratch: the warm session answers its post-update query
  # from surviving cache blocks plus cone recomputes; the cold session
  # recomputes every source on the same mutated graph. The ranked BC lines
  # of the final query must agree exactly.
  printf 'bc 5\ninsert 0 90\nbc 5\n' > "$dir/serve_smoke_warm.txt"
  printf 'insert 0 90\nbc 5\n' > "$dir/serve_smoke_cold.txt"
  "$cli" serve "$g" --script "$dir/serve_smoke_warm.txt" \
    | grep '^  ' | tail -5 > "$dir/serve_smoke_warm_bc.txt"
  "$cli" serve "$g" --script "$dir/serve_smoke_cold.txt" \
    | grep '^  ' > "$dir/serve_smoke_cold_bc.txt"
  cmp "$dir/serve_smoke_warm_bc.txt" "$dir/serve_smoke_cold_bc.txt"
  printf 'bc 2\nfrobnicate\n' > "$dir/serve_smoke_bad.txt"
  if "$cli" serve "$g" --script "$dir/serve_smoke_bad.txt" >/dev/null 2>&1
  then
    echo "serve-smoke: malformed script should have failed" >&2; exit 1
  fi
  if [ "$name" = "release" ]; then
    echo "=== [$name] bench-serve ==="
    cmake --build "$dir" -j "$(nproc)" --target bench_serve
    "$dir/bench/bench_serve" --out "$dir/BENCH_serve.json"
  fi
}

# MS-BFS smoke: the packed-mask batched sweep must reproduce the per-source
# fold byte for byte (both engines print the same "top" ranking and Brandes
# verification line), the batched JSON must be pool-width invariant, and the
# partitioned mask exchange must hold the same contract across 4 modeled
# devices. The Release stage additionally runs bench_msbfs, whose speedup /
# bit-identity / footprint gates are enforced by its exit code.
msbfs_smoke() {
  local name="$1" dir="$2"
  echo "=== [$name] msbfs-smoke ==="
  local cli="$dir/src/tools/turbobc_cli" g="$dir/msbfs_smoke.mtx"
  "$cli" generate --family smallworld --n 600 --k 4 --p 0.1 --out "$g"
  "$cli" bc "$g" --exact --variant sccsc --verify --json \
    > "$dir/msbfs_smoke_scalar.json"
  "$cli" bc "$g" --exact --batch 64 --verify --json --threads 1 \
    > "$dir/msbfs_smoke_batched_t1.json"
  "$cli" bc "$g" --exact --batch 64 --verify --json --threads 8 \
    > "$dir/msbfs_smoke_batched_t8.json"
  cmp "$dir/msbfs_smoke_batched_t1.json" "$dir/msbfs_smoke_batched_t8.json"
  for f in scalar batched_t1; do
    grep -E '"top"|"verify_max_rel_err"' "$dir/msbfs_smoke_$f.json" \
      > "$dir/msbfs_smoke_${f}_bc.json"
  done
  cmp "$dir/msbfs_smoke_scalar_bc.json" "$dir/msbfs_smoke_batched_t1_bc.json"
  "$cli" bc "$g" --exact --batch 8 --devices 4 --dist partition --verify \
    --json --threads 1 > "$dir/msbfs_smoke_dist_t1.json"
  "$cli" bc "$g" --exact --batch 8 --devices 4 --dist partition --verify \
    --json --threads 8 > "$dir/msbfs_smoke_dist_t8.json"
  cmp "$dir/msbfs_smoke_dist_t1.json" "$dir/msbfs_smoke_dist_t8.json"
  if "$cli" bc "$g" --exact --batch 8 --devices 4 > /dev/null 2>&1; then
    echo "msbfs-smoke: --batch without --dist partition should have failed" \
      >&2; exit 1
  fi
  if [ "$name" = "release" ]; then
    echo "=== [$name] bench-msbfs ==="
    cmake --build "$dir" -j "$(nproc)" --target bench_msbfs
    "$dir/bench/bench_msbfs" --out "$dir/BENCH_msbfs.json"
  fi
}

# Direction-optimizing smoke: every --advance mode on a hub-heavy graph
# must produce byte-identical BC (the "top" ranking and the Brandes
# verification line — modeled time, peak, and the demoted variant
# legitimately differ between modes), --advance auto must reproduce the
# width-1 JSON byte for byte at pool width 8, and count/enum misuse must
# exit 2 (usage).
dobfs_smoke() {
  local name="$1" dir="$2"
  echo "=== [$name] dobfs-smoke ==="
  local cli="$dir/src/tools/turbobc_cli" g="$dir/dobfs_smoke.mtx"
  # n kept small: the smoke runs exact BC five times and must stay
  # CI-friendly under TSan/ASan's ~10x slowdown.
  "$cli" generate --family preferential --n 1000 --m-attach 4 --out "$g"
  for mode in push pull auto; do
    "$cli" bc "$g" --exact --advance "$mode" --verify --json \
      > "$dir/dobfs_smoke_$mode.json"
    grep -E '"top"|"verify_max_rel_err"' "$dir/dobfs_smoke_$mode.json" \
      > "$dir/dobfs_smoke_${mode}_bc.json"
  done
  cmp "$dir/dobfs_smoke_push_bc.json" "$dir/dobfs_smoke_pull_bc.json"
  cmp "$dir/dobfs_smoke_push_bc.json" "$dir/dobfs_smoke_auto_bc.json"
  "$cli" bc "$g" --exact --advance auto --verify --json --threads 8 \
    > "$dir/dobfs_smoke_auto_t8.json"
  cmp "$dir/dobfs_smoke_auto.json" "$dir/dobfs_smoke_auto_t8.json"
  "$cli" bfs "$g" --source 0 --advance auto > /dev/null
  if "$cli" bc "$g" --exact --advance sideways > /dev/null 2>&1; then
    echo "dobfs-smoke: unknown --advance should have failed" >&2; exit 1
  fi
  if "$cli" bc "$g" --exact --devices 0 > /dev/null 2>&1; then
    echo "dobfs-smoke: --devices 0 should have failed" >&2; exit 1
  fi
}

# Focused ASan+UBSan stage (see file comment): build only the fuzzer, the
# CLI and two test binaries, then run the two smokes that exercise the DO
# engine hardest, the simulator suite and the launch-pin goldens.
run_asan_stage() {
  local name="asan" dir="${prefix}-asan"
  echo "=== [$name] configure ==="
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release -DTURBOBC_SANITIZE=address
  echo "=== [$name] build ==="
  cmake --build "$dir" -j "$(nproc)" --target turbobc_fuzz turbobc_cli \
    test_gpusim test_core
  echo "=== [$name] gpusim + launch-pin tests ==="
  "$dir/tests/test_gpusim"
  "$dir/tests/test_core" --gtest_filter='Engines/LaunchPin.*'
  dobfs_smoke "$name" "$dir"
  echo "=== [$name] fuzz-smoke ==="
  "$dir/src/tools/turbobc_fuzz" --seed 1 --budget 2000 \
    --corpus-dir "$dir/fuzz-failures"
}

run_config "release" "${prefix}-release"
run_config "tsan" "${prefix}-tsan" -DTURBOBC_SANITIZE=thread
run_asan_stage

echo "=== all configurations passed ==="
