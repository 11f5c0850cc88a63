// The shared invariant oracle: every checkable property of the BC stack,
// evaluated on one graph.
//
// The oracle runs every implementation (TurboBC in all three SpMV variants,
// the batched SpMM pipeline, the sequential linear-algebra baseline, the
// gunrock- and ligra-style baselines) against the queue-based Brandes
// reference and checks:
//
//   bc_agreement          cross-implementation BC values within tolerance
//   bfs_agreement         per-source depth/height/reached vs reference BFS
//   sigma_agreement       per-source shortest-path counts vs Brandes
//   dependency_conservation  sum_v delta_s(v) == sum_t (depth(t) - 1) over
//                         reachable t != s — the Brandes pair-dependency
//                         sum telescoped over interior vertices
//   footprint_ledger      TurboBC's simulated peak equals the analytic
//                         inventory (the paper's 7n + m trick, in bytes)
//   gunrock_inventory     gunrock's resident bytes equal its analytic
//                         inventory and dominate the paper's 9n + 2m floor
//   alloc_free_ledger     device alloc/free counts and live bytes balance
//                         after every run
//   thread_determinism    threads=1 vs threads=N modeled results are
//                         bit-identical (BC vectors, seconds, peak,
//                         per-kernel aggregates)
//   mtx_roundtrip         write+reread through Matrix Market preserves the
//                         canonical graph
//   edge_bc_agreement     per-arc edge BC vs the Brandes edge oracle
//   approx_coverage       every exact BC value lies inside the approx
//                         engine's reported confidence interval
//   approx_engine_agreement  scalar vs batched approx engines agree on the
//                         estimates for the same pivot sequence
//   approx_accounting     the approx run's modeled seconds / peak bytes /
//                         pivot count equal the fold of its per-wave stats,
//                         and the peak matches the analytic 9n + m inventory
//   approx_determinism    approx results (estimates, half-widths, waves,
//                         modeled numbers) bit-identical across pool widths
//   dist_bc_agreement     replicated and partitioned multi-GPU BC
//                         bit-identical to the single-device engine (same
//                         pinned variant); below msbfs_max_vertices also
//                         the partitioned MS-BFS block (batch min(8, n),
//                         push and auto) bit-identical to the per-source
//                         scCSC engine over the msbfs_agreement lanes
//   dist_inventory        each partitioned shard's simulated peak matches
//                         the analytic "7 n_local + m_local + n exchange"
//                         inventory (src/dist/partition.hpp)
//   dist_comm_conservation  interconnect ledger: sum of logical bytes sent
//                         equals sum received, and the topology total
//                         equals the per-device fold
//   dobfs_agreement       direction-optimizing forward sweep: pull/auto
//                         reproduce push's levels S bit-identically, sigma
//                         and bc within oracle tolerance, each mode is
//                         bit-identical at any --threads, and the DO peak
//                         matches its analytic inventory and stays at
//                         7n + m + ceil(n/32) words, below gunrock's
//   msbfs_agreement       packed-mask batched engine: BC over <= 64 sources
//                         bit-identical to the per-source kScCsc engine,
//                         pull/auto sweeps bit-identical to push, results
//                         bit-identical across pool widths, word-op traffic
//                         accounted, and the batched peak within the
//                         MS-BFS footprint model (core/footprint.hpp)
//   serve_agreement       dynamic-graph serving engine (src/serve/): after
//                         every event of a random insert/delete stream the
//                         incrementally-maintained BC is bit-identical to a
//                         scratch run_exact on the mutated graph, and a
//                         scripted session's whole transcript (queries,
//                         updates, approx, stats) is byte-identical at
//                         pool widths 1 and N
//   ooc_agreement         out-of-core storage (src/storage/): the codec
//                         round-trips the CSC bit-exactly, the compressed
//                         kernels reproduce the uncompressed engine's BC
//                         bit-for-bit in push/pull/auto at any pool width,
//                         and StreamingTurboBC (including the fetch-free
//                         window, whose ledger must show zero refetch
//                         bytes) equals the resident compressed engine
//   daemon_agreement      serve daemon (src/daemon/): a single connection
//                         replaying a script over a real loopback socket
//                         produces a transcript byte-identical to
//                         run_session in wire mode (text and JSON), and
//                         under concurrent client connections every bc
//                         response's (epoch, digest) pair matches a serial
//                         from-scratch replay of the scheduler's
//                         epoch-ordered update log
//   ooc_inventory         the compressed graph's simulated device bytes
//                         match CompressedCsc::model_bytes exactly, and
//                         the compressed engine's simulated peak equals
//                         the analytic TurboBC inventory with the graph
//                         term swapped for the compressed image
//   hybrid_agreement      hybrid CPU-GPU co-execution (src/hybrid/): the
//                         co-executed run_exact BC is bit-identical to the
//                         single-engine kScCsc run_exact, the runtime
//                         calibration probe accepts the run, the
//                         per-processor block/source/busy accounting folds
//                         back to the whole run with every utilization
//                         <= 1, and the FULL report (BC, makespan, busy,
//                         schedule, per-processor stats) is bit-identical
//                         at pool widths 1 and N
//
// Each failed check appends a Violation naming the invariant; the fuzz loop
// and the delta-debugging minimizer key on those names.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/variant.hpp"
#include "graph/edge_list.hpp"

namespace turbobc::qa {

struct OracleOptions {
  /// Relative tolerance for cross-implementation BC agreement (float-order
  /// effects only: all implementations accumulate in double).
  double tolerance = 1e-7;
  /// Sources probed per graph (spread deterministically over [0, n)).
  int max_sources = 2;
  /// Pool width compared against serial in the determinism check.
  unsigned det_threads = 4;
  /// Exact all-sources cross-check (Brandes vs run_exact vs batched); the
  /// costliest stage — the fuzzer enables it on a subset of cases and the
  /// oracle skips it for graphs above exact_max_vertices regardless.
  bool check_exact = true;
  vidx_t exact_max_vertices = 64;
  /// threads=1 vs threads=N bit-identical modeled results.
  bool check_determinism = true;
  /// Per-arc edge BC vs the Brandes edge oracle.
  bool check_edge_bc = true;
  /// Approx engine (src/approx/): interval coverage of the exact values,
  /// scalar/batched agreement, wave accounting, and pool-width determinism.
  bool check_approx = true;
  /// Pivot budget of the oracle's approx runs (capped at n). Small keeps a
  /// fuzz case cheap; the intervals it checks are valid at ANY budget.
  vidx_t approx_budget = 96;
  /// Distributed engine (src/dist/): both strategies bit-identical to the
  /// single-device engine, shard peaks vs the analytic inventory, and
  /// comm-byte conservation.
  bool check_dist = true;
  /// Modeled device count of the oracle's topology. 3 makes the last column
  /// shard uneven (and often empty on tiny graphs) — the interesting case.
  int dist_devices = 3;
  /// Direction-optimizing forward sweep: push-vs-pull/auto agreement,
  /// per-mode thread determinism, and the DO footprint inventory.
  bool check_dobfs = true;
  /// MS-BFS batched engine: bit-identity against the per-source engine,
  /// push/pull/auto mask-sweep agreement, word-op accounting, and the
  /// batched footprint model. The check runs a per-source reference BC per
  /// lane, so (like check_exact) it is skipped above msbfs_max_vertices —
  /// larger shapes are covered by tests/core/test_msbfs.cpp and bench_msbfs.
  bool check_msbfs = true;
  vidx_t msbfs_max_vertices = 220;
  /// Serving engine (src/serve/): incremental-vs-scratch BC bit-identity
  /// after every event of a random update stream, plus byte-identity of a
  /// scripted session transcript across pool widths. Each scratch compare
  /// is a full run_exact, so (like check_exact) the check is skipped above
  /// serve_max_vertices.
  bool check_serve = true;
  vidx_t serve_max_vertices = 72;
  /// Edge updates in the oracle's stream (the standalone agreement test
  /// runs >= 50; a fuzz case keeps it short).
  int serve_updates = 3;
  /// Serve daemon (src/daemon/): single-connection transcript byte-identity
  /// against run_session in wire mode, and concurrent clients' (epoch,
  /// digest) pairs against a serial scratch replay of the update log. Spawns
  /// a real socket server plus client threads and several full run_exact
  /// replays, so (like check_exact) it is skipped above daemon_max_vertices.
  bool check_daemon = true;
  vidx_t daemon_max_vertices = 48;
  /// Out-of-core storage (src/storage/): codec round-trip, compressed-vs-
  /// uncompressed BC bit-identity across advance modes and pool widths,
  /// streamed-vs-resident bit-identity, the zero-refetch fast-path ledger,
  /// and the compressed device-byte inventory. Runs several full BC passes,
  /// so (like check_exact) it is skipped above ooc_max_vertices.
  bool check_ooc = true;
  vidx_t ooc_max_vertices = 100;
  /// Hybrid CPU-GPU co-execution (src/hybrid/): BC bit-identity against
  /// the single-engine scCSC run_exact, pool-width determinism of the full
  /// report (schedule, makespan, per-processor stats), and ledger sanity
  /// (utilization <= 1, block/source accounting). Runs two full exact
  /// passes plus a host replay, so (like check_exact) it is skipped above
  /// hybrid_max_vertices.
  bool check_hybrid = true;
  vidx_t hybrid_max_vertices = 64;
};

struct Violation {
  std::string invariant;  // stable name, e.g. "bc_agreement"
  std::string detail;     // human-readable specifics
};

struct OracleReport {
  std::vector<Violation> violations;
  /// Canonical shape of the graph the checks ran on.
  vidx_t vertices = 0;
  eidx_t arcs = 0;

  bool ok() const noexcept { return violations.empty(); }
  /// First violated invariant name ("" when ok) — the minimizer's key.
  std::string primary_invariant() const {
    return violations.empty() ? std::string() : violations.front().invariant;
  }
  std::string summary() const;
};

/// Run every applicable invariant on `graph`. Never throws for graph
/// shapes the library is specified to handle; an unexpected exception from
/// an implementation is itself reported as an "unexpected_throw" violation.
OracleReport check_graph(const graph::EdgeList& graph,
                         const OracleOptions& options = {});

/// Analytic TurboBC peak-footprint inventory in simulated device bytes:
/// graph structure + bc accumulator (+ edge-BC array) + the dependency-stage
/// maximum of per-source arrays. For the CSC layouts this equals the paper's
/// 7n + m words (bc::turbobc_model_bytes) plus the one extra CP_A entry.
/// A direction-optimizing `advance` widens the forward term: the 1-element
/// frontier flag becomes 3 counters and the ceil(n/32)-word frontier bitmap
/// joins f/f_t — still dominated by the dependency triple for n >= 4. On
/// UNDIRECTED graphs the pulled dependency gather adds the same bitmap to
/// the backward stage (rebuilt from delta_u per level), so `directed` picks
/// which backward term applies; push mode ignores it.
std::size_t expected_turbobc_peak_bytes(
    bc::Variant variant, vidx_t n, eidx_t m, bool edge_bc,
    bc::Advance advance = bc::Advance::kPush, bool directed = false);

/// Analytic gunrock-baseline inventory in simulated device bytes
/// (CSR + CSC + 8 n-arrays + queue counter + m-word LB scratch).
std::size_t expected_gunrock_inventory_bytes(vidx_t n, eidx_t m);

/// Analytic peak of a scalar-engine approx wave: the TurboBC inventory plus
/// the two n-word moment accumulators ("approx_sum"/"approx_sumsq") — the
/// paper's 7n + m words grown to 9n + m.
std::size_t expected_approx_peak_bytes(bc::Variant variant, vidx_t n,
                                       eidx_t m);

}  // namespace turbobc::qa
