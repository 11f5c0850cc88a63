// DistTurboBC: deterministic multi-GPU BC driver over a modeled Topology.
//
// Two strategies (picked by the footprint model when strategy == kAuto):
//
//  * Replicated — the graph fits one device: every device runs whole-graph
//    source blocks. The SAME 64-block plan as TurboBC::run_sources is
//    computed, contiguous block ranges are assigned to devices, every block
//    runs through TurboBC::run_source_block (the exact code path the
//    single-device engine schedules on the ExecutorPool), and partials are
//    folded in global block order. BC values are therefore bit-identical to
//    the single-device engine by shared code, at any thread width and any
//    device count. A final modeled all_reduce of the bc array (+ edge_bc /
//    moment arrays when present) closes the run.
//
//  * Partitioned 1D — the graph does NOT fit one device: CSC column blocks
//    are sharded (src/dist/partition.hpp), giving each device the
//    "7 n_local + m_local words + n-word exchange buffer" footprint. Per BFS
//    level the frontier is exchanged via modeled all_gather; the backward
//    stage all_gathers delta_u (undirected) or accumulates the scatter
//    sequentially around a modeled ring (directed) so the float fold matches
//    the single device's column-major atomic order exactly. Devices step in
//    lock-step, serially, in device order — every modeled number is again a
//    pure function of (graph, sources, K).
//
// Determinism contract (mirrors the rest of the repo): BC values, modeled
// seconds, peak bytes and comm-byte counters are bit-identical at any
// --threads width. Replicated results are additionally bit-identical to the
// single-device engine; partitioned results are bit-identical to it when the
// same variant is pinned on both sides (cross-variant folds group floats
// differently; see DESIGN.md §8 for the one directed veCSC caveat).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "core/turbobc.hpp"
#include "core/variant.hpp"
#include "dist/partition.hpp"
#include "gpusim/topology.hpp"
#include "graph/edge_list.hpp"

namespace turbobc::dist {

enum class Strategy : std::uint8_t { kAuto, kReplicate, kPartition };

const char* to_string(Strategy s);
/// "auto" / "replicate" / "partition"; nullopt on anything else.
std::optional<Strategy> parse_strategy(std::string_view name);

struct DistOptions {
  Strategy strategy = Strategy::kAuto;
  /// Pinned SpMV variant. Unset: select_variant runs per shard (for
  /// replicated shards — whole-graph replicas — that equals the global
  /// pick).
  std::optional<bc::Variant> variant;
  /// Edge betweenness (replicated strategy only).
  bool edge_bc = false;
  /// Forward-sweep advance (core/variant.hpp). Replicated shards inherit it
  /// wholesale — same code path as the single engine. The partitioned
  /// strategy exchanges the frontier as a dense BITMAP per level
  /// (ceil(block_len/32) words per rank instead of block_len) plus one
  /// packed block of the level's NEW frontier values; a vertex enters the
  /// frontier exactly once, so the packed traffic totals at most n words
  /// over a whole BFS.
  bc::Advance advance = bc::Advance::kPush;
  /// Push<->pull switch thresholds for kAuto.
  bc::DirectionThresholds thresholds;
  /// Partitioned strategy: sources advanced per MS-BFS block, in [0, 64].
  /// 0 (default) runs the per-source scalar pipeline. >= 1 packs each block
  /// of sources into per-vertex 64-bit membership masks (the batched
  /// engine's representation — core/turbobc_batched.hpp) so ONE 8-byte mask
  /// word per frontier vertex per level crosses the interconnect for all
  /// lanes at once, instead of one 4-byte frontier word per source-level.
  /// Every shard is pinned to the scCSC layout; push, pull and auto are
  /// all supported (pull probes an any-lane bitmap each device builds from
  /// its exchanged mask copy). BC values are bit-identical to the
  /// single-device TurboBCBatched at the same batch size. The replicated
  /// strategy ignores this (its whole-graph blocks already ride
  /// TurboBC::run_source_block).
  vidx_t batch_size = 0;
};

/// Per-device outcome of one distributed run.
struct ShardInfo {
  int device = 0;
  bc::Variant variant = bc::Variant::kScCsc;
  vidx_t col_begin = 0;
  vidx_t col_end = 0;  // replicated: the full [0, n)
  eidx_t arcs = 0;
  std::size_t peak_bytes = 0;
  double device_seconds = 0.0;
  std::uint64_t comm_bytes_sent = 0;
  std::uint64_t comm_bytes_received = 0;
};

struct DistResult {
  std::vector<bc_t> bc;
  /// Canonical arc order; empty unless DistOptions::edge_bc.
  std::vector<bc_t> edge_bc;
  Strategy strategy_used = Strategy::kReplicate;
  std::vector<ShardInfo> shards;
  bc::SourceStats last_source;
  vidx_t sources = 0;
  /// Modeled bulk-synchronous critical path: max over devices of on-device
  /// seconds, plus every interconnect operation once.
  double device_seconds = 0.0;
  double comm_seconds = 0.0;
  /// Total logical payload bytes exchanged (sum over devices of bytes sent
  /// == bytes received; see gpusim/topology.hpp).
  std::uint64_t comm_bytes = 0;
  std::size_t max_peak_bytes = 0;
};

class DistTurboBC {
 public:
  /// Uploads the graph (replicated: once, to device 0, with per-block
  /// replicas cloned at run time; partitioned: one column shard per device).
  /// Throws DeviceOutOfMemory when even a shard exceeds device capacity.
  DistTurboBC(sim::Topology& topology, const graph::EdgeList& graph,
              DistOptions options = {});

  /// The resolved strategy (never kAuto).
  Strategy strategy() const noexcept { return strategy_; }
  vidx_t num_vertices() const noexcept { return n_; }
  eidx_t num_arcs() const noexcept { return m_; }
  bool directed() const noexcept { return directed_; }
  const ShardPlan& plan() const noexcept { return plan_; }

  DistResult run_single_source(vidx_t source);
  DistResult run_exact();
  DistResult run_sources(const std::vector<vidx_t>& sources);

  /// run_sources plus the approx estimator's moment accumulation (see
  /// TurboBC::run_sources_moments). Replicated strategy only.
  DistResult run_sources_moments(const std::vector<vidx_t>& sources,
                                 const std::vector<double>& weights,
                                 bc::TurboBC::MomentResult& moments);

 private:
  /// One uploaded column shard (partitioned strategy).
  struct Shard {
    vidx_t col_begin = 0;
    vidx_t col_end = 0;
    bc::Variant variant = bc::Variant::kScCsc;
    std::optional<spmv::DeviceCsc> csc;
    std::optional<spmv::DeviceCooc> cooc;
    vidx_t n_local() const noexcept { return col_end - col_begin; }
  };

  struct Partitioned;  // level-driver residency (dist_turbobc.cpp)

  DistResult run_impl(const std::vector<vidx_t>& sources,
                      const std::vector<double>* weights,
                      bc::TurboBC::MomentResult* moments);
  DistResult run_replicated(const std::vector<vidx_t>& sources,
                            const std::vector<double>* weights,
                            bc::TurboBC::MomentResult* moments);
  /// Per-source sweeps, or lane blocks when batch_size > 0.
  DistResult run_partitioned(const std::vector<vidx_t>& sources);

  sim::Topology& topo_;
  DistOptions options_;
  vidx_t n_ = 0;
  eidx_t m_ = 0;
  bool directed_ = false;
  Strategy strategy_ = Strategy::kReplicate;
  ShardPlan plan_;
  /// Replicated strategy: the single-device engine whose block runner we
  /// schedule across devices.
  std::optional<bc::TurboBC> engine_;
  /// Partitioned strategy: one shard per device.
  std::vector<Shard> shards_;
};

}  // namespace turbobc::dist
