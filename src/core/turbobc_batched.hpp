// Batched multi-source TurboBC: the frontier as packed 64-bit masks.
//
// Algorithm 1 is a sequence of matrix-vector products; the natural
// linear-algebra extension (and the standard GraphBLAS idiom for exact BC)
// replaces the frontier vector f with an n x k matrix F holding k
// independent BFS fronts, turning every SpMV into an SpMM. This engine
// stores that boolean matrix the MS-BFS way: per vertex one 64-bit
// FRONTIER word, one VISITED word, one NEXT word (bit j = source j), so a
// single edge traversal advances every source in the block with word ops —
// see spmv/spmv_kernels.hpp and DESIGN.md §10. Three costs amortize:
//
//   * per-level kernel launches and the frontier-flag readback: ONE set per
//     level instead of one per source-level — decisive on deep graphs,
//     where the paper's own pipeline is launch-overhead-bound (road
//     networks: ~5 launches x 3.5 us + an 8 us PCIe readback per level);
//   * the graph structure streams from memory once per level for all k
//     sources instead of once per source-level;
//   * the k per-source frontier values collapse into sigma itself (a newly
//     discovered vertex had sigma == 0, so its frontier value IS its new
//     sigma): the forward state is 2nk + 6n words instead of 4nk.
//
// The backward stage keeps k interleaved dependency columns (the paper's
// float pipeline does not pack), so the footprint is ~(5n)k + 6n + m words
// and the batch size still trades memory for amortization — the same
// footprint-vs-speed axis the paper's design walks. bench_ablation_batching
// and bench_msbfs measure the trade; tests verify every batch size against
// Brandes and pin bit-identity against the per-source engine.
//
// Implemented for the CSC layout with scalar (thread-per-column) kernels —
// the batched analogue of TurboBC-scCSC. Column-major per-vertex batch
// storage (index v * k + j) keeps one source's lanes adjacent.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "core/autotune.hpp"
#include "core/turbobc.hpp"
#include "gpusim/device.hpp"
#include "graph/edge_list.hpp"
#include "spmv/device_graph.hpp"
#include "storage/device_ccsc.hpp"

namespace turbobc::bc {

struct BatchedOptions {
  /// Sources processed simultaneously per pass, in [1, 64] — one bit of the
  /// packed masks per source. 1 degenerates to the paper's pipeline (modulo
  /// kernel fusion details).
  vidx_t batch_size = 8;
  /// Forward-sweep advance. kPush scans every unfinished column's in-edges
  /// loading the 8-byte frontier word each. kPull probes the ANY-LANE n/32
  /// frontier bitmap (bit set when some lane has the vertex on its front)
  /// first, touching the word only on a hit — sums and results stay
  /// bit-identical to push. kAuto applies the Beamer heuristic per level to
  /// the any-lane frontier (new-vertex / new-edge counters widened onto the
  /// flag array), switching between the two kernels like the single-source
  /// engine does.
  Advance advance = Advance::kPush;
  /// Switch points for kAuto (same defaults as the single-source engine).
  DirectionThresholds thresholds = {};
  /// Keep the graph resident as a delta-varint compressed CSC and decode
  /// row ids inside the SpMM loops (the storage-templated kernels of
  /// spmv/spmv_kernels.hpp over storage::DeviceCompressedCsc). Same masks,
  /// same per-column edge order, same fold arithmetic — sigma and bc stay
  /// bit-identical to the uncompressed batched engine and hence to the
  /// per-source engine. See BcOptions::compress.
  bool compress = false;
};

class TurboBCBatched {
 public:
  TurboBCBatched(sim::Device& device, const graph::EdgeList& graph,
                 BatchedOptions options = {});

  /// Exact BC over all sources, k at a time.
  BcResult run_exact();

  /// BC over the given sources, k at a time.
  BcResult run_sources(const std::vector<vidx_t>& sources);

  /// run_sources plus on-device moment accumulation — the batched analogue
  /// of TurboBC::run_sources_moments: an "approx_moment_batched" kernel
  /// folds each batch's k dependency lanes into the same two extra n-word
  /// arrays ("approx_sum"/"approx_sumsq"), and the moments are downloaded
  /// inside the modeled clock. `weights` must be parallel to `sources`.
  BcResult run_sources_moments(const std::vector<vidx_t>& sources,
                               const std::vector<double>& weights,
                               TurboBC::MomentResult& moments);

  vidx_t num_vertices() const noexcept { return n_; }
  eidx_t num_arcs() const noexcept { return m_; }
  const BatchedOptions& options() const noexcept { return options_; }

 private:
  /// run_sources / run_sources_moments: moments (with one weight per
  /// source) is null for a plain run.
  BcResult run_sources_impl(const std::vector<vidx_t>& sources,
                            const std::vector<double>* weights,
                            TurboBC::MomentResult* moments);

  sim::Device& device_;
  BatchedOptions options_;
  vidx_t n_ = 0;
  eidx_t m_ = 0;
  bool directed_ = false;
  storage::ResidentGraph graph_;
};

}  // namespace turbobc::bc
