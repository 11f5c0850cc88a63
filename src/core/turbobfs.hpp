// TurboBFS: standalone linear-algebraic breadth-first search.
//
// The forward stage of TurboBC is itself a published contribution (Artiles &
// Saeed, "TurboBFS: GPU Based Breadth-First Search (BFS) Algorithms in the
// Language of Linear Algebra", IPDPSW 2021 — the paper's reference [1]).
// This class exposes it as a public API: per level, f_t <- A^T f through the
// selected SpMV variant, masked by the undiscovered set, accumulating
// per-vertex depths and shortest-path counts. Useful on its own for
// reachability, level structure, and path counting — and it is what the
// sigma/S columns of the BC pipeline are made of.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "core/autotune.hpp"
#include "core/variant.hpp"
#include "gpusim/device.hpp"
#include "graph/edge_list.hpp"
#include "spmv/device_graph.hpp"
#include "storage/device_ccsc.hpp"

namespace turbobc::bc {

struct TurboBfsResult {
  /// depth[v]: hops from the source, -1 when unreachable.
  std::vector<vidx_t> depth;
  /// sigma[v]: number of shortest paths from the source (0 when unreachable,
  /// 1 for the source itself).
  std::vector<sigma_t> sigma;
  vidx_t height = 0;   // BFS tree height
  vidx_t reached = 0;  // vertices discovered, including the source
  double device_seconds = 0.0;
  std::size_t peak_device_bytes = 0;
};

class TurboBfs {
 public:
  /// `advance` selects the forward-sweep engine; kPull / kAuto need CSC, so
  /// kScCooc is demoted to kVeCsc exactly as in TurboBC (effective_variant). Depths, sigmas, and
  /// heights are bit-identical across modes (the pull fold skips exact
  /// zeros only) — the qa oracle enforces this.
  /// `compress` keeps the graph resident as a delta-varint compressed CSC
  /// and decodes rows inside the gather loops; the sequential decode demotes
  /// any variant to kScCsc (see BcOptions::compress). Depths / sigmas are
  /// bit-identical to the uncompressed run.
  TurboBfs(sim::Device& device, const graph::EdgeList& graph,
           Variant variant = Variant::kScCsc,
           Advance advance = Advance::kPush,
           DirectionThresholds thresholds = {}, bool compress = false);

  TurboBfsResult run(vidx_t source);

  /// The variant that runs (effective_variant of the requested one).
  Variant variant() const noexcept { return variant_; }
  vidx_t num_vertices() const noexcept { return n_; }
  eidx_t num_arcs() const noexcept { return m_; }

 private:
  sim::Device& device_;
  Variant variant_;
  Advance advance_;
  DirectionThresholds thresholds_;
  vidx_t n_ = 0;
  eidx_t m_ = 0;
  storage::ResidentGraph graph_;
};

}  // namespace turbobc::bc
