// TurboBC SpMV variants and the regular/irregular selection heuristic
// (paper Section 3.1).
#pragma once

#include <string_view>

#include "graph/edge_list.hpp"
#include "graph/stats.hpp"

namespace turbobc::bc {

enum class Variant {
  kScCooc,  // one thread per nonzero (TurboBC-scCOOC)
  kScCsc,   // one thread per column  (TurboBC-scCSC)
  kVeCsc,   // one warp per column    (TurboBC-veCSC)
};

constexpr std::string_view to_string(Variant v) {
  switch (v) {
    case Variant::kScCooc: return "scCOOC";
    case Variant::kScCsc: return "scCSC";
    case Variant::kVeCsc: return "veCSC";
  }
  return "?";
}

/// Forward-sweep frontier advance mode (Beamer-style direction
/// optimization). kPush is the paper's Algorithm 1 SpMV; kPull scans CSC
/// columns of undiscovered vertices against a dense frontier bitmap; kAuto
/// switches per level on modeled frontier/unvisited edge counts (the α/β
/// thresholds in core/autotune.hpp).
enum class Advance {
  kPush,
  kPull,
  kAuto,
};

constexpr std::string_view to_string(Advance a) {
  switch (a) {
    case Advance::kPush: return "push";
    case Advance::kPull: return "pull";
    case Advance::kAuto: return "auto";
  }
  return "?";
}

/// The variant an engine actually runs for a requested one (the single
/// demotion rule TurboBC, TurboBfs and DistTurboBC's shards apply, and the
/// CLI reports):
///  * compressed storage decodes each column's varint chain sequentially —
///    a warp cannot stride the byte stream — so every variant runs the
///    thread-per-column scCSC kernels;
///  * a pull or auto sweep folds CSC columns, and COOC carries no column
///    pointers (only one sparse format may stay resident, paper Section
///    3.4), so kScCooc demotes to a CSC layout — never larger for the same
///    arcs (4(n+1) + 4m vs 8m words when m >= n+1). The target is veCSC:
///    COOC is selected for extreme in-degree skew, exactly where a
///    thread-per-column scan serializes its warp on the hub column.
constexpr Variant effective_variant(Variant requested, Advance advance,
                                    bool compress) {
  if (compress) return Variant::kScCsc;
  if (advance != Advance::kPush && requested == Variant::kScCooc) {
    return Variant::kVeCsc;
  }
  return requested;
}

/// Pick a variant from graph structure, mirroring the paper's empirical
/// rules: irregular graphs (high scale-free index) take the warp-per-column
/// kernel; regular graphs with extreme max/mean degree skew (the mawi
/// traces) take the skew-immune edge-parallel kernel; everything else takes
/// the cheap thread-per-column kernel.
///
/// The skew test uses IN-degree stats: the scCSC/veCSC kernels parallelize
/// over CSC columns, so the hub that starves them is a high in-degree
/// column. (Out-degree hubs cost nothing extra there — their arcs are
/// spread across many columns.) The scale-free index itself stays
/// out-degree, matching the paper's Eq. 5.
inline Variant select_variant(const graph::EdgeList& graph) {
  const auto stats = graph::in_degree_stats(graph);
  if (graph::is_irregular(graph)) return Variant::kVeCsc;
  if (stats.mean > 0.0 &&
      static_cast<double>(stats.max) > 50.0 * stats.mean) {
    return Variant::kScCooc;
  }
  return Variant::kScCsc;
}

}  // namespace turbobc::bc
