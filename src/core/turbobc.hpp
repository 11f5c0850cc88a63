// TurboBC: the paper's Algorithm 1 — linear-algebraic betweenness
// centrality — running on the simulated GPU.
//
// Pipeline per source (paper Section 3.4, Figure 2):
//   forward (BFS) stage, integer vectors:
//     d=1: init kernel (f(s)=1, sigma(s)=1), then per level:
//       f_t <- 0;  f_t <- masked SpMV(A^T, f);  update kernel (f <- f_t,
//       S <- d, sigma += f, frontier flag), flag copied back to the host.
//   f and f_t are then FREED and the float dependency triple delta /
//   delta_u / delta_ut allocated in their place — the paper's
//   memory-footprint trick that keeps the peak at ~7n + m words.
//   backward (dependency) stage, for d = height .. 2:
//     delta_u <- (1 + delta)/sigma on the depth-d slice;  delta_ut <-
//     SpMV;  delta += delta_ut * sigma on the depth-(d-1) slice.
//   bc accumulation kernel adds delta into bc (halved for undirected
//   graphs, Brandes' double-counting compensation).
//
// The published pseudocode has two quirks this implementation resolves
// (documented in DESIGN.md): the frontier must be zeroed where sigma != 0
// (otherwise the source re-accumulates every level), and on directed graphs
// the backward SpMV needs out-neighbour sums, realized as a scatter through
// the same single stored structure.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "core/autotune.hpp"
#include "core/variant.hpp"
#include "gpusim/device.hpp"
#include "graph/edge_list.hpp"
#include "spmv/device_graph.hpp"
#include "storage/device_ccsc.hpp"

namespace turbobc::bc {

struct BcOptions {
  Variant variant = Variant::kScCsc;
  /// Datatype ablation (paper Section 3.4): model the BFS-stage vectors
  /// (f, f_t, sigma) as floating-point device arrays instead of integers.
  /// Functionally identical (path counts are always computed in double —
  /// see common/types.hpp); the cost model charges float-atomic rates,
  /// which is what makes it slower. Only the ablation bench sets this.
  bool float_bfs = false;
  /// Extension (beyond the paper; its Eq. 1 defines BC for edges too):
  /// accumulate per-arc edge betweenness during the backward stage into an
  /// additional m-word device array. Costs one more kernel per level and
  /// raises the footprint from 7n + m to 7n + 2m words.
  bool edge_bc = false;
  /// Forward-sweep frontier advance. kPush is the paper's Algorithm 1
  /// pipeline, byte-for-byte. kPull / kAuto enable the direction-optimizing
  /// engine: undiscovered columns scan their CSC in-neighbours against a
  /// dense n/32-word frontier bitmap (footprint 7n + m + ceil(n/32) words),
  /// with kAuto switching per level on the thresholds below. Needs CSC:
  /// when combined with Variant::kScCooc the constructor falls back to
  /// kVeCsc (effective_variant: only one sparse format may stay resident, CSC is never larger
  /// than COOC for the same arcs, and warp-per-column stays balanced on the
  /// in-degree skew COOC is picked for). The S / sigma / bc results are
  /// bit-identical to push — the pull fold skips exact zeros only.
  Advance advance = Advance::kPush;
  /// Per-level push<->pull switch thresholds (kAuto only).
  DirectionThresholds thresholds = {};
  /// Out-of-core extension (DESIGN.md §12): keep the graph resident as a
  /// delta-varint compressed CSC (storage::CompressedCsc) and decode row
  /// ids inside the gather loops. The varint chain is sequential per
  /// column, so any variant demotes to the thread-per-column kScCsc layout
  /// (mirroring the COOC demotion under pull); results are bit-identical
  /// to the uncompressed kernels — same rows, same fold order, same
  /// arithmetic. Incompatible with edge_bc (the edge accumulator indexes
  /// the per-arc array by raw nonzero position).
  bool compress = false;
};

/// Statistics of one source's traversal.
struct SourceStats {
  vidx_t bfs_depth = 0;  // height of the BFS tree (the paper's d)
  vidx_t reached = 0;    // vertices discovered, including the source
};

struct BcResult {
  /// Per-vertex centrality. For a single-source run this is the dependency
  /// contribution delta_s (what the paper's "BC/vertex" experiments time);
  /// for run_exact it is the full betweenness centrality.
  std::vector<bc_t> bc;
  /// Per-arc edge betweenness in canonical arc order (see
  /// baseline::brandes_edge_bc for the indexing contract). Empty unless
  /// BcOptions::edge_bc was set.
  std::vector<bc_t> edge_bc;
  SourceStats last_source;
  /// Modeled device seconds spent in kernels for this call.
  double device_seconds = 0.0;
  /// Peak simulated device bytes live during this call.
  std::size_t peak_device_bytes = 0;
  /// Sources processed (1 for single-source, n for exact).
  vidx_t sources = 0;
};

class TurboBC {
 public:
  /// Uploads exactly one sparse format (chosen by options.variant) to the
  /// device. Throws DeviceOutOfMemory if the graph alone does not fit.
  TurboBC(sim::Device& device, const graph::EdgeList& graph,
          BcOptions options = {});

  /// Dependency accumulation from one source (the paper's per-vertex BC).
  BcResult run_single_source(vidx_t source);

  /// Exact BC: every vertex as source (paper Table 5).
  BcResult run_exact();

  /// BC restricted to the given sources (sampling-style approximations).
  ///
  /// Multi-source runs fan the sources out across the ExecutorPool: the
  /// source list is split into blocks (block structure depends only on the
  /// source count, never on the thread count), each block runs on a fresh
  /// replica device, and block partials — bc/edge_bc vectors, kernel
  /// aggregates, modeled seconds, peak bytes — are merged on the main
  /// device in fixed block order. Every modeled number and BC value is
  /// therefore bit-identical for any pool width, including width 1.
  BcResult run_sources(const std::vector<vidx_t>& sources);

  /// First and second moments of per-source importance-weighted dependency
  /// samples, as needed by the approx estimator (src/approx/estimator.hpp):
  /// for each vertex v,
  ///   sum(v)   = sum_s  w_s * c_s(v)
  ///   sumsq(v) = sum_s (w_s * c_s(v))^2
  /// where c_s(v) is source s's dependency contribution (already halved on
  /// undirected graphs, zero at v == s) and w_s the caller's importance
  /// weight (1 / p_s for a source drawn with probability p_s).
  struct MomentResult {
    std::vector<bc_t> sum;
    std::vector<bc_t> sumsq;
  };

  /// run_sources plus on-device moment accumulation: two extra n-word float
  /// arrays ("approx_sum"/"approx_sumsq") ride along on every device
  /// (raising the modeled footprint from 7n + m to 9n + m words), an
  /// "approx_moment" kernel folds each source's dependency vector into them,
  /// and the wave's moments are downloaded inside the modeled clock (the
  /// adaptive driver must read them between waves to evaluate its stopping
  /// rule). Same block fan-out and fixed-order merge as run_sources, so the
  /// moments — like everything else — are bit-identical at any pool width.
  /// `weights` must be parallel to `sources`. Incompatible with edge_bc.
  BcResult run_sources_moments(const std::vector<vidx_t>& sources,
                               const std::vector<double>& weights,
                               MomentResult& moments);

  /// Approximate BC by uniform source sampling (Brandes & Pich style):
  /// num_sources sources drawn without replacement, results scaled by
  /// n / num_sources — an unbiased estimator of exact BC. Extension beyond
  /// the paper, enabled by the same run_sources machinery.
  struct ApproxOptions {
    vidx_t num_sources = 32;
    std::uint64_t seed = 1;
  };
  BcResult run_approximate(const ApproxOptions& options);

  const BcOptions& options() const noexcept { return options_; }
  vidx_t num_vertices() const noexcept { return n_; }
  eidx_t num_arcs() const noexcept { return m_; }
  bool directed() const noexcept { return directed_; }

  /// Device bytes held by the uploaded graph structure.
  std::size_t graph_device_bytes() const noexcept;

  /// Fixed fan-out structure of a multi-source run: `count` sources split
  /// into min(count, 64) contiguous blocks of ceil(count / blocks) sources.
  /// A pure function of the source count — never of the pool width or any
  /// device count — so every consumer (run_sources here, the replicated
  /// strategy in src/dist/) folds the same block partials in the same order.
  struct BlockPlan {
    std::size_t num_blocks = 0;
    std::size_t block_len = 0;
    std::size_t begin(std::size_t b) const noexcept { return b * block_len; }
    std::size_t end(std::size_t b, std::size_t count) const noexcept {
      const std::size_t e = (b + 1) * block_len;
      return e < count ? e : count;
    }
  };
  static BlockPlan block_plan(std::size_t count);

  /// Host-side replay of the run_sources merge over per-source contribution
  /// vectors (each as returned by run_single_source for the source at that
  /// position): sources grouped by block_plan(count), a zero-initialized
  /// per-block partial left-folded source by source, then the block partials
  /// left-folded in block order — plain double adds throughout, exactly the
  /// adds the device accumulator and the block merge perform. Because the
  /// bc-accumulation kernel only ever ADDS terms (skipping exact zeros,
  /// which is bitwise neutral on the non-negative partial sums), the result
  /// is bit-identical to run_sources over the same source order at any pool
  /// width. The serving layer (src/serve/) folds its cached blocks through
  /// this to reproduce run_exact byte for byte.
  static std::vector<bc_t> fold_source_blocks(
      const std::vector<const std::vector<bc_t>*>& contributions,
      std::size_t n);

  /// Partials of one source block, run on a fresh replica device: the
  /// replica's timeline (setup charges stripped — only per-source work),
  /// raw bc / edge-bc (device nonzero order) / moment vectors, and the
  /// replica's peak bytes including graph + accumulator footprint.
  struct BlockPartial {
    std::unique_ptr<sim::Device> dev;
    std::vector<bc_t> bc;
    std::vector<bc_t> ebc;
    std::vector<bc_t> sum;
    std::vector<bc_t> sumsq;
    SourceStats last;
    std::size_t peak_bytes = 0;
  };

  /// Run sources [begin, end) of `sources` on a fresh replica built from
  /// `props`. Thread-safe (const; the replica is private to the call) — this
  /// is the unit both the ExecutorPool fan-out and the distributed
  /// replicated strategy schedule, which is what makes their BC folds
  /// bit-identical. `weights` (nullable) and `with_moments` mirror
  /// run_sources_moments.
  BlockPartial run_source_block(const sim::DeviceProps& props,
                                const std::vector<vidx_t>& sources,
                                std::size_t begin, std::size_t end,
                                const std::vector<double>* weights,
                                bool with_moments) const;

  /// Permutation from device nonzero order (column-major) to canonical arc
  /// order; empty unless options.edge_bc. The dist driver applies it to its
  /// own merged edge-bc partials.
  const std::vector<eidx_t>& nz_to_canonical() const noexcept {
    return nz_to_canonical_;
  }

 private:
  /// One device's accumulators for a call: bc, plus edge_bc and the approx
  /// moment pair ("approx_sum" / "approx_sumsq") when asked for — allocated
  /// and zeroed in that order on the main device and on every replica.
  struct Accumulators {
    sim::DeviceBuffer<bc_t> bc;
    std::optional<sim::DeviceBuffer<bc_t>> ebc, sum, sumsq;
    Accumulators(sim::Device& dev, vidx_t n, eidx_t m, bool edge_bc,
                 bool moments);
  };
  struct ResidentHooks;  // edge BC and moment hooks of the level driver

  /// One source's full pipeline against an explicit device and its resident
  /// graph: the main device (serial / single-source) or a per-block replica
  /// of it (parallel fan-out — see run_sources). `weight` is the source's
  /// importance weight for the moment fold.
  SourceStats run_source_on(sim::Device& dev,
                            const storage::ResidentGraph& graph,
                            vidx_t source, Accumulators& acc,
                            double weight) const;

  /// Shared body of run_sources / run_sources_moments. `weights` is null
  /// for plain runs; otherwise parallel to `sources`, with the per-block
  /// moment partials merged into `moments` in fixed block order.
  BcResult run_sources_impl(const std::vector<vidx_t>& sources,
                            const std::vector<double>* weights,
                            MomentResult* moments);

  sim::Device& device_;
  BcOptions options_;
  vidx_t n_ = 0;
  eidx_t m_ = 0;
  bool directed_ = false;
  storage::ResidentGraph graph_;
  /// Permutation from device nonzero order (column-major) to canonical arc
  /// order; built only when options.edge_bc is set.
  std::vector<eidx_t> nz_to_canonical_;
};

}  // namespace turbobc::bc
