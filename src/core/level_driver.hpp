// The per-source Brandes sweep of Algorithm 1, written once.
//
// LevelDriver owns one source's pipeline: buffer lifetimes, the forward loop
// with its direction switch and per-level flag readback, the pull decisions
// the backward stage reuses, the backward loop and the bc accumulation, all
// through Algorithm 1's vertex kernels (vertex_kernels.hpp). What differs
// between engines comes from a RESIDENCY type R — where the graph lives and
// how a product is issued:
//   * ResidentColumns (below): one device, one storage (TurboBC, TurboBfs);
//   * StreamingTurboBC::Streamed: one device, host-side column shards, one
//     launch per shard in ascending order through the LRU window;
//   * DistTurboBC::Partitioned: K devices with local column slices, the
//     frontier exchanged before each forward level and the dependencies
//     around each backward product.
// A residency has parts() / device(k) / n_local(k) / col_begin(k) /
// owner(v) / mask_in_update(k), forward_product and backward_product, and
// three fixed capabilities: kPull (forward pull; then also col_ptr(k)),
// kPullBackward (the backward gather reuses pulled levels) and kExchange
// (full-length "exchange" operands; then also exchange_frontier).
//
// Event order is part of the modeled result: the order of each device's
// allocations, frees, fills, launches, readbacks and comm charges sets the
// simulated addresses the L2 model sees and the order in which alloc
// overhead folds into its float accumulator (every free charges it too).
// The partitioned "exchange" buffers therefore sit between f_t and c, and
// after delta_ut. tests/core/test_launch_pin.cpp pins the order per launch.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "core/autotune.hpp"
#include "core/turbobc.hpp"
#include "core/variant.hpp"
#include "core/vertex_kernels.hpp"
#include "gpusim/buffer.hpp"
#include "spmv/spmv_kernels.hpp"
#include "storage/device_ccsc.hpp"

namespace turbobc::bc {

/// One buffer per part (device slice), allocated in part order.
template <typename T>
using PerPart = std::vector<sim::DeviceBuffer<T>>;

/// The resident residency: one device holding one sparse format (exactly
/// one of csc / cooc / ccsc) and the variant that runs on it; the partitioned
/// residency builds one per shard for its products.
///
/// Pulled dependency gather: under --advance pull|auto the undirected
/// backward sweep reuses the forward sweep's per-level switch decisions.
/// delta_u at level d is nonzero exactly on the depth-d frontier, so a level
/// the forward sweep pulled is worth pulling here too — rebuild the n/32
/// bitmap from delta_u and probe it per edge instead of loading the 4-byte
/// operand. Skipped terms are exact zeros and delta_u >= 0, so the gathered
/// sums are bit-identical to the unmasked kernels. The directed scatter
/// already skips zero columns at the source end; it needs no map.
struct ResidentColumns {
  static constexpr bool kPull = true;
  static constexpr bool kPullBackward = true;
  static constexpr bool kExchange = false;

  sim::Device& dev;
  Variant variant;
  const spmv::DeviceCsc* csc = nullptr;
  const spmv::DeviceCooc* cooc = nullptr;
  const storage::DeviceCompressedCsc* ccsc = nullptr;
  vidx_t n = 0;
  bool directed = false;

  static ResidentColumns on(sim::Device& dev, Variant variant,
                            const storage::ResidentGraph& g, vidx_t n,
                            bool directed) {
    return {dev, variant, g.csc ? &*g.csc : nullptr,
            g.cooc ? &*g.cooc : nullptr, g.ccsc ? &*g.ccsc : nullptr, n,
            directed};
  }

  int parts() const { return 1; }
  sim::Device& device(int) const { return dev; }
  vidx_t n_local(int) const { return n; }
  vidx_t col_begin(int) const { return 0; }
  int owner(vidx_t) const { return 0; }
  bool mask_in_update(int) const { return variant == Variant::kScCooc; }
  const sim::DeviceBuffer<spmv::dptr_t>& col_ptr(int) const {
    return ccsc != nullptr ? ccsc->col_ptr() : csc->col_ptr();
  }

  /// Masked forward SpMV y <- A^T x where sigma == 0; `pull` scans the
  /// undiscovered columns against the frontier bitmap instead.
  template <typename T>
  void forward_product(int, bool pull, const sim::DeviceBuffer<T>& x,
                       const sim::DeviceBuffer<std::uint32_t>* bitmap,
                       sim::DeviceBuffer<T>& y,
                       const sim::DeviceBuffer<T>& sigma) const {
    if (pull && variant == Variant::kVeCsc) {
      spmv::spmv_forward_pull_vecsc(dev, *csc, x, *bitmap, y, sigma);
    } else if (pull) {
      storage::with_columns(csc, ccsc, [&](const auto& g) {
        spmv::spmv_forward_pull_sccsc(dev, g, x, *bitmap, y, sigma);
      });
    } else if (variant == Variant::kScCooc) {
      spmv::spmv_forward_sccooc(dev, *cooc, x, y);
    } else if (variant == Variant::kVeCsc) {
      spmv::spmv_forward_vecsc(dev, *csc, x, y, sigma);
    } else {
      storage::with_columns(csc, ccsc, [&](const auto& g) {
        spmv::spmv_forward_sccsc(dev, g, x, y, sigma);
      });
    }
  }

  /// Unmasked backward product y <- A x: the gather on symmetric
  /// (undirected) matrices, the transposed scatter on directed ones
  /// (DESIGN.md); a non-null `bitmap` selects the pulled gather.
  void product(const sim::DeviceBuffer<bc_t>& x,
               const sim::DeviceBuffer<std::uint32_t>* bitmap,
               sim::DeviceBuffer<bc_t>& y) const {
    if (bitmap != nullptr && variant == Variant::kVeCsc) {
      spmv::spmv_backward_pull_vecsc(dev, *csc, x, *bitmap, y);
    } else if (bitmap != nullptr) {
      storage::with_columns(csc, ccsc, [&](const auto& g) {
        spmv::spmv_backward_pull_sccsc(dev, g, x, *bitmap, y);
      });
    } else if (variant == Variant::kScCooc) {
      directed ? spmv::spmv_backward_scatter_sccooc(dev, *cooc, x, y)
               : spmv::spmv_backward_gather_sccooc(dev, *cooc, x, y);
    } else if (variant == Variant::kVeCsc) {
      directed ? spmv::spmv_backward_scatter_vecsc(dev, *csc, x, y)
               : spmv::spmv_backward_gather_vecsc(dev, *csc, x, y);
    } else {
      storage::with_columns(csc, ccsc, [&](const auto& g) {
        directed ? spmv::spmv_backward_scatter_sccsc(dev, g, x, y)
                 : spmv::spmv_backward_gather_sccsc(dev, g, x, y);
      });
    }
  }

  void backward_product(bool pull, PerPart<bc_t>& delta_u,
                        PerPart<bc_t>& delta_ut, PerPart<bc_t>&,
                        PerPart<std::uint32_t>& bitmap) const {
    delta_ut[0].device_fill(0.0);
    if (pull) spmv::frontier_to_bitmap(dev, delta_u[0], n, bitmap[0]);
    product(delta_u[0], pull ? &bitmap[0] : nullptr, delta_ut[0]);
  }
};

/// Backward hooks, given the (single) part's buffers: `edge_levels` asks
/// for level(d, S, sigma, delta_u) after every backward product and once
/// more at d = 1 (after a dep_prepare there); accumulated(delta) runs after
/// bc_accum. Only the resident engine has any (edge BC, approx moments).
struct NoHooks {
  bool edge_levels = false;
  template <typename... Buffers>
  void level(vidx_t, const Buffers&...) const {}
  void accumulated(const sim::DeviceBuffer<bc_t>&) const {}
};

/// Graph facts and sweep settings the driver needs.
struct LevelOptions {
  vidx_t n = 0;
  eidx_t m = 0;
  bool directed = false;
  Advance advance = Advance::kPush;
  DirectionThresholds thresholds = {};
  /// Model the BFS vectors as integer arrays (the paper's default; the
  /// datatype ablation turns it off).
  bool integer_bfs = true;
};

template <typename R>
class LevelDriver {
 public:
  using T = sigma_t;  // double: path counts overflow any integer width

  /// Allocates S / sigma for the whole source (all per-vertex device arrays
  /// are modeled at the paper's 4-byte width — Figure 4).
  LevelDriver(R& res, const LevelOptions& options, vidx_t source)
      : res_(res), opt_(options), source_(source) {
    TBC_CHECK(R::kPull || opt_.advance == Advance::kPush,
              "this residency sweeps push-only");
    for (int k = 0; k < res_.parts(); ++k) {
      const auto nl = static_cast<std::size_t>(res_.n_local(k));
      S_.emplace_back(res_.device(k), nl, "S");
      sigma_.emplace_back(res_.device(k), nl, "sigma", 4);
      sigma_.back().set_modeled_integer(opt_.integer_bfs);
      S_.back().device_fill(0);
      sigma_.back().device_fill(0);
    }
  }

  /// Forward (BFS) stage. f, f_t, the flag and the bitmap live only inside
  /// this call: returning is the paper's cudaFree that makes room for the
  /// dependency triple. `in_scope` runs after the last level, while they are
  /// still live (TurboBfs reads its clock and peak there).
  template <typename InScope>
  void forward(InScope&& in_scope) {
    const int parts = res_.parts();
    const bool dob = R::kPull && opt_.advance != Advance::kPush;
    PerPart<T> f, ft, xf;
    // Push mode: the paper's 1-element frontier flag. Direction-optimizing
    // mode widens it to three int32 counters — [0] flag, [1] nf (new-frontier
    // vertices), [2] mf (their in-edges) — accumulated with exact integer
    // atomics, so the switch inputs are deterministic at any pool width and
    // the per-level readback stays one small copy.
    PerPart<std::int32_t> cflag;
    PerPart<std::uint32_t> bitmap;
    for (int k = 0; k < parts; ++k) {
      sim::Device& dev = res_.device(k);
      const auto nl = static_cast<std::size_t>(res_.n_local(k));
      f.emplace_back(dev, nl, "f", 4);
      f.back().set_modeled_integer(opt_.integer_bfs);
      ft.emplace_back(dev, nl, "f_t", 4);
      ft.back().set_modeled_integer(opt_.integer_bfs);
      if constexpr (R::kExchange) {
        xf.emplace_back(dev, static_cast<std::size_t>(opt_.n), "exchange", 4);
        xf.back().set_modeled_integer(opt_.integer_bfs);
      }
      cflag.emplace_back(dev, dob ? 3 : 1, "c");
      if (dob) {
        bitmap.emplace_back(
            dev, static_cast<std::size_t>(spmv::frontier_bitmap_words(opt_.n)),
            "frontier_bitmap");
      }
      f.back().device_fill(T{0});
    }

    const int so = res_.owner(source_);
    const auto sl = static_cast<std::size_t>(source_ - res_.col_begin(so));
    const auto sk = static_cast<std::size_t>(so);
    bfs_init(res_.device(so), f[sk], sigma_[sk], sl);

    // Direction-switch state: the frontier about to be advanced starts as
    // {source} — one vertex, its in-degree in edges (the source's column is
    // wholly owned by one part). The host mirror of col_ptr is free to read;
    // only the per-level counters ride the modeled readback.
    DirectionSwitch dir(opt_.advance, opt_.thresholds, opt_.n, opt_.m);
    if constexpr (R::kPull) {
      if (dob) {
        const auto& cp = res_.col_ptr(so).host();
        dir.observe(1, static_cast<std::uint64_t>(cp[sl + 1] - cp[sl]));
      }
    }

    vidx_t d = 0;
    while (true) {
      ++d;
      if constexpr (R::kExchange) res_.exchange_frontier(f, xf, dob);
      const bool pulling = dir.decide();
      if (dob) pulled_level_.push_back(pulling ? 1 : 0);  // decision for d
      bool any = false;
      std::uint64_t nf = 0, mf = 0;
      for (int k = 0; k < parts; ++k) {
        sim::Device& dev = res_.device(k);
        const auto kk = static_cast<std::size_t>(k);
        const sim::DeviceBuffer<T>& x = R::kExchange ? xf[kk] : f[kk];
        ft[kk].device_fill(T{0});
        if (pulling) spmv::frontier_to_bitmap(dev, x, opt_.n, bitmap[kk]);
        res_.forward_product(k, pulling, x, pulling ? &bitmap[kk] : nullptr,
                             ft[kk], sigma_[kk]);
        cflag[kk].device_fill(0);
        const sim::DeviceBuffer<spmv::dptr_t>* cp = nullptr;
        if constexpr (R::kPull) {
          if (dob) cp = &res_.col_ptr(k);
        }
        bfs_update(dev, res_.n_local(k), d, ft[kk], f[kk], S_[kk], sigma_[kk],
                   cflag[kk], res_.mask_in_update(k), cp);
        // The host reads every part's frontier flag each level (one 4-byte
        // cudaMemcpy per device; 12 bytes in direction-optimizing mode,
        // which also carries nf / mf).
        const auto c_host = cflag[kk].copy_to_host();
        if (c_host[0] != 0) any = true;
        if (dob) {
          nf += static_cast<std::uint64_t>(c_host[1]);
          mf += static_cast<std::uint64_t>(c_host[2]);
        }
      }
      if (!any) break;
      if (dob) dir.observe(nf, mf);
    }
    height_ = d - 1;
    in_scope();
  }
  void forward() { forward([] {}); }

  /// Backward (dependency) stage in the bytes the forward stage freed, then
  /// bc += delta * scale into each part's accumulator `bc[k]`.
  template <typename Hooks = NoHooks>
  void backward(std::span<sim::DeviceBuffer<bc_t>> bc,
                const Hooks& hooks = {}) {
    const int parts = res_.parts();
    const bool pull_back = R::kPullBackward &&
                           opt_.advance != Advance::kPush && !opt_.directed;
    PerPart<bc_t> delta, delta_u, delta_ut, xb;
    PerPart<std::uint32_t> bitmap;
    for (int k = 0; k < parts; ++k) {
      sim::Device& dev = res_.device(k);
      const auto nl = static_cast<std::size_t>(res_.n_local(k));
      delta.emplace_back(dev, nl, "delta", 4);
      delta_u.emplace_back(dev, nl, "delta_u", 4);
      delta_ut.emplace_back(dev, nl, "delta_ut", 4);
      if constexpr (R::kExchange) {
        xb.emplace_back(dev, static_cast<std::size_t>(opt_.n), "exchange", 4);
      }
      delta.back().device_fill(0.0);
      if (pull_back) {
        bitmap.emplace_back(
            dev, static_cast<std::size_t>(spmv::frontier_bitmap_words(opt_.n)),
            "frontier_bitmap");
      }
    }

    const auto prepare = [&](vidx_t d) {
      for (int k = 0; k < parts; ++k) {
        const auto kk = static_cast<std::size_t>(k);
        dep_prepare(res_.device(k), res_.n_local(k), d, S_[kk], sigma_[kk],
                    delta[kk], delta_u[kk]);
      }
    };

    for (vidx_t d = height_; d >= 2; --d) {
      prepare(d);
      const bool pull = pull_back &&
                        static_cast<std::size_t>(d) <= pulled_level_.size() &&
                        pulled_level_[static_cast<std::size_t>(d) - 1] != 0;
      res_.backward_product(pull, delta_u, delta_ut, xb, bitmap);
      if (hooks.edge_levels) hooks.level(d, S_[0], sigma_[0], delta_u[0]);
      for (int k = 0; k < parts; ++k) {
        const auto kk = static_cast<std::size_t>(k);
        dep_update(res_.device(k), res_.n_local(k), d, S_[kk], sigma_[kk],
                   delta_ut[kk], delta[kk]);
      }
    }
    // Edge accumulation also runs at d = 1: the vertex recursion stops at
    // d = 2, but depth-0 -> depth-1 arcs carry dependency too.
    if (hooks.edge_levels && height_ >= 1) {
      prepare(1);
      hooks.level(1, S_[0], sigma_[0], delta_u[0]);
    }

    // Accumulate into bc (Eq. 3); undirected graphs halve (Brandes).
    const bc_t scale = opt_.directed ? 1.0 : 0.5;
    for (int k = 0; k < parts; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      bc_accum(res_.device(k), res_.n_local(k), res_.col_begin(k), source_,
               scale, delta[kk], bc[kk]);
    }
    hooks.accumulated(delta[0]);
  }

  /// BFS height and vertices reached (including the source).
  SourceStats stats() const {
    SourceStats s;
    s.bfs_depth = height_;
    for (const auto& sg : sigma_) {
      for (const T v : sg.host()) {
        if (v != 0) ++s.reached;
      }
    }
    return s;
  }

  vidx_t height() const noexcept { return height_; }
  sim::DeviceBuffer<std::int32_t>& S(int k) {
    return S_[static_cast<std::size_t>(k)];
  }
  sim::DeviceBuffer<T>& sigma(int k) {
    return sigma_[static_cast<std::size_t>(k)];
  }

 private:
  R& res_;
  LevelOptions opt_;
  vidx_t source_;
  PerPart<std::int32_t> S_;
  PerPart<T> sigma_;
  vidx_t height_ = 0;
  /// pulled_level_[d - 1]: whether depth d was DISCOVERED in pull mode.
  /// delta_u at backward level d is nonzero exactly on the depth-d frontier,
  /// so a level sparse enough to pull forward is sparse enough to pull the
  /// dependency gather too — the switch state is computed once and reused.
  std::vector<char> pulled_level_;
};

}  // namespace turbobc::bc
