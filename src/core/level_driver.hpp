// The Brandes sweep of Algorithm 1, written once.
//
// LevelDriver owns one sweep: buffer lifetimes, the forward loop with its
// direction switch and per-level flag readback, the pull decisions the
// backward stage reuses, the backward loop and the bc fold, all through
// Algorithm 1's vertex kernels (vertex_kernels.hpp). Two parameters vary.
//
// The FRONTIER (enum Frontier below) is what one sweep advances: kDense, one
// source's value vector f / f_t and a 1-word flag (3 words when
// direction-optimizing: + nf, mf), committed by bfs_update; or kLanes, a
// block of k <= 64 sources as 64-bit lane masks F / V / Fn and a k-word
// flag c.k (+ nf, mf), committed by the fused msbfs_fold, with k dependency
// lanes in the backward stage and the per-lane bc_accum_batched fold.
//
// The RESIDENCY type R is where the graph lives and how a product is issued:
//
//   residency                   engines          kDense          kLanes
//   ResidentColumns (below):    TurboBC,         push/pull/auto  push/pull/auto
//     one device, one storage   TurboBfs,        (+ pulled dep.  (scCSC / ccsc
//                               TurboBCBatched    gather)         columns)
//   StreamingTurboBC::Streamed: StreamingTurboBC push            unsupported
//     host column shards, one
//     launch per shard through
//     the LRU window
//   DistTurboBC::Partitioned:   DistTurboBC      push/pull/auto  push/pull/auto
//     K devices, local column   (partition)      (bitmap + new   (mask + sigma
//     slices, operands                           values          pairs
//     exchanged full-length                      exchanged)      exchanged)
//
// Every residency has parts() / device(k) / n_local(k) / col_begin(k) /
// owner(v) / mask_in_update(k), forward_product and backward_product, and
// three fixed capabilities: kPull (forward pull; then also col_ptr(k)),
// kPullBackward (the backward gather reuses pulled levels) and kExchange
// (full-length "exchange" operands; then also exchange_frontier). A kLanes
// residency adds with_columns(k, fn) (fn over part k's CSC columns),
// lane_sources / seed_lanes (how the lanes are seeded), backward_lanes (the
// k-lane backward product) and, with kExchange, exchange_lanes.
//
// Event order is part of the modeled result: the order of each device's
// allocations, fills, launches, readbacks and comm charges sets the
// simulated addresses the L2 model sees, the peak, and the order of every
// float clock sum. The partitioned "exchange" buffers therefore sit between
// the frontier and c, and after delta_ut. tests/core/test_launch_pin.cpp
// pins the order per launch.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
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

  // --- Lane frontier (the column storage is csc or ccsc) ---

  template <typename Fn>
  void with_columns(int, Fn&& fn) const {
    storage::with_columns(csc, ccsc, fn);
  }

  /// The block's source list, uploaded for the seed kernel.
  std::optional<sim::DeviceBuffer<vidx_t>> lane_sources(
      const std::vector<vidx_t>& sources) const {
    std::optional<sim::DeviceBuffer<vidx_t>> buf;
    buf.emplace(dev, sources.size(), "sources.k");
    buf->copy_from_host(sources);
    return buf;
  }

  /// One k-thread launch: lane j's thread composes the FULL membership word
  /// of its own source (duplicate sources in a block collapse onto one
  /// vertex), so same-address stores are same-value — no atomics needed.
  void seed_lanes(const std::vector<vidx_t>&,
                  const std::optional<sim::DeviceBuffer<vidx_t>>& sources,
                  PerPart<std::uint64_t>& F, PerPart<std::uint64_t>& V,
                  PerPart<sigma_t>& sigma) const {
    const std::size_t k = sources->size();
    sim::launch_scalar(dev, "bfs_init_msbfs", k, [&](sim::ThreadCtx& t) {
      const auto j = static_cast<std::size_t>(t.global_id());
      const auto s = static_cast<std::size_t>(sources->load(t, j));
      std::uint64_t mask = 0;
      for (std::size_t i = 0; i < k; ++i) {
        if (static_cast<std::size_t>(sources->load(t, i)) == s) {
          mask |= 1ull << i;
        }
      }
      t.count_word_ops(1);
      F[0].store(t, s, mask);
      V[0].store(t, s, mask);
      sigma[0].store(t, s * k + j, 1);
    });
  }

  /// k-lane dependency product y <- A x over interleaved slots: the gather
  /// on undirected graphs, the transposed scatter on directed ones.
  void lane_product(std::size_t lanes, const sim::DeviceBuffer<bc_t>& x,
                    sim::DeviceBuffer<bc_t>& y) const {
    with_columns(0, [&](const auto& g) {
      directed ? spmv::dep_spmm_sccsc_scatter(dev, g, lanes, x, y)
               : spmv::dep_spmm_sccsc(dev, g, lanes, x, y);
    });
  }

  void backward_lanes(std::size_t lanes, PerPart<bc_t>& delta_u,
                      PerPart<bc_t>& delta_ut, PerPart<bc_t>&) const {
    delta_ut[0].device_fill(0.0);
    lane_product(lanes, delta_u[0], delta_ut[0]);
  }
};

/// Backward hooks, given the (single) part's buffers: `edge_levels` asks
/// for level(d, S, sigma, delta_u) after every backward product and once
/// more at d = 1 (after a dep_prepare there); accumulated(delta) runs after
/// the bc fold. Only the resident engines have any (edge BC, approx
/// moments).
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

/// What one sweep advances. kDense: one source's value vector f / f_t, the
/// paper's SpMV pipeline. kLanes: a block of 1..64 sources as per-vertex
/// 64-bit lane masks F / V / Fn over interleaved S / sigma slots v * k + j
/// (MS-BFS, DESIGN.md §10); the fused msbfs_fold commits each level, so the
/// block needs no f / f_t at all.
enum class Frontier : std::uint8_t { kDense, kLanes };

template <typename R, Frontier F = Frontier::kDense>
class LevelDriver {
  static constexpr bool kLanes = F == Frontier::kLanes;

 public:
  using T = sigma_t;  // double: path counts overflow any integer width

  LevelDriver(R& res, const LevelOptions& options, vidx_t source)
      : LevelDriver(res, options, std::vector<vidx_t>{source}) {}

  /// Allocates S / sigma for the whole sweep (all per-vertex device arrays
  /// are modeled at the paper's 4-byte width — Figure 4); kLanes widens them
  /// to one slot per lane. `sources` holds the one source (kDense) or the
  /// block, lane j = sources[j] (kLanes; duplicates allowed).
  LevelDriver(R& res, const LevelOptions& options, std::vector<vidx_t> sources)
      : res_(res),
        opt_(options),
        sources_(std::move(sources)),
        lanes_(kLanes ? sources_.size() : 0) {
    TBC_CHECK(R::kPull || opt_.advance == Advance::kPush,
              "this residency sweeps push-only");
    TBC_CHECK(kLanes ? lanes_ >= 1 && lanes_ <= 64 : sources_.size() == 1,
              "a lane block holds 1..64 sources, a dense sweep one");
    for (int k = 0; k < res_.parts(); ++k) {
      const auto nl = static_cast<std::size_t>(res_.n_local(k)) * width();
      S_.emplace_back(res_.device(k), nl, kLanes ? "S.k" : "S");
      sigma_.emplace_back(res_.device(k), nl, kLanes ? "sigma.k" : "sigma",
                          4);
      sigma_.back().set_modeled_integer(opt_.integer_bfs);
      S_.back().device_fill(0);
      sigma_.back().device_fill(0);
    }
    if constexpr (kLanes) lane_sources_ = res_.lane_sources(sources_);
  }

  /// Forward (BFS) stage. The frontier, the flag and the bitmap live only
  /// inside this call: returning is the paper's cudaFree that makes room for
  /// the dependency triple. `in_scope` runs after the last level, while they
  /// are still live (TurboBfs reads its clock and peak there).
  template <typename InScope>
  void forward(InScope&& in_scope) {
    const int parts = res_.parts();
    const bool dob = R::kPull && opt_.advance != Advance::kPush;
    const auto n = static_cast<std::size_t>(opt_.n);
    PerPart<T> f, ft, xf;                     // kDense
    PerPart<std::uint64_t> fm, vm, nm, xm;    // kLanes
    PerPart<T> xs;                            // kLanes
    // The frontier flag: one word per lane (the paper's 1-element flag for
    // kDense). Direction-optimizing mode appends two int32 counters — nf
    // (new any-lane vertices) and mf (their in-edges) — accumulated with
    // exact integer atomics, so the switch inputs are deterministic at any
    // pool width and the per-level readback stays one small copy.
    PerPart<std::int32_t> cflag;
    PerPart<std::uint32_t> bitmap;
    for (int k = 0; k < parts; ++k) {
      sim::Device& dev = res_.device(k);
      const auto nl = static_cast<std::size_t>(res_.n_local(k));
      if constexpr (kLanes) {
        fm.emplace_back(dev, nl, "F.mask", 8);
        vm.emplace_back(dev, nl, "V.mask", 8);
        nm.emplace_back(dev, nl, "Fn.mask", 8);
        if constexpr (R::kExchange) {
          xm.emplace_back(dev, n, "exchange.mask", 8);
          xs.emplace_back(dev, n * lanes_, "exchange.sigma", 4);
          xs.back().set_modeled_integer(opt_.integer_bfs);
        }
      } else {
        f.emplace_back(dev, nl, "f", 4);
        f.back().set_modeled_integer(opt_.integer_bfs);
        ft.emplace_back(dev, nl, "f_t", 4);
        ft.back().set_modeled_integer(opt_.integer_bfs);
        if constexpr (R::kExchange) {
          xf.emplace_back(dev, n, "exchange", 4);
          xf.back().set_modeled_integer(opt_.integer_bfs);
        }
      }
      cflag.emplace_back(dev, width() + (dob ? 2 : 0), kLanes ? "c.k" : "c");
      if (dob) {
        bitmap.emplace_back(
            dev, static_cast<std::size_t>(spmv::frontier_bitmap_words(opt_.n)),
            "frontier_bitmap");
      }
      if constexpr (kLanes) {
        fm.back().device_fill(0);
        vm.back().device_fill(0);
      } else {
        f.back().device_fill(T{0});
      }
    }

    if constexpr (kLanes) {
      res_.seed_lanes(sources_, lane_sources_, fm, vm, sigma_);
    } else {
      const int so = res_.owner(sources_[0]);
      const auto sk = static_cast<std::size_t>(so);
      bfs_init(res_.device(so), f[sk], sigma_[sk],
               static_cast<std::size_t>(sources_[0] - res_.col_begin(so)));
    }

    // Direction-switch state over the any-lane frontier: it starts as the
    // distinct sources, with their in-degrees in edges (a column is wholly
    // owned by one part). The host mirror of col_ptr is free to read; only
    // the per-level counters ride the modeled readback.
    DirectionSwitch dir(opt_.advance, opt_.thresholds, opt_.n, opt_.m);
    if constexpr (R::kPull) {
      if (dob) {
        std::vector<vidx_t> distinct(sources_);
        std::sort(distinct.begin(), distinct.end());
        distinct.erase(std::unique(distinct.begin(), distinct.end()),
                       distinct.end());
        std::uint64_t mf = 0;
        for (const vidx_t s : distinct) {
          const int o = res_.owner(s);
          const auto& cp = res_.col_ptr(o).host();
          const auto l = static_cast<std::size_t>(s - res_.col_begin(o));
          mf += static_cast<std::uint64_t>(cp[l + 1] - cp[l]);
        }
        dir.observe(distinct.size(), mf);
      }
    }

    const int lanes = static_cast<int>(lanes_);
    const std::uint64_t full = lanes_ == 64 ? ~0ull : (1ull << lanes_) - 1;
    PerPart<std::uint64_t>* cur = &fm;
    PerPart<std::uint64_t>* nxt = &nm;
    vidx_t d = 0;
    while (true) {
      ++d;
      if constexpr (R::kExchange && kLanes) {
        res_.exchange_lanes(*cur, sigma_, lanes_, xm, xs);
      } else if constexpr (R::kExchange) {
        res_.exchange_frontier(f, xf, dob);
      }
      const bool pulling = dir.decide();
      if (dob) pulled_level_.push_back(pulling ? 1 : 0);  // decision for d
      bool any = false;
      std::uint64_t nf = 0, mf = 0;
      for (int k = 0; k < parts; ++k) {
        sim::Device& dev = res_.device(k);
        const auto kk = static_cast<std::size_t>(k);
        const sim::DeviceBuffer<std::uint32_t>* bm =
            pulling ? &bitmap[kk] : nullptr;
        if constexpr (kLanes) {
          // The fold reads the frontier as (mask, values): a frontier
          // vertex's value IS its sigma, exchanged full-length when the
          // residency owns only a column slice.
          const auto& x = R::kExchange ? xm[kk] : (*cur)[kk];
          const auto& xv = R::kExchange ? xs[kk] : sigma_[kk];
          (*nxt)[kk].device_fill(0);
          cflag[kk].device_fill(0);
          if (pulling) {
            spmv::msbfs_frontier_to_bitmap(dev, x, opt_.n, bitmap[kk]);
          }
          res_.with_columns(k, [&](const auto& g) {
            spmv::spmm_forward_msbfs(dev, g, lanes, full, d, x, xv, bm,
                                     vm[kk], (*nxt)[kk], sigma_[kk], S_[kk],
                                     cflag[kk], dob);
          });
        } else {
          const sim::DeviceBuffer<T>& x = R::kExchange ? xf[kk] : f[kk];
          ft[kk].device_fill(T{0});
          if (pulling) spmv::frontier_to_bitmap(dev, x, opt_.n, bitmap[kk]);
          res_.forward_product(k, pulling, x, bm, ft[kk], sigma_[kk]);
          cflag[kk].device_fill(0);
          const sim::DeviceBuffer<spmv::dptr_t>* cp = nullptr;
          if constexpr (R::kPull) {
            if (dob) cp = &res_.col_ptr(k);
          }
          bfs_update(dev, res_.n_local(k), d, ft[kk], f[kk], S_[kk],
                     sigma_[kk], cflag[kk], res_.mask_in_update(k), cp);
        }
        // The host reads every part's flag each level: one copy of
        // width() words per device (plus nf / mf when direction-optimizing).
        const auto c_host = cflag[kk].copy_to_host();
        for (std::size_t j = 0; j < width(); ++j) {
          if (c_host[j] != 0) any = true;
        }
        if (dob) {
          nf += static_cast<std::uint64_t>(c_host[width()]);
          mf += static_cast<std::uint64_t>(c_host[width() + 1]);
        }
      }
      if (!any) break;
      if (dob) dir.observe(nf, mf);
      std::swap(cur, nxt);
    }
    height_ = d - 1;
    in_scope();
  }
  void forward() { forward([] {}); }

  /// Backward (dependency) stage in the bytes the forward stage freed, then
  /// the bc fold into each part's accumulator `bc[k]`: bc += delta * scale,
  /// lane by lane in source order for a lane block.
  template <typename Hooks = NoHooks>
  void backward(std::span<sim::DeviceBuffer<bc_t>> bc,
                const Hooks& hooks = {}) {
    const int parts = res_.parts();
    const bool pull_back = !kLanes && R::kPullBackward &&
                           opt_.advance != Advance::kPush && !opt_.directed;
    PerPart<bc_t> delta, delta_u, delta_ut, xb;
    PerPart<std::uint32_t> bitmap;
    for (int k = 0; k < parts; ++k) {
      sim::Device& dev = res_.device(k);
      const auto nl = static_cast<std::size_t>(res_.n_local(k)) * width();
      delta.emplace_back(dev, nl, kLanes ? "delta.k" : "delta", 4);
      delta_u.emplace_back(dev, nl, kLanes ? "delta_u.k" : "delta_u", 4);
      delta_ut.emplace_back(dev, nl, kLanes ? "delta_ut.k" : "delta_ut", 4);
      if constexpr (R::kExchange) {
        xb.emplace_back(dev, static_cast<std::size_t>(opt_.n) * width(),
                        "exchange", 4);
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
                    delta[kk], delta_u[kk], lanes_);
      }
    };

    for (vidx_t d = height_; d >= 2; --d) {
      prepare(d);
      if constexpr (kLanes) {
        res_.backward_lanes(lanes_, delta_u, delta_ut, xb);
      } else {
        const bool pull = pull_back &&
                          static_cast<std::size_t>(d) <= pulled_level_.size() &&
                          pulled_level_[static_cast<std::size_t>(d) - 1] != 0;
        res_.backward_product(pull, delta_u, delta_ut, xb, bitmap);
      }
      if (hooks.edge_levels) hooks.level(d, S_[0], sigma_[0], delta_u[0]);
      for (int k = 0; k < parts; ++k) {
        const auto kk = static_cast<std::size_t>(k);
        dep_update(res_.device(k), res_.n_local(k), d, S_[kk], sigma_[kk],
                   delta_ut[kk], delta[kk], lanes_);
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
      if constexpr (kLanes) {
        bc_accum_batched(res_.device(k), res_.n_local(k), res_.col_begin(k),
                         sources_, scale, delta[kk], bc[kk]);
      } else {
        bc_accum(res_.device(k), res_.n_local(k), res_.col_begin(k),
                 sources_[0], scale, delta[kk], bc[kk]);
      }
    }
    hooks.accumulated(delta[0]);
  }

  /// BFS height and vertices reached by any lane (including the sources).
  SourceStats stats() const {
    SourceStats s;
    s.bfs_depth = height_;
    for (const auto& sg : sigma_) {
      const auto& h = sg.host();
      for (std::size_t v = 0; v < h.size(); v += width()) {
        for (std::size_t j = v; j < v + width(); ++j) {
          if (h[j] != 0) {
            ++s.reached;
            break;
          }
        }
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
  /// Slots per vertex in S / sigma / delta: the lane count, 1 when dense.
  std::size_t width() const noexcept { return kLanes ? lanes_ : 1; }

  R& res_;
  LevelOptions opt_;
  std::vector<vidx_t> sources_;
  /// 0 for a dense sweep (the per-source vertex kernels), else the block's
  /// lane count (their "_batched" forms).
  std::size_t lanes_;
  PerPart<std::int32_t> S_;
  PerPart<T> sigma_;
  /// kLanes: the block's source list on the device, for residencies whose
  /// seed kernel reads it; freed with the sweep, before sigma / S.
  std::optional<sim::DeviceBuffer<vidx_t>> lane_sources_;
  vidx_t height_ = 0;
  /// pulled_level_[d - 1]: whether depth d was DISCOVERED in pull mode.
  /// delta_u at backward level d is nonzero exactly on the depth-d frontier,
  /// so a level sparse enough to pull forward is sparse enough to pull the
  /// dependency gather too — the switch state is computed once and reused.
  std::vector<char> pulled_level_;
};

}  // namespace turbobc::bc
