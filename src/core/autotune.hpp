// Empirical variant auto-tuning.
//
// The paper's variant selection is ultimately empirical: "for all the
// results presented in this section, we chose the TurboBC algorithm which
// showed the best performance for each graph". This module packages that
// methodology as an API (and addresses the paper's future-work direction of
// better SpMV selection): probe each variant with one single-source run on
// a scratch device and return the fastest. The heuristic
// bc::select_variant() is the zero-cost alternative; autotune_variant() is
// the ground truth it approximates.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "core/variant.hpp"
#include "gpusim/device_props.hpp"
#include "graph/edge_list.hpp"

namespace turbobc::bc {

/// Beamer-style direction-switch thresholds for the kAuto advance mode.
/// The per-level decision uses modeled edge/vertex counts the update kernel
/// accumulates on-device (see core/turbobc.cpp):
///   mf — in-edges of the new frontier, mu — in-edges of still-unvisited
///   vertices, nf — new-frontier vertex count.
/// Push switches to pull when the frontier's edge work approaches the
/// unvisited side's (mf * alpha > mu); pull returns to push when the
/// frontier thins out (nf * beta < n). Defaults are Beamer's published
/// alpha = 14, beta = 24, which hold up on the modeled device too.
struct DirectionThresholds {
  double alpha = 14.0;
  double beta = 24.0;
};

inline bool switch_to_pull(std::uint64_t mf, std::uint64_t mu,
                           const DirectionThresholds& t) {
  return static_cast<double>(mf) * t.alpha > static_cast<double>(mu);
}

inline bool switch_to_push(std::uint64_t nf, std::uint64_t n,
                           const DirectionThresholds& t) {
  return static_cast<double>(nf) * t.beta < static_cast<double>(n);
}

/// The per-sweep push/pull policy every level loop shares (TurboBC,
/// TurboBfs, TurboBCBatched and the partitioned DistTurboBC): one object per
/// forward sweep holds the Beamer state — nf / mf of the frontier about to
/// be advanced and mu, the in-edges still on the unvisited side.
///
///   DirectionSwitch dir(advance, thresholds, n, m);
///   dir.observe(seed_vertices, seed_in_edges);
///   loop: pulling = dir.decide();  ...level...
///         dir.observe(level_nf, level_mf);
///
/// kPush never pulls, kPull always pulls, kAuto switches with hysteresis:
/// push -> pull on switch_to_pull, pull -> push on switch_to_push. Under
/// kPush the counters are never read, so sweeps that do not collect them
/// skip observe().
class DirectionSwitch {
 public:
  DirectionSwitch(Advance advance, const DirectionThresholds& thresholds,
                  vidx_t n, eidx_t m)
      : advance_(advance),
        thresholds_(thresholds),
        n_(static_cast<std::uint64_t>(n)),
        mu_(static_cast<std::uint64_t>(m)) {}

  /// The frontier about to be advanced holds `nf` vertices with `mf`
  /// in-edges; those edges leave the unvisited side (mu -= mf). Called once
  /// for the seed frontier and once per level after the flag readback.
  void observe(std::uint64_t nf, std::uint64_t mf) {
    nf_ = nf;
    mf_ = mf;
    mu_ -= mf;
  }

  /// Direction of the next level: true = pull.
  bool decide() {
    if (advance_ == Advance::kPull) {
      pulling_ = true;
    } else if (advance_ == Advance::kAuto) {
      pulling_ = pulling_ ? !switch_to_push(nf_, n_, thresholds_)
                          : switch_to_pull(mf_, mu_, thresholds_);
    }
    return pulling_;
  }

  /// In-edges still on the unvisited side.
  std::uint64_t mu() const noexcept { return mu_; }

 private:
  Advance advance_;
  DirectionThresholds thresholds_;
  std::uint64_t n_;
  std::uint64_t nf_ = 0;
  std::uint64_t mf_ = 0;
  std::uint64_t mu_;
  bool pulling_ = false;
};

struct AutotuneResult {
  Variant best = Variant::kScCsc;
  /// Modeled single-source seconds per variant, indexed by
  /// static_cast<int>(Variant).
  double seconds[3] = {0.0, 0.0, 0.0};
};

/// Run one BC source with each of the three variants on scratch devices and
/// return the fastest. `probe_source` should be a well-connected vertex
/// (bench::representative_source provides one).
AutotuneResult autotune_variant(
    const graph::EdgeList& graph, vidx_t probe_source,
    const sim::DeviceProps& props = sim::DeviceProps::titan_xp());

}  // namespace turbobc::bc
