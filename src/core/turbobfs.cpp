#include "core/turbobfs.hpp"

#include "common/error.hpp"
#include "core/level_driver.hpp"

namespace turbobc::bc {

TurboBfs::TurboBfs(sim::Device& device, const graph::EdgeList& graph,
                   Variant variant, Advance advance,
                   DirectionThresholds thresholds, bool compress)
    : device_(device),
      variant_(effective_variant(variant, advance, compress)),
      advance_(advance),
      thresholds_(thresholds) {
  graph::EdgeList canon = graph;
  canon.canonicalize();
  n_ = canon.num_vertices();
  m_ = canon.num_arcs();
  TBC_CHECK(n_ > 0, "TurboBFS needs a non-empty graph");
  graph_.upload(device_, canon, variant_ == Variant::kScCooc, compress);
}

TurboBfsResult TurboBfs::run(vidx_t source) {
  TBC_CHECK(source >= 0 && source < n_, "BFS source vertex out of range");
  device_.memory().reset_peak();
  const double start = device_.total_seconds();
  // Forward stage only: `directed` matters to the backward products alone.
  ResidentColumns res = ResidentColumns::on(device_, variant_, graph_, n_,
                                            /*directed=*/false);
  LevelDriver<ResidentColumns> driver(
      res, {n_, m_, false, advance_, thresholds_}, source);

  // The clock, peak and result readback are taken while the forward
  // buffers are still live — the BFS ends where BC's dependency stage
  // would begin.
  TurboBfsResult r;
  driver.forward([&] {
    r.height = driver.height();
    r.device_seconds = device_.total_seconds() - start;
    r.peak_device_bytes = device_.memory().peak_bytes();
    r.sigma = driver.sigma(0).copy_to_host();
  });
  const auto n = static_cast<std::size_t>(n_);
  r.depth.assign(n, kInvalidVertex);
  r.depth[static_cast<std::size_t>(source)] = 0;
  r.reached = 1;
  for (std::size_t i = 0; i < n; ++i) {
    if (static_cast<vidx_t>(i) != source && r.sigma[i] != 0) {
      r.depth[i] = driver.S(0).host()[i];
      ++r.reached;
    }
  }
  return r;
}

}  // namespace turbobc::bc
