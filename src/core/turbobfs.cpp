#include "core/turbobfs.hpp"

#include "common/error.hpp"
#include "gpusim/kernel.hpp"
#include "spmv/spmv_kernels.hpp"

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
  if (compress) {
    ccsc_.emplace(device_,
                  storage::encode_csc(graph::CscGraph::from_edges(canon)));
  } else if (variant_ == Variant::kScCooc) {
    cooc_.emplace(device_, graph::CoocGraph::from_edges(canon));
  } else {
    csc_.emplace(device_, graph::CscGraph::from_edges(canon));
  }
}

TurboBfsResult TurboBfs::run(vidx_t source) {
  TBC_CHECK(source >= 0 && source < n_, "BFS source vertex out of range");
  sim::Device& dev = device_;
  dev.memory().reset_peak();
  const double start = dev.total_seconds();
  const auto n = static_cast<std::size_t>(n_);

  sim::DeviceBuffer<std::int32_t> S(dev, n, "S");
  sim::DeviceBuffer<sigma_t> sigma(dev, n, "sigma", 4);
  sim::DeviceBuffer<sigma_t> f(dev, n, "f", 4);
  sim::DeviceBuffer<sigma_t> ft(dev, n, "f_t", 4);
  const bool dob = advance_ != Advance::kPush;
  sim::DeviceBuffer<std::int32_t> cflag(dev, dob ? 3 : 1, "c");
  std::optional<sim::DeviceBuffer<std::uint32_t>> bitmap;
  if (dob) {
    bitmap.emplace(dev,
                   static_cast<std::size_t>(spmv::frontier_bitmap_words(n_)),
                   "frontier_bitmap");
  }
  sigma.set_modeled_integer(true);
  f.set_modeled_integer(true);
  ft.set_modeled_integer(true);
  S.device_fill(0);
  sigma.device_fill(0);
  f.device_fill(0);

  sim::launch_scalar(dev, "bfs_init", 1, [&](sim::ThreadCtx& t) {
    f.store(t, static_cast<std::size_t>(source), 1);
    sigma.store(t, static_cast<std::size_t>(source), 1);
  });

  // Direction-switch state — same model as TurboBC::run_source_on.
  DirectionSwitch dir(advance_, thresholds_, n_, m_);
  if (dob) {
    const auto& cp = ccsc_ ? ccsc_->col_ptr().host() : csc_->col_ptr().host();
    dir.observe(1, static_cast<std::uint64_t>(
                       cp[static_cast<std::size_t>(source) + 1] -
                       cp[static_cast<std::size_t>(source)]));
  }
  const spmv::DeviceCsc* csc = csc_ ? &*csc_ : nullptr;
  const storage::DeviceCompressedCsc* ccsc = ccsc_ ? &*ccsc_ : nullptr;

  vidx_t d = 0;
  while (true) {
    ++d;
    const bool pulling = dir.decide();
    ft.device_fill(0);
    if (pulling) {
      spmv::frontier_to_bitmap(dev, f, n_, *bitmap);
      if (variant_ == Variant::kVeCsc) {
        spmv::spmv_forward_pull_vecsc(dev, *csc_, f, *bitmap, ft, sigma);
      } else {
        storage::with_columns(csc, ccsc, [&](const auto& g) {
          spmv::spmv_forward_pull_sccsc(dev, g, f, *bitmap, ft, sigma);
        });
      }
    } else {
      switch (variant_) {
        case Variant::kScCooc:
          spmv::spmv_forward_sccooc(dev, *cooc_, f, ft);
          break;
        case Variant::kScCsc:
          storage::with_columns(csc, ccsc, [&](const auto& g) {
            spmv::spmv_forward_sccsc(dev, g, f, ft, sigma);
          });
          break;
        case Variant::kVeCsc:
          spmv::spmv_forward_vecsc(dev, *csc_, f, ft, sigma);
          break;
      }
    }
    cflag.device_fill(0);
    const bool mask_in_update = variant_ == Variant::kScCooc;
    sim::launch_scalar(dev, "bfs_update", static_cast<std::uint64_t>(n_),
                       [&](sim::ThreadCtx& t) {
                         const auto i = static_cast<std::size_t>(t.global_id());
                         sigma_t v = ft.load(t, i);
                         t.count_ops(1);
                         if (mask_in_update && v != 0 &&
                             sigma.load(t, i) != 0) {
                           v = 0;
                         }
                         f.store(t, i, v);
                         if (v != 0) {
                           S.store(t, i, d);
                           sigma.store(t, i, sigma.load(t, i) + v);
                           cflag.store(t, 0, 1);
                           if (dob) {
                             const auto& cp = ccsc_ ? ccsc_->col_ptr()
                                                    : csc_->col_ptr();
                             cflag.atomic_add(t, 1, 1);
                             cflag.atomic_add(
                                 t, 2,
                                 static_cast<std::int32_t>(
                                     cp.load(t, i + 1) - cp.load(t, i)));
                           }
                         }
                       });
    const auto c_host = cflag.copy_to_host();
    if (c_host[0] == 0) break;
    if (dob) {
      dir.observe(static_cast<std::uint64_t>(c_host[1]),
                  static_cast<std::uint64_t>(c_host[2]));
    }
  }

  TurboBfsResult r;
  r.height = d - 1;
  r.device_seconds = dev.total_seconds() - start;
  r.peak_device_bytes = dev.memory().peak_bytes();
  r.sigma = sigma.copy_to_host();
  r.depth.assign(n, kInvalidVertex);
  r.depth[static_cast<std::size_t>(source)] = 0;
  r.reached = 1;
  for (std::size_t i = 0; i < n; ++i) {
    if (static_cast<vidx_t>(i) != source && r.sigma[i] != 0) {
      r.depth[i] = S.host()[i];
      ++r.reached;
    }
  }
  return r;
}

}  // namespace turbobc::bc
