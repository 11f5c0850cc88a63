#include "core/turbobc_batched.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/vertex_kernels.hpp"
#include "gpusim/kernel.hpp"
#include "spmv/spmv_kernels.hpp"

namespace turbobc::bc {

TurboBCBatched::TurboBCBatched(sim::Device& device,
                               const graph::EdgeList& graph,
                               BatchedOptions options)
    : device_(device), options_(options) {
  TBC_CHECK(options_.batch_size >= 1 && options_.batch_size <= 64,
            "batch size must be in [1, 64]");
  graph::EdgeList canon = graph;
  canon.canonicalize();
  n_ = canon.num_vertices();
  m_ = canon.num_arcs();
  directed_ = canon.directed();
  TBC_CHECK(n_ > 0, "batched TurboBC needs a non-empty graph");
  graph_.upload(device_, canon, /*use_cooc=*/false, options_.compress);
}

void TurboBCBatched::run_batch(const std::vector<vidx_t>& batch,
                               sim::DeviceBuffer<bc_t>& bc_dev,
                               const BatchMoments* moments) {
  sim::Device& dev = device_;
  const auto k = static_cast<std::size_t>(batch.size());
  const auto n = static_cast<std::size_t>(n_);
  const auto nk = n * k;
  const auto slot = [k](std::size_t v, std::size_t j) { return v * k + j; };
  const spmv::DeviceCsc* csc = graph_.csc ? &*graph_.csc : nullptr;
  const storage::DeviceCompressedCsc* ccsc =
      graph_.ccsc ? &*graph_.ccsc : nullptr;

  // Per-batch device state: the vector arrays of Algorithm 1, widened to k
  // columns (4-byte modeled words, as in the single-source pipeline).
  sim::DeviceBuffer<std::int32_t> S(dev, nk, "S.k");
  sim::DeviceBuffer<sigma_t> sigma(dev, nk, "sigma.k", 4);
  sim::DeviceBuffer<vidx_t> sources(dev, k, "sources.k");
  sigma.set_modeled_integer(true);
  S.device_fill(0);
  sigma.device_fill(0);
  sources.copy_from_host(batch);

  std::vector<vidx_t> heights(k, 0);
  vidx_t max_height = 0;
  {
    // MS-BFS forward sweep (DESIGN.md §10): per-vertex packed 64-bit
    // source-membership masks — F (current frontier), V (visited), Fn
    // (next) — replace the n x k integer frontier matrices entirely. The
    // frontier VALUE of a newly set bit is its new sigma, so the fused
    // kernel accumulates straight into the sigma matrix and the whole
    // forward state is 3 mask words per vertex (modeled at 8 bytes each)
    // plus S/sigma.
    const bool dob = options_.advance != Advance::kPush;
    const auto kc = static_cast<std::size_t>(dob ? k + 2 : k);
    sim::DeviceBuffer<std::uint64_t> fmask(dev, n, "F.mask", 8);
    sim::DeviceBuffer<std::uint64_t> vmask(dev, n, "V.mask", 8);
    sim::DeviceBuffer<std::uint64_t> nmask(dev, n, "Fn.mask", 8);
    // Per-lane convergence flags; in direction-optimizing mode two extra
    // counters ([k] = new any-lane vertices, [k + 1] = their in-edges) feed
    // the Beamer switch — the batched widening of the single engine's
    // 3-word flag.
    sim::DeviceBuffer<std::int32_t> cflags(dev, kc, "c.k");
    std::optional<sim::DeviceBuffer<std::uint32_t>> bitmap;
    if (dob) {
      bitmap.emplace(dev,
                     static_cast<std::size_t>(spmv::frontier_bitmap_words(n_)),
                     "frontier_bitmap");
    }
    fmask.device_fill(0);
    vmask.device_fill(0);
    const std::uint64_t full =
        k == 64 ? ~0ull : ((1ull << k) - 1);

    // Seed the masks: lane j's thread composes the FULL membership word of
    // its own source (duplicate sources in a batch collapse onto one
    // vertex), so same-address stores are same-value — no atomics needed.
    sim::launch_scalar(dev, "bfs_init_msbfs", k, [&](sim::ThreadCtx& t) {
      const auto j = static_cast<std::size_t>(t.global_id());
      const auto s = static_cast<std::size_t>(sources.load(t, j));
      std::uint64_t mask = 0;
      for (std::size_t i = 0; i < k; ++i) {
        if (static_cast<std::size_t>(sources.load(t, i)) == s) {
          mask |= 1ull << i;
        }
      }
      t.count_word_ops(1);
      fmask.store(t, s, mask);
      vmask.store(t, s, mask);
      sigma.store(t, slot(s, j), 1);
    });

    // Direction-switch state over the ANY-LANE frontier, mirroring the
    // single engine: seeded with the distinct sources, then fed nf / mf
    // from the widened flag readback.
    DirectionSwitch dir(options_.advance, options_.thresholds, n_, m_);
    if (dob) {
      std::vector<vidx_t> distinct(batch);
      std::sort(distinct.begin(), distinct.end());
      distinct.erase(std::unique(distinct.begin(), distinct.end()),
                     distinct.end());
      const auto& cp = ccsc ? ccsc->col_ptr().host() : csc->col_ptr().host();
      std::uint64_t mf = 0;
      for (const vidx_t s : distinct) {
        mf += static_cast<std::uint64_t>(
            cp[static_cast<std::size_t>(s) + 1] -
            cp[static_cast<std::size_t>(s)]);
      }
      dir.observe(distinct.size(), mf);
    }

    sim::DeviceBuffer<std::uint64_t>* cur = &fmask;
    sim::DeviceBuffer<std::uint64_t>* nxt = &nmask;
    vidx_t d = 0;
    while (true) {
      ++d;
      nxt->device_fill(0);
      cflags.device_fill(0);
      const bool pulling = dir.decide();
      if (pulling) {
        spmv::msbfs_frontier_to_bitmap(dev, *cur, n_, *bitmap);
      }
      storage::with_columns(csc, ccsc, [&](const auto& g) {
        if (pulling) {
          spmv::spmm_forward_msbfs_pull_sccsc(dev, g, static_cast<int>(k),
                                              full, d, *cur, *bitmap, vmask,
                                              *nxt, sigma, S, cflags, dob);
        } else {
          spmv::spmm_forward_msbfs_sccsc(dev, g, static_cast<int>(k), full, d,
                                         *cur, sigma, vmask, *nxt, sigma, S,
                                         cflags, dob);
        }
      });
      // ONE readback of k flags per level (vs one 4-byte readback per
      // source-level in the unbatched pipeline).
      const auto flags = cflags.copy_to_host();
      bool any = false;
      for (std::size_t j = 0; j < k; ++j) {
        if (flags[j] != 0) {
          heights[j] = d;
          any = true;
        }
      }
      if (!any) break;
      if (dob) {
        dir.observe(static_cast<std::uint64_t>(flags[k]),
                    static_cast<std::uint64_t>(flags[k + 1]));
      }
      std::swap(cur, nxt);
    }
    max_height = *std::max_element(heights.begin(), heights.end());
  }

  // Backward stage, k dependency columns at once.
  sim::DeviceBuffer<bc_t> delta(dev, nk, "delta.k", 4);
  sim::DeviceBuffer<bc_t> delta_u(dev, nk, "delta_u.k", 4);
  sim::DeviceBuffer<bc_t> delta_ut(dev, nk, "delta_ut.k", 4);
  delta.device_fill(0.0);

  for (vidx_t d = max_height; d >= 2; --d) {
    dep_prepare(dev, n_, d, S, sigma, delta, delta_u, k);
    delta_ut.device_fill(0.0);
    storage::with_columns(csc, ccsc, [&](const auto& g) {
      if (!directed_) {
        spmv::dep_spmm_sccsc(dev, g, k, delta_u, delta_ut);
      } else {
        // Directed: out-neighbour sums via scatter (see DESIGN.md).
        spmv::dep_spmm_sccsc_scatter(dev, g, k, delta_u, delta_ut);
      }
    });
    dep_update(dev, n_, d, S, sigma, delta_ut, delta, k);
  }

  const bc_t scale = directed_ ? 1.0 : 0.5;
  bc_accum_batched(dev, n_, 0, batch, scale, delta, bc_dev);

  if (moments != nullptr) {
    sim::DeviceBuffer<bc_t>& msum = *moments->sum;
    sim::DeviceBuffer<bc_t>& msumsq = *moments->sumsq;
    const double* w = moments->weights;
    sim::launch_scalar(
        dev, "approx_moment_batched", static_cast<std::uint64_t>(n_),
        [&](sim::ThreadCtx& t) {
          const auto v = static_cast<std::size_t>(t.global_id());
          // Same per-lane left fold as bc_accum_batched, for the moment
          // accumulators — bit-identical to the scalar engine's per-source
          // "approx_moment" sequence.
          bc_t s = msum.load(t, v);
          bc_t s2 = msumsq.load(t, v);
          bool touched = false;
          for (std::size_t j = 0; j < k; ++j) {
            if (static_cast<vidx_t>(v) == batch[j]) continue;
            const bc_t dl = delta.load(t, slot(v, j));
            t.count_ops(2);
            if (dl != 0.0) {
              const bc_t x = dl * scale * w[j];
              s += x;
              s2 += x * x;
              touched = true;
            }
          }
          if (touched) {
            msum.store(t, v, s);
            msumsq.store(t, v, s2);
          }
        });
  }
}

BcResult TurboBCBatched::run_sources(const std::vector<vidx_t>& sources) {
  return run_sources_impl(sources, nullptr, nullptr);
}

BcResult TurboBCBatched::run_sources_moments(
    const std::vector<vidx_t>& sources, const std::vector<double>& weights,
    TurboBC::MomentResult& moments) {
  TBC_CHECK(weights.size() == sources.size(),
            "moment run needs one weight per source");
  return run_sources_impl(sources, &weights, &moments);
}

BcResult TurboBCBatched::run_sources_impl(const std::vector<vidx_t>& sources,
                                          const std::vector<double>* weights,
                                          TurboBC::MomentResult* moments) {
  for (const vidx_t s : sources) {
    TBC_CHECK(s >= 0 && s < n_, "batched BC source out of range");
  }
  device_.memory().reset_peak();
  const double start = device_.total_seconds();

  const auto n = static_cast<std::size_t>(n_);
  sim::DeviceBuffer<bc_t> bc_dev(device_, n, "bc", 4);
  bc_dev.device_fill(0.0);
  std::optional<sim::DeviceBuffer<bc_t>> msum, msumsq;
  if (moments != nullptr) {
    msum.emplace(device_, n, "approx_sum", 4);
    msumsq.emplace(device_, n, "approx_sumsq", 4);
    msum->device_fill(0.0);
    msumsq->device_fill(0.0);
  }

  const auto k = static_cast<std::size_t>(options_.batch_size);
  for (std::size_t begin = 0; begin < sources.size(); begin += k) {
    const std::size_t end = std::min(sources.size(), begin + k);
    const BatchMoments bm{msum ? &*msum : nullptr,
                          msumsq ? &*msumsq : nullptr,
                          weights ? weights->data() + begin : nullptr};
    run_batch(std::vector<vidx_t>(
                  sources.begin() + static_cast<std::ptrdiff_t>(begin),
                  sources.begin() + static_cast<std::ptrdiff_t>(end)),
              bc_dev, moments != nullptr ? &bm : nullptr);
  }

  if (moments != nullptr) {
    // Downloaded inside the modeled clock — the adaptive driver reads the
    // moments between waves (see TurboBC::run_sources_moments).
    moments->sum = msum->copy_to_host();
    moments->sumsq = msumsq->copy_to_host();
  }

  BcResult result;
  result.sources = static_cast<vidx_t>(sources.size());
  result.device_seconds = device_.total_seconds() - start;
  result.peak_device_bytes = device_.memory().peak_bytes();
  result.bc = bc_dev.copy_to_host();
  return result;
}

BcResult TurboBCBatched::run_exact() {
  std::vector<vidx_t> sources(static_cast<std::size_t>(n_));
  for (vidx_t v = 0; v < n_; ++v) sources[static_cast<std::size_t>(v)] = v;
  return run_sources(sources);
}

}  // namespace turbobc::bc
