#include "core/turbobc_batched.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/level_driver.hpp"
#include "gpusim/kernel.hpp"

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

namespace {

/// The approx estimator's moment fold after bc_accum_batched, when `sum` is
/// set: the same per-lane left fold for the two moment accumulators —
/// bit-identical to the scalar engine's per-source "approx_moment" sequence.
struct MomentHook : NoHooks {
  sim::Device& dev;
  const std::vector<vidx_t>& batch;
  bc_t scale;
  sim::DeviceBuffer<bc_t>* sum;
  sim::DeviceBuffer<bc_t>* sumsq;
  const double* weights;  // one per lane

  void accumulated(const sim::DeviceBuffer<bc_t>& delta) const {
    if (sum == nullptr) return;
    const std::size_t k = batch.size();
    sim::launch_scalar(
        dev, "approx_moment_batched", static_cast<std::uint64_t>(sum->size()),
        [&](sim::ThreadCtx& t) {
          const auto v = static_cast<std::size_t>(t.global_id());
          bc_t s = sum->load(t, v);
          bc_t s2 = sumsq->load(t, v);
          bool touched = false;
          for (std::size_t j = 0; j < k; ++j) {
            if (static_cast<vidx_t>(v) == batch[j]) continue;
            const bc_t dl = delta.load(t, v * k + j);
            t.count_ops(2);
            if (dl != 0.0) {
              const bc_t x = dl * scale * weights[j];
              s += x;
              s2 += x * x;
              touched = true;
            }
          }
          if (touched) {
            sum->store(t, v, s);
            sumsq->store(t, v, s2);
          }
        });
  }
};

}  // namespace

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

  // One lane-frontier sweep per block of batch_size sources.
  ResidentColumns res =
      ResidentColumns::on(device_, Variant::kScCsc, graph_, n_, directed_);
  const LevelOptions level{n_, m_, directed_, options_.advance,
                           options_.thresholds};
  const auto k = static_cast<std::size_t>(options_.batch_size);
  for (std::size_t begin = 0; begin < sources.size(); begin += k) {
    const std::vector<vidx_t> batch(
        sources.begin() + static_cast<std::ptrdiff_t>(begin),
        sources.begin() + static_cast<std::ptrdiff_t>(
                              std::min(sources.size(), begin + k)));
    LevelDriver<ResidentColumns, Frontier::kLanes> driver(res, level, batch);
    driver.forward();
    driver.backward(std::span(&bc_dev, 1),
                    MomentHook{{},
                               device_,
                               batch,
                               directed_ ? 1.0 : 0.5,
                               msum ? &*msum : nullptr,
                               msumsq ? &*msumsq : nullptr,
                               weights ? weights->data() + begin : nullptr});
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
