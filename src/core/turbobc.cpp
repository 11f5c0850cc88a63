#include "core/turbobc.hpp"

#include <algorithm>
#include <memory>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "core/level_driver.hpp"
#include "gpusim/executor.hpp"
#include "gpusim/kernel.hpp"

namespace turbobc::bc {

namespace {

/// Upper bound on source-fan-out blocks. Enough blocks that the dynamic
/// task queue load-balances well past any realistic core count, few enough
/// that at most pool-width replica devices (graph clone + bc partial each)
/// are ever live at once without excessive cloning overhead.
constexpr std::size_t kMaxSourceBlocks = 64;

}  // namespace

/// TurboBC's resident-only backward hooks: edge BC per level and the approx
/// estimator's moment fold after the bc accumulation.
struct TurboBC::ResidentHooks {
  const ResidentColumns& res;
  eidx_t m;
  vidx_t source;
  Accumulators& acc;
  double weight;
  bool edge_levels = acc.ebc.has_value();

  // Edge-BC extension: the Brandes arc term sigma(i)/sigma(w)(1+delta(w))
  // equals sigma(i) * delta_u(w); arcs i -> w from depth d-1 into depth d
  // accumulate it. One thread per column (CSC) / per nonzero (COOC); each
  // arc is touched by exactly one thread, so plain read-modify-write
  // suffices.
  void level(vidx_t d, const sim::DeviceBuffer<std::int32_t>& S,
             const sim::DeviceBuffer<sigma_t>& sigma,
             const sim::DeviceBuffer<bc_t>& delta_u) const {
    const bc_t escale = res.directed ? 1.0 : 0.5;
    sim::DeviceBuffer<bc_t>& e = *acc.ebc;
    const spmv::DeviceCooc* cooc = res.cooc;
    const spmv::DeviceCsc* csc = res.csc;
    if (cooc != nullptr) {
      sim::launch_scalar(
          res.dev, "edge_bc_accum", static_cast<std::uint64_t>(m),
          [&](sim::ThreadCtx& t) {
            const auto k = static_cast<std::size_t>(t.global_id());
            const vidx_t w = cooc->col_idx().load(t, k);
            if (S.load(t, static_cast<std::size_t>(w)) != d) return;
            const vidx_t i = cooc->row_idx().load(t, k);
            if (S.load(t, static_cast<std::size_t>(i)) != d - 1) return;
            const bc_t du = delta_u.load(t, static_cast<std::size_t>(w));
            if (du == 0.0) return;
            const sigma_t sg = sigma.load(t, static_cast<std::size_t>(i));
            e.store(t, k, e.load(t, k) + du * static_cast<bc_t>(sg) * escale);
            t.count_ops(1);
          });
    } else {
      sim::launch_scalar(
          res.dev, "edge_bc_accum", static_cast<std::uint64_t>(res.n),
          [&](sim::ThreadCtx& t) {
            const auto w = static_cast<std::size_t>(t.global_id());
            if (S.load(t, w) != d) return;
            const bc_t du = delta_u.load(t, w);
            if (du == 0.0) return;
            const spmv::dptr_t begin = csc->col_ptr().load(t, w);
            const spmv::dptr_t end = csc->col_ptr().load(t, w + 1);
            for (spmv::dptr_t k = begin; k < end; ++k) {
              const vidx_t i =
                  csc->row_idx().load(t, static_cast<std::size_t>(k));
              t.count_ops(1);
              if (S.load(t, static_cast<std::size_t>(i)) == d - 1) {
                const sigma_t sg = sigma.load(t, static_cast<std::size_t>(i));
                const auto kk = static_cast<std::size_t>(k);
                e.store(t, kk,
                        e.load(t, kk) + du * static_cast<bc_t>(sg) * escale);
              }
            }
          });
    }
  }

  // Approx-estimator moment fold: the per-source weighted dependency sample
  // x = w_s * delta(v) * scale and its square, accumulated into the two
  // extra per-device float arrays. One thread per vertex; the source's own
  // lane is skipped, matching the bc accumulation.
  void accumulated(const sim::DeviceBuffer<bc_t>& delta) const {
    if (!acc.sum) return;
    const bc_t scale = res.directed ? 1.0 : 0.5;
    sim::DeviceBuffer<bc_t>& msum = *acc.sum;
    sim::DeviceBuffer<bc_t>& msumsq = *acc.sumsq;
    sim::launch_scalar(res.dev, "approx_moment",
                       static_cast<std::uint64_t>(res.n),
                       [&](sim::ThreadCtx& t) {
                         const auto i = static_cast<std::size_t>(t.global_id());
                         if (static_cast<vidx_t>(i) == source) return;
                         const bc_t dl = delta.load(t, i);
                         t.count_ops(2);
                         if (dl != 0.0) {
                           const bc_t x = dl * scale * weight;
                           msum.store(t, i, msum.load(t, i) + x);
                           msumsq.store(t, i, msumsq.load(t, i) + x * x);
                         }
                       });
  }
};

TurboBC::TurboBC(sim::Device& device, const graph::EdgeList& graph,
                 BcOptions options)
    : device_(device), options_(options) {
  TBC_CHECK(!(options_.compress && options_.edge_bc),
            "compressed storage does not support edge BC (the edge "
            "accumulator indexes arcs by raw nonzero position)");
  options_.variant = effective_variant(options_.variant, options_.advance,
                                       options_.compress);
  graph::EdgeList canon = graph;
  canon.canonicalize();
  n_ = canon.num_vertices();
  m_ = canon.num_arcs();
  directed_ = canon.directed();
  TBC_CHECK(n_ > 0, "TurboBC needs a non-empty graph");

  graph_.upload(device_, canon, options_.variant == Variant::kScCooc,
                options_.compress);

  if (options_.edge_bc) {
    // Both device formats store nonzeros in column-major order; replay the
    // column fill over the canonical (row-major) arc list to build the
    // nonzero -> canonical-arc permutation used when results are returned.
    std::vector<eidx_t> cursor(static_cast<std::size_t>(n_) + 1, 0);
    for (const graph::Edge& e : canon.edges()) {
      ++cursor[static_cast<std::size_t>(e.v) + 1];
    }
    for (std::size_t v = 0; v < static_cast<std::size_t>(n_); ++v) {
      cursor[v + 1] += cursor[v];
    }
    nz_to_canonical_.resize(canon.edges().size());
    for (std::size_t j = 0; j < canon.edges().size(); ++j) {
      const auto v = static_cast<std::size_t>(canon.edges()[j].v);
      nz_to_canonical_[static_cast<std::size_t>(cursor[v]++)] =
          static_cast<eidx_t>(j);
    }
  }
}

std::size_t TurboBC::graph_device_bytes() const noexcept {
  if (graph_.ccsc) return graph_.ccsc->device_bytes();
  if (graph_.cooc) {
    return graph_.cooc->row_idx().bytes() + graph_.cooc->col_idx().bytes();
  }
  return graph_.csc->col_ptr().bytes() + graph_.csc->row_idx().bytes();
}

TurboBC::Accumulators::Accumulators(sim::Device& dev, vidx_t n, eidx_t m,
                                    bool edge_bc, bool moments)
    : bc(dev, static_cast<std::size_t>(n), "bc", 4) {
  bc.device_fill(0.0);
  if (edge_bc) {
    ebc.emplace(dev, static_cast<std::size_t>(m), "edge_bc", 4);
    ebc->device_fill(0.0);
  }
  if (moments) {
    sum.emplace(dev, static_cast<std::size_t>(n), "approx_sum", 4);
    sumsq.emplace(dev, static_cast<std::size_t>(n), "approx_sumsq", 4);
    sum->device_fill(0.0);
    sumsq->device_fill(0.0);
  }
}

SourceStats TurboBC::run_source_on(sim::Device& dev,
                                   const storage::ResidentGraph& graph,
                                   vidx_t source, Accumulators& acc,
                                   double weight) const {
  TBC_CHECK(source >= 0 && source < n_, "BC source vertex out of range");
  ResidentColumns res =
      ResidentColumns::on(dev, options_.variant, graph, n_, directed_);
  // Paper Section 3.4: the BFS stage runs on integer-typed device arrays
  // unless the datatype ablation asks for float costing.
  LevelDriver<ResidentColumns> driver(
      res,
      {n_, m_, directed_, options_.advance, options_.thresholds,
       !options_.float_bfs},
      source);
  driver.forward();
  driver.backward(std::span(&acc.bc, 1),
                  ResidentHooks{res, m_, source, acc, weight});
  return driver.stats();
}

TurboBC::BlockPlan TurboBC::block_plan(std::size_t count) {
  BlockPlan plan;
  plan.num_blocks = std::min(count, kMaxSourceBlocks);
  plan.block_len =
      plan.num_blocks > 0 ? (count + plan.num_blocks - 1) / plan.num_blocks
                          : 0;
  return plan;
}

std::vector<bc_t> TurboBC::fold_source_blocks(
    const std::vector<const std::vector<bc_t>*>& contributions,
    std::size_t n) {
  std::vector<bc_t> bc(n, 0.0);
  const std::size_t count = contributions.size();
  if (count == 0) return bc;
  const BlockPlan plan = block_plan(count);
  std::vector<bc_t> partial(n);
  for (std::size_t b = 0; b < plan.num_blocks; ++b) {
    std::fill(partial.begin(), partial.end(), 0.0);
    for (std::size_t i = plan.begin(b); i < plan.end(b, count); ++i) {
      const std::vector<bc_t>& c = *contributions[i];
      for (std::size_t v = 0; v < n; ++v) partial[v] += c[v];
    }
    for (std::size_t v = 0; v < n; ++v) bc[v] += partial[v];
  }
  return bc;
}

TurboBC::BlockPartial TurboBC::run_source_block(
    const sim::DeviceProps& props, const std::vector<vidx_t>& sources,
    std::size_t begin, std::size_t end, const std::vector<double>* weights,
    bool with_moments) const {
  BlockPartial out;
  out.dev = std::make_unique<sim::Device>(props);
  sim::Device& rdev = *out.dev;
  rdev.set_keep_launch_records(device_.keep_launch_records());

  storage::ResidentGraph rgraph;
  rgraph.replicate(rdev, graph_);
  Accumulators racc(rdev, n_, m_, options_.edge_bc, with_moments);
  // The main device already paid for the graph upload (at construction) and
  // the bc alloc/fill (run_sources_impl); drop the replica's duplicate setup
  // charges so the block timeline holds only per-source work. The peak keeps
  // the full replica footprint (graph + bc + per-source arrays), matching
  // serial accounting.
  rdev.reset_timeline();
  rdev.memory().reset_peak();

  for (std::size_t i = begin; i < end; ++i) {
    out.last = run_source_on(rdev, rgraph, sources[i], racc,
                             weights != nullptr ? (*weights)[i] : 1.0);
  }
  out.bc = racc.bc.host();
  if (racc.ebc) out.ebc = racc.ebc->host();
  if (racc.sum) out.sum = racc.sum->host();
  if (racc.sumsq) out.sumsq = racc.sumsq->host();
  out.peak_bytes = rdev.memory().peak_bytes();
  return out;
}

BcResult TurboBC::run_sources(const std::vector<vidx_t>& sources) {
  return run_sources_impl(sources, nullptr, nullptr);
}

BcResult TurboBC::run_sources_moments(const std::vector<vidx_t>& sources,
                                      const std::vector<double>& weights,
                                      MomentResult& moments) {
  TBC_CHECK(weights.size() == sources.size(),
            "run_sources_moments needs one weight per source");
  TBC_CHECK(!options_.edge_bc,
            "moment accumulation is not supported together with edge BC");
  return run_sources_impl(sources, &weights, &moments);
}

BcResult TurboBC::run_sources_impl(const std::vector<vidx_t>& sources,
                                   const std::vector<double>* weights,
                                   MomentResult* moments) {
  device_.memory().reset_peak();
  const double start = device_.total_seconds();

  // Moment arrays live for the whole call on the main device (merge target);
  // replicas carry their own pair, so the wave footprint is 9n + m words on
  // every device.
  Accumulators acc(device_, n_, m_, options_.edge_bc, moments != nullptr);

  BcResult result;
  if (sources.size() <= 1) {
    // Single source: run directly on the main device so callers inspecting
    // its launch records see the per-source kernel stream in place.
    for (std::size_t i = 0; i < sources.size(); ++i) {
      result.last_source =
          run_source_on(device_, graph_, sources[i], acc,
                        weights != nullptr ? (*weights)[i] : 1.0);
    }
  } else {
    // Parallel source fan-out. Sources are split into contiguous blocks —
    // the block structure depends only on the source count, never on the
    // pool width — and each block runs on a FRESH replica device: the
    // replica's bump allocator and L2 start identically for every block, so
    // each block's modeled numbers are a pure function of its sources.
    // Block partials are merged on the main device in block order, making
    // every float fold (bc values, modeled seconds) a fixed-order reduction.
    // Width 1 executes the same blocks in the same order inline, so any
    // --threads N reproduces --threads 1 bit-for-bit.
    const std::size_t count = sources.size();
    const BlockPlan plan = block_plan(count);
    std::vector<BlockPartial> blocks(plan.num_blocks);

    sim::ExecutorPool::instance().for_tasks(
        plan.num_blocks, [&](std::size_t b, unsigned) {
          blocks[b] =
              run_source_block(device_.props(), sources, plan.begin(b),
                               plan.end(b, count), weights,
                               moments != nullptr);
        });

    // Deterministic merge: block order, left fold.
    for (BlockPartial& blk : blocks) {
      device_.absorb_timeline(*blk.dev);
      device_.memory().note_peak(blk.peak_bytes);
      auto& bc_host = acc.bc.host();
      for (std::size_t i = 0; i < bc_host.size(); ++i) {
        bc_host[i] += blk.bc[i];
      }
      if (acc.ebc) {
        auto& ebc_host = acc.ebc->host();
        for (std::size_t i = 0; i < ebc_host.size(); ++i) {
          ebc_host[i] += blk.ebc[i];
        }
      }
      if (acc.sum) {
        auto& sum_host = acc.sum->host();
        auto& sumsq_host = acc.sumsq->host();
        for (std::size_t i = 0; i < sum_host.size(); ++i) {
          sum_host[i] += blk.sum[i];
          sumsq_host[i] += blk.sumsq[i];
        }
      }
    }
    result.last_source = blocks.back().last;
  }
  // The adaptive driver reads the moments between waves to evaluate its
  // stopping rule, so their download is part of the modeled wave time —
  // unlike the final bc download below, which models reading results back
  // after the experiment.
  if (moments != nullptr) {
    moments->sum = acc.sum->copy_to_host();
    moments->sumsq = acc.sumsq->copy_to_host();
  }
  result.sources = static_cast<vidx_t>(sources.size());
  result.device_seconds = device_.total_seconds() - start;
  result.peak_device_bytes = device_.memory().peak_bytes();
  result.bc = acc.bc.copy_to_host();  // result download, outside the clock
  if (acc.ebc) {
    // Download and permute from device nonzero order to canonical arc order.
    const auto raw = acc.ebc->copy_to_host();
    result.edge_bc.assign(raw.size(), 0.0);
    for (std::size_t nz = 0; nz < raw.size(); ++nz) {
      result.edge_bc[static_cast<std::size_t>(nz_to_canonical_[nz])] = raw[nz];
    }
  }
  return result;
}

BcResult TurboBC::run_approximate(const ApproxOptions& options) {
  TBC_CHECK(options.num_sources > 0, "need at least one sampled source");
  const vidx_t k = std::min(options.num_sources, n_);
  Xoshiro256 rng(options.seed);
  std::vector<char> chosen(static_cast<std::size_t>(n_), 0);
  std::vector<vidx_t> sources;
  sources.reserve(static_cast<std::size_t>(k));
  while (static_cast<vidx_t>(sources.size()) < k) {
    const auto v =
        static_cast<vidx_t>(rng.uniform(static_cast<std::uint64_t>(n_)));
    if (!chosen[static_cast<std::size_t>(v)]) {
      chosen[static_cast<std::size_t>(v)] = 1;
      sources.push_back(v);
    }
  }
  BcResult result = run_sources(sources);
  const bc_t scale = static_cast<bc_t>(n_) / static_cast<bc_t>(k);
  for (bc_t& v : result.bc) v *= scale;
  for (bc_t& v : result.edge_bc) v *= scale;
  return result;
}

BcResult TurboBC::run_single_source(vidx_t source) {
  return run_sources({source});
}

BcResult TurboBC::run_exact() {
  std::vector<vidx_t> sources(static_cast<std::size_t>(n_));
  for (vidx_t v = 0; v < n_; ++v) sources[static_cast<std::size_t>(v)] = v;
  return run_sources(sources);
}

}  // namespace turbobc::bc
