#include "dist/dist_turbobc.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <numeric>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "core/level_driver.hpp"
#include "gpusim/executor.hpp"
#include "gpusim/kernel.hpp"
#include "graph/csc.hpp"
#include "spmv/spmv_kernels.hpp"

namespace turbobc::dist {

namespace {

/// Baselines for delta accounting: distributed runs share long-lived
/// topology devices (graph/shard uploads stay live across runs), so every
/// per-run figure is "now minus the value at run entry".
struct RunBaseline {
  std::vector<double> clock;
  std::vector<std::uint64_t> sent;
  std::vector<std::uint64_t> received;
  double comm_seconds = 0.0;
  std::uint64_t comm_bytes = 0;

  static RunBaseline capture(sim::Topology& topo) {
    RunBaseline b;
    const int k_devices = topo.num_devices();
    b.clock.resize(static_cast<std::size_t>(k_devices));
    b.sent.resize(static_cast<std::size_t>(k_devices));
    b.received.resize(static_cast<std::size_t>(k_devices));
    for (int k = 0; k < k_devices; ++k) {
      sim::Device& d = topo.device(k);
      b.clock[static_cast<std::size_t>(k)] = d.total_seconds();
      b.sent[static_cast<std::size_t>(k)] = d.comm_bytes_sent();
      b.received[static_cast<std::size_t>(k)] = d.comm_bytes_received();
      d.memory().reset_peak();
    }
    b.comm_seconds = topo.comm_seconds();
    b.comm_bytes = topo.comm_bytes_total();
    return b;
  }
};

/// Fill the per-device ShardInfo rows and the aggregate clocks of `result`
/// from the deltas since `base`. `device_seconds` is the bulk-synchronous
/// critical path: the slowest device's own work plus every interconnect
/// operation once (collectives synchronize all devices; the ring copies are
/// serialized by their data dependency).
void finish_accounting(sim::Topology& topo, const RunBaseline& base,
                       DistResult& result) {
  const int k_devices = topo.num_devices();
  result.comm_seconds = topo.comm_seconds() - base.comm_seconds;
  result.comm_bytes = topo.comm_bytes_total() - base.comm_bytes;
  double max_device = 0.0;
  for (int k = 0; k < k_devices; ++k) {
    sim::Device& d = topo.device(k);
    ShardInfo& si = result.shards[static_cast<std::size_t>(k)];
    si.device = k;
    si.peak_bytes = d.memory().peak_bytes();
    si.device_seconds =
        d.total_seconds() - base.clock[static_cast<std::size_t>(k)];
    si.comm_bytes_sent =
        d.comm_bytes_sent() - base.sent[static_cast<std::size_t>(k)];
    si.comm_bytes_received =
        d.comm_bytes_received() - base.received[static_cast<std::size_t>(k)];
    max_device = std::max(max_device, si.device_seconds);
    result.max_peak_bytes = std::max(result.max_peak_bytes, si.peak_bytes);
  }
  result.device_seconds = max_device + result.comm_seconds;
}

/// The partitioned backward product around the per-shard kernels, over
/// `lanes` interleaved dependency columns (1 for the per-source sweep, kb
/// for the MS-BFS block).
/// `product(k, x, y)` issues shard k's kernel.
///  * Undirected (symmetric matrix): one all_gather of every shard's
///    delta_u slice, staged full-length into each device's exchange buffer
///    x; the gather then sums shard k's own columns into y = delta_ut[k].
///    Per-column serial sums read the same rows in the same order as the
///    single device — bit-identical.
///  * Directed: out-neighbour sums need the transposed product, a scatter
///    of x = delta_u[k] into a full-length y. That partial vector travels a
///    modeled ring in device order, each scatter landing on top of the
///    previous devices' sums, so the float adds commit in global column
///    order — the exact order the single device's one scatter kernel commits
///    them in. The last device then returns every shard its own slice.
template <typename Product>
void exchange_dependencies(sim::Topology& topo, const ShardPlan& plan,
                           bool directed, std::size_t lanes,
                           bc::PerPart<bc_t>& delta_u,
                           bc::PerPart<bc_t>& delta_ut,
                           bc::PerPart<bc_t>& xb, Product&& product) {
  const int k_devices = topo.num_devices();
  if (!directed) {
    topo.all_gather(static_cast<std::uint64_t>(lanes) * plan.rank_bytes());
    std::vector<bc_t> global_du(xb[0].size(), 0.0);
    for (int k = 0; k < k_devices; ++k) {
      const auto& duk = delta_u[static_cast<std::size_t>(k)].host();
      std::copy(duk.begin(), duk.end(),
                global_du.begin() +
                    static_cast<std::ptrdiff_t>(
                        static_cast<std::size_t>(plan.col_begin(k)) * lanes));
    }
    for (int k = 0; k < k_devices; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      xb[kk].host() = global_du;
      delta_ut[kk].device_fill(0.0);
      product(k, xb[kk], delta_ut[kk]);
    }
    return;
  }
  for (int k = 0; k < k_devices; ++k) {
    const auto kk = static_cast<std::size_t>(k);
    if (k == 0) {
      xb[kk].device_fill(0.0);
    } else {
      topo.device_to_device_copy(k - 1, k, 4ull * xb[kk].size());
      xb[kk].host() = xb[kk - 1].host();
    }
    product(k, delta_u[kk], xb[kk]);
  }
  const int tail = k_devices - 1;
  const auto& full = xb[static_cast<std::size_t>(tail)].host();
  for (int k = 0; k < k_devices; ++k) {
    auto& dst = delta_ut[static_cast<std::size_t>(k)].host();
    if (k != tail) topo.device_to_device_copy(tail, k, 4ull * dst.size());
    const auto cb = static_cast<std::ptrdiff_t>(
        static_cast<std::size_t>(plan.col_begin(k)) * lanes);
    std::copy(full.begin() + cb,
              full.begin() + cb + static_cast<std::ptrdiff_t>(dst.size()),
              dst.begin());
  }
}

}  // namespace

/// The partitioned residency of the level driver: K devices, shard k's
/// column slice on device k, every device stepping in lock-step in device
/// order. Local columns, global rows: the forward products read a
/// full-length frontier operand exchanged before each level, and the
/// backward product is exchange_dependencies. The backward stage never
/// pulls (the exchange already moves the dense operand).
struct DistTurboBC::Partitioned {
  static constexpr bool kPull = true;
  static constexpr bool kPullBackward = false;
  static constexpr bool kExchange = true;

  DistTurboBC& engine;

  const Shard& shard(int k) const {
    return engine.shards_[static_cast<std::size_t>(k)];
  }
  /// Shard k's storage as a resident residency over its local columns.
  bc::ResidentColumns columns(int k) const {
    const Shard& sh = shard(k);
    return {device(k), sh.variant, sh.csc ? &*sh.csc : nullptr,
            sh.cooc ? &*sh.cooc : nullptr, nullptr, sh.n_local(),
            engine.directed_};
  }

  int parts() const { return engine.topo_.num_devices(); }
  sim::Device& device(int k) const { return engine.topo_.device(k); }
  vidx_t n_local(int k) const { return shard(k).n_local(); }
  vidx_t col_begin(int k) const { return engine.plan_.col_begin(k); }
  int owner(vidx_t v) const { return engine.plan_.owner(v); }
  bool mask_in_update(int k) const {
    return shard(k).variant == bc::Variant::kScCooc;
  }
  const sim::DeviceBuffer<spmv::dptr_t>& col_ptr(int k) const {
    return shard(k).csc->col_ptr();
  }

  /// Frontier exchange: one modeled all_gather; the payload copy itself is
  /// free host work (buffer host() staging), like copy_from_host's
  /// functional half. Direction-optimizing runs gather the dense bitmap
  /// (ceil(block_len/32) words per rank) plus one packed block of the
  /// level's new frontier values, padded to the largest rank so the
  /// collective stays rank-uniform.
  void exchange_frontier(const bc::PerPart<sigma_t>& f,
                         bc::PerPart<sigma_t>& xf, bool dob) const {
    sim::Topology& topo = engine.topo_;
    const ShardPlan& plan = engine.plan_;
    if (dob) {
      topo.all_gather(plan.rank_bitmap_bytes());
      std::uint64_t max_nf = 0;
      for (const auto& fk : f) {
        std::uint64_t c = 0;
        for (const sigma_t v : fk.host()) {
          if (v != 0) ++c;
        }
        max_nf = std::max(max_nf, c);
      }
      if (max_nf > 0) topo.all_gather(4ull * max_nf);
    } else {
      topo.all_gather(plan.rank_bytes());
    }
    std::vector<sigma_t> frontier(xf[0].size(), sigma_t{0});
    for (int k = 0; k < parts(); ++k) {
      const auto& fk = f[static_cast<std::size_t>(k)].host();
      std::copy(fk.begin(), fk.end(), frontier.begin() + plan.col_begin(k));
    }
    for (auto& x : xf) x.host() = frontier;
  }

  template <typename T>
  void forward_product(int k, bool pull, const sim::DeviceBuffer<T>& x,
                       const sim::DeviceBuffer<std::uint32_t>* bitmap,
                       sim::DeviceBuffer<T>& y,
                       const sim::DeviceBuffer<T>& sigma) const {
    columns(k).forward_product(k, pull, x, bitmap, y, sigma);
  }

  void backward_product(bool, bc::PerPart<bc_t>& delta_u,
                        bc::PerPart<bc_t>& delta_ut, bc::PerPart<bc_t>& xb,
                        bc::PerPart<std::uint32_t>&) const {
    exchange_dependencies(engine.topo_, engine.plan_, engine.directed_, 1,
                          delta_u, delta_ut, xb,
                          [&](int k, const auto& x, auto& y) {
                            columns(k).product(x, nullptr, y);
                          });
  }

  // --- Lane frontier (every shard is pinned to scCSC) ---

  template <typename Fn>
  void with_columns(int k, Fn&& fn) const {
    fn(*shard(k).csc);
  }

  /// No device-side source list: each lane is seeded on its owner.
  std::optional<sim::DeviceBuffer<vidx_t>> lane_sources(
      const std::vector<vidx_t>&) const {
    return std::nullopt;
  }

  /// Lane j's source vertex gets the FULL membership word of that vertex
  /// (duplicate sources collapse — same-value stores), composed on the host
  /// and stored by one 1-thread launch per lane on the owner device.
  void seed_lanes(const std::vector<vidx_t>& batch,
                  const std::optional<sim::DeviceBuffer<vidx_t>>&,
                  bc::PerPart<std::uint64_t>& F, bc::PerPart<std::uint64_t>& V,
                  bc::PerPart<sigma_t>& sigma) const {
    const std::size_t kb = batch.size();
    for (std::size_t j = 0; j < kb; ++j) {
      std::uint64_t mask = 0;
      for (std::size_t i = 0; i < kb; ++i) {
        if (batch[i] == batch[j]) mask |= 1ull << i;
      }
      const int o = owner(batch[j]);
      const auto oo = static_cast<std::size_t>(o);
      const auto sl = static_cast<std::size_t>(batch[j] - col_begin(o));
      sim::launch_scalar(device(o), "bfs_init_msbfs", 1,
                         [&](sim::ThreadCtx& t) {
                           t.count_word_ops(1);
                           F[oo].store(t, sl, mask);
                           V[oo].store(t, sl, mask);
                           sigma[oo].store(t, sl * kb + j, 1);
                         });
    }
  }

  /// Lane exchange: the local mask slices all_gathered as ONE 8-byte word
  /// per vertex for all lanes (2x the scalar rank payload), plus the packed
  /// sigma values of the frontier's set lanes, padded to the largest rank.
  /// Every device stages the full-length mask and a frontier-value operand
  /// (frontier slots only; everything else stays zero).
  void exchange_lanes(const bc::PerPart<std::uint64_t>& cur,
                      const bc::PerPart<sigma_t>& sigma, std::size_t kb,
                      bc::PerPart<std::uint64_t>& xm,
                      bc::PerPart<sigma_t>& xs) const {
    sim::Topology& topo = engine.topo_;
    topo.all_gather(2 * engine.plan_.rank_bytes());
    std::uint64_t max_pairs = 0;
    std::vector<std::uint64_t> mask(xm[0].size(), 0);
    std::vector<sigma_t> vals(xs[0].size(), sigma_t{0});
    for (int k = 0; k < parts(); ++k) {
      const auto kk = static_cast<std::size_t>(k);
      const auto& mk = cur[kk].host();
      const auto& sg = sigma[kk].host();
      const auto cb = static_cast<std::size_t>(col_begin(k));
      std::uint64_t pairs = 0;
      for (std::size_t i = 0; i < mk.size(); ++i) {
        mask[cb + i] = mk[i];
        for (std::uint64_t bits = mk[i]; bits != 0; bits &= bits - 1) {
          const auto j = static_cast<std::size_t>(std::countr_zero(bits));
          vals[(cb + i) * kb + j] = sg[i * kb + j];
          ++pairs;
        }
      }
      max_pairs = std::max(max_pairs, pairs);
    }
    if (max_pairs > 0) topo.all_gather(4ull * max_pairs);
    for (int k = 0; k < parts(); ++k) {
      const auto kk = static_cast<std::size_t>(k);
      xm[kk].host() = mask;
      xs[kk].host() = vals;
    }
  }

  /// The k-lane backward product: the batched SpMM kernels inside the same
  /// dependency exchange — column gathers in the single batched device's
  /// edge order, the directed scatter on the device-order ring —
  /// bit-identical to TurboBCBatched.
  void backward_lanes(std::size_t kb, bc::PerPart<bc_t>& delta_u,
                      bc::PerPart<bc_t>& delta_ut,
                      bc::PerPart<bc_t>& xb) const {
    exchange_dependencies(engine.topo_, engine.plan_, engine.directed_, kb,
                          delta_u, delta_ut, xb,
                          [&](int k, const auto& x, auto& y) {
                            columns(k).lane_product(kb, x, y);
                          });
  }

  /// Per-device bc accumulators over the local column slices; they live for
  /// the whole call, like the single engine's "bc" array.
  bc::PerPart<bc_t> bc_slices() const {
    bc::PerPart<bc_t> bck;
    for (int k = 0; k < parts(); ++k) {
      bck.emplace_back(device(k), static_cast<std::size_t>(n_local(k)), "bc",
                       4);
    }
    return bck;
  }

  /// Assemble the global bc from each shard's slice(k), the shard rows and
  /// the run's clocks.
  template <typename Slice>
  DistResult finish(const RunBaseline& base, std::size_t sources,
                    bc::SourceStats last, Slice&& slice) const {
    DistResult result;
    result.strategy_used = Strategy::kPartition;
    result.last_source = last;
    result.sources = static_cast<vidx_t>(sources);
    result.bc.assign(static_cast<std::size_t>(engine.n_), 0.0);
    result.shards.resize(static_cast<std::size_t>(parts()));
    for (int k = 0; k < parts(); ++k) {
      const std::vector<bc_t>& sl = slice(k);
      std::copy(sl.begin(), sl.end(), result.bc.begin() + col_begin(k));
      const Shard& sh = shard(k);
      ShardInfo& si = result.shards[static_cast<std::size_t>(k)];
      si.variant = sh.variant;
      si.col_begin = sh.col_begin;
      si.col_end = sh.col_end;
      si.arcs = sh.cooc ? sh.cooc->m() : sh.csc->m();
    }
    finish_accounting(engine.topo_, base, result);
    return result;
  }
};

const char* to_string(Strategy s) {
  switch (s) {
    case Strategy::kAuto: return "auto";
    case Strategy::kReplicate: return "replicate";
    case Strategy::kPartition: return "partition";
  }
  return "?";
}

std::optional<Strategy> parse_strategy(std::string_view name) {
  if (name == "auto") return Strategy::kAuto;
  if (name == "replicate") return Strategy::kReplicate;
  if (name == "partition") return Strategy::kPartition;
  return std::nullopt;
}

DistTurboBC::DistTurboBC(sim::Topology& topology, const graph::EdgeList& graph,
                         DistOptions options)
    : topo_(topology), options_(options) {
  graph::EdgeList canon = graph;
  canon.canonicalize();
  n_ = canon.num_vertices();
  m_ = canon.num_arcs();
  directed_ = canon.directed();
  TBC_CHECK(n_ > 0, "DistTurboBC needs a non-empty graph");

  const bc::Variant global_variant =
      options_.variant ? *options_.variant : bc::select_variant(canon);
  const std::uint64_t capacity = topo_.props().device.global_mem_bytes;
  const std::uint64_t single_footprint = replicated_device_bytes(
      global_variant, n_, static_cast<std::uint64_t>(m_), options_.edge_bc);

  strategy_ = options_.strategy;
  if (strategy_ == Strategy::kAuto) {
    strategy_ = single_footprint <= capacity ? Strategy::kReplicate
                                             : Strategy::kPartition;
  }
  TBC_CHECK(!(strategy_ == Strategy::kPartition && options_.edge_bc),
            "edge BC needs the replicated strategy (whole graph on one "
            "device)");
  TBC_CHECK(options_.batch_size >= 0 && options_.batch_size <= 64,
            "dist batch size must be in [0, 64]");

  if (strategy_ == Strategy::kReplicate) {
    plan_ = ShardPlan::make(n_, 1);
    engine_.emplace(topo_.device(0), canon,
                    bc::BcOptions{global_variant, false, options_.edge_bc,
                                  options_.advance, options_.thresholds});
    return;
  }

  const int k_devices = topo_.num_devices();
  plan_ = ShardPlan::make(n_, k_devices);
  const graph::CscGraph csc = graph::CscGraph::from_edges(canon);
  std::vector<HostShard> host_shards = make_host_shards(csc, plan_);
  shards_.reserve(static_cast<std::size_t>(k_devices));
  for (int k = 0; k < k_devices; ++k) {
    HostShard& hs = host_shards[static_cast<std::size_t>(k)];
    Shard sh;
    sh.col_begin = hs.col_begin;
    sh.col_end = hs.col_end;
    if (options_.batch_size > 0) {
      // The MS-BFS block sweep is implemented for the scalar CSC layout
      // only (like TurboBCBatched); every shard is pinned to it.
      sh.variant = bc::Variant::kScCsc;
    } else if (options_.variant) {
      sh.variant = *options_.variant;
    } else {
      // The paper's selection heuristic applied to the shard's own degree
      // structure: a column block of an irregular graph can be regular and
      // vice versa.
      graph::EdgeList local(n_, directed_);
      for (vidx_t c = 0; c < hs.n_local(); ++c) {
        const auto begin = static_cast<std::size_t>(
            hs.col_ptr[static_cast<std::size_t>(c)]);
        const auto end = static_cast<std::size_t>(
            hs.col_ptr[static_cast<std::size_t>(c) + 1]);
        for (std::size_t j = begin; j < end; ++j) {
          local.add_edge(hs.rows[j], hs.col_begin + c);
        }
      }
      sh.variant = bc::select_variant(local);
    }
    // Pull folds CSC columns — the single engine's demotion rule.
    sh.variant = bc::effective_variant(sh.variant, options_.advance,
                                       /*compress=*/false);
    if (sh.variant == bc::Variant::kScCooc) {
      std::vector<vidx_t> cols;
      cols.reserve(hs.rows.size());
      for (vidx_t c = 0; c < hs.n_local(); ++c) {
        const auto begin = static_cast<std::size_t>(
            hs.col_ptr[static_cast<std::size_t>(c)]);
        const auto end = static_cast<std::size_t>(
            hs.col_ptr[static_cast<std::size_t>(c) + 1]);
        cols.insert(cols.end(), end - begin, c);
      }
      sh.cooc.emplace(topo_.device(k), hs.n_local(), std::move(hs.rows),
                      std::move(cols));
    } else {
      sh.csc.emplace(topo_.device(k), hs.n_local(), std::move(hs.col_ptr),
                     std::move(hs.rows));
    }
    shards_.push_back(std::move(sh));
  }
}

DistResult DistTurboBC::run_single_source(vidx_t source) {
  const std::vector<vidx_t> sources{source};
  return run_impl(sources, nullptr, nullptr);
}

DistResult DistTurboBC::run_exact() {
  std::vector<vidx_t> sources(static_cast<std::size_t>(n_));
  std::iota(sources.begin(), sources.end(), vidx_t{0});
  return run_impl(sources, nullptr, nullptr);
}

DistResult DistTurboBC::run_sources(const std::vector<vidx_t>& sources) {
  return run_impl(sources, nullptr, nullptr);
}

DistResult DistTurboBC::run_sources_moments(
    const std::vector<vidx_t>& sources, const std::vector<double>& weights,
    bc::TurboBC::MomentResult& moments) {
  TBC_CHECK(strategy_ == Strategy::kReplicate,
            "moment accumulation needs the replicated strategy");
  TBC_CHECK(weights.size() == sources.size(),
            "run_sources_moments needs one weight per source");
  return run_impl(sources, &weights, &moments);
}

DistResult DistTurboBC::run_impl(const std::vector<vidx_t>& sources,
                                 const std::vector<double>* weights,
                                 bc::TurboBC::MomentResult* moments) {
  for (const vidx_t s : sources) {
    TBC_CHECK(s >= 0 && s < n_, "BC source vertex out of range");
  }
  if (strategy_ == Strategy::kReplicate) {
    return run_replicated(sources, weights, moments);
  }
  TBC_CHECK(weights == nullptr && moments == nullptr,
            "moment accumulation needs the replicated strategy");
  return run_partitioned(sources);
}

DistResult DistTurboBC::run_replicated(const std::vector<vidx_t>& sources,
                                       const std::vector<double>* weights,
                                       bc::TurboBC::MomentResult* moments) {
  const int k_devices = topo_.num_devices();
  const auto nn = static_cast<std::size_t>(n_);
  const RunBaseline base = RunBaseline::capture(topo_);

  // Exactly the single-device fan-out (same block plan, same block runner,
  // same fixed-order merge), with contiguous block ranges owned by devices.
  const std::size_t count = sources.size();
  const bc::TurboBC::BlockPlan plan = bc::TurboBC::block_plan(count);
  const std::size_t per_device = std::max<std::size_t>(
      1, (plan.num_blocks + static_cast<std::size_t>(k_devices) - 1) /
             static_cast<std::size_t>(k_devices));
  std::vector<bc::TurboBC::BlockPartial> blocks(plan.num_blocks);
  sim::ExecutorPool::instance().for_tasks(
      plan.num_blocks, [&](std::size_t b, unsigned) {
        blocks[b] = engine_->run_source_block(topo_.props().device, sources,
                                              plan.begin(b),
                                              plan.end(b, count), weights,
                                              moments != nullptr);
      });

  DistResult result;
  result.strategy_used = Strategy::kReplicate;
  result.bc.assign(nn, 0.0);
  std::vector<bc_t> raw_ebc;
  if (options_.edge_bc) raw_ebc.assign(static_cast<std::size_t>(m_), 0.0);
  std::vector<bc_t> sum, sumsq;
  if (moments != nullptr) {
    sum.assign(nn, 0.0);
    sumsq.assign(nn, 0.0);
  }

  // Deterministic merge: global block order, left fold — the same order
  // TurboBC::run_sources_impl uses, so the bc values are bit-identical to
  // the single-device engine for any device count and thread width.
  for (std::size_t b = 0; b < plan.num_blocks; ++b) {
    bc::TurboBC::BlockPartial& blk = blocks[b];
    const int owner = static_cast<int>(
        std::min(b / per_device, static_cast<std::size_t>(k_devices - 1)));
    sim::Device& dev = topo_.device(owner);
    dev.absorb_timeline(*blk.dev);
    dev.memory().note_peak(blk.peak_bytes);
    for (std::size_t i = 0; i < nn; ++i) result.bc[i] += blk.bc[i];
    if (options_.edge_bc) {
      for (std::size_t i = 0; i < raw_ebc.size(); ++i) {
        raw_ebc[i] += blk.ebc[i];
      }
    }
    if (moments != nullptr) {
      for (std::size_t i = 0; i < nn; ++i) {
        sum[i] += blk.sum[i];
        sumsq[i] += blk.sumsq[i];
      }
    }
  }
  if (!blocks.empty()) result.last_source = blocks.back().last;

  // Each device holds a partial bc array; one modeled all-reduce leaves the
  // reduced array everywhere (the functional fold above already produced its
  // value).
  topo_.all_reduce(4ull * nn);
  if (options_.edge_bc) {
    topo_.all_reduce(4ull * static_cast<std::uint64_t>(m_));
    const std::vector<eidx_t>& perm = engine_->nz_to_canonical();
    result.edge_bc.assign(raw_ebc.size(), 0.0);
    for (std::size_t nz = 0; nz < raw_ebc.size(); ++nz) {
      result.edge_bc[static_cast<std::size_t>(perm[nz])] = raw_ebc[nz];
    }
  }
  if (moments != nullptr) {
    topo_.all_reduce(4ull * nn);
    topo_.all_reduce(4ull * nn);
    // The adaptive driver reads the moments between waves, so their download
    // is part of the modeled wave time — mirroring the single-device engine.
    topo_.device(0).charge_transfer(4ull * nn);
    topo_.device(0).charge_transfer(4ull * nn);
    moments->sum = std::move(sum);
    moments->sumsq = std::move(sumsq);
  }

  result.sources = static_cast<vidx_t>(count);
  result.shards.resize(static_cast<std::size_t>(k_devices));
  for (int k = 0; k < k_devices; ++k) {
    ShardInfo& si = result.shards[static_cast<std::size_t>(k)];
    si.variant = engine_->options().variant;
    si.col_begin = 0;
    si.col_end = n_;
    si.arcs = m_;
  }
  finish_accounting(topo_, base, result);
  return result;
}

DistResult DistTurboBC::run_partitioned(const std::vector<vidx_t>& sources) {
  const RunBaseline base = RunBaseline::capture(topo_);
  Partitioned res{*this};
  bc::PerPart<bc_t> bck = res.bc_slices();
  const bc::LevelOptions level{n_, m_, directed_, options_.advance,
                               options_.thresholds};
  const std::size_t count = sources.size();
  bc::SourceStats last;

  if (options_.batch_size > 0) {
    // One lane-frontier sweep per block of batch_size sources. The shard
    // accumulators take every block on-device via the strict per-lane fold
    // — the float grouping of TurboBCBatched::run_sources, which never
    // folds blocks on the host.
    for (auto& buf : bck) buf.device_fill(0.0);
    const auto kb = static_cast<std::size_t>(options_.batch_size);
    for (std::size_t begin = 0; begin < count; begin += kb) {
      bc::LevelDriver<Partitioned, bc::Frontier::kLanes> driver(
          res, level,
          std::vector<vidx_t>(
              sources.begin() + static_cast<std::ptrdiff_t>(begin),
              sources.begin() +
                  static_cast<std::ptrdiff_t>(std::min(count, begin + kb))));
      driver.forward();
      driver.backward(std::span(bck));
      last = driver.stats();
    }
    return res.finish(base, count, last,
                      [&](int k) -> const std::vector<bc_t>& {
                        return bck[static_cast<std::size_t>(k)].host();
                      });
  }

  // Same fixed source-block grouping as the single engine: per block the
  // per-device bc arrays restart from zero and the block's contribution is
  // folded on the host, so the float grouping matches the single engine's
  // per-block partials exactly. Each source is one level-driver sweep, every
  // shard stepping in lock-step in device order.
  const bc::TurboBC::BlockPlan plan = bc::TurboBC::block_plan(count);
  std::vector<std::vector<bc_t>> acc;
  for (const auto& b : bck) acc.emplace_back(b.size(), 0.0);
  for (std::size_t b = 0; b < plan.num_blocks; ++b) {
    for (auto& buf : bck) buf.device_fill(0.0);
    for (std::size_t i = plan.begin(b); i < plan.end(b, count); ++i) {
      bc::LevelDriver<Partitioned> driver(res, level, sources[i]);
      driver.forward();
      driver.backward(std::span(bck));
      last = driver.stats();
    }
    for (std::size_t k = 0; k < bck.size(); ++k) {
      const auto& partial = bck[k].host();
      for (std::size_t i = 0; i < partial.size(); ++i) acc[k][i] += partial[i];
    }
  }
  return res.finish(base, count, last, [&](int k) -> const std::vector<bc_t>& {
    return acc[static_cast<std::size_t>(k)];
  });
}

}  // namespace turbobc::dist
