#include "core/turbobc.hpp"

#include <algorithm>
#include <memory>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "gpusim/executor.hpp"
#include "gpusim/kernel.hpp"
#include "spmv/spmv_kernels.hpp"

namespace turbobc::bc {

namespace {

/// Upper bound on source-fan-out blocks. Enough blocks that the dynamic
/// task queue load-balances well past any realistic core count, few enough
/// that at most pool-width replica devices (graph clone + bc partial each)
/// are ever live at once without excessive cloning overhead.
constexpr std::size_t kMaxSourceBlocks = 64;

}  // namespace

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

  // Exactly one sparse format resides on the device (paper Section 3.4).
  if (options_.compress) {
    ccsc_.emplace(device_,
                  storage::encode_csc(graph::CscGraph::from_edges(canon)));
  } else if (options_.variant == Variant::kScCooc) {
    cooc_.emplace(device_, graph::CoocGraph::from_edges(canon));
  } else {
    csc_.emplace(device_, graph::CscGraph::from_edges(canon));
  }

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
  if (ccsc_) return ccsc_->device_bytes();
  if (cooc_) {
    return (cooc_->row_idx().bytes() + cooc_->col_idx().bytes());
  }
  return csc_ ? csc_->col_ptr().bytes() + csc_->row_idx().bytes() : 0;
}

SourceStats TurboBC::run_source_on(sim::Device& dev,
                                   const spmv::DeviceCsc* csc,
                                   const spmv::DeviceCooc* cooc,
                                   const storage::DeviceCompressedCsc* ccsc,
                                   vidx_t source,
                                   sim::DeviceBuffer<bc_t>& bc_dev,
                                   sim::DeviceBuffer<bc_t>* ebc_dev,
                                   const MomentSink* moments) const {
  using T = sigma_t;  // double: path counts overflow any integer width
  TBC_CHECK(source >= 0 && source < n_, "BC source vertex out of range");
  const auto n = static_cast<std::size_t>(n_);
  const bool dob = options_.advance != Advance::kPush;

  // All per-vertex device arrays are modeled at the paper's 4-byte width
  // (int32 S/f/f_t, float32 sigma/delta/bc — Figure 4); host-side values
  // stay double for exact verification.
  sim::DeviceBuffer<std::int32_t> S(dev, n, "S");
  sim::DeviceBuffer<T> sigma(dev, n, "sigma", 4);
  // Paper Section 3.4: the BFS stage runs on integer-typed device arrays
  // unless the datatype ablation asks for float costing.
  sigma.set_modeled_integer(!options_.float_bfs);
  S.device_fill(0);
  sigma.device_fill(0);

  vidx_t height = 0;
  // Per-level forward direction decisions, kept for the backward stage:
  // pulled_level[d] records whether depth d was DISCOVERED in pull mode.
  // delta_u at backward level d is nonzero exactly on the depth-d frontier,
  // so a level sparse enough to pull forward is sparse enough to pull the
  // dependency gather too — the switch state is computed once and reused.
  std::vector<char> pulled_level;
  {
    // Forward (BFS) stage. f and f_t live only inside this scope: the
    // closing brace is the paper's cudaFree that makes room for the
    // dependency-stage triple.
    sim::DeviceBuffer<T> f(dev, n, "f", 4);
    sim::DeviceBuffer<T> ft(dev, n, "f_t", 4);
    f.set_modeled_integer(!options_.float_bfs);
    ft.set_modeled_integer(!options_.float_bfs);
    // Push mode: the paper's 1-element frontier flag. Direction-optimizing
    // mode widens it to three int32 counters — [0] flag, [1] nf (new-frontier
    // vertices), [2] mf (their in-edges) — accumulated with exact integer
    // atomics, so the switch inputs are deterministic at any pool width and
    // the per-level readback stays one small copy.
    sim::DeviceBuffer<std::int32_t> cflag(dev, dob ? 3 : 1, "c");
    std::optional<sim::DeviceBuffer<std::uint32_t>> bitmap;
    if (dob) {
      bitmap.emplace(
          dev, static_cast<std::size_t>(spmv::frontier_bitmap_words(n_)),
          "frontier_bitmap");
    }
    f.device_fill(0);

    sim::launch_scalar(dev, "bfs_init", 1, [&](sim::ThreadCtx& t) {
      f.store(t, static_cast<std::size_t>(source), T{1});
      sigma.store(t, static_cast<std::size_t>(source), T{1});
    });

    // Direction-switch state: the frontier about to be advanced starts as
    // {source} — one vertex, its in-degree in edges. The host mirror of
    // col_ptr is free to read; only the per-level counters ride the modeled
    // readback.
    DirectionSwitch dir(options_.advance, options_.thresholds, n_, m_);
    if (dob) {
      const auto& cp = ccsc ? ccsc->col_ptr().host() : csc->col_ptr().host();
      dir.observe(1, static_cast<std::uint64_t>(
                         cp[static_cast<std::size_t>(source) + 1] -
                         cp[static_cast<std::size_t>(source)]));
    }

    vidx_t d = 0;
    while (true) {
      ++d;
      const bool pulling = dir.decide();
      if (dob) pulled_level.push_back(pulling ? 1 : 0);  // decision for d
      ft.device_fill(T{0});
      if (pulling) {
        spmv::frontier_to_bitmap(dev, f, n_, *bitmap);
        if (options_.variant == Variant::kVeCsc) {
          spmv::spmv_forward_pull_vecsc(dev, *csc, f, *bitmap, ft, sigma);
        } else {
          storage::with_columns(csc, ccsc, [&](const auto& g) {
            spmv::spmv_forward_pull_sccsc(dev, g, f, *bitmap, ft, sigma);
          });
        }
      } else {
        switch (options_.variant) {
          case Variant::kScCooc:
            spmv::spmv_forward_sccooc(dev, *cooc, f, ft);
            break;
          case Variant::kScCsc:
            storage::with_columns(csc, ccsc, [&](const auto& g) {
              spmv::spmv_forward_sccsc(dev, g, f, ft, sigma);
            });
            break;
          case Variant::kVeCsc:
            spmv::spmv_forward_vecsc(dev, *csc, f, ft, sigma);
            break;
        }
      }
      cflag.device_fill(0);
      // The CSC kernels fuse the sigma mask into the SpMV (Algorithm 3); the
      // COOC pipeline applies it here instead (Algorithm 1 lines 20-22).
      const bool mask_in_update = options_.variant == Variant::kScCooc;
      sim::launch_scalar(dev, "bfs_update", static_cast<std::uint64_t>(n_),
                         [&](sim::ThreadCtx& t) {
                           const auto i = static_cast<std::size_t>(t.global_id());
                           T v = ft.load(t, i);
                           t.count_ops(1);
                           if (mask_in_update && v != 0 &&
                               sigma.load(t, i) != 0) {
                             v = 0;
                           }
                           f.store(t, i, v);
                           if (v != 0) {
                             S.store(t, i, d);
                             sigma.store(t, i,
                                         static_cast<T>(sigma.load(t, i) + v));
                             cflag.store(t, 0, 1);
                             if (dob) {
                               const auto& cp = ccsc != nullptr
                                                    ? ccsc->col_ptr()
                                                    : csc->col_ptr();
                               cflag.atomic_add(t, 1, 1);
                               cflag.atomic_add(
                                   t, 2,
                                   static_cast<std::int32_t>(
                                       cp.load(t, i + 1) - cp.load(t, i)));
                             }
                           }
                         });
      // Host reads the frontier flag each level (one 4-byte cudaMemcpy; 12
      // bytes in direction-optimizing mode, which also carries nf / mf).
      const auto c_host = cflag.copy_to_host();
      if (c_host[0] == 0) break;
      if (dob) {
        dir.observe(static_cast<std::uint64_t>(c_host[1]),
                    static_cast<std::uint64_t>(c_host[2]));
      }
    }
    height = d - 1;
  }

  // Backward (dependency) stage: float vectors in the bytes just freed.
  sim::DeviceBuffer<bc_t> delta(dev, n, "delta", 4);
  sim::DeviceBuffer<bc_t> delta_u(dev, n, "delta_u", 4);
  sim::DeviceBuffer<bc_t> delta_ut(dev, n, "delta_ut", 4);
  delta.device_fill(0.0);
  // Pulled dependency gather: under --advance pull|auto the undirected
  // backward sweep reuses the forward sweep's per-level switch decisions.
  // delta_u at level d is nonzero exactly on the depth-d frontier, so a
  // level the forward sweep pulled is worth pulling here too — rebuild the
  // n/32 bitmap from delta_u and probe it per edge instead of loading the
  // 4-byte operand. Skipped terms are exact zeros and delta_u >= 0, so the
  // gathered sums are bit-identical to the unmasked kernels. The directed
  // scatter already skips zero columns at the source end; it needs no map.
  std::optional<sim::DeviceBuffer<std::uint32_t>> bbitmap;
  if (dob && !directed_) {
    bbitmap.emplace(dev,
                    static_cast<std::size_t>(spmv::frontier_bitmap_words(n_)),
                    "frontier_bitmap");
  }

  // Per-level building blocks; edge accumulation also runs at d = 1 (the
  // vertex recursion stops at d = 2, but depth-0 -> depth-1 arcs carry
  // dependency too).
  const auto dep_prepare = [&](vidx_t d) {
    sim::launch_scalar(dev, "dep_prepare", static_cast<std::uint64_t>(n_),
                       [&](sim::ThreadCtx& t) {
                         const auto i = static_cast<std::size_t>(t.global_id());
                         bc_t out = 0.0;
                         if (S.load(t, i) == d) {
                           const T sg = sigma.load(t, i);
                           if (sg > 0) {
                             out = (1.0 + delta.load(t, i)) /
                                   static_cast<bc_t>(sg);
                           }
                         }
                         delta_u.store(t, i, out);
                         t.count_ops(1);
                       });
  };

  const auto edge_accum = [&](vidx_t d) {
      // Edge-BC extension: the Brandes arc term sigma(i)/sigma(w)(1+delta(w))
      // equals sigma(i) * delta_u(w); arcs i -> w from depth d-1 into depth d
      // accumulate it. One thread per column (CSC) / per nonzero (COOC);
      // each arc is touched by exactly one thread, so plain read-modify-
      // write suffices.
      const bc_t escale = directed_ ? 1.0 : 0.5;
      if (cooc != nullptr) {
        sim::launch_scalar(
            dev, "edge_bc_accum", static_cast<std::uint64_t>(m_),
            [&](sim::ThreadCtx& t) {
              const auto k = static_cast<std::size_t>(t.global_id());
              const vidx_t w = cooc->col_idx().load(t, k);
              if (S.load(t, static_cast<std::size_t>(w)) != d) return;
              const vidx_t i = cooc->row_idx().load(t, k);
              if (S.load(t, static_cast<std::size_t>(i)) != d - 1) return;
              const bc_t du = delta_u.load(t, static_cast<std::size_t>(w));
              if (du == 0.0) return;
              const T sg = sigma.load(t, static_cast<std::size_t>(i));
              ebc_dev->store(t, k,
                             ebc_dev->load(t, k) +
                                 du * static_cast<bc_t>(sg) * escale);
              t.count_ops(1);
            });
      } else {
        sim::launch_scalar(
            dev, "edge_bc_accum", static_cast<std::uint64_t>(n_),
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
                  const T sg = sigma.load(t, static_cast<std::size_t>(i));
                  const auto kk = static_cast<std::size_t>(k);
                  ebc_dev->store(t, kk,
                                 ebc_dev->load(t, kk) +
                                     du * static_cast<bc_t>(sg) * escale);
                }
              }
            });
      }
  };

  for (vidx_t d = height; d >= 2; --d) {
    dep_prepare(d);
    delta_ut.device_fill(0.0);
    const bool pull_dep = bbitmap.has_value() &&
                          static_cast<std::size_t>(d) <= pulled_level.size() &&
                          pulled_level[static_cast<std::size_t>(d) - 1] != 0;
    if (pull_dep) {
      spmv::frontier_to_bitmap(dev, delta_u, n_, *bbitmap);
      if (options_.variant == Variant::kVeCsc) {
        spmv::spmv_backward_pull_vecsc(dev, *csc, delta_u, *bbitmap, delta_ut);
      } else {
        storage::with_columns(csc, ccsc, [&](const auto& g) {
          spmv::spmv_backward_pull_sccsc(dev, g, delta_u, *bbitmap, delta_ut);
        });
      }
    } else if (!directed_) {
      switch (options_.variant) {
        case Variant::kScCooc:
          spmv::spmv_backward_gather_sccooc(dev, *cooc, delta_u, delta_ut);
          break;
        case Variant::kScCsc:
          storage::with_columns(csc, ccsc, [&](const auto& g) {
            spmv::spmv_backward_gather_sccsc(dev, g, delta_u, delta_ut);
          });
          break;
        case Variant::kVeCsc:
          spmv::spmv_backward_gather_vecsc(dev, *csc, delta_u, delta_ut);
          break;
      }
    } else {
      switch (options_.variant) {
        case Variant::kScCooc:
          spmv::spmv_backward_scatter_sccooc(dev, *cooc, delta_u, delta_ut);
          break;
        case Variant::kScCsc:
          storage::with_columns(csc, ccsc, [&](const auto& g) {
            spmv::spmv_backward_scatter_sccsc(dev, g, delta_u, delta_ut);
          });
          break;
        case Variant::kVeCsc:
          spmv::spmv_backward_scatter_vecsc(dev, *csc, delta_u, delta_ut);
          break;
      }
    }

    if (ebc_dev != nullptr) edge_accum(d);

    sim::launch_scalar(dev, "dep_update", static_cast<std::uint64_t>(n_),
                       [&](sim::ThreadCtx& t) {
                         const auto i = static_cast<std::size_t>(t.global_id());
                         if (S.load(t, i) == d - 1) {
                           const bc_t du = delta_ut.load(t, i);
                           if (du != 0.0) {
                             const T sg = sigma.load(t, i);
                             delta.store(t, i,
                                         delta.load(t, i) +
                                             du * static_cast<bc_t>(sg));
                           }
                         }
                         t.count_ops(1);
                       });
  }


  if (ebc_dev != nullptr && height >= 1) {
    dep_prepare(1);
    edge_accum(1);
  }

  // Accumulate into bc (Eq. 3); undirected graphs halve (Brandes).
  const bc_t scale = directed_ ? 1.0 : 0.5;
  sim::launch_scalar(dev, "bc_accum", static_cast<std::uint64_t>(n_),
                     [&](sim::ThreadCtx& t) {
                       const auto i = static_cast<std::size_t>(t.global_id());
                       if (static_cast<vidx_t>(i) == source) return;
                       const bc_t dl = delta.load(t, i);
                       if (dl != 0.0) {
                         bc_dev.store(t, i, bc_dev.load(t, i) + dl * scale);
                       }
                       t.count_ops(1);
                     });

  // Approx-estimator moment fold: the per-source weighted dependency sample
  // x = w_s * delta(v) * scale and its square, accumulated into the two
  // extra per-device float arrays. One thread per vertex; the source's own
  // lane is skipped, matching the bc accumulation above.
  if (moments != nullptr) {
    const double weight = moments->weight;
    sim::DeviceBuffer<bc_t>& msum = *moments->sum;
    sim::DeviceBuffer<bc_t>& msumsq = *moments->sumsq;
    sim::launch_scalar(dev, "approx_moment", static_cast<std::uint64_t>(n_),
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

  SourceStats stats;
  stats.bfs_depth = height;
  vidx_t reached = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (sigma.host()[i] != 0) ++reached;
  }
  stats.reached = reached;
  return stats;
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

  std::optional<spmv::DeviceCsc> rcsc;
  std::optional<spmv::DeviceCooc> rcooc;
  std::optional<storage::DeviceCompressedCsc> rccsc;
  if (ccsc_) {
    rccsc.emplace(rdev, *ccsc_);
  } else if (cooc_) {
    rcooc.emplace(rdev, *cooc_);
  } else {
    rcsc.emplace(rdev, *csc_);
  }
  sim::DeviceBuffer<bc_t> rbc(rdev, static_cast<std::size_t>(n_), "bc", 4);
  rbc.device_fill(0.0);
  std::optional<sim::DeviceBuffer<bc_t>> rebc;
  if (options_.edge_bc) {
    rebc.emplace(rdev, static_cast<std::size_t>(m_), "edge_bc", 4);
    rebc->device_fill(0.0);
  }
  std::optional<sim::DeviceBuffer<bc_t>> rsum, rsumsq;
  if (with_moments) {
    rsum.emplace(rdev, static_cast<std::size_t>(n_), "approx_sum", 4);
    rsumsq.emplace(rdev, static_cast<std::size_t>(n_), "approx_sumsq", 4);
    rsum->device_fill(0.0);
    rsumsq->device_fill(0.0);
  }
  // The main device already paid for the graph upload (at construction) and
  // the bc alloc/fill (run_sources_impl); drop the replica's duplicate setup
  // charges so the block timeline holds only per-source work. The peak keeps
  // the full replica footprint (graph + bc + per-source arrays), matching
  // serial accounting.
  rdev.reset_timeline();
  rdev.memory().reset_peak();

  for (std::size_t i = begin; i < end; ++i) {
    MomentSink sink{rsum ? &*rsum : nullptr, rsumsq ? &*rsumsq : nullptr,
                    weights != nullptr ? (*weights)[i] : 1.0};
    out.last = run_source_on(rdev, rcsc ? &*rcsc : nullptr,
                             rcooc ? &*rcooc : nullptr,
                             rccsc ? &*rccsc : nullptr, sources[i], rbc,
                             rebc ? &*rebc : nullptr,
                             with_moments ? &sink : nullptr);
  }
  out.bc = rbc.host();
  if (rebc) out.ebc = rebc->host();
  if (rsum) out.sum = rsum->host();
  if (rsumsq) out.sumsq = rsumsq->host();
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

  sim::DeviceBuffer<bc_t> bc_dev(device_, static_cast<std::size_t>(n_), "bc",
                                 4);
  bc_dev.device_fill(0.0);
  std::optional<sim::DeviceBuffer<bc_t>> ebc_dev;
  if (options_.edge_bc) {
    ebc_dev.emplace(device_, static_cast<std::size_t>(m_), "edge_bc", 4);
    ebc_dev->device_fill(0.0);
  }
  // Moment arrays live for the whole call on the main device (merge target);
  // replicas carry their own pair, so the wave footprint is 9n + m words on
  // every device.
  std::optional<sim::DeviceBuffer<bc_t>> msum, msumsq;
  if (moments != nullptr) {
    msum.emplace(device_, static_cast<std::size_t>(n_), "approx_sum", 4);
    msumsq.emplace(device_, static_cast<std::size_t>(n_), "approx_sumsq", 4);
    msum->device_fill(0.0);
    msumsq->device_fill(0.0);
  }

  BcResult result;
  if (sources.size() <= 1) {
    // Single source: run directly on the main device so callers inspecting
    // its launch records see the per-source kernel stream in place.
    for (std::size_t i = 0; i < sources.size(); ++i) {
      MomentSink sink{msum ? &*msum : nullptr, msumsq ? &*msumsq : nullptr,
                      weights != nullptr ? (*weights)[i] : 1.0};
      result.last_source =
          run_source_on(device_, csc_ ? &*csc_ : nullptr,
                        cooc_ ? &*cooc_ : nullptr, ccsc_ ? &*ccsc_ : nullptr,
                        sources[i], bc_dev, ebc_dev ? &*ebc_dev : nullptr,
                        moments != nullptr ? &sink : nullptr);
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
      auto& bc_host = bc_dev.host();
      for (std::size_t i = 0; i < bc_host.size(); ++i) {
        bc_host[i] += blk.bc[i];
      }
      if (ebc_dev) {
        auto& ebc_host = ebc_dev->host();
        for (std::size_t i = 0; i < ebc_host.size(); ++i) {
          ebc_host[i] += blk.ebc[i];
        }
      }
      if (msum) {
        auto& sum_host = msum->host();
        auto& sumsq_host = msumsq->host();
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
    moments->sum = msum->copy_to_host();
    moments->sumsq = msumsq->copy_to_host();
  }
  result.sources = static_cast<vidx_t>(sources.size());
  result.device_seconds = device_.total_seconds() - start;
  result.peak_device_bytes = device_.memory().peak_bytes();
  result.bc = bc_dev.copy_to_host();  // result download, outside the clock
  if (ebc_dev) {
    // Download and permute from device nonzero order to canonical arc order.
    const auto raw = ebc_dev->copy_to_host();
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
