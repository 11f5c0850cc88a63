#include "storage/streaming_bc.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "gpusim/kernel.hpp"
#include "spmv/spmv_kernels.hpp"

namespace turbobc::storage {

StreamingTurboBC::StreamingTurboBC(sim::Device& device,
                                   const CompressedCsc& graph,
                                   StreamingOptions options)
    : device_(device),
      options_(options),
      n_(graph.n),
      m_(graph.m),
      directed_(graph.directed) {
  TBC_CHECK(n_ > 0, "StreamingTurboBC needs a non-empty graph");
  TBC_CHECK(options_.num_shards >= 1, "need at least one column shard");
  TBC_CHECK(options_.window >= 1, "need a window of at least one shard");

  // Slice the compressed image into ShardPlan column blocks. The varint
  // stream needs no re-encoding: byte ranges per column are contiguous and
  // rows are global already, so a shard is three subranges with the offsets
  // rebased to zero.
  const dist::ShardPlan plan = dist::ShardPlan::make(n_, options_.num_shards);
  shards_.reserve(static_cast<std::size_t>(plan.num_shards));
  for (int k = 0; k < plan.num_shards; ++k) {
    const vidx_t cb = plan.col_begin(k);
    const vidx_t ce = plan.col_end(k);
    if (ce == cb) continue;  // trailing empty blocks of an uneven split
    ShardImage img;
    img.col_begin = cb;
    img.cols = ce - cb;
    const auto b = static_cast<std::size_t>(cb);
    const auto e = static_cast<std::size_t>(ce);
    const coff_t arc0 = graph.col_ptr[b];
    const coff_t byte0 = graph.byte_off[b];
    img.col_ptr.resize(e - b + 1);
    img.byte_off.resize(e - b + 1);
    for (std::size_t v = b; v <= e; ++v) {
      img.col_ptr[v - b] = graph.col_ptr[v] - arc0;
      img.byte_off[v - b] = graph.byte_off[v] - byte0;
    }
    img.stream.assign(
        graph.bytes.begin() + byte0,
        graph.bytes.begin() + graph.byte_off[e]);
    // Re-pack the format bitmap into local column positions (the global and
    // local bit offsets differ unless col_begin is a multiple of 32).
    img.fmt.assign(fmt_words(img.cols), 0u);
    for (std::size_t v = b; v < e; ++v) {
      if (graph.raw_column(static_cast<vidx_t>(v))) {
        const std::size_t lv = v - b;
        img.fmt[lv >> 5] |= 1u << (static_cast<std::uint32_t>(lv) & 31u);
      }
    }
    img.device_bytes = 8ull * (static_cast<std::uint64_t>(img.cols) + 1) +
                       4ull * static_cast<std::uint64_t>(img.fmt.size()) +
                       static_cast<std::uint64_t>(img.stream.size());
    shards_.push_back(std::move(img));
  }
  window_.resize(shards_.size());
  lru_ = LruWindow(shards_.size(), static_cast<std::size_t>(options_.window));
}

const DeviceCompressedCsc& StreamingTurboBC::resident(std::size_t k) {
  // Victim selection lives in LruWindow (unit-tested in isolation); this
  // method keeps the upload and ledger bookkeeping.
  const LruWindow::Touch touch = lru_.touch(k);
  if (touch.hit) return *window_[k];
  if (touch.evicted) {
    window_[touch.victim].reset();
    ++ledger_.evictions;
  }
  ShardImage& img = shards_[k];
  // The DeviceBuffer uploads inside this construction are the modeled PCIe
  // fetch — charged to the device's transfer ledger as they happen.
  window_[k].emplace(device_, img.cols, img.col_ptr, img.byte_off,
                     img.stream, img.fmt);
  ++ledger_.shard_uploads;
  ledger_.upload_bytes += img.device_bytes;
  if (img.uploaded_once) ledger_.refetch_bytes += img.device_bytes;
  img.uploaded_once = true;
  return *window_[k];
}

bc::SourceStats StreamingTurboBC::run_source(vidx_t source,
                                             sim::DeviceBuffer<bc_t>& bc_dev) {
  using T = sigma_t;
  TBC_CHECK(source >= 0 && source < n_, "BC source vertex out of range");
  sim::Device& dev = device_;
  const auto n = static_cast<std::size_t>(n_);

  // The per-source pipeline of TurboBC::run_source_on, push advance, with
  // every graph sweep broken into ascending-column shard launches.
  sim::DeviceBuffer<std::int32_t> S(dev, n, "S");
  sim::DeviceBuffer<T> sigma(dev, n, "sigma", 4);
  sigma.set_modeled_integer(true);
  S.device_fill(0);
  sigma.device_fill(0);

  vidx_t height = 0;
  {
    sim::DeviceBuffer<T> f(dev, n, "f", 4);
    sim::DeviceBuffer<T> ft(dev, n, "f_t", 4);
    f.set_modeled_integer(true);
    ft.set_modeled_integer(true);
    sim::DeviceBuffer<std::int32_t> cflag(dev, 1, "c");
    f.device_fill(0);

    sim::launch_scalar(dev, "bfs_init", 1, [&](sim::ThreadCtx& t) {
      f.store(t, static_cast<std::size_t>(source), T{1});
      sigma.store(t, static_cast<std::size_t>(source), T{1});
    });

    vidx_t d = 0;
    while (true) {
      ++d;
      ft.device_fill(T{0});
      for (std::size_t k = 0; k < shards_.size(); ++k) {
        spmv::spmv_forward_sccsc(dev, resident(k), f, ft, sigma,
                                 shards_[k].col_begin);
      }
      cflag.device_fill(0);
      sim::launch_scalar(dev, "bfs_update", static_cast<std::uint64_t>(n_),
                         [&](sim::ThreadCtx& t) {
                           const auto i =
                               static_cast<std::size_t>(t.global_id());
                           const T v = ft.load(t, i);
                           t.count_ops(1);
                           f.store(t, i, v);
                           if (v != 0) {
                             S.store(t, i, d);
                             sigma.store(t, i,
                                         static_cast<T>(sigma.load(t, i) + v));
                             cflag.store(t, 0, 1);
                           }
                         });
      const auto c_host = cflag.copy_to_host();
      if (c_host[0] == 0) break;
    }
    height = d - 1;
  }

  sim::DeviceBuffer<bc_t> delta(dev, n, "delta", 4);
  sim::DeviceBuffer<bc_t> delta_u(dev, n, "delta_u", 4);
  sim::DeviceBuffer<bc_t> delta_ut(dev, n, "delta_ut", 4);
  delta.device_fill(0.0);

  for (vidx_t d = height; d >= 2; --d) {
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
    delta_ut.device_fill(0.0);
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      if (!directed_) {
        spmv::spmv_backward_gather_sccsc(dev, resident(k), delta_u, delta_ut,
                                         shards_[k].col_begin);
      } else {
        spmv::spmv_backward_scatter_sccsc(dev, resident(k), delta_u,
                                          delta_ut, shards_[k].col_begin);
      }
    }
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

  bc::SourceStats stats;
  stats.bfs_depth = height;
  vidx_t reached = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (sigma.host()[i] != 0) ++reached;
  }
  stats.reached = reached;
  return stats;
}

bc::BcResult StreamingTurboBC::run_sources(
    const std::vector<vidx_t>& sources) {
  device_.memory().reset_peak();
  const double start = device_.total_seconds();

  sim::DeviceBuffer<bc_t> bc_dev(device_, static_cast<std::size_t>(n_), "bc",
                                 4);
  bc_dev.device_fill(0.0);

  bc::BcResult result;
  // Serial sources on the caller's device: the shard window is shared
  // engine state, and serial order is what makes the fetch/evict sequence —
  // and the scatter's atomic fold order — a pure function of the source
  // list at any pool width.
  for (const vidx_t s : sources) {
    result.last_source = run_source(s, bc_dev);
  }
  result.sources = static_cast<vidx_t>(sources.size());
  result.device_seconds = device_.total_seconds() - start;
  result.peak_device_bytes = device_.memory().peak_bytes();
  result.bc = bc_dev.copy_to_host();  // result download, outside the clock
  return result;
}

bc::BcResult StreamingTurboBC::run_single_source(vidx_t source) {
  return run_sources({source});
}

bc::BcResult StreamingTurboBC::run_exact() {
  std::vector<vidx_t> sources(static_cast<std::size_t>(n_));
  for (vidx_t v = 0; v < n_; ++v) sources[static_cast<std::size_t>(v)] = v;
  return run_sources(sources);
}

}  // namespace turbobc::storage
