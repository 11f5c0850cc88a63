#include "storage/streaming_bc.hpp"

#include "common/error.hpp"
#include "core/level_driver.hpp"

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

/// The streamed residency of the level driver: one device, the graph in
/// host-side column shards. Every product is one launch per shard in
/// ascending column order through the LRU window (resident(k)), the shard's
/// columns shifted onto the full-length vectors by col_base. Push-only.
struct StreamingTurboBC::Streamed {
  static constexpr bool kPull = false;
  static constexpr bool kPullBackward = false;
  static constexpr bool kExchange = false;

  StreamingTurboBC& engine;

  int parts() const { return 1; }
  sim::Device& device(int) const { return engine.device_; }
  vidx_t n_local(int) const { return engine.n_; }
  vidx_t col_begin(int) const { return 0; }
  int owner(vidx_t) const { return 0; }
  bool mask_in_update(int) const { return false; }

  template <typename T>
  void forward_product(int, bool, const sim::DeviceBuffer<T>& x,
                       const sim::DeviceBuffer<std::uint32_t>*,
                       sim::DeviceBuffer<T>& y,
                       const sim::DeviceBuffer<T>& sigma) const {
    for (std::size_t k = 0; k < engine.shards_.size(); ++k) {
      spmv::spmv_forward_sccsc(engine.device_, engine.resident(k), x, y,
                               sigma, engine.shards_[k].col_begin);
    }
  }

  void backward_product(bool, bc::PerPart<bc_t>& delta_u,
                        bc::PerPart<bc_t>& delta_ut, bc::PerPart<bc_t>&,
                        bc::PerPart<std::uint32_t>&) const {
    delta_ut[0].device_fill(0.0);
    for (std::size_t k = 0; k < engine.shards_.size(); ++k) {
      sim::Device& dev = engine.device_;
      const vidx_t cb = engine.shards_[k].col_begin;
      engine.directed_
          ? spmv::spmv_backward_scatter_sccsc(dev, engine.resident(k),
                                              delta_u[0], delta_ut[0], cb)
          : spmv::spmv_backward_gather_sccsc(dev, engine.resident(k),
                                             delta_u[0], delta_ut[0], cb);
    }
  }
};

bc::SourceStats StreamingTurboBC::run_source(vidx_t source,
                                             sim::DeviceBuffer<bc_t>& bc_dev) {
  TBC_CHECK(source >= 0 && source < n_, "BC source vertex out of range");
  Streamed res{*this};
  bc::LevelDriver<Streamed> driver(res, {n_, m_, directed_}, source);
  driver.forward();
  driver.backward(std::span(&bc_dev, 1));
  return driver.stats();
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
