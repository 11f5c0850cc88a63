// StreamingTurboBC: out-of-core BC over a window of compressed column
// shards (DESIGN.md §12).
//
// The compressed graph is split into contiguous column shards by the same
// dist::ShardPlan the distributed engine uses, but the shards stay on the
// HOST: only `window` of them are device-resident at a time. Each kernel
// sweep walks the shards in ascending column order, fetching absent shards
// over the modeled PCIe link (the DeviceBuffer upload path — every fetched
// byte lands in the transfer ledger) and evicting the least-recently-used
// resident shard when the window is full. The device footprint is the 7n
// working vectors plus the window, so a graph whose full 7n + m image
// overflows the device completes here — bench_ooc demonstrates the
// crossing against TurboBC's DeviceOutOfMemory.
//
// Determinism / bit-identity (oracle invariant `ooc_agreement`):
//   * shards are processed in ascending column order every sweep, so the
//     per-column work — and, for the directed scatter, the warp-ordered
//     atomic replay per target — happens in exactly the global column order
//     of the resident engine's single launch: sigma / delta / bc agree bit
//     for bit with TurboBC under compress (and hence with the uncompressed
//     engine);
//   * sources run serially on the caller's device — no pool fan-out — so
//     any --threads width reproduces width 1 trivially.
//
// Fast path: when every shard fits the window (window >= num_shards, e.g.
// any small graph), each shard is uploaded once and never evicted — the
// engine degrades to the resident compressed engine with a zero-refetch
// ledger, which tests assert.
//
// Push-only: the forward sweep is the paper's Algorithm 1 push pipeline.
// Direction-optimized streaming would re-fetch the window twice per level
// for the bitmap pass; callers wanting pull use the resident engine.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "core/turbobc.hpp"
#include "dist/partition.hpp"
#include "gpusim/device.hpp"
#include "storage/compressed_csc.hpp"
#include "storage/device_ccsc.hpp"
#include "storage/lru_window.hpp"

namespace turbobc::storage {

struct StreamingOptions {
  /// Column shards the compressed graph is split into (dist::ShardPlan).
  int num_shards = 4;
  /// Device-resident shard budget, >= 1. window >= num_shards is the
  /// fetch-free fast path.
  int window = 2;
};

/// Modeled PCIe traffic of the shard window. upload_bytes also lands in the
/// device's transfer ledger (the uploads go through DeviceBuffer), so the
/// savings show up in modeled seconds too; this ledger is the byte-exact
/// view the oracle and bench check.
struct StreamingLedger {
  std::uint64_t shard_uploads = 0;  // shard fetches, including first uploads
  std::uint64_t upload_bytes = 0;   // total H2D bytes for shards
  std::uint64_t refetch_bytes = 0;  // bytes past each shard's first upload
  std::uint64_t evictions = 0;
};

class StreamingTurboBC {
 public:
  StreamingTurboBC(sim::Device& device, const CompressedCsc& graph,
                   StreamingOptions options = {});

  bc::BcResult run_single_source(vidx_t source);
  bc::BcResult run_sources(const std::vector<vidx_t>& sources);
  bc::BcResult run_exact();

  vidx_t num_vertices() const noexcept { return n_; }
  eidx_t num_arcs() const noexcept { return m_; }
  bool directed() const noexcept { return directed_; }
  int num_shards() const noexcept { return static_cast<int>(shards_.size()); }
  /// True when the whole compressed graph fits the window: no shard is ever
  /// evicted and ledger().refetch_bytes stays 0.
  bool fetch_free() const noexcept {
    return static_cast<int>(shards_.size()) <= options_.window;
  }
  const StreamingLedger& ledger() const noexcept { return ledger_; }
  const StreamingOptions& options() const noexcept { return options_; }

 private:
  /// Host-side image of one column shard: offsets rebased to zero, byte
  /// stream decoding to global rows (DeviceCompressedCsc shard convention),
  /// format bitmap re-packed into local column positions.
  struct ShardImage {
    vidx_t col_begin = 0;
    vidx_t cols = 0;
    std::vector<spmv::dptr_t> col_ptr;
    std::vector<spmv::dptr_t> byte_off;
    std::vector<std::uint8_t> stream;
    std::vector<std::uint32_t> fmt;
    std::uint64_t device_bytes = 0;
    bool uploaded_once = false;
  };

  struct Streamed;  // level-driver residency (streaming_bc.cpp)

  /// Returns shard k's device image, fetching (and LRU-evicting) as needed.
  const DeviceCompressedCsc& resident(std::size_t k);

  bc::SourceStats run_source(vidx_t source, sim::DeviceBuffer<bc_t>& bc_dev);

  sim::Device& device_;
  StreamingOptions options_;
  vidx_t n_ = 0;
  eidx_t m_ = 0;
  bool directed_ = false;
  std::vector<ShardImage> shards_;
  std::vector<std::optional<DeviceCompressedCsc>> window_;  // slot per shard
  LruWindow lru_{1, 1};  // re-made in the ctor once the shard count is known
  StreamingLedger ledger_;
};

}  // namespace turbobc::storage
