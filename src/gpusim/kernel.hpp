// Kernel launchers for the simulated GPU.
//
// Two execution styles mirror the paper's two kernel families (Section 3.1):
//
//  * launch_scalar — "scalar" kernels assigning one thread per vertex (scCSC)
//    or one thread per edge (scCOOC). The body runs once per thread with a
//    ThreadCtx; each thread's global accesses are logged and then zipped
//    lane-by-lane into warp slots, so coalescing across the 32 lanes of each
//    warp is analyzed exactly and divergence shows up as ragged lane logs.
//
//  * launch_warp — "vector" kernels assigning one warp per vertex (veCSC,
//    Algorithm 4). The body runs once per warp with a WarpCtx that exposes
//    explicit SIMT operations: gather/scatter/atomic slots over active-lane
//    masks, broadcast loads, shfl_down for the warp shuffle reduction, and
//    plain ALU slots.
//
// Host-parallel execution (ExecutorPool width > 1): warp ids are split into
// contiguous chunks, one per pool slot. Each slot runs its warps against a
// private LaunchRecord shard using the *pure* half of the cost pipeline
// (CostModel::coalesce), recording the slot's unique-sector stream and
// deferring floating-point atomic adds. Shards are then merged on the
// calling thread in slot (= warp) order: counters summed, sector streams
// replayed through the stateful L2 (CostModel::replay_sectors) in exactly
// the order the serial engine would have probed, and deferred float adds
// applied in warp order (float addition is not associative, so eager
// concurrent adds would drift). The committed LaunchRecord and every buffer
// value are therefore bit-identical to serial execution. Integer atomic adds
// are exact under any order and run eagerly via std::atomic_ref; plain
// scatters keep their distinct-index contract and run eagerly with relaxed
// atomic accesses (same-address same-value stores, e.g. convergence flags,
// stay benign under TSan).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <string_view>
#include <vector>

#include "gpusim/buffer.hpp"
#include "gpusim/costmodel.hpp"
#include "gpusim/device.hpp"
#include "gpusim/executor.hpp"

namespace turbobc::sim {

inline constexpr int kWarpSize = 32;
inline constexpr std::uint32_t kFullMask = 0xffffffffu;

/// Whether a launch may use the host-parallel engine. Kernels whose
/// *functional* result depends on cross-warp execution order — e.g. the
/// Gunrock baseline allocating frontier slots from an atomic counter's
/// return value — must pass kSerialOnly.
enum class LaunchPolicy : std::uint8_t { kParallelOk, kSerialOnly };

namespace detail {

/// Per-worker shard of a parallel launch: counters (everything except the
/// L2 split), the slot's unique-sector stream in warp order, deferred float
/// adds in program order, and the chunk's busiest warp.
struct LaunchShard {
  LaunchRecord rec;
  std::vector<std::uint64_t> sectors;
  std::vector<DeferredAdd> deferred;
  std::uint64_t max_warp_slots = 0;

  void reset() {
    rec = LaunchRecord{};
    sectors.clear();
    deferred.clear();
    max_warp_slots = 0;
  }
};

/// Merge shards into `rec` in slot order (slots own ascending warp ranges,
/// so this is global warp order): sum counters, replay the L2 stream, apply
/// deferred float adds.
inline void merge_shards(CostModel& cost, LaunchRecord& rec,
                         std::vector<LaunchShard>& shards) {
  for (LaunchShard& sh : shards) {
    rec.issue_slots += sh.rec.issue_slots;
    rec.load_requests += sh.rec.load_requests;
    rec.store_requests += sh.rec.store_requests;
    rec.atomic_requests += sh.rec.atomic_requests;
    rec.atomic_float_requests += sh.rec.atomic_float_requests;
    rec.load_transactions += sh.rec.load_transactions;
    rec.store_transactions += sh.rec.store_transactions;
    rec.word_ops += sh.rec.word_ops;
    rec.max_warp_slots = std::max(rec.max_warp_slots, sh.max_warp_slots);
    cost.replay_sectors(rec, sh.sectors.data(), sh.sectors.size());
    for (const DeferredAdd& d : sh.deferred) d.apply();
  }
}

/// Account one warp slot through the shared coalescer. A serial launch
/// (`stream == nullptr`) probes the L2 with the slot's sectors at once; a
/// shard appends them to its stream for the in-order replay at merge and
/// touches only the model's constants.
template <typename LaneAt>
std::uint64_t account_slot(CostModel& cost, LaunchRecord& rec,
                           std::vector<std::uint64_t>* stream, int count,
                           LaneAt&& lane_at) {
  SlotSectors sectors;
  const std::uint64_t slots = cost.coalesce(rec, count, lane_at, sectors);
  if (stream == nullptr) {
    cost.replay_sectors(rec, sectors.begin(),
                        static_cast<std::size_t>(sectors.count));
  } else {
    stream->insert(stream->end(), sectors.begin(), sectors.end());
  }
  return slots;
}

/// Reusable per-thread scratch for the scalar launcher's lane logs; hoisted
/// out of the launch loop so the per-warp vectors are allocated once per
/// host thread instead of churning the heap on every launch.
struct ScalarScratch {
  std::array<std::vector<Access>, 32> logs;
  std::array<std::uint64_t, 32> alu{};
  std::array<Access, 32> slot_buf;

  ScalarScratch() {
    for (auto& log : logs) log.reserve(64);
  }
};

inline ScalarScratch& scalar_scratch() {
  thread_local ScalarScratch scratch;
  return scratch;
}

inline bool use_parallel_engine(LaunchPolicy policy, std::uint64_t warps) {
  return policy == LaunchPolicy::kParallelOk &&
         warps >= kMinWarpsForParallelLaunch && !ExecutorPool::in_pool_job() &&
         ExecutorPool::instance().threads() > 1;
}

}  // namespace detail

/// Per-thread context for scalar kernels.
class ThreadCtx {
 public:
  ThreadCtx(std::uint64_t global_id, std::vector<Access>& log,
            std::uint64_t& alu_ops,
            std::vector<DeferredAdd>* deferred = nullptr,
            std::uint64_t* word_ops = nullptr)
      : global_id_(global_id),
        log_(&log),
        alu_ops_(&alu_ops),
        deferred_(deferred),
        word_ops_(word_ops) {}

  std::uint64_t global_id() const noexcept { return global_id_; }

  /// True when the launch runs on the host-parallel engine: buffer element
  /// accesses must then go through relaxed atomics / deferral (see
  /// DeviceBuffer).
  bool concurrent() const noexcept { return deferred_ != nullptr; }

  /// Queue a floating-point add for ordered application at shard merge.
  void defer_add(double* target, double value) {
    deferred_->push_back(DeferredAdd{target, value, true});
  }
  void defer_add(float* target, float value) {
    deferred_->push_back(
        DeferredAdd{target, static_cast<double>(value), false});
  }

  /// Called by DeviceBuffer accessors.
  void record(Access a) { log_->push_back(a); }

  /// Charge `n` ALU instructions on this lane (index arithmetic, compares).
  void count_ops(std::uint64_t n) { *alu_ops_ += n; }

  /// Charge `n` 64-bit mask instructions (MS-BFS AND/OR/popcount): normal
  /// ALU cost for timing, plus the launch-wide word-op traffic counter. The
  /// counter target is the (per-shard) LaunchRecord, written single-threaded
  /// within each shard, so the sum is exact under any pool width.
  void count_word_ops(std::uint64_t n) {
    *alu_ops_ += n;
    if (word_ops_ != nullptr) *word_ops_ += n;
  }

 private:
  std::uint64_t global_id_;
  std::vector<Access>* log_;
  std::uint64_t* alu_ops_;
  std::vector<DeferredAdd>* deferred_;
  std::uint64_t* word_ops_ = nullptr;
};

namespace detail {

/// Run scalar-kernel warps [warp_begin, warp_end) against `rec`. In serial
/// mode (`sectors == nullptr`) slots go through the full stateful pipeline
/// via `cost`; in shard mode the pure half runs, the sector stream is
/// recorded, and `cost`'s L2 is not touched (it is shared across shards).
template <typename Body>
std::uint64_t run_scalar_warps(CostModel& cost, LaunchRecord& rec,
                               std::uint64_t warp_begin,
                               std::uint64_t warp_end, std::uint64_t n_threads,
                               std::vector<std::uint64_t>* sectors,
                               std::vector<DeferredAdd>* deferred,
                               Body&& body) {
  ScalarScratch& scratch = scalar_scratch();
  std::uint64_t max_warp_slots = 0;
  for (std::uint64_t w = warp_begin; w < warp_end; ++w) {
    std::size_t max_len = 0;
    std::uint64_t max_alu = 0;
    const int lanes = static_cast<int>(
        std::min<std::uint64_t>(32, n_threads - w * 32));
    for (int lane = 0; lane < lanes; ++lane) {
      scratch.logs[lane].clear();
      scratch.alu[lane] = 0;
      ThreadCtx ctx(w * 32 + lane, scratch.logs[lane], scratch.alu[lane],
                    deferred, &rec.word_ops);
      body(ctx);
      max_len = std::max(max_len, scratch.logs[lane].size());
      max_alu = std::max(max_alu, scratch.alu[lane]);
    }

    // Zip lane logs into warp slots: slot i groups the i-th access of every
    // lane that issued at least i+1 accesses (lockstep approximation).
    std::uint64_t warp_slots = 0;
    for (std::size_t s = 0; s < max_len; ++s) {
      int cnt = 0;
      for (int lane = 0; lane < lanes; ++lane) {
        if (s < scratch.logs[lane].size()) {
          scratch.slot_buf[cnt++] = scratch.logs[lane][s];
        }
      }
      warp_slots += account_slot(
          cost, rec, sectors, cnt,
          [&](int i) -> const Access& { return scratch.slot_buf[i]; });
    }
    // Divergent ALU work executes in lockstep: the warp pays the longest
    // lane's instruction count.
    rec.issue_slots += max_alu;
    warp_slots += max_alu;
    max_warp_slots = std::max(max_warp_slots, warp_slots);
  }
  return max_warp_slots;
}

}  // namespace detail

/// Run `body(ThreadCtx&)` for thread ids [0, n_threads).
template <typename Body>
void launch_scalar(Device& device, std::string_view name,
                   std::uint64_t n_threads, Body&& body,
                   LaunchPolicy policy = LaunchPolicy::kParallelOk) {
  LaunchRecord rec;
  rec.kernel = intern_kernel_name(name);
  CostModel& cost = device.cost_model();
  if (n_threads == 0) {
    cost.finalize(rec);
    device.commit_launch(std::move(rec));
    return;
  }
  rec.warps = (n_threads + kWarpSize - 1) / kWarpSize;

  if (!detail::use_parallel_engine(policy, rec.warps)) {
    rec.max_warp_slots = std::max(
        rec.max_warp_slots,
        detail::run_scalar_warps(cost, rec, 0, rec.warps, n_threads, nullptr,
                                 nullptr, body));
  } else {
    ExecutorPool& pool = ExecutorPool::instance();
    std::vector<detail::LaunchShard> shards(pool.threads());
    pool.for_chunks(rec.warps, [&](std::uint64_t wb, std::uint64_t we,
                                   unsigned slot) {
      detail::LaunchShard& sh = shards[slot];
      sh.max_warp_slots = detail::run_scalar_warps(
          cost, sh.rec, wb, we, n_threads, &sh.sectors, &sh.deferred, body);
    });
    detail::merge_shards(cost, rec, shards);
  }

  cost.finalize(rec);
  device.commit_launch(std::move(rec));
}

/// Per-warp SIMT context for vector kernels.
class WarpCtx {
 public:
  /// Serial-mode context: slots go through the full stateful cost pipeline.
  WarpCtx(CostModel& cost, LaunchRecord& rec, std::uint64_t warp_id,
          std::uint64_t num_warps)
      : cost_(&cost), rec_(&rec), warp_id_(warp_id), num_warps_(num_warps) {}

  /// Shard-mode context for the host-parallel engine: pure coalescing only;
  /// the sector stream and float adds are replayed at merge.
  WarpCtx(CostModel& cost, LaunchRecord& rec,
          std::vector<std::uint64_t>& sectors,
          std::vector<DeferredAdd>& deferred, std::uint64_t warp_id,
          std::uint64_t num_warps)
      : cost_(&cost),
        rec_(&rec),
        sectors_(&sectors),
        deferred_(&deferred),
        warp_id_(warp_id),
        num_warps_(num_warps) {}

  std::uint64_t warp_id() const noexcept { return warp_id_; }
  std::uint64_t num_warps() const noexcept { return num_warps_; }
  std::uint64_t slots() const noexcept { return slots_; }
  bool concurrent() const noexcept { return sectors_ != nullptr; }

  /// One gather slot: active lanes load buf[idx_fn(lane)].
  template <typename T, typename IdxFn>
  std::array<T, kWarpSize> gather(const DeviceBuffer<T>& buf,
                                  std::uint32_t mask, IdxFn&& idx_fn) {
    std::array<std::uint64_t, kWarpSize> addrs;
    std::array<T, kWarpSize> out{};
    int cnt = 0;
    for (std::uint32_t m = mask; m != 0; m &= m - 1) {
      const int lane = std::countr_zero(m);
      const std::size_t i = idx_fn(lane);
      addrs[cnt++] = buf.addr_of(i);
      out[lane] = detail::read_elem(buf.host()[i], concurrent());
    }
    account_uniform(addrs.data(), cnt, sizeof(T), MemOp::kLoad);
    return out;
  }

  /// One scatter slot: active lanes store val_fn(lane) to buf[idx_fn(lane)].
  /// Lanes must target distinct indices (CUDA semantics leave same-address
  /// plain stores undefined); use atomic_add for conflicting writes.
  template <typename T, typename IdxFn, typename ValFn>
  void scatter(DeviceBuffer<T>& buf, std::uint32_t mask, IdxFn&& idx_fn,
               ValFn&& val_fn) {
    std::array<std::uint64_t, kWarpSize> addrs;
    int cnt = 0;
    for (std::uint32_t m = mask; m != 0; m &= m - 1) {
      const int lane = std::countr_zero(m);
      const std::size_t i = idx_fn(lane);
      addrs[cnt++] = buf.addr_of(i);
      detail::write_elem(buf.host()[i], static_cast<T>(val_fn(lane)),
                         concurrent());
    }
    account_uniform(addrs.data(), cnt, sizeof(T), MemOp::kStore);
  }

  /// One atomic slot: active lanes atomically add val_fn(lane) into
  /// buf[idx_fn(lane)]; contended addresses serialize in the cost model.
  template <typename T, typename IdxFn, typename ValFn>
  void atomic_add(DeviceBuffer<T>& buf, std::uint32_t mask, IdxFn&& idx_fn,
                  ValFn&& val_fn) {
    std::array<std::uint64_t, kWarpSize> addrs;
    int cnt = 0;
    for (std::uint32_t m = mask; m != 0; m &= m - 1) {
      const int lane = std::countr_zero(m);
      const std::size_t i = idx_fn(lane);
      addrs[cnt++] = buf.addr_of(i);
      const T val = static_cast<T>(val_fn(lane));
      T& slot = buf.host()[i];
      if (!concurrent()) {
        slot = static_cast<T>(slot + val);
      } else if constexpr (std::is_integral_v<T>) {
        std::atomic_ref<T>(slot).fetch_add(val, std::memory_order_relaxed);
      } else {
        deferred_->push_back(DeferredAdd{&slot, static_cast<double>(val),
                                         std::is_same_v<T, double>});
      }
    }
    account_uniform(addrs.data(), cnt, sizeof(T), buf.atomic_op());
  }

  /// All 32 lanes read the same element (e.g. the column pointer pair in
  /// Algorithm 4): one slot, one transaction.
  template <typename T>
  T broadcast_load(const DeviceBuffer<T>& buf, std::size_t i) {
    const std::uint64_t addr = buf.addr_of(i);
    account_uniform(&addr, 1, sizeof(T), MemOp::kLoad);
    return detail::read_elem(buf.host()[i], concurrent());
  }

  /// __shfl_down_sync: lane L receives v[L + offset] (lanes past the end keep
  /// their value, matching CUDA's behaviour within a full mask). One slot.
  template <typename T>
  std::array<T, kWarpSize> shfl_down(const std::array<T, kWarpSize>& v,
                                     int offset) {
    std::array<T, kWarpSize> out = v;
    for (int lane = 0; lane + offset < kWarpSize; ++lane) {
      out[lane] = v[lane + offset];
    }
    count_ops(1);
    return out;
  }

  /// Full warp shuffle reduction (Algorithm 4, lines 17-21): log2(32) = 5
  /// shfl_down + add slots; returns the total in lane 0's position. Folds in
  /// place: at each offset only lanes below it can still reach lane 0, and
  /// they read lanes the previous step wrote, so lane 0 sees the additions
  /// of the shfl_down tree in the same order.
  template <typename T>
  T reduce_add(std::array<T, kWarpSize> v) {
    for (int offset = kWarpSize / 2; offset > 0; offset /= 2) {
      for (int lane = 0; lane < offset; ++lane) {
        v[lane] = static_cast<T>(v[lane] + v[lane + offset]);
      }
      count_ops(2);  // the shfl_down and the add
    }
    return v[0];
  }

  /// Charge `n` ALU warp instructions.
  void count_ops(std::uint64_t n) {
    rec_->issue_slots += n;
    slots_ += n;
  }

  /// Charge `n` 64-bit mask warp instructions: ALU cost plus the launch's
  /// word-op traffic counter (see ThreadCtx::count_word_ops).
  void count_word_ops(std::uint64_t n) {
    rec_->word_ops += n;
    count_ops(n);
  }

 private:
  /// A warp-uniform slot: every active lane issues `op` of `size` bytes at
  /// its address in addrs[0, cnt).
  void account_uniform(const std::uint64_t* addrs, int cnt, std::uint8_t size,
                       MemOp op) {
    slots_ += detail::account_slot(*cost_, *rec_, sectors_, cnt, [=](int i) {
      return Access{addrs[i], size, op};
    });
  }

  CostModel* cost_;
  LaunchRecord* rec_;
  std::vector<std::uint64_t>* sectors_ = nullptr;
  std::vector<DeferredAdd>* deferred_ = nullptr;
  std::uint64_t warp_id_;
  std::uint64_t num_warps_;
  std::uint64_t slots_ = 0;
};

/// Run `body(WarpCtx&)` for warp ids [0, n_warps).
template <typename Body>
void launch_warp(Device& device, std::string_view name, std::uint64_t n_warps,
                 Body&& body, LaunchPolicy policy = LaunchPolicy::kParallelOk) {
  LaunchRecord rec;
  rec.kernel = intern_kernel_name(name);
  rec.warps = n_warps;
  CostModel& cost = device.cost_model();

  if (!detail::use_parallel_engine(policy, n_warps)) {
    for (std::uint64_t w = 0; w < n_warps; ++w) {
      WarpCtx ctx(cost, rec, w, n_warps);
      body(ctx);
      rec.max_warp_slots = std::max(rec.max_warp_slots, ctx.slots());
    }
  } else {
    ExecutorPool& pool = ExecutorPool::instance();
    std::vector<detail::LaunchShard> shards(pool.threads());
    pool.for_chunks(n_warps, [&](std::uint64_t wb, std::uint64_t we,
                                 unsigned slot) {
      detail::LaunchShard& sh = shards[slot];
      for (std::uint64_t w = wb; w < we; ++w) {
        WarpCtx ctx(cost, sh.rec, sh.sectors, sh.deferred, w, n_warps);
        body(ctx);
        sh.max_warp_slots = std::max(sh.max_warp_slots, ctx.slots());
      }
    });
    detail::merge_shards(cost, rec, shards);
  }

  cost.finalize(rec);
  device.commit_launch(std::move(rec));
}

}  // namespace turbobc::sim
