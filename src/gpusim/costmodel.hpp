// Analytic performance model for simulated kernel launches.
//
// The model is deliberately simple and fully documented, because its job is
// to reproduce the *shape* of the paper's results, not absolute nanoseconds:
//
//  * Global memory accesses are grouped per warp "slot" (one memory
//    instruction issued by a warp). The active lanes' addresses are mapped to
//    32-byte sectors; the number of unique sectors is the transaction count,
//    which is what coalescing is: 32 adjacent 4-byte loads -> 4 transactions,
//    32 scattered loads -> up to 32 transactions.
//  * Transactions probe a direct-mapped L2 model (3 MB, persisting across
//    launches). Hits cost L2 bandwidth, misses cost DRAM bandwidth. This is
//    why frontier-dense kernels (veCSC on mycielski graphs, BFS depth 3) can
//    report global-load throughput above the DRAM peak, exactly as the
//    paper's Figure 5b shows for TurboBC kernels.
//  * Each slot costs issue cycles; uncoalesced slots replay once per
//    transaction. Warp divergence in scalar kernels appears naturally as
//    longer per-lane access sequences that cannot share slots.
//  * Kernel time = launch overhead + max(compute time, memory time), where
//    compute time is itself the max of a throughput bound (total slots over
//    all SMs) and a critical-path bound (slots of the busiest warp). The
//    critical-path bound is what penalizes load imbalance from mega-degree
//    vertices, the paper's motivation for the COOC and veCSC variants.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "gpusim/device_props.hpp"

namespace turbobc::sim {

enum class MemOp : std::uint8_t { kLoad, kStore, kAtomic, kAtomicFloat };

/// One global-memory access by one lane.
struct Access {
  std::uint64_t addr = 0;
  std::uint8_t size = 0;  // bytes, <= 16
  MemOp op = MemOp::kLoad;
};

/// Interns a kernel name into a process-lifetime table and returns a stable
/// view. Launch sites pass string literals or short-lived strings; interning
/// means LaunchRecord carries a cheap view instead of allocating a
/// std::string per launch (the launchers sit on the hot path of every test
/// and bench).
std::string_view intern_kernel_name(std::string_view name);

/// A floating-point atomic add captured during a host-parallel launch.
/// Float addition is not associative, so concurrent eager adds would make
/// results depend on the host schedule; instead each worker logs its adds in
/// program order and the launcher applies all logs in warp order at shard
/// merge — reproducing the serial engine's accumulation order exactly.
/// (Integer adds are exact under any order and run eagerly.)
struct DeferredAdd {
  void* target = nullptr;
  double value = 0.0;    // holds any float value exactly
  bool is_double = true;  // else the target is a float

  void apply() const {
    if (is_double) {
      *static_cast<double*>(target) += value;
    } else {
      *static_cast<float*>(target) += static_cast<float>(value);
    }
  }
};

/// Statistics for a single kernel launch (the simulator's analogue of an
/// nvprof row). `kernel` points into the intern table (or a string literal)
/// and is valid for the life of the process.
struct LaunchRecord {
  std::string_view kernel;
  std::uint64_t warps = 0;
  std::uint64_t issue_slots = 0;      // total warp instruction issues
  std::uint64_t max_warp_slots = 0;   // busiest warp (critical path)
  std::uint64_t load_requests = 0;    // per-lane requests
  std::uint64_t store_requests = 0;
  std::uint64_t atomic_requests = 0;
  std::uint64_t atomic_float_requests = 0;  // subset of atomic_requests
  std::uint64_t load_transactions = 0;   // 32 B sectors
  std::uint64_t store_transactions = 0;
  std::uint64_t l2_hit_transactions = 0;
  std::uint64_t dram_transactions = 0;
  /// 64-bit mask instructions (AND/OR/shift/popcount) issued by MS-BFS
  /// kernels. A subset of issue_slots: each word op is charged as a normal
  /// ALU instruction for timing AND counted here, so benches can report how
  /// much of a sweep's work ran 64 sources wide. Zero for scalar kernels.
  std::uint64_t word_ops = 0;
  double time_s = 0.0;

  std::uint64_t transaction_bytes(int sector_bytes) const {
    return (load_transactions + store_transactions) *
           static_cast<std::uint64_t>(sector_bytes);
  }

  /// Global-load throughput: bytes of load transactions served (from L2 or
  /// DRAM) per second of kernel time. Comparable to the paper's GLT metric.
  double glt_bps(int sector_bytes) const {
    return time_s > 0.0 ? static_cast<double>(load_transactions) *
                              static_cast<double>(sector_bytes) / time_s
                        : 0.0;
  }
};

/// The unique sectors one warp slot touches, in ascending order. A lane
/// request spans at most two sectors (widths <= 16 B), so 32 lanes touch at
/// most 64; the fixed array keeps the per-slot pipeline off the heap. Only
/// sector[0, count) is ever written or read.
struct SlotSectors {
  std::array<std::uint64_t, 64> sector;
  int count = 0;

  const std::uint64_t* begin() const noexcept { return sector.data(); }
  const std::uint64_t* end() const noexcept { return sector.data() + count; }
};

/// Transaction-level memory and timing model. Owns the L2 tag state, which
/// persists across launches like a real cache.
class CostModel {
 public:
  explicit CostModel(const DeviceProps& props);

  /// Account one warp memory slot. `accesses` holds the active lanes'
  /// requests (inactive lanes simply absent). Returns the number of issue
  /// slots consumed (>= 1; replays for uncoalesced transactions, plus
  /// serialization for contended atomics).
  std::uint64_t process_slot(LaunchRecord& rec, const Access* accesses,
                             int count);

  /// The slot pipeline is split in two so the parallel launch engine can run
  /// the pure part concurrently and the L2-stateful part serially:
  ///
  ///  * coalesce — pure function of the lanes' accesses: bumps the request
  ///    and transaction counters and issue slots on `rec`, and writes the
  ///    slot's unique sectors (ascending) to `out`. Touches no L2 state, so
  ///    per-warp results are identical no matter which host thread or order
  ///    computes them. `lane_at(i)` yields the Access of the i-th of `count`
  ///    active lanes: the scalar launcher reads its zipped per-lane logs
  ///    (divergent lanes may mix ops in one slot), the warp context builds
  ///    each lane's access from a raw address and the slot's one width and
  ///    op.
  ///  * replay_sectors — probes the direct-mapped L2 with a sector stream in
  ///    order, splitting transactions into l2_hit/dram on `rec`. Must be
  ///    called in global warp order (warp 0's slots first, then warp 1's, …)
  ///    to reproduce the serial engine's cache timeline bit-for-bit.
  ///
  /// process_slot == coalesce + replay_sectors on the same record.
  template <typename LaneAt>
  std::uint64_t coalesce(LaunchRecord& rec, int count, LaneAt&& lane_at,
                         SlotSectors& out) const;
  void replay_sectors(LaunchRecord& rec, const std::uint64_t* sectors,
                      std::size_t count);

  /// Direct-mapped L2 line of `sector`: sector % lines, computed without a
  /// division for sectors below 2^32.
  std::uint64_t l2_line(std::uint64_t sector) const noexcept;
  std::uint64_t l2_lines() const noexcept { return l2_tags_.size(); }

  /// Account `n` pure-ALU warp instructions.
  static std::uint64_t alu_slots(std::uint64_t n) { return n; }

  /// Final time for a finished launch; also fills rec.time_s.
  double finalize(LaunchRecord& rec) const;

  /// Timing for a bulk device-side memset of `bytes` (modeled as a
  /// store-only, perfectly coalesced kernel).
  double memset_time(std::uint64_t bytes) const;

  /// Host<->device transfer time over the simulated PCIe link.
  double transfer_time(std::uint64_t bytes) const;

  /// Extra issue-slot multiplier for floating-point atomics relative to
  /// integer atomics. Pascal implements fp32 global atomics natively but at
  /// a lower rate than int32; the paper exploits this by running the BFS
  /// stage on integer vectors (Section 3.4, "up to 2.7x faster").
  static constexpr std::uint64_t kFloatAtomicPenalty = 4;

  void reset_l2();

  const DeviceProps& props() const noexcept { return props_; }

 private:
  bool l2_probe_and_fill(std::uint64_t sector);

  DeviceProps props_;
  int sector_shift_ = 0;  // log2(props_.sector_bytes)
  std::vector<std::uint64_t> l2_tags_;  // direct-mapped, one tag per line
  std::uint64_t l2_magic_ = 0;          // 2^64 / lines, rounded up
};

inline std::uint64_t CostModel::l2_line(std::uint64_t sector) const noexcept {
  const std::uint64_t lines = l2_tags_.size();
  if ((sector >> 32) != 0) return sector % lines;
  // Lemire, Kaser & Kurz, "Faster remainder by direct computation" (2019):
  // for a 32-bit numerator and divisor, sector % lines is the high 64 bits
  // of (magic * sector mod 2^64) * lines.
  const std::uint64_t frac = l2_magic_ * sector;
  return static_cast<std::uint64_t>(
      (static_cast<__uint128_t>(frac) * lines) >> 64);
}

inline bool CostModel::l2_probe_and_fill(std::uint64_t sector) {
  const std::uint64_t line = l2_line(sector);
  if (l2_tags_[line] == sector) return true;
  l2_tags_[line] = sector;
  return false;
}

inline void CostModel::replay_sectors(LaunchRecord& rec,
                                      const std::uint64_t* sectors,
                                      std::size_t count) {
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (l2_probe_and_fill(sectors[i])) ++hits;
  }
  rec.l2_hit_transactions += hits;
  rec.dram_transactions += count - hits;
}

namespace detail {

/// Sorts v[0, n), drops duplicates and returns the unique count. Kept out of
/// line so the in-order fast path around it stays small enough to inline.
int sort_unique(std::uint64_t* v, int n);

/// Collects a slot's values into v[0, n) as the lanes deliver them, dropping
/// a repeat of the previous value on arrival. Values that arrive in
/// non-decreasing order (a CSC gather walks sorted rows) are then already
/// the ascending unique set; only an out-of-order slot pays for a sort.
struct UniqueCollector {
  std::uint64_t* v;
  int n = 0;
  std::uint64_t last = 0;
  bool ascending = true;

  /// Branch-free: whether a lane repeats its neighbour depends on the data.
  /// A repeat is written to v[n] and overwritten by the next value, so v
  /// needs room for one entry per add.
  void add(std::uint64_t x) {
    const bool first = n == 0;
    v[n] = x;
    n += static_cast<int>(first | (x != last));
    ascending &= first | (x >= last);
    last = x;
  }

  /// Returns the number of unique values, left ascending in v[0, n).
  int finish() {
    if (!ascending) n = sort_unique(v, n);
    return n;
  }
};

}  // namespace detail

template <typename LaneAt>
std::uint64_t CostModel::coalesce(LaunchRecord& rec, int count,
                                  LaneAt&& lane_at, SlotSectors& out) const {
  out.count = 0;
  if (count <= 0) return 0;

  // Collect the touched sectors of the warp's active lanes. A lane request
  // can straddle a sector boundary, hence up to 2 sectors each.
  detail::UniqueCollector sectors{out.sector.data()};
  std::array<std::uint64_t, 32> addrs;  // for atomic contention analysis
  detail::UniqueCollector atomic_addrs{addrs.data()};
  // Request counts stay in locals until the end: `rec` may alias the sector
  // buffer as far as the compiler knows.
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t n_atomics = 0;
  std::uint64_t float_atomics = 0;

  for (int i = 0; i < count; ++i) {
    const Access a = lane_at(i);
    const std::uint64_t first = a.addr >> sector_shift_;
    const std::uint64_t last = (a.addr + (a.size ? a.size - 1 : 0)) >>
                               sector_shift_;
    sectors.add(first);
    if (last != first) sectors.add(last);
    switch (a.op) {
      case MemOp::kLoad:
        ++loads;
        break;
      case MemOp::kStore:
        ++stores;
        break;
      case MemOp::kAtomicFloat:
        ++float_atomics;
        [[fallthrough]];
      case MemOp::kAtomic:
        ++n_atomics;
        atomic_addrs.add(a.addr);
        break;
    }
  }
  rec.load_requests += loads;
  rec.store_requests += stores;
  rec.atomic_requests += n_atomics;
  rec.atomic_float_requests += float_atomics;

  out.count = sectors.finish();
  const auto unique_sectors = static_cast<std::uint64_t>(out.count);
  // Atomics produce read-modify-write traffic.
  const bool is_store = stores + n_atomics > 0;
  if (is_store) {
    rec.store_transactions += unique_sectors;
  } else {
    rec.load_transactions += unique_sectors;
  }

  // Issue cost: one issue plus a replay per extra transaction; contended
  // atomics additionally serialize per conflicting lane.
  std::uint64_t slots = std::max<std::uint64_t>(1, unique_sectors);
  if (n_atomics > 0) {
    const auto distinct = static_cast<std::uint64_t>(atomic_addrs.finish());
    slots += n_atomics - distinct;
    if (float_atomics > 0) slots *= kFloatAtomicPenalty;
  }
  rec.issue_slots += slots;
  return slots;
}

}  // namespace turbobc::sim
