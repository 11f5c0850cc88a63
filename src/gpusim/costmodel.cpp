#include "gpusim/costmodel.hpp"

#include <algorithm>
#include <bit>
#include <deque>
#include <mutex>
#include <string>

#include "common/error.hpp"

namespace turbobc::sim {

namespace {
constexpr std::uint64_t kInvalidTag = ~0ULL;
}

std::string_view intern_kernel_name(std::string_view name) {
  static std::mutex mutex;
  static std::deque<std::string> table;  // deque: stable element addresses
  std::lock_guard<std::mutex> g(mutex);
  for (const std::string& s : table) {
    if (s == name) return s;
  }
  return table.emplace_back(name);
}

namespace detail {

int sort_unique(std::uint64_t* v, int n) {
  std::sort(v, v + n);
  return static_cast<int>(std::unique(v, v + n) - v);
}

}  // namespace detail

CostModel::CostModel(const DeviceProps& props) : props_(props) {
  TBC_CHECK(std::has_single_bit(static_cast<unsigned>(props_.sector_bytes)),
            "sector_bytes must be a power of two");
  sector_shift_ = std::countr_zero(static_cast<unsigned>(props_.sector_bytes));
  const std::size_t lines =
      std::max<std::size_t>(1, props_.l2_bytes / props_.sector_bytes);
  TBC_CHECK(lines <= 0xffffffffULL, "L2 line count must fit 32 bits");
  l2_tags_.assign(lines, kInvalidTag);
  // Wraps to 0 for one line, where every index is 0 anyway.
  l2_magic_ = ~0ULL / lines + 1;
}

void CostModel::reset_l2() {
  std::fill(l2_tags_.begin(), l2_tags_.end(), kInvalidTag);
}

std::uint64_t CostModel::process_slot(LaunchRecord& rec, const Access* accesses,
                                      int count) {
  SlotSectors sectors;
  const std::uint64_t slots = coalesce(
      rec, count, [accesses](int i) { return accesses[i]; }, sectors);
  replay_sectors(rec, sectors.begin(), static_cast<std::size_t>(sectors.count));
  return slots;
}

double CostModel::finalize(LaunchRecord& rec) const {
  const double issue_rate =
      static_cast<double>(props_.total_warp_issue_slots_per_cycle()) *
      props_.clock_hz;
  const double throughput_bound =
      static_cast<double>(rec.issue_slots) / issue_rate;
  const double critical_path = static_cast<double>(rec.max_warp_slots) *
                               props_.cycles_per_dependent_slot /
                               props_.clock_hz;
  const double compute_time = std::max(throughput_bound, critical_path);

  const double sector = static_cast<double>(props_.sector_bytes);
  const double dram_time =
      static_cast<double>(rec.dram_transactions) * sector /
      props_.dram_bandwidth_bps;
  const double l2_time = static_cast<double>(rec.l2_hit_transactions) * sector /
                         props_.l2_bandwidth_bps;
  // Atomics funnel through the L2 atomic units at a fixed op rate; float
  // atomics run ~4x slower than integer ones (see DeviceProps).
  const std::uint64_t int_atomics =
      rec.atomic_requests - rec.atomic_float_requests;
  const double atomic_time =
      static_cast<double>(int_atomics) / props_.atomic_int_ops_per_s +
      static_cast<double>(rec.atomic_float_requests) /
          props_.atomic_float_ops_per_s;
  const double mem_time = dram_time + l2_time + atomic_time;

  rec.time_s =
      props_.kernel_launch_overhead_s + std::max(compute_time, mem_time);
  return rec.time_s;
}

double CostModel::memset_time(std::uint64_t bytes) const {
  return props_.kernel_launch_overhead_s +
         static_cast<double>(bytes) / props_.dram_bandwidth_bps;
}

double CostModel::transfer_time(std::uint64_t bytes) const {
  return props_.pcie_latency_s +
         static_cast<double>(bytes) / props_.pcie_bandwidth_bps;
}

}  // namespace turbobc::sim
