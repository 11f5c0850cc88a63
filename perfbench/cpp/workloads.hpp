// The workloads and the metric sets every workload reports. Each workload
// fills an EndToEnd and a Layers record; report_metrics() prints all of
// them, so every workload names the same metrics (zero where a layer does
// not run on that workload; README.md lists which).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "gpusim/device.hpp"
#include "graph/edge_list.hpp"
#include "report.hpp"

namespace perfbench {

using turbobc::bc_t;
using turbobc::vidx_t;

/// Modeled-device counters of one engine run, summed over its devices.
struct GpuCounters {
  double kernel_s = 0.0;
  double transfer_s = 0.0;
  double overhead_s = 0.0;
  std::uint64_t launches = 0;
  std::uint64_t load_transactions = 0;
  std::uint64_t store_transactions = 0;
  std::uint64_t l2_hit_transactions = 0;
  std::uint64_t dram_transactions = 0;
  std::uint64_t word_ops = 0;
  /// Per-kernel aggregates, merged by kernel name.
  std::vector<std::pair<std::string, turbobc::sim::KernelAggregate>> kernels;

  void add_device(const turbobc::sim::Device& dev);
  void add(const GpuCounters& other);
  /// Bitwise equality of every count and modeled second.
  bool same_as(const GpuCounters& o) const;

 private:
  void add_kernel(const std::string& name,
                  const turbobc::sim::KernelAggregate& agg);
};

struct EndToEnd {
  double wall_s = 0.0;
  double setup_s = 0.0;
  double warmup_s = 0.0;
  double modeled_s = 0.0;
  double peak_device_bytes = 0.0;
  double host_rss_mb = 0.0;
};

struct Layers {
  double ingest_s = 0.0;
  double ctor_s = 0.0;
  double compute_s = 0.0;
  double compute_cpu_s = 0.0;  ///< process CPU seconds over compute_s
  GpuCounters gpu;
  double pool_speedup = 0.0;
  double comm_s = 0.0;
  double comm_bytes = 0.0;
  double shard_imbalance = 0.0;
  double cache_hit_ratio = 0.0;
  double recomputed = 0.0;
  double invalidated_per_update = 0.0;
  double req_p50_ms = 0.0;
  double req_p99_ms = 0.0;
  double req_per_s = 0.0;
  double read_p99_ms = 0.0;
  double write_p99_ms = 0.0;
  double approx_p99_ms = 0.0;
  double busy = 0.0;
  double errors = 0.0;
  double server_p50_ms = 0.0;
  double server_p99_ms = 0.0;
  double trace_overhead = 0.0;
};

/// Each run measures this many generated inputs, so its figures average
/// over graphs instead of resting on one draw of the generator.
constexpr std::size_t kInputsPerRun = 4;

/// Generator seed of input `i` of a run: disjoint across run seeds.
inline std::uint64_t input_seed(std::uint64_t seed, std::size_t i) {
  return seed * kInputsPerRun + i;
}

/// Set-up-only repetitions measured per job or cold start. They are spread
/// over the window, so the set-up median sees the same host as the jobs.
constexpr int kSetupRepsPerJob = 5;

/// Writes `g` as Matrix Market into the run's directory and returns the
/// file's path, so every workload's ingest reads a real file.
std::string write_graph(const Args& args, const turbobc::graph::EdgeList& g,
                        std::size_t index);

/// Worst |x - ref| / max(1, |ref|), the bound `turbobc_cli bc --verify`
/// applies (it accepts below 1e-6).
double max_rel_err(const std::vector<bc_t>& x, const std::vector<bc_t>& ref);
constexpr double kVerifyBound = 1e-6;

/// Notes the per-layer self times, span count and tracing overhead of a
/// traced run and writes its Chrome trace to args.trace_path.
void note_trace(const Args& args, const Tracer& tracer, Report& report,
                const Layers& layers);

/// Adds every end-to-end metric (untraced runs) or every per-layer metric
/// (traced runs) to the report.
void report_metrics(const Args& args, const EndToEnd& e2e,
                    const Layers& layers, const Tracer& tracer,
                    Report& report);

void run_batch(const Args& args, Report& report);
void run_daemon(const Args& args, Report& report);

}  // namespace perfbench
