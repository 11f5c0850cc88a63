#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "graph/mtx_io.hpp"
#include "gpusim/executor.hpp"
#include "workloads.hpp"

namespace perfbench {

void GpuCounters::add_kernel(const std::string& name,
                             const turbobc::sim::KernelAggregate& agg) {
  launches += agg.launches;
  load_transactions += agg.load_transactions;
  store_transactions += agg.store_transactions;
  l2_hit_transactions += agg.l2_hit_transactions;
  dram_transactions += agg.dram_transactions;
  word_ops += agg.word_ops;
  auto it = std::find_if(kernels.begin(), kernels.end(),
                         [&](const auto& k) { return k.first == name; });
  if (it == kernels.end()) {
    kernels.emplace_back(name, turbobc::sim::KernelAggregate{});
    it = kernels.end() - 1;
  }
  it->second.launches += agg.launches;
  it->second.load_transactions += agg.load_transactions;
  it->second.store_transactions += agg.store_transactions;
  it->second.l2_hit_transactions += agg.l2_hit_transactions;
  it->second.dram_transactions += agg.dram_transactions;
  it->second.word_ops += agg.word_ops;
  it->second.time_s += agg.time_s;
}

void GpuCounters::add_device(const turbobc::sim::Device& dev) {
  kernel_s += dev.kernel_seconds();
  transfer_s += dev.transfer_seconds();
  overhead_s += dev.overhead_seconds();
  for (const auto& [name, agg] : dev.kernel_aggregates()) add_kernel(name, agg);
}

void GpuCounters::add(const GpuCounters& other) {
  kernel_s += other.kernel_s;
  transfer_s += other.transfer_s;
  overhead_s += other.overhead_s;
  for (const auto& [name, agg] : other.kernels) add_kernel(name, agg);
}

bool GpuCounters::same_as(const GpuCounters& o) const {
  if (kernel_s != o.kernel_s || transfer_s != o.transfer_s ||
      overhead_s != o.overhead_s || kernels.size() != o.kernels.size()) {
    return false;
  }
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const auto& a = kernels[i].second;
    const auto& b = o.kernels[i].second;
    if (kernels[i].first != o.kernels[i].first || a.launches != b.launches ||
        a.load_transactions != b.load_transactions ||
        a.store_transactions != b.store_transactions ||
        a.l2_hit_transactions != b.l2_hit_transactions ||
        a.dram_transactions != b.dram_transactions ||
        a.word_ops != b.word_ops || a.time_s != b.time_s) {
      return false;
    }
  }
  return true;
}

std::string write_graph(const Args& args, const turbobc::graph::EdgeList& g,
                        std::size_t index) {
  const std::string path =
      args.workdir + "/graph-" + std::to_string(index) + ".mtx";
  turbobc::graph::write_matrix_market_file(path, g);
  return path;
}

double max_rel_err(const std::vector<bc_t>& x, const std::vector<bc_t>& ref) {
  if (x.size() != ref.size()) return INFINITY;
  double worst = 0.0;
  for (std::size_t v = 0; v < ref.size(); ++v) {
    worst = std::max(worst, std::abs(x[v] - ref[v]) /
                                std::max(1.0, std::abs(ref[v])));
  }
  return worst;
}

namespace {

// Layers that spans are recorded under, in report order.
constexpr const char* kSpanLayers[] = {"bench", "graph", "core", "dist",
                                       "daemon"};

double self_time(const std::vector<std::pair<std::string, double>>& self,
                 const std::string& layer) {
  for (const auto& [name, s] : self) {
    if (name == layer) return s;
  }
  return 0.0;
}

}  // namespace

void note_trace(const Args& args, const Tracer& tracer, Report& report,
                const Layers& layers) {
  const auto self = tracer.self_time_by_layer();
  double total = 0.0;
  for (const auto& [layer, s] : self) total += s;
  char line[256];
  std::snprintf(line, sizeof line,
                "trace: %zu spans, %zu roots, overhead %+.2f%% vs untraced "
                "median",
                tracer.size(), tracer.roots(), layers.trace_overhead * 100.0);
  report.note(line);
  for (const auto& [layer, s] : self) {
    std::snprintf(line, sizeof line, "  self %-8s %12.6f s  %6.2f%%",
                  layer.c_str(), s, total > 0.0 ? 100.0 * s / total : 0.0);
    report.note(line);
  }
  tracer.write_chrome_trace(args.trace_path);
  report.note("trace written to " + args.trace_path);
}

void report_metrics(const Args& args, const EndToEnd& e, const Layers& l,
                    const Tracer& tracer, Report& r) {
  using C = Report::Clock;
  if (!args.trace) {
    r.add("wall_s", e.wall_s, "s", C::kWall);
    r.add("setup_s", e.setup_s, "s", C::kWall);
    r.add("warmup_s", e.warmup_s, "s", C::kWall);
    r.add("modeled_s", e.modeled_s, "s", C::kModeled);
    r.add("peak_device_bytes", e.peak_device_bytes, "B", C::kModeled);
    r.add("host_rss_mb", e.host_rss_mb, "MiB", C::kNone);
    return;
  }
  const GpuCounters& g = l.gpu;
  const double transactions =
      static_cast<double>(g.load_transactions + g.store_transactions);
  const double width = turbobc::sim::ExecutorPool::instance().threads();
  r.add("graph.ingest_s", l.ingest_s, "s", C::kWall);
  r.add("core.ctor_s", l.ctor_s, "s", C::kWall);
  r.add("core.compute_s", l.compute_s, "s", C::kWall);
  r.add("gpusim.kernel_s", g.kernel_s, "s", C::kModeled);
  r.add("gpusim.transfer_s", g.transfer_s, "s", C::kModeled);
  r.add("gpusim.overhead_s", g.overhead_s, "s", C::kModeled);
  r.add("gpusim.launches", static_cast<double>(g.launches), "count",
        C::kNone);
  r.add("gpusim.load_transactions", static_cast<double>(g.load_transactions),
        "count", C::kNone);
  r.add("gpusim.store_transactions",
        static_cast<double>(g.store_transactions), "count", C::kNone);
  const double l2_total =
      static_cast<double>(g.l2_hit_transactions + g.dram_transactions);
  r.add("gpusim.l2_hit_ratio",
        l2_total > 0.0 ? static_cast<double>(g.l2_hit_transactions) / l2_total
                       : 0.0,
        "ratio", C::kNone);
  r.add("gpusim.dram_transactions", static_cast<double>(g.dram_transactions),
        "count", C::kNone);
  r.add("gpusim.word_ops", static_cast<double>(g.word_ops), "count",
        C::kNone);
  // Top kernels by modeled time; their names go to the notes.
  auto kernels = g.kernels;
  std::stable_sort(kernels.begin(), kernels.end(), [](const auto& a,
                                                      const auto& b) {
    return a.second.time_s > b.second.time_s;
  });
  for (std::size_t k = 0; k < 3; ++k) {
    const std::string prefix = "gpusim.top" + std::to_string(k + 1);
    const bool have = k < kernels.size();
    if (have) {
      r.note(prefix + " = " + kernels[k].first);
    }
    r.add(prefix + "_s", have ? kernels[k].second.time_s : 0.0, "s",
          C::kModeled);
    r.add(prefix + "_launches",
          have ? static_cast<double>(kernels[k].second.launches) : 0.0,
          "count", C::kNone);
  }
  r.add("gpusim.host_ns_per_transaction",
        transactions > 0.0 ? l.compute_s * 1e9 / transactions : 0.0, "ns",
        C::kWall);
  r.add("gpusim.host_us_per_launch",
        g.launches > 0 ? l.compute_s * 1e6 / static_cast<double>(g.launches)
                       : 0.0,
        "us", C::kWall);
  r.add("gpusim.pool_util",
        l.compute_s > 0.0 ? l.compute_cpu_s / (l.compute_s * width) : 0.0,
        "ratio", C::kWall);
  r.add("gpusim.pool_width", width, "count", C::kNone);
  r.add("gpusim.pool_speedup", l.pool_speedup, "ratio", C::kWall);
  r.add("dist.comm_s", l.comm_s, "s", C::kModeled);
  r.add("dist.comm_bytes", l.comm_bytes, "B", C::kModeled);
  r.add("dist.shard_imbalance", l.shard_imbalance, "ratio", C::kModeled);
  r.add("serve.cache_hit_ratio", l.cache_hit_ratio, "ratio", C::kNone);
  r.add("serve.recomputed", l.recomputed, "count", C::kNone);
  r.add("serve.invalidated_per_update", l.invalidated_per_update, "count",
        C::kNone);
  r.add("daemon.req_p50_ms", l.req_p50_ms, "ms", C::kWall);
  r.add("daemon.req_p99_ms", l.req_p99_ms, "ms", C::kWall);
  r.add("daemon.req_per_s", l.req_per_s, "1/s", C::kWall);
  r.add("daemon.read_p99_ms", l.read_p99_ms, "ms", C::kWall);
  r.add("daemon.write_p99_ms", l.write_p99_ms, "ms", C::kWall);
  r.add("daemon.approx_p99_ms", l.approx_p99_ms, "ms", C::kWall);
  r.add("daemon.busy", l.busy, "count", C::kNone);
  r.add("daemon.errors", l.errors, "count", C::kNone);
  r.add("daemon.server_p50_ms", l.server_p50_ms, "ms", C::kWall);
  r.add("daemon.server_p99_ms", l.server_p99_ms, "ms", C::kWall);
  r.add("failed_share",
        r.attempted > 0 ? static_cast<double>(r.failed) /
                              static_cast<double>(r.attempted)
                        : 0.0,
        "ratio", C::kNone);
  r.add("trace.overhead", l.trace_overhead, "ratio", C::kWall);
  const auto self = tracer.self_time_by_layer();
  const double roots = std::max<double>(1.0, tracer.roots());
  for (const char* layer : kSpanLayers) {
    r.add(std::string("self.") + layer + "_s", self_time(self, layer) / roots,
          "s", C::kWall);
  }
}

}  // namespace perfbench
