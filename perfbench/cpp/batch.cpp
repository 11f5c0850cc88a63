// Batch workloads: one job is what `turbobc_cli bc` does for a user —
// ingest the .mtx file (parse + canonicalize), build the engine (format
// build + upload), compute BC, render the top-10 table. Jobs repeat on the
// same input until the measured window closes; the outputs are checked
// against Brandes after it.
//
//   exact-kron      TurboBC run_exact, variant auto, push (paper Table 5)
//   msbfs-road      TurboBCBatched run_exact at batch 64
//   partition-road  DistTurboBC, partition strategy over 4 modeled devices,
//                   run_sources on a seed-drawn sample of sources
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/brandes.hpp"
#include "common/format.hpp"
#include "common/prng.hpp"
#include "core/turbobc.hpp"
#include "core/turbobc_batched.hpp"
#include "core/variant.hpp"
#include "dist/dist_turbobc.hpp"
#include "generators/generators.hpp"
#include "gpusim/executor.hpp"
#include "gpusim/topology.hpp"
#include "graph/mtx_io.hpp"
#include "serve/protocol.hpp"
#include "serve/serve_engine.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace tb = turbobc;

enum class Kind { kExactKron, kMsbfsRoad, kPartitionRoad };

// Workload sizes. README.md explains the choice.
constexpr int kKronScale = 10;
constexpr double kKronEdgeFactor = 8;
constexpr vidx_t kRoadRows = 10;
constexpr vidx_t kRoadCols = 10;
constexpr int kRoadSubdiv = 2;
constexpr vidx_t kMsbfsBatch = 64;
constexpr int kDistDevices = 4;
constexpr vidx_t kDistSources = 64;
constexpr vidx_t kRenderTop = 10;

Kind parse_kind(const std::string& name) {
  if (name == "exact-kron") return Kind::kExactKron;
  if (name == "msbfs-road") return Kind::kMsbfsRoad;
  return Kind::kPartitionRoad;
}

tb::graph::EdgeList generate(Kind kind, std::uint64_t seed) {
  if (kind == Kind::kExactKron) {
    return tb::gen::kronecker(
        {.scale = kKronScale, .edge_factor = kKronEdgeFactor, .seed = seed});
  }
  return tb::gen::road_network({.grid_rows = kRoadRows,
                                .grid_cols = kRoadCols,
                                .subdivisions = kRoadSubdiv,
                                .seed = seed});
}

/// Distinct sources drawn uniformly from the seed.
std::vector<vidx_t> draw_sources(vidx_t n, vidx_t k, std::uint64_t seed) {
  tb::Xoshiro256 rng(seed ^ 0x5eed5eed5eedULL);
  std::vector<char> chosen(static_cast<std::size_t>(n), 0);
  std::vector<vidx_t> sources;
  k = std::min(k, n);
  while (static_cast<vidx_t>(sources.size()) < k) {
    const auto v = static_cast<vidx_t>(rng.uniform(static_cast<std::uint64_t>(n)));
    if (!chosen[static_cast<std::size_t>(v)]) {
      chosen[static_cast<std::size_t>(v)] = 1;
      sources.push_back(v);
    }
  }
  return sources;
}

/// Timings and outputs of one job.
struct Job {
  double wall = 0.0;
  double ingest = 0.0;
  double ctor = 0.0;
  double compute = 0.0;
  double compute_cpu = 0.0;
  std::vector<bc_t> bc;
  double modeled = 0.0;
  std::size_t peak = 0;
  GpuCounters gpu;
  double comm_s = 0.0;
  double comm_bytes = 0.0;
  double shard_imbalance = 0.0;
  std::uint64_t digest = 0;
};

/// The engine of one workload, built from an ingested graph. Holding the
/// device(s) and the engine together keeps the engine's references valid.
class Engine {
 public:
  Engine(Kind kind, const tb::graph::EdgeList& g) : kind_(kind) {
    switch (kind) {
      case Kind::kExactKron:
        device_.emplace();
        device_->set_keep_launch_records(false);
        scalar_.emplace(*device_, g,
                        tb::bc::BcOptions{.variant = tb::bc::select_variant(g)});
        break;
      case Kind::kMsbfsRoad:
        device_.emplace();
        device_->set_keep_launch_records(false);
        batched_.emplace(*device_, g,
                         tb::bc::BatchedOptions{.batch_size = kMsbfsBatch});
        break;
      case Kind::kPartitionRoad: {
        tb::sim::TopologyProps props;
        props.num_devices = kDistDevices;
        topology_ = std::make_unique<tb::sim::Topology>(props);
        for (int k = 0; k < kDistDevices; ++k) {
          topology_->device(k).set_keep_launch_records(false);
        }
        tb::dist::DistOptions options;
        options.strategy = tb::dist::Strategy::kPartition;
        dist_.emplace(*topology_, g, options);
        break;
      }
    }
  }

  void compute(const std::vector<vidx_t>& sources, Job& job) {
    if (kind_ == Kind::kPartitionRoad) {
      tb::dist::DistResult r = dist_->run_sources(sources);
      job.bc = std::move(r.bc);
      job.modeled = r.device_seconds;
      job.peak = r.max_peak_bytes;
      job.comm_s = r.comm_seconds;
      job.comm_bytes = static_cast<double>(r.comm_bytes);
      double max_s = 0.0;
      double sum_s = 0.0;
      for (const auto& shard : r.shards) {
        max_s = std::max(max_s, shard.device_seconds);
        sum_s += shard.device_seconds;
      }
      job.shard_imbalance =
          sum_s > 0.0 ? max_s * static_cast<double>(r.shards.size()) / sum_s
                      : 0.0;
      for (int k = 0; k < kDistDevices; ++k) {
        job.gpu.add_device(topology_->device(k));
      }
      return;
    }
    tb::bc::BcResult r =
        scalar_ ? scalar_->run_exact() : batched_->run_exact();
    job.bc = std::move(r.bc);
    job.modeled = r.device_seconds;
    job.peak = r.peak_device_bytes;
    job.gpu.add_device(*device_);
  }

 private:
  Kind kind_;
  std::optional<tb::sim::Device> device_;
  std::unique_ptr<tb::sim::Topology> topology_;
  std::optional<tb::bc::TurboBC> scalar_;
  std::optional<tb::bc::TurboBCBatched> batched_;
  std::optional<tb::dist::DistTurboBC> dist_;
};

/// The CLI's ranked table, rendered to a string.
std::string render(const std::vector<bc_t>& bc) {
  std::ostringstream out;
  out << "rank  vertex  bc\n";
  const auto top = tb::serve::rank_vertices(bc, kRenderTop);
  for (std::size_t i = 0; i < top.size(); ++i) {
    out << i + 1 << "  " << top[i] << "  "
        << tb::fixed(bc[static_cast<std::size_t>(top[i])], 3) << '\n';
  }
  return out.str();
}

const char* engine_layer(Kind kind) {
  return kind == Kind::kPartitionRoad ? "dist" : "core";
}

Job run_job(Kind kind, const std::string& path,
            const std::vector<vidx_t>& sources, Tracer& tracer) {
  Job job;
  const double t0 = now_s();
  Tracer::Scope root(tracer, "job", "bench", -1);
  std::optional<tb::graph::EdgeList> g;
  {
    Tracer::Scope span(tracer, "ingest", "graph", root.id());
    g.emplace(tb::graph::read_matrix_market_file(path));
  }
  const double t1 = now_s();
  std::optional<Engine> engine;
  {
    Tracer::Scope span(tracer, "ctor", engine_layer(kind), root.id());
    engine.emplace(kind, *g);
  }
  const double t2 = now_s();
  const double cpu0 = process_cpu_s();
  {
    Tracer::Scope span(tracer, "compute", engine_layer(kind), root.id());
    engine->compute(sources, job);
  }
  const double t3 = now_s();
  job.compute_cpu = process_cpu_s() - cpu0;
  {
    Tracer::Scope span(tracer, "render", "bench", root.id());
    render(job.bc);
  }
  const double t4 = now_s();
  job.ingest = t1 - t0;
  job.ctor = t2 - t1;
  job.compute = t3 - t2;
  job.wall = t4 - t0;
  job.digest = tb::serve::bc_digest(job.bc);
  return job;
}

/// Ingest + engine construction only; returns its wall seconds.
double run_setup(Kind kind, const std::string& path) {
  const double t0 = now_s();
  const tb::graph::EdgeList g = tb::graph::read_matrix_market_file(path);
  const Engine engine(kind, g);
  return now_s() - t0;
}

/// One generated input of a run, and the jobs measured on it.
struct Input {
  tb::graph::EdgeList graph;
  std::string path;
  std::vector<vidx_t> sources;  // partition-road only
  std::vector<Job> jobs;        // untraced
  std::vector<Job> traced;
};

/// Runs jobs round-robin over the inputs until `seconds` have passed and
/// every input has had at least one job. Untraced windows also time
/// set-up-only repetitions before each job.
void run_window(Kind kind, std::vector<Input>& inputs, double seconds,
                Tracer& tracer, std::vector<double>& setups) {
  const double start = now_s();
  std::size_t i = 0;
  do {
    Input& in = inputs[i++ % inputs.size()];
    if (!tracer.enabled()) {
      for (int r = 0; r < kSetupRepsPerJob; ++r) {
        setups.push_back(run_setup(kind, in.path));
      }
    }
    (tracer.enabled() ? in.traced : in.jobs)
        .push_back(run_job(kind, in.path, in.sources, tracer));
  } while (now_s() - start < seconds || i < inputs.size());
}

template <typename F>
std::vector<double> collect(const std::vector<Job>& jobs, F f) {
  std::vector<double> out;
  out.reserve(jobs.size());
  for (const Job& j : jobs) out.push_back(f(j));
  return out;
}

std::string hexfloat(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

}  // namespace

void run_batch(const Args& args, Report& report) {
  const Kind kind = parse_kind(args.workload);
  std::vector<Input> inputs(kInputsPerRun);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    Input& in = inputs[i];
    const std::uint64_t seed = input_seed(args.seed, i);
    in.graph = generate(kind, seed);
    in.path = write_graph(args, in.graph, i);
    if (kind == Kind::kPartitionRoad) {
      in.sources = draw_sources(in.graph.num_vertices(), kDistSources, seed);
    }
    char line[256];
    std::snprintf(line, sizeof line,
                  "input %zu: seed=%llu n=%d arcs=%lld directed=%s sources=%s",
                  i, static_cast<unsigned long long>(seed),
                  static_cast<int>(in.graph.num_vertices()),
                  static_cast<long long>(in.graph.num_arcs()),
                  in.graph.directed() ? "yes" : "no",
                  in.sources.empty() ? "all"
                                     : std::to_string(in.sources.size()).c_str());
    report.note(line);
  }

  // The untraced window gives the end-to-end figures. A traced run spends
  // half of it untraced and half traced, and compares the two.
  Tracer off(false);
  Tracer on(true);
  std::vector<double> setups;
  run_window(kind, inputs, args.trace ? args.seconds / 2 : args.seconds, off,
             setups);
  const double window_end_rss = peak_rss_mb();
  if (args.trace) run_window(kind, inputs, args.seconds / 2, on, setups);

  // Checks, outside the measured window. Every job must repeat the first
  // job on its input bit for bit (BC digest, modeled seconds, every gpusim
  // count), and each input's first job must match Brandes.
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Input& in = inputs[i];
    const Job& first = in.jobs.front();
    std::uint64_t differ = 0;
    for (const auto* list : {&in.jobs, &in.traced}) {
      for (const Job& j : *list) {
        ++report.attempted;
        if (j.digest != first.digest || j.modeled != first.modeled ||
            j.peak != first.peak || !j.gpu.same_as(first.gpu)) {
          ++differ;
        }
      }
    }
    if (differ > 0) {
      report.failed += differ;
      report.fail("input " + std::to_string(i) + ": " +
                  std::to_string(differ) +
                  " jobs differ from the first in BC digest, modeled "
                  "seconds or gpusim counts");
    }
    std::vector<bc_t> ref;
    if (in.sources.empty()) {
      ref = tb::baseline::brandes_bc(in.graph);
    } else {
      ref.assign(static_cast<std::size_t>(in.graph.num_vertices()), 0.0);
      for (const vidx_t s : in.sources) {
        const std::vector<bc_t> d = tb::baseline::brandes_delta(in.graph, s);
        for (std::size_t v = 0; v < d.size(); ++v) ref[v] += d[v];
      }
    }
    const double err = max_rel_err(first.bc, ref);
    char line[256];
    std::snprintf(line, sizeof line,
                  "input %zu: digest=%s modeled_s=%s jobs=%zu traced=%zu "
                  "verify vs Brandes: max rel err %.3g (%s)",
                  i, tb::serve::digest_hex(first.digest).c_str(),
                  hexfloat(first.modeled).c_str(), in.jobs.size(),
                  in.traced.size(), err, err < kVerifyBound ? "OK" : "MISMATCH");
    report.note(line);
    if (!(err < kVerifyBound)) {
      report.failed += in.jobs.size() + in.traced.size() - differ;
      report.fail("input " + std::to_string(i) + ": BC differs from Brandes");
    }
  }

  // End-to-end: per-input medians averaged over the inputs.
  EndToEnd e;
  Layers l;
  double traced_wall = 0.0;
  double untraced_wall = 0.0;
  const double inv = 1.0 / static_cast<double>(inputs.size());
  for (const Input& in : inputs) {
    const Job& first = in.jobs.front();
    const auto wall = collect(in.jobs, [](const Job& j) { return j.wall; });
    e.wall_s += median(wall) * inv;
    e.warmup_s +=
        median(collect(in.jobs, [](const Job& j) { return j.compute; })) * inv;
    e.modeled_s += first.modeled * inv;
    e.peak_device_bytes += static_cast<double>(first.peak) * inv;
    for (const Job& j : in.jobs) setups.push_back(j.ingest + j.ctor);
    // Per layer: one round, i.e. one job on each input, summed.
    const std::vector<Job>& measured = args.trace ? in.traced : in.jobs;
    l.ingest_s += median(collect(measured, [](const Job& j) { return j.ingest; }));
    l.ctor_s += median(collect(measured, [](const Job& j) { return j.ctor; }));
    l.compute_s +=
        median(collect(measured, [](const Job& j) { return j.compute; }));
    l.compute_cpu_s +=
        median(collect(measured, [](const Job& j) { return j.compute_cpu; }));
    l.gpu.add(first.gpu);
    l.comm_s += first.comm_s;
    l.comm_bytes += first.comm_bytes;
    l.shard_imbalance += first.shard_imbalance * inv;
    if (args.trace) {
      traced_wall += median(collect(in.traced, [](const Job& j) { return j.wall; }));
      untraced_wall += median(wall);
    }
  }
  e.setup_s = median(setups);
  e.host_rss_mb = window_end_rss;

  if (args.trace) {
    l.trace_overhead = traced_wall / untraced_wall - 1.0;
    if (kind == Kind::kExactKron) {
      // Single-threaded baseline of a job on the first input.
      const Input& in = inputs.front();
      auto& pool = tb::sim::ExecutorPool::instance();
      const unsigned width = pool.threads();
      pool.set_threads(1);
      const Job serial = run_job(kind, in.path, in.sources, off);
      pool.set_threads(width);
      l.pool_speedup =
          serial.compute /
          median(collect(in.jobs, [](const Job& j) { return j.compute; }));
      if (serial.digest != in.jobs.front().digest ||
          serial.modeled != in.jobs.front().modeled) {
        report.fail("pool width 1 differs from pool width " +
                    std::to_string(width));
      }
    }
    note_trace(args, on, report, l);
  }
  report_metrics(args, e, l, on, report);
}

}  // namespace perfbench
