// Shared pieces of the benchmark: the run's arguments, the metric
// report printed at the end, the span recorder of traced runs, and small
// statistics and resource helpers.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;     ///< this run's scratch directory (inputs, socket)
  std::string trace_path;  ///< where a traced run writes its Chrome trace
};

/// Seconds on the steady clock since the first call in this process.
double now_s();
/// CPU seconds consumed by every thread of this process so far.
double process_cpu_s();
/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

double median(std::vector<double> v);
/// Nearest-rank q-quantile (0 < q <= 1); 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// The highest of p99, p95, p90, p75 and p50 that has at least ten samples
/// beyond it; the maximum when no such percentile exists.
struct Tail {
  double value = 0.0;
  double q = 1.0;
};
Tail tail(const std::vector<double>& v);

/// Metrics and notes of one run. Notes go to stdout as plain lines before
/// the final JSON object, so every number is also readable by eye.
class Report {
 public:
  enum class Clock { kWall, kModeled, kNone };

  void add(const std::string& name, double value, const std::string& unit,
           Clock clock);
  void note(const std::string& line);
  /// Marks the run incorrect and notes why.
  void fail(const std::string& why);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct() const noexcept { return correct_; }

  /// Prints the notes, one `metric` line per metric with its clock, and the
  /// closing JSON object as the last line.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    Clock clock;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  bool correct_ = true;
};

/// Span recorder for traced runs. A span has a name, a layer, start and end
/// on the steady clock, the span that caused it, and the daemon request it
/// belongs to (0 outside the daemon workload). Disabled recorders record
/// nothing, so untraced runs pay only a branch per boundary.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }

  /// Opens a span and returns its id (-1 when disabled).
  int open(const char* name, const char* layer, int parent,
           std::uint64_t request = 0);
  void close(int id);

  /// Opens on construction and closes on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, const char* layer, int parent,
          std::uint64_t request = 0)
        : tracer_(tracer), id_(tracer.open(name, layer, parent, request)) {}
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const noexcept { return id_; }

   private:
    Tracer& tracer_;
    int id_;
  };

  /// Self time per layer: each span's duration minus the time its direct
  /// children cover, summed by layer, in first-seen layer order.
  std::vector<std::pair<std::string, double>> self_time_by_layer() const;
  /// Number of root spans (jobs or requests).
  std::size_t roots() const;
  std::size_t size() const;
  /// Writes the spans as a Chrome trace (one track per recording thread).
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    const char* layer;
    double start_s;
    double end_s;
    int parent;
    std::uint64_t request;
    unsigned thread;
  };
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

}  // namespace perfbench
