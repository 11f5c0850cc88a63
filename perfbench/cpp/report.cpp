#include "report.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <string>

namespace perfbench {

double now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point origin = clock::now();
  return std::chrono::duration<double>(clock::now() - origin).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives exec and so would count the
  // launching process's own footprint.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

Tail tail(const std::vector<double>& v) {
  for (const double q : {0.99, 0.95, 0.90, 0.75, 0.50}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    if (v.size() >= rank + 10) return {quantile(v, q), q};
  }
  return {v.empty() ? 0.0 : *std::max_element(v.begin(), v.end()), 1.0};
}

void Report::add(const std::string& name, double value,
                 const std::string& unit, Clock clock) {
  metrics_.push_back({name, value, unit, clock});
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::fail(const std::string& why) {
  correct_ = false;
  notes_.push_back("FAIL: " + why);
}

void Report::print() const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  static const char* const kClock[] = {"wall", "modeled", "-"};
  for (const Metric& m : metrics_) {
    std::printf("metric %-34s %20.9g %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), kClock[static_cast<int>(m.clock)]);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct_ ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

namespace {

unsigned thread_index() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned index = next.fetch_add(1);
  return index;
}

}  // namespace

int Tracer::open(const char* name, const char* layer, int parent,
                 std::uint64_t request) {
  if (!enabled_) return -1;
  const unsigned thread = thread_index();
  const double start = now_s();
  std::lock_guard lock(mu_);
  spans_.push_back({name, layer, start, start, parent, request, thread});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int id) {
  if (id < 0) return;
  const double end = now_s();
  std::lock_guard lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_s = end;
}

std::vector<std::pair<std::string, double>> Tracer::self_time_by_layer()
    const {
  std::lock_guard lock(mu_);
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_s - spans_[i].start_s;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
    }
  }
  std::vector<std::pair<std::string, double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto it = std::find_if(out.begin(), out.end(), [&](const auto& e) {
      return e.first == spans_[i].layer;
    });
    if (it == out.end()) {
      out.emplace_back(spans_[i].layer, 0.0);
      it = out.end() - 1;
    }
    it->second += self[i];
  }
  return out;
}

std::size_t Tracer::roots() const {
  std::lock_guard lock(mu_);
  return static_cast<std::size_t>(std::count_if(
      spans_.begin(), spans_.end(), [](const Span& s) { return s.parent < 0; }));
}

std::size_t Tracer::size() const {
  std::lock_guard lock(mu_);
  return spans_.size();
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::lock_guard lock(mu_);
  std::ofstream out(path);
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"request\":%llu}}%s\n",
                  s.name, s.layer, s.thread, s.start_s * 1e6,
                  (s.end_s - s.start_s) * 1e6, i, s.parent,
                  static_cast<unsigned long long>(s.request),
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
}

}  // namespace perfbench
