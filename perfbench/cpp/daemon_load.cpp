// daemon-citation: a real DaemonServer on a unix socket over a directed
// citation DAG, driven by one process over four closed-loop connections.
// Three readers send `bc` / `top` and a small share of loose-epsilon
// `approx`; one writer sends insert/delete pairs, each deleting the arc it
// just inserted, so the graph keeps returning to the seed graph.
//
// The window is spent in sessions, round-robin over the inputs. A session
// cold-starts a server: ingest the .mtx file, construct and start the
// server (setup ends when it listens), then the first full `bc` on an empty
// cache (warmup). The load then runs on that warm server for a short, fixed
// time before it stops. Cold starts are thus spread over the whole window,
// like the batch workloads' jobs. Every response is checked after the
// window: served `bc` and `top` answers against Brandes on the graph at the
// response's epoch (replayed from the session's Scheduler::update_log()),
// `bc` digests against a TurboBC reference run, updates for `applied`.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "baselines/brandes.hpp"
#include "common/prng.hpp"
#include "core/turbobc.hpp"
#include "daemon/server.hpp"
#include "daemon/socket.hpp"
#include "generators/generators.hpp"
#include "graph/mtx_io.hpp"
#include "serve/protocol.hpp"
#include "serve/serve_engine.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace tb = turbobc;

constexpr vidx_t kCitationN = 500;
constexpr int kCitationAttach = 3;
constexpr int kReaders = 3;
constexpr vidx_t kTopK = 10;
// Inputs per run. The cost of a cold `bc` differs between citation graphs
// of one size more than the batch workloads' jobs differ between their
// inputs, so the daemon averages over more graph draws.
constexpr std::size_t kDaemonInputs = 8;
// Generator seed of input `i` of a run: disjoint across run seeds.
std::uint64_t daemon_input_seed(std::uint64_t seed, std::size_t i) {
  return seed * kDaemonInputs + i;
}
// Load time on each session's warm server. With a cold start of 0.2-0.4 s,
// half to two thirds of the window go to cold starts.
constexpr double kSessionLoadSeconds = 0.25;
// Reader command mix: approx, then bc, the rest top.
constexpr double kApproxShare = 0.05;
constexpr double kBcShare = 0.5;
constexpr const char* kApproxCommand = "approx 0.5 0.1";
// Client think time after each response. Without it the three readers keep
// the epoch lock shared at all times and the writer waits for seconds.
constexpr auto kReaderThink = std::chrono::milliseconds(1);
constexpr auto kWriterThink = std::chrono::milliseconds(5);

enum Class { kRead, kApprox, kWrite };

/// One request as the client saw it.
struct Sample {
  Class cls = kRead;
  std::string command;
  std::string response;  // empty when none arrived
  double start = 0.0;
  double end = 0.0;
};

/// A client connection that sends one line and waits for its response.
class Connection {
 public:
  explicit Connection(const tb::daemon::SocketAddr& addr)
      : fd_(tb::daemon::connect_socket(addr)), reader_(fd_, 1 << 20) {
    std::string hello;
    if (reader_.next(hello) != tb::daemon::LineReader::Status::kLine) {
      tb::daemon::close_socket(fd_);
      throw std::runtime_error("no hello from the daemon");
    }
  }
  ~Connection() { tb::daemon::close_socket(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// The response line, or empty when the connection failed.
  std::string request(const std::string& line) {
    if (!tb::daemon::send_all(fd_, line + "\n")) return {};
    std::string response;
    if (reader_.next(response) != tb::daemon::LineReader::Status::kLine) {
      return {};
    }
    return response;
  }

 private:
  int fd_;
  tb::daemon::LineReader reader_;
};

/// Arcs absent from the seed graph, in a seed-determined order. Like the
/// generator's arcs they cite from a newer to an older vertex, and the
/// citing vertex is among the newest tenth: recent papers gain citations.
/// (An arc out of an old vertex would invalidate the cone of nearly every
/// source and make each update a near-full recompute.)
class AbsentArcs {
 public:
  AbsentArcs(const tb::graph::EdgeList& g, std::uint64_t seed)
      : rng_(seed * 0x9e3779b97f4a7c15ULL + 7), n_(g.num_vertices()) {
    for (const auto& e : g.edges()) present_.insert(key(e.u, e.v));
  }
  std::pair<vidx_t, vidx_t> next() {
    for (;;) {
      const vidx_t newest = std::max<vidx_t>(1, n_ / 10);
      const auto u = static_cast<vidx_t>(
          n_ - 1 - rng_.uniform(static_cast<std::uint64_t>(newest)));
      const auto v =
          static_cast<vidx_t>(rng_.uniform(static_cast<std::uint64_t>(u)));
      if (!present_.count(key(u, v))) return {u, v};
    }
  }

 private:
  static std::uint64_t key(vidx_t u, vidx_t v) {
    return (static_cast<std::uint64_t>(u) << 32) | static_cast<std::uint32_t>(v);
  }
  tb::Xoshiro256 rng_;
  vidx_t n_;
  std::unordered_set<std::uint64_t> present_;
};

/// Closed-loop clients against `addr` for `seconds`; appends every request.
/// `phase` varies the clients' command streams between load phases; request
/// ids of traced spans continue from `next_request`.
void run_load(const tb::daemon::SocketAddr& addr, const tb::graph::EdgeList& g,
              const Args& args, std::uint64_t phase, double seconds,
              Tracer& tracer, std::atomic<std::uint64_t>& next_request,
              std::vector<Sample>& samples) {
  const double deadline = now_s() + seconds;
  std::vector<std::vector<Sample>> per_client(kReaders + 1);
  auto timed = [&](Connection& c, Class cls, const std::string& cmd,
                   std::vector<Sample>& out) {
    static const char* const kNames[] = {"read", "approx", "write"};
    Sample s{cls, cmd, {}, now_s(), 0.0};
    {
      Tracer::Scope span(tracer, kNames[cls], "daemon", -1,
                         tracer.enabled() ? ++next_request : 0);
      s.response = c.request(cmd);
    }
    s.end = now_s();
    out.push_back(std::move(s));
    std::this_thread::sleep_for(cls == kWrite ? kWriterThink : kReaderThink);
    return !out.back().response.empty();
  };
  std::vector<std::thread> threads;
  for (int c = 0; c <= kReaders; ++c) {
    threads.emplace_back([&, c] {
      std::vector<Sample>& out = per_client[static_cast<std::size_t>(c)];
      try {
        Connection conn(addr);
        const std::string top = std::to_string(kTopK);
        if (c == kReaders) {
          AbsentArcs arcs(g, args.seed * 4 + phase);
          while (now_s() < deadline) {
            const auto [u, v] = arcs.next();
            const std::string arc = std::to_string(u) + " " + std::to_string(v);
            if (!timed(conn, kWrite, "insert " + arc, out)) break;
            if (!timed(conn, kWrite, "delete " + arc, out)) break;
          }
        } else {
          tb::Xoshiro256 rng(args.seed * 31 + phase * 8 +
                             static_cast<std::uint64_t>(c));
          while (now_s() < deadline) {
            const double r = rng.uniform_real();
            const bool ok =
                r < kApproxShare
                    ? timed(conn, kApprox, kApproxCommand, out)
                    : timed(conn, kRead,
                            (r < kApproxShare + kBcShare ? "bc " : "top ") + top,
                            out);
            if (!ok) break;
          }
        }
      } catch (const std::exception&) {
        out.push_back({c == kReaders ? kWrite : kRead, "connect", {}, 0, 0});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (auto& client : per_client) {
    for (Sample& s : client) samples.push_back(std::move(s));
  }
}

// ---- response parsing ------------------------------------------------------

bool field_u64(const std::string& line, const char* key, std::uint64_t& out) {
  const std::string k = std::string("\"") + key + "\":";
  const auto at = line.find(k);
  if (at == std::string::npos) return false;
  out = std::strtoull(line.c_str() + at + k.size(), nullptr, 10);
  return true;
}

std::string field_str(const std::string& line, const char* key) {
  const std::string k = std::string("\"") + key + "\":\"";
  const auto at = line.find(k);
  if (at == std::string::npos) return {};
  const auto end = line.find('"', at + k.size());
  return line.substr(at + k.size(), end - at - k.size());
}

/// (vertex, value) pairs of a bc response, or vertices of a top response
/// (values NaN).
std::vector<std::pair<vidx_t, double>> ranked(const std::string& line) {
  std::vector<std::pair<vidx_t, double>> out;
  if (field_str(line, "event") == "bc") {
    std::size_t at = 0;
    while ((at = line.find("{\"v\":", at)) != std::string::npos) {
      char* end = nullptr;
      const auto v = static_cast<vidx_t>(std::strtol(line.c_str() + at + 5, &end, 10));
      const char* bc = std::strstr(end, "\"bc\":");
      out.emplace_back(v, bc ? std::strtod(bc + 5, nullptr) : NAN);
      at += 5;
    }
    return out;
  }
  const auto at = line.find("\"v\":[");
  if (at == std::string::npos) return out;
  const char* p = line.c_str() + at + 5;
  while (*p && *p != ']') {
    char* end = nullptr;
    const long v = std::strtol(p, &end, 10);
    if (end == p) break;
    out.emplace_back(static_cast<vidx_t>(v), NAN);
    p = *end == ',' ? end + 1 : end;
  }
  return out;
}

/// Whether `served` is a valid top-K of `ref`: K distinct vertices in
/// non-increasing reference order, none ranked below a vertex left out,
/// and served values (when present) equal to the reference within the
/// verify bound — all up to that bound, so exact ties may order either way.
bool top_matches(const std::vector<std::pair<vidx_t, double>>& served,
                 const std::vector<bc_t>& ref) {
  const std::size_t k = std::min<std::size_t>(kTopK, ref.size());
  if (served.size() != k) return false;
  auto tol = [](double x) { return kVerifyBound * std::max(1.0, std::abs(x)); };
  std::vector<bc_t> sorted = ref;
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<long>(k - 1),
                   sorted.end(), std::greater<>());
  const double kth = sorted[k - 1];
  std::set<vidx_t> seen;
  double prev = INFINITY;
  for (const auto& [v, value] : served) {
    if (v < 0 || static_cast<std::size_t>(v) >= ref.size() ||
        !seen.insert(v).second) {
      return false;
    }
    const double r = ref[static_cast<std::size_t>(v)];
    if (r < kth - tol(kth) || r > prev + tol(prev)) return false;
    if (!std::isnan(value) && std::abs(value - r) > tol(r)) return false;
    prev = r;
  }
  return true;
}

/// Brandes BC of the graph at one epoch, and whether the graph then equals
/// the seed graph.
struct Expected {
  std::vector<bc_t> bc;
  bool seed_graph = false;
};

/// Expected results at each requested epoch, replayed serially from the seed
/// graph through the update log. States equal to the seed graph reuse its
/// Brandes result `seed_bc`.
std::map<std::uint64_t, Expected> replay_brandes(
    const tb::graph::EdgeList& seed_graph, const std::vector<bc_t>& seed_bc,
    const std::vector<tb::daemon::Scheduler::UpdateRecord>& log,
    const std::set<std::uint64_t>& epochs, std::size_t& brandes_runs) {
  std::map<std::uint64_t, Expected> out;
  tb::graph::EdgeList state = seed_graph;
  std::set<std::pair<vidx_t, vidx_t>> added, removed;  // vs the seed graph
  auto emit = [&](std::uint64_t epoch) {
    if (!epochs.count(epoch)) return;
    if (added.empty() && removed.empty()) {
      out[epoch] = {seed_bc, true};
    } else {
      out[epoch] = {tb::baseline::brandes_bc(state), false};
      ++brandes_runs;
    }
  };
  emit(0);
  for (const auto& rec : log) {
    if (!rec.applied) continue;
    const std::pair<vidx_t, vidx_t> arc{rec.u, rec.v};
    if (rec.kind == tb::serve::UpdateKind::kInsert) {
      state.add_edge(rec.u, rec.v);
      if (!removed.erase(arc)) added.insert(arc);
    } else {
      state.remove_edge(rec.u, rec.v);
      if (!added.erase(arc)) removed.insert(arc);
    }
    state.canonicalize();
    emit(rec.epoch);
  }
  return out;
}

/// One cold start: ingest, construct and start the server (set-up ends
/// when it listens), then the first full `bc` on an empty cache (warmup).
struct ColdStart {
  double ingest = 0.0;
  double setup = 0.0;
  double warmup = 0.0;
  double wall = 0.0;
  double modeled = 0.0;
  std::string first_bc;
};

/// One cold-started server and the load it then served.
struct Session {
  ColdStart start;
  bool traced = false;
  std::vector<Sample> samples;
  double window = 0.0;  // seconds of load
  tb::serve::ServeEngine::Counters counters;  // over the load
  tb::daemon::Scheduler::Metrics metrics;
  std::vector<tb::daemon::Scheduler::UpdateRecord> log;
};

/// One input: its graph and .mtx file, its sessions, and the reference run
/// its checks make.
struct InputRun {
  tb::graph::EdgeList graph;
  std::string path;
  std::vector<Session> sessions;
  std::size_t peak = 0;
  double ref_ctor = 0.0;
  double ref_compute = 0.0;
  double ref_compute_cpu = 0.0;
  GpuCounters gpu;
};

tb::daemon::DaemonOptions daemon_options(const Args& args) {
  tb::daemon::DaemonOptions options;
  options.listen = "unix:" + args.workdir + "/daemon.sock";
  options.json = true;
  options.top = kTopK;
  return options;
}

/// Ingest + server construction + listen, then stop; returns the seconds
/// until the server listened.
double run_setup(const Args& args, const std::string& path) {
  const double t0 = now_s();
  tb::daemon::DaemonServer server(tb::graph::read_matrix_market_file(path),
                                  daemon_options(args));
  server.start();
  const double setup = now_s() - t0;
  server.stop();
  return setup;
}

ColdStart cold_start(const Args& args, const std::string& path,
                     Tracer& tracer,
                     std::unique_ptr<tb::daemon::DaemonServer>& server) {
  ColdStart cs;
  const double t0 = now_s();
  Tracer::Scope root(tracer, "cold_start", "bench", -1);
  std::optional<tb::graph::EdgeList> g;
  {
    Tracer::Scope span(tracer, "ingest", "graph", root.id());
    g.emplace(tb::graph::read_matrix_market_file(path));
  }
  const double t1 = now_s();
  {
    Tracer::Scope span(tracer, "start", "daemon", root.id());
    server = std::make_unique<tb::daemon::DaemonServer>(std::move(*g),
                                                        daemon_options(args));
    server->start();
  }
  const double t2 = now_s();
  {
    Connection conn(server->bound());
    const double t3 = now_s();
    Tracer::Scope span(tracer, "first_bc", "daemon", root.id());
    cs.first_bc = conn.request("bc " + std::to_string(kTopK));
    cs.warmup = now_s() - t3;
  }
  cs.ingest = t1 - t0;
  cs.setup = t2 - t0;
  cs.wall = now_s() - t0;
  cs.modeled = server->scheduler().engine_counters().device_seconds;
  return cs;
}

/// One session on `in`: a cold start, then kSessionLoadSeconds of load
/// whose command streams vary with `phase`.
Session run_session(const Args& args, const InputRun& in, std::uint64_t phase,
                    Tracer& tracer, std::atomic<std::uint64_t>& next_request) {
  Session s;
  s.traced = tracer.enabled();
  std::unique_ptr<tb::daemon::DaemonServer> server;
  s.start = cold_start(args, in.path, tracer, server);
  const auto counters0 = server->scheduler().engine_counters();
  const double load_start = now_s();
  run_load(server->bound(), in.graph, args, phase, kSessionLoadSeconds, tracer,
           next_request, s.samples);
  s.window = now_s() - load_start;
  const auto counters1 = server->scheduler().engine_counters();
  s.counters.served_cached = counters1.served_cached - counters0.served_cached;
  s.counters.recomputed = counters1.recomputed - counters0.recomputed;
  s.counters.updates = counters1.updates - counters0.updates;
  s.counters.invalidated = counters1.invalidated - counters0.invalidated;
  s.metrics = server->scheduler().metrics();
  s.log = server->scheduler().update_log();
  server->stop();
  return s;
}

/// Runs sessions round-robin over the inputs until `seconds` have passed
/// and every input has had one. Untraced windows also time set-up-only
/// repetitions before each session.
void run_window(const Args& args, std::vector<InputRun>& inputs,
                double seconds, Tracer& tracer,
                std::atomic<std::uint64_t>& next_request,
                std::uint64_t& phase, std::vector<double>& setups) {
  const double start = now_s();
  std::size_t i = 0;
  do {
    InputRun& in = inputs[i++ % inputs.size()];
    if (!tracer.enabled()) {
      for (int r = 0; r < kSetupRepsPerJob; ++r) {
        setups.push_back(run_setup(args, in.path));
      }
    }
    in.sessions.push_back(run_session(args, in, phase++, tracer, next_request));
  } while (now_s() - start < seconds || i < inputs.size());
}

/// Checks of one input, run after every window has closed: served `bc` and
/// `top` answers against Brandes at their session's epoch, `bc` digests
/// against a TurboBC reference run (whose timings and counters `run`
/// receives), updates for `applied`. Failures go to `failures`, keyed by
/// reason.
void check_input(std::uint64_t input, Tracer& tracer, InputRun& run,
                 std::map<std::string, std::uint64_t>& failures,
                 std::uint64_t& checked, Report& report) {
  // Reference: TurboBC with the serving engine's variant on the seed graph;
  // its digest is what every served bc at a seed-graph epoch must carry.
  tb::sim::Device dev;
  dev.set_keep_launch_records(false);
  double t = now_s();
  std::optional<tb::bc::TurboBC> ref_engine;
  {
    Tracer::Scope span(tracer, "reference_ctor", "core", -1);
    ref_engine.emplace(dev, run.graph,
                       tb::bc::BcOptions{
                           .variant = tb::serve::ServeOptions{}.variant});
  }
  run.ref_ctor = now_s() - t;
  t = now_s();
  const double cpu0 = process_cpu_s();
  tb::bc::BcResult ref;
  {
    Tracer::Scope span(tracer, "reference_compute", "core", -1);
    ref = ref_engine->run_exact();
  }
  run.ref_compute = now_s() - t;
  run.ref_compute_cpu = process_cpu_s() - cpu0;
  run.gpu.add_device(dev);
  run.peak = ref.peak_device_bytes;
  const std::string seed_digest =
      tb::serve::digest_hex(tb::serve::bc_digest(ref.bc));
  const std::vector<bc_t> seed_bc = tb::baseline::brandes_bc(run.graph);
  std::size_t brandes_runs = 1;

  std::size_t requests = 0;
  std::size_t epochs_read = 0;
  std::size_t updates = 0;
  for (const Session& session : run.sessions) {
    std::set<std::uint64_t> epochs = {0};
    for (const Sample& s : session.samples) {
      std::uint64_t e = 0;
      if (s.cls == kRead && field_u64(s.response, "epoch", e)) epochs.insert(e);
    }
    const auto expected =
        replay_brandes(run.graph, seed_bc, session.log, epochs, brandes_runs);
    std::map<std::uint64_t, std::string> digest_at;
    auto check_bc_line = [&](const std::string& line) -> std::string {
      std::uint64_t epoch = 0;
      if (!field_u64(line, "epoch", epoch)) return "no epoch";
      const auto it = expected.find(epoch);
      if (it == expected.end()) return "unknown epoch";
      if (!top_matches(ranked(line), it->second.bc)) return "top-K != Brandes";
      if (field_str(line, "event") == "bc") {
        const std::string digest = field_str(line, "digest");
        const auto [at, fresh] = digest_at.emplace(epoch, digest);
        if (!fresh && at->second != digest) return "digest differs within epoch";
        if (it->second.seed_graph && digest != seed_digest) {
          return "digest != TurboBC reference";
        }
      }
      return {};
    };
    auto check = [&](const Sample& s) -> std::string {
      if (s.response.empty()) return "no response";
      const std::string event = field_str(s.response, "event");
      if (event == "busy") return "busy";
      if (event == "error") return "error";
      switch (s.cls) {
        case kRead:
          if (event != s.command.substr(0, s.command.find(' '))) {
            return "wrong event";
          }
          return check_bc_line(s.response);
        case kApprox:
          return event == "approx" ? std::string() : "wrong event";
        case kWrite:
          return event == "update" &&
                         s.response.find("\"applied\":true") != std::string::npos
                     ? std::string()
                     : "update not applied";
      }
      return "unknown class";
    };
    checked += 1 + session.samples.size();
    if (const std::string why = check_bc_line(session.start.first_bc);
        !why.empty()) {
      ++failures["cold start: " + why];
    }
    if (session.start.modeled != run.sessions.front().start.modeled) {
      ++failures["cold start: modeled seconds differ"];
    }
    for (const Sample& s : session.samples) {
      if (const std::string why = check(s); !why.empty()) ++failures[why];
    }
    requests += session.samples.size();
    epochs_read += epochs.size();
    updates += session.log.size();
  }
  char line[320];
  std::snprintf(line, sizeof line,
                "input %llu: digest=%s cold_modeled_s=%a sessions=%zu "
                "requests=%zu epochs_read=%zu brandes_replays=%zu updates=%zu",
                static_cast<unsigned long long>(input), seed_digest.c_str(),
                run.sessions.front().start.modeled, run.sessions.size(),
                requests, epochs_read, brandes_runs, updates);
  report.note(line);
}

std::vector<double> latencies_ms(const std::vector<InputRun>& inputs,
                                 bool traced, int cls) {
  std::vector<double> ms;
  for (const InputRun& in : inputs) {
    for (const Session& session : in.sessions) {
      if (session.traced != traced) continue;
      for (const Sample& s : session.samples) {
        if (cls < 0 || s.cls == cls) ms.push_back((s.end - s.start) * 1e3);
      }
    }
  }
  return ms;
}

}  // namespace

void run_daemon(const Args& args, Report& report) {
  std::vector<InputRun> inputs(kDaemonInputs);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    InputRun& in = inputs[i];
    in.graph = tb::gen::preferential_attachment(
        {.n = kCitationN, .m_attach = kCitationAttach, .directed = true,
         .seed = daemon_input_seed(args.seed, i)});
    in.path = write_graph(args, in.graph, i);
    report.note("input " + std::to_string(i) + ": seed=" +
                std::to_string(daemon_input_seed(args.seed, i)) +
                " n=" + std::to_string(in.graph.num_vertices()) +
                " arcs=" + std::to_string(in.graph.num_arcs()) +
                " directed=yes");
  }
  report.note("load: " + std::to_string(kReaders) +
              " reader + 1 writer connections, closed loop, per session");

  Tracer off(false);
  Tracer on(true);
  std::atomic<std::uint64_t> next_request{0};
  std::uint64_t phase = 0;
  std::vector<double> setups;
  run_window(args, inputs, args.trace ? args.seconds / 2 : args.seconds, off,
             next_request, phase, setups);
  if (args.trace) {
    run_window(args, inputs, args.seconds / 2, on, next_request, phase, setups);
  }
  const double rss = peak_rss_mb();
  std::map<std::string, std::uint64_t> failures;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    check_input(i, args.trace ? on : off, inputs[i], failures,
                report.attempted, report);
  }
  for (const auto& [why, count] : failures) {
    report.failed += count;
    report.fail(std::to_string(count) + " x " + why);
  }

  const std::vector<double> lat = latencies_ms(inputs, false, -1);
  const Tail lat_tail = tail(lat);
  EndToEnd e;
  Layers l;
  const double inv = 1.0 / static_cast<double>(inputs.size());
  double window = 0.0;
  double server_p50 = 0.0;
  double server_p99 = 0.0;
  std::uint64_t updates = 0;
  std::size_t sessions = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const InputRun& in = inputs[i];
    std::vector<double> walls;
    std::vector<double> warmups;
    std::vector<double> ingests;
    for (const Session& s : in.sessions) {
      ingests.push_back(s.start.ingest);
      if (!s.traced) {
        walls.push_back(s.start.wall);
        warmups.push_back(s.start.warmup);
        setups.push_back(s.start.setup);
        window += s.window;
      }
      l.cache_hit_ratio += static_cast<double>(s.counters.served_cached);
      l.recomputed += static_cast<double>(s.counters.recomputed);
      l.invalidated_per_update += static_cast<double>(s.counters.invalidated);
      updates += s.counters.updates;
      l.busy += static_cast<double>(s.metrics.busy);
      l.errors += static_cast<double>(s.metrics.errors);
      server_p50 += static_cast<double>(s.metrics.p50_micros) / 1e3;
      server_p99 += static_cast<double>(s.metrics.p99_micros) / 1e3;
      ++sessions;
    }
    char line[160];
    std::snprintf(line, sizeof line,
                  "input %zu: cold bc median %.1f ms over %zu untraced "
                  "sessions",
                  i, median(warmups) * 1e3, warmups.size());
    report.note(line);
    // End to end: per input medians, averaged over the inputs.
    e.wall_s += median(walls) * inv;
    e.warmup_s += median(warmups) * inv;
    e.modeled_s += in.sessions.front().start.modeled * inv;
    e.peak_device_bytes += static_cast<double>(in.peak) * inv;
    // Per layer: one round (one cold start and reference run per input).
    l.ingest_s += median(ingests);
    l.ctor_s += in.ref_ctor;
    l.compute_s += in.ref_compute;
    l.compute_cpu_s += in.ref_compute_cpu;
    l.gpu.add(in.gpu);
  }
  const double lookups = l.cache_hit_ratio + l.recomputed;
  l.cache_hit_ratio = lookups > 0 ? l.cache_hit_ratio / lookups : 0.0;
  l.invalidated_per_update =
      updates > 0 ? l.invalidated_per_update / static_cast<double>(updates)
                  : 0.0;
  l.server_p50_ms = server_p50 / static_cast<double>(sessions);
  l.server_p99_ms = server_p99 / static_cast<double>(sessions);
  e.setup_s = median(setups);
  e.host_rss_mb = rss;
  l.req_p50_ms = quantile(lat, 0.5);
  l.req_p99_ms = lat_tail.value;
  l.req_per_s = static_cast<double>(lat.size()) / window;
  {
    char line[256];
    std::snprintf(line, sizeof line,
                  "requests: %zu in %.3f s; daemon.req_p99_ms is p%.0f of them",
                  lat.size(), window, lat_tail.q * 100.0);
    report.note(line);
    static const char* const kNames[] = {"read", "approx", "write"};
    for (const int cls : {kRead, kApprox, kWrite}) {
      const std::vector<double> ms = latencies_ms(inputs, false, cls);
      const Tail t = tail(ms);
      std::snprintf(line, sizeof line,
                    "  %-6s n=%zu p50=%.3f ms p%.0f=%.3f ms", kNames[cls],
                    ms.size(), quantile(ms, 0.5), t.q * 100.0, t.value);
      report.note(line);
    }
  }

  l.read_p99_ms = tail(latencies_ms(inputs, args.trace, kRead)).value;
  l.approx_p99_ms = tail(latencies_ms(inputs, args.trace, kApprox)).value;
  l.write_p99_ms = tail(latencies_ms(inputs, args.trace, kWrite)).value;
  if (args.trace) {
    l.trace_overhead =
        quantile(latencies_ms(inputs, true, -1), 0.5) / l.req_p50_ms - 1.0;
    note_trace(args, on, report, l);
  }
  report_metrics(args, e, l, on, report);
}

}  // namespace perfbench
