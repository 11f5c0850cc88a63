// perfbench: the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --workdir DIR
//
// Generates the workload's input from the seed, writes it as .mtx into a
// fresh directory under DIR, measures for S seconds, checks every output,
// and prints notes, one `metric` line per metric (name, value, unit,
// clock), and finally one JSON object as the last line of stdout. See
// README.md for the workloads and metrics.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "gpusim/executor.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Args;

// Host executor pool width of every run, recorded in the first note.
constexpr unsigned kPoolWidth = 4;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "exact-kron|msbfs-road|partition-road|daemon-citation --seed N "
               "--seconds S --trace 0|1 --workdir DIR\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        a.trace = std::stoi(value) != 0;
      } else if (key == "--workdir") {
        a.workdir = value;
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (a.workload != "exact-kron" && a.workload != "msbfs-road" &&
      a.workload != "partition-road" && a.workload != "daemon-citation") {
    usage("unknown workload '" + a.workload + "'");
  }
  if (a.workdir.empty()) usage("--workdir is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse(argc, argv);
  namespace fs = std::filesystem;
  fs::create_directories(args.workdir);
  args.trace_path =
      args.workdir + "/trace-" + args.workload + "-" + std::to_string(args.seed) + ".json";
  std::string dir = args.workdir + "/run.XXXXXX";
  if (mkdtemp(dir.data()) == nullptr) {
    std::perror("perfbench: mkdtemp");
    return 1;
  }
  args.workdir = dir;
  int status = 0;
  try {
    turbobc::sim::ExecutorPool::instance().set_threads(kPoolWidth);
    perfbench::Report report;
    report.note("perfbench workload=" + args.workload +
                " seed=" + std::to_string(args.seed) +
                " trace=" + std::to_string(args.trace ? 1 : 0) +
                " pool_width=" +
                std::to_string(turbobc::sim::ExecutorPool::instance().threads()));
    if (args.workload == "daemon-citation") {
      perfbench::run_daemon(args, report);
    } else {
      perfbench::run_batch(args, report);
    }
    report.print();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    status = 1;
  }
  std::error_code ignored;
  fs::remove_all(dir, ignored);
  return status;
}
