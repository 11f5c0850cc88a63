// Golden-file regression tests: turbobc_cli text and JSON output pinned
// byte-for-byte on two fixed graphs (mycielski order 6 and an 8x8
// triangulated grid — both fully deterministic).
//
// On an intentional output change, regenerate with
//   TURBOBC_UPDATE_GOLDEN=1 ./test_tools --gtest_filter='GoldenCli.*'
// and review the diff under tests/golden/.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/cli.hpp"
#include "gpusim/executor.hpp"
#include "tools/commands.hpp"

namespace turbobc::tools {
namespace {

std::string run_ok(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "turbobc_cli");
  const CliArgs args(static_cast<int>(argv.size()), argv.data());
  std::ostringstream out, err;
  const int code = run_cli(args, out, err);
  EXPECT_EQ(code, 0) << err.str();
  sim::ExecutorPool::instance().set_threads(1);
  return out.str();
}

/// CLI-misuse runs: must exit 2 and print prose + usage to stderr only.
/// The stderr text is golden-pinned — usage errors are part of the CLI's
/// stable surface (they must never leak file:line internals).
std::string run_usage_error(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "turbobc_cli");
  const CliArgs args(static_cast<int>(argv.size()), argv.data());
  std::ostringstream out, err;
  const int code = run_cli(args, out, err);
  EXPECT_EQ(code, 2) << "expected a usage error, got:\n" << out.str();
  EXPECT_TRUE(out.str().empty()) << "usage errors must not write stdout";
  sim::ExecutorPool::instance().set_threads(1);
  return err.str();
}

std::string golden_path(const char* name) {
  return std::string(TURBOBC_TESTS_DIR) + "/golden/" + name;
}

void expect_matches_golden(const std::string& actual, const char* name) {
  const std::string path = golden_path(name);
  if (std::getenv("TURBOBC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream f(path, std::ios::binary);
    f << actual;
    SUCCEED() << "regenerated " << path;
    return;
  }
  std::ifstream f(path, std::ios::binary);
  ASSERT_TRUE(f.good()) << "missing golden file " << path
                        << " (set TURBOBC_UPDATE_GOLDEN=1 to create)";
  std::stringstream expected;
  expected << f.rdbuf();
  EXPECT_EQ(actual, expected.str()) << "output drifted from " << name;
}

std::string mycielski_graph() {
  static const std::string path = [] {
    // Pid-suffixed: ctest spawns each GoldenCli case as its own process, and
    // two processes regenerating one shared file race (truncate vs read).
    const std::string p = ::testing::TempDir() + "/golden_mycielski." +
                          std::to_string(::getpid()) + ".mtx";
    run_ok({"generate", "--family", "mycielski", "--order", "6", "--out",
            p.c_str()});
    return p;
  }();
  return path;
}

std::string grid_graph() {
  static const std::string path = [] {
    const std::string p = ::testing::TempDir() + "/golden_grid." +
                          std::to_string(::getpid()) + ".mtx";
    run_ok({"generate", "--family", "grid", "--rows", "8", "--cols", "8",
            "--out", p.c_str()});
    return p;
  }();
  return path;
}

TEST(GoldenCli, StatsTextMycielski) {
  const auto g = mycielski_graph();
  expect_matches_golden(run_ok({"stats", g.c_str()}),
                        "stats_mycielski6.txt.golden");
}

TEST(GoldenCli, StatsJsonMycielski) {
  const auto g = mycielski_graph();
  expect_matches_golden(run_ok({"stats", g.c_str(), "--json"}),
                        "stats_mycielski6.json.golden");
}

TEST(GoldenCli, StatsTextGrid) {
  const auto g = grid_graph();
  expect_matches_golden(run_ok({"stats", g.c_str()}),
                        "stats_grid8x8.txt.golden");
}

TEST(GoldenCli, StatsJsonGrid) {
  const auto g = grid_graph();
  expect_matches_golden(run_ok({"stats", g.c_str(), "--json"}),
                        "stats_grid8x8.json.golden");
}

TEST(GoldenCli, BcExactTextMycielski) {
  const auto g = mycielski_graph();
  expect_matches_golden(
      run_ok({"bc", g.c_str(), "--exact", "--edge-bc", "--verify", "--top",
              "5"}),
      "bc_mycielski6.txt.golden");
}

TEST(GoldenCli, BcExactJsonMycielski) {
  const auto g = mycielski_graph();
  expect_matches_golden(
      run_ok({"bc", g.c_str(), "--exact", "--edge-bc", "--verify", "--top",
              "5", "--json"}),
      "bc_mycielski6.json.golden");
}

TEST(GoldenCli, BcSingleSourceTextGrid) {
  const auto g = grid_graph();
  expect_matches_golden(
      run_ok({"bc", g.c_str(), "--source", "9", "--verify", "--top", "5"}),
      "bc_grid8x8.txt.golden");
}

TEST(GoldenCli, BcSingleSourceJsonGrid) {
  const auto g = grid_graph();
  expect_matches_golden(
      run_ok({"bc", g.c_str(), "--source", "9", "--verify", "--top", "5",
              "--json"}),
      "bc_grid8x8.json.golden");
}

TEST(GoldenCli, ApproxTextMycielski) {
  const auto g = mycielski_graph();
  expect_matches_golden(
      run_ok({"approx", g.c_str(), "--seed", "7", "--top", "5"}),
      "approx_mycielski6.txt.golden");
}

TEST(GoldenCli, ApproxJsonMycielski) {
  const auto g = mycielski_graph();
  expect_matches_golden(
      run_ok({"approx", g.c_str(), "--seed", "7", "--top", "5", "--json"}),
      "approx_mycielski6.json.golden");
}

TEST(GoldenCli, ApproxJsonMycielskiIsThreadInvariant) {
  // Same invocation at pool width 8 must reproduce the width-1 golden
  // byte-for-byte: the adaptive run is bit-identical at any --threads.
  const auto g = mycielski_graph();
  expect_matches_golden(
      run_ok({"approx", g.c_str(), "--seed", "7", "--top", "5", "--json",
              "--threads", "8"}),
      "approx_mycielski6.json.golden");
}

TEST(GoldenCli, ApproxJsonGridBatchedDegree) {
  const auto g = grid_graph();
  expect_matches_golden(
      run_ok({"approx", g.c_str(), "--seed", "7", "--engine", "batched",
              "--sampler", "degree", "--top", "5", "--json"}),
      "approx_grid8x8.json.golden");
}

TEST(GoldenCli, InfoText) {
  expect_matches_golden(run_ok({"info"}), "info.txt.golden");
}

TEST(GoldenCli, InfoJson) {
  expect_matches_golden(run_ok({"info", "--json"}), "info.json.golden");
}

TEST(GoldenCli, InfoJsonNvlinkPair) {
  expect_matches_golden(
      run_ok({"info", "--json", "--devices", "2", "--nvlink"}),
      "info_nvlink2.json.golden");
}

TEST(GoldenCli, BcDistReplicateTextMycielski) {
  const auto g = mycielski_graph();
  expect_matches_golden(
      run_ok({"bc", g.c_str(), "--exact", "--devices", "4", "--verify",
              "--top", "5"}),
      "bc_dist_mycielski6.txt.golden");
}

TEST(GoldenCli, BcDistPartitionJsonGrid) {
  const auto g = grid_graph();
  expect_matches_golden(
      run_ok({"bc", g.c_str(), "--exact", "--devices", "4", "--dist",
              "partition", "--verify", "--top", "5", "--json"}),
      "bc_dist_grid8x8.json.golden");
}

TEST(GoldenCli, BcDistPartitionJsonGridIsThreadInvariant) {
  // The distributed engine inherits the repo-wide contract: the same
  // invocation at pool width 8 reproduces the width-1 golden byte-for-byte
  // (BC values, modeled/comm times, peaks, shard rows — everything).
  const auto g = grid_graph();
  expect_matches_golden(
      run_ok({"bc", g.c_str(), "--exact", "--devices", "4", "--dist",
              "partition", "--verify", "--top", "5", "--json", "--threads",
              "8"}),
      "bc_dist_grid8x8.json.golden");
}

TEST(GoldenCli, ErrorDistBatch) {
  const auto g = mycielski_graph();
  expect_matches_golden(
      run_usage_error({"bc", g.c_str(), "--exact", "--batch", "4",
                       "--devices", "2"}),
      "cli_error_dist_batch.txt.golden");
}

TEST(GoldenCli, ErrorUnknownCommand) {
  expect_matches_golden(run_usage_error({"frobnicate"}),
                        "cli_error_unknown_command.txt.golden");
}

TEST(GoldenCli, ErrorMalformedFlagValue) {
  const auto g = mycielski_graph();
  expect_matches_golden(
      run_usage_error({"approx", g.c_str(), "--epsilon", "banana"}),
      "cli_error_bad_flag.txt.golden");
}

TEST(GoldenCli, ErrorUnknownSampler) {
  const auto g = mycielski_graph();
  expect_matches_golden(
      run_usage_error({"approx", g.c_str(), "--sampler", "random"}),
      "cli_error_unknown_sampler.txt.golden");
}

TEST(GoldenCli, ErrorNoArguments) {
  expect_matches_golden(run_usage_error({}),
                        "cli_error_no_arguments.txt.golden");
}

TEST(GoldenCli, ErrorZeroDevices) {
  const auto g = mycielski_graph();
  expect_matches_golden(
      run_usage_error({"bc", g.c_str(), "--exact", "--devices", "0"}),
      "cli_error_devices_zero.txt.golden");
}

TEST(GoldenCli, ErrorNegativeThreads) {
  const auto g = mycielski_graph();
  expect_matches_golden(
      run_usage_error({"bc", g.c_str(), "--exact", "--threads", "-2"}),
      "cli_error_threads_negative.txt.golden");
}

TEST(GoldenCli, ErrorTrailingGarbageBatch) {
  const auto g = mycielski_graph();
  expect_matches_golden(
      run_usage_error({"bc", g.c_str(), "--exact", "--batch", "4x"}),
      "cli_error_batch_garbage.txt.golden");
}

TEST(GoldenCli, ErrorUnknownAdvance) {
  const auto g = mycielski_graph();
  expect_matches_golden(
      run_usage_error({"bc", g.c_str(), "--exact", "--advance", "sideways"}),
      "cli_error_unknown_advance.txt.golden");
}

TEST(GoldenCli, BcHybridJsonMycielski) {
  const auto g = mycielski_graph();
  expect_matches_golden(
      run_ok({"bc", g.c_str(), "--exact", "--hybrid", "--devices", "2",
              "--verify", "--top", "5", "--json"}),
      "bc_mycielski6_hybrid.json.golden");
}

TEST(GoldenCli, BcHybridTextGrid) {
  const auto g = grid_graph();
  expect_matches_golden(
      run_ok({"bc", g.c_str(), "--exact", "--hybrid", "--verify", "--top",
              "5"}),
      "bc_grid8x8_hybrid.txt.golden");
}

TEST(GoldenCli, ErrorBatchWithEdgeBc) {
  const auto g = mycielski_graph();
  expect_matches_golden(
      run_usage_error({"bc", g.c_str(), "--exact", "--batch", "8",
                       "--edge-bc"}),
      "cli_error_batch_edge_bc.txt.golden");
}

TEST(GoldenCli, ErrorSourceOutOfRange) {
  const auto g = mycielski_graph();
  expect_matches_golden(run_usage_error({"bc", g.c_str(), "--source", "99"}),
                        "cli_error_source_range.txt.golden");
}

TEST(GoldenCli, ErrorBatchOutOfRange) {
  const auto g = mycielski_graph();
  expect_matches_golden(
      run_usage_error({"bc", g.c_str(), "--exact", "--batch", "65"}),
      "cli_error_batch_range.txt.golden");
}

TEST(GoldenCli, ErrorHybridWithoutExact) {
  const auto g = mycielski_graph();
  expect_matches_golden(
      run_usage_error({"bc", g.c_str(), "--source", "3", "--hybrid"}),
      "cli_error_hybrid_no_exact.txt.golden");
}

TEST(GoldenCli, ErrorHybridWithDist) {
  const auto g = mycielski_graph();
  expect_matches_golden(
      run_usage_error({"bc", g.c_str(), "--exact", "--hybrid", "--dist",
                       "partition"}),
      "cli_error_hybrid_dist.txt.golden");
}

TEST(GoldenCli, ErrorDaemonZeroReaders) {
  const auto g = mycielski_graph();
  expect_matches_golden(
      run_usage_error({"daemon", g.c_str(), "--listen", "127.0.0.1:0",
                       "--readers", "0"}),
      "cli_error_readers_zero.txt.golden");
}

TEST(GoldenCli, ErrorDaemonZeroQueueLimit) {
  const auto g = mycielski_graph();
  expect_matches_golden(
      run_usage_error({"daemon", g.c_str(), "--listen", "127.0.0.1:0",
                       "--queue-limit", "0"}),
      "cli_error_queue_limit_zero.txt.golden");
}

TEST(GoldenCli, BfsAdvanceAutoTextMycielski) {
  const auto g = mycielski_graph();
  expect_matches_golden(
      run_ok({"bfs", g.c_str(), "--source", "0", "--advance", "auto"}),
      "bfs_mycielski6_auto.txt.golden");
}

TEST(GoldenCli, BcAdvancePullJsonGrid) {
  const auto g = grid_graph();
  expect_matches_golden(
      run_ok({"bc", g.c_str(), "--source", "9", "--advance", "pull",
              "--verify", "--top", "5", "--json"}),
      "bc_grid8x8_pull.json.golden");
}

// The reports name the variant whose kernels ran, not the requested one:
// scCOOC under pull demotes to veCSC, and compressed storage runs scCSC.
TEST(GoldenCli, BcDemotedCoocPullTextGrid) {
  const auto g = grid_graph();
  expect_matches_golden(
      run_ok({"bc", g.c_str(), "--source", "9", "--variant", "sccooc",
              "--advance", "pull", "--verify", "--top", "5"}),
      "bc_grid8x8_sccooc_pull.txt.golden");
}

TEST(GoldenCli, BcCompressedVeCscJsonMycielski) {
  const auto g = mycielski_graph();
  expect_matches_golden(
      run_ok({"bc", g.c_str(), "--exact", "--compress", "--variant", "vecsc",
              "--verify", "--top", "5", "--json"}),
      "bc_mycielski6_compress_vecsc.json.golden");
}

/// A fixed serve session script (query -> update -> query, both kinds plus
/// approx and stats), written once to the test temp dir.
std::string serve_script() {
  static const std::string path = [] {
    const std::string p = ::testing::TempDir() + "/golden_serve_session." +
                          std::to_string(::getpid()) + ".txt";
    std::ofstream f(p, std::ios::binary);
    f << "# golden serve session\n"
         "bc 5\n"
         "top 3\n"
         "insert 0 5\n"
         "bc 5\n"
         "delete 0 5\n"
         "top 3\n"
         "approx 0.5 0.2\n"
         "stats\n";
    return p;
  }();
  return path;
}

TEST(GoldenCli, ServeSessionTextMycielski) {
  const auto g = mycielski_graph();
  const auto s = serve_script();
  expect_matches_golden(
      run_ok({"serve", g.c_str(), "--script", s.c_str()}),
      "serve_mycielski6.txt.golden");
}

TEST(GoldenCli, ServeSessionJsonMycielski) {
  const auto g = mycielski_graph();
  const auto s = serve_script();
  expect_matches_golden(
      run_ok({"serve", g.c_str(), "--script", s.c_str(), "--json"}),
      "serve_mycielski6.json.golden");
}

TEST(GoldenCli, ServeSessionJsonMycielskiIsThreadInvariant) {
  // The serving engine inherits the repo-wide contract: the same session at
  // pool width 8 reproduces the width-1 golden byte-for-byte — cached
  // blocks, recompute costs, approx waves, modeled stats and all.
  const auto g = mycielski_graph();
  const auto s = serve_script();
  expect_matches_golden(
      run_ok({"serve", g.c_str(), "--script", s.c_str(), "--json",
              "--threads", "8"}),
      "serve_mycielski6.json.golden");
}

TEST(GoldenCli, ServeSessionJsonGrid) {
  const auto g = grid_graph();
  const auto s = serve_script();
  expect_matches_golden(
      run_ok({"serve", g.c_str(), "--script", s.c_str(), "--json"}),
      "serve_grid8x8.json.golden");
}

/// Misuse scripts: exit 2, empty stdout, golden-pinned stderr — the whole
/// script is parsed before anything executes, so nothing leaks.
std::string misuse_script(const char* name, const char* text) {
  const std::string p = ::testing::TempDir() + "/" + name;
  std::ofstream f(p, std::ios::binary);
  f << text;
  return p;
}

TEST(GoldenCli, ErrorServeUnknownCommand) {
  const auto g = mycielski_graph();
  const auto s =
      misuse_script("serve_bad_cmd.txt", "bc 3\nfrobnicate 1 2\n");
  expect_matches_golden(
      run_usage_error({"serve", g.c_str(), "--script", s.c_str()}),
      "cli_error_serve_unknown_command.txt.golden");
}

TEST(GoldenCli, ErrorServeInsertArity) {
  const auto g = mycielski_graph();
  const auto s = misuse_script("serve_bad_arity.txt", "insert 3\n");
  expect_matches_golden(
      run_usage_error({"serve", g.c_str(), "--script", s.c_str()}),
      "cli_error_serve_insert_arity.txt.golden");
}

TEST(GoldenCli, ErrorServeVertexOutOfRange) {
  const auto g = mycielski_graph();
  const auto s = misuse_script("serve_bad_vertex.txt", "delete 0 4711\n");
  expect_matches_golden(
      run_usage_error({"serve", g.c_str(), "--script", s.c_str()}),
      "cli_error_serve_vertex_range.txt.golden");
}

TEST(GoldenCli, ErrorServeEpsilonOutOfRange) {
  const auto g = mycielski_graph();
  const auto s = misuse_script("serve_bad_epsilon.txt", "approx 2.5\n");
  expect_matches_golden(
      run_usage_error({"serve", g.c_str(), "--script", s.c_str()}),
      "cli_error_serve_epsilon_range.txt.golden");
}

TEST(GoldenCli, BcAdvanceAutoJsonGridIsThreadInvariant) {
  // The direction-optimizing engine inherits the repo-wide determinism
  // contract: --advance auto at pool width 8 must reproduce the width-1
  // golden byte-for-byte.
  const auto g = grid_graph();
  const char* golden = "bc_grid8x8_auto_exact.json.golden";
  expect_matches_golden(
      run_ok({"bc", g.c_str(), "--exact", "--advance", "auto", "--verify",
              "--top", "5", "--json"}),
      golden);
  expect_matches_golden(
      run_ok({"bc", g.c_str(), "--exact", "--advance", "auto", "--verify",
              "--top", "5", "--json", "--threads", "8"}),
      golden);
}

}  // namespace
}  // namespace turbobc::tools
