#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <vector>

#include "common/cli.hpp"
#include "core/turbobc_batched.hpp"
#include "graph/mtx_io.hpp"
#include "tools/commands.hpp"

namespace turbobc::tools {
namespace {

struct CliRun {
  int code;
  std::string out;
  std::string err;
};

CliRun run(std::initializer_list<const char*> argv) {
  std::vector<const char*> v = {"turbobc_cli"};
  v.insert(v.end(), argv);
  const CliArgs args(static_cast<int>(v.size()), v.data());
  std::ostringstream out, err;
  const int code = run_cli(args, out, err);
  return {code, out.str(), err.str()};
}

std::string temp_mtx(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(Cli, NoArgsPrintsUsage) {
  const auto r = run({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  const auto r = run({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, GenerateWritesAReadableGraph) {
  const std::string path = temp_mtx("cli_gen.mtx");
  const auto r = run({"generate", "--family", "mycielski", "--order", "7",
                      "--out", path.c_str()});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("wrote"), std::string::npos);
  std::ifstream f(path);
  EXPECT_TRUE(f.good());
}

TEST(Cli, GenerateRejectsUnknownFamily) {
  const auto r = run({"generate", "--family", "nonsense", "--out", "/tmp/x"});
  EXPECT_EQ(r.code, 2);
}

TEST(Cli, GeneratePreferentialFamily) {
  const std::string path = temp_mtx("cli_gen_pref.mtx");
  const auto r = run({"generate", "--family", "preferential", "--n", "300",
                      "--m-attach", "2", "--out", path.c_str()});
  EXPECT_EQ(r.code, 0) << r.err;
  std::ifstream f(path);
  EXPECT_TRUE(f.good());
}

TEST(Cli, ApproxRunsWithBudgetAndReportsHonestly) {
  const std::string path = temp_mtx("cli_approx_cmd.mtx");
  ASSERT_EQ(run({"generate", "--family", "preferential", "--n", "400",
                 "--m-attach", "3", "--out", path.c_str()})
                .code,
            0);
  const auto r =
      run({"approx", path.c_str(), "--max-sources", "64", "--json"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"mode\": \"approx\""), std::string::npos);
  EXPECT_NE(r.out.find("\"sources_used\": 64"), std::string::npos);
  EXPECT_NE(r.out.find("\"converged\": false"), std::string::npos)
      << "a 64-pivot budget cannot meet the default target on n = 400";
}

TEST(Cli, ApproxValidatesFlagDomains) {
  const std::string path = temp_mtx("cli_approx_domain.mtx");
  ASSERT_EQ(run({"generate", "--family", "mycielski", "--order", "5",
                 "--out", path.c_str()})
                .code,
            0);
  const auto eps = run({"approx", path.c_str(), "--epsilon", "0"});
  EXPECT_EQ(eps.code, 2);
  EXPECT_NE(eps.err.find("--epsilon must be positive"), std::string::npos);
  const auto delta = run({"approx", path.c_str(), "--delta", "1.5"});
  EXPECT_EQ(delta.code, 2);
  const auto topk = run({"approx", path.c_str(), "--topk", "-3"});
  EXPECT_EQ(topk.code, 2);
}

// Out-of-range user input is a usage error (exit 2) on every path that
// would otherwise reach an engine's internal range check.
TEST(Cli, OutOfRangeSourceAndBatchAreUsageErrors) {
  const std::string path = temp_mtx("cli_range.mtx");
  ASSERT_EQ(run({"generate", "--family", "mycielski", "--order", "6",
                 "--out", path.c_str()})
                .code,
            0);
  const std::vector<std::vector<const char*>> misuse = {
      {"bc", path.c_str(), "--source", "99"},
      {"bc", path.c_str(), "--source", "-1"},
      {"bfs", path.c_str(), "--source", "99"},
      {"bc", path.c_str(), "--exact", "--batch", "65"},
      {"approx", path.c_str(), "--engine", "batched", "--batch", "65"},
      {"bc", path.c_str(), "--exact", "--devices", "2", "--dist",
       "partition", "--batch", "65"},
      {"bc", path.c_str(), "--exact", "--batch", "4", "--edge-bc"}};
  for (const auto& argv : misuse) {
    std::vector<const char*> v = {"turbobc_cli"};
    v.insert(v.end(), argv.begin(), argv.end());
    const CliArgs args(static_cast<int>(v.size()), v.data());
    std::ostringstream out, err;
    EXPECT_EQ(run_cli(args, out, err), 2) << argv[0] << ' ' << argv[2];
    EXPECT_EQ(err.str().find("failed check"), std::string::npos)
        << err.str();
  }
  // The boundaries themselves are accepted.
  EXPECT_EQ(run({"bc", path.c_str(), "--source", "46"}).code, 0);
  EXPECT_EQ(run({"bc", path.c_str(), "--exact", "--batch", "64"}).code, 0);
}

TEST(Cli, GenerateRequiresOut) {
  const auto r = run({"generate", "--family", "mycielski"});
  EXPECT_EQ(r.code, 2);
}

TEST(Cli, StatsReportsStructure) {
  const std::string path = temp_mtx("cli_stats.mtx");
  ASSERT_EQ(run({"generate", "--family", "grid", "--rows", "12", "--cols",
                 "12", "--out", path.c_str()})
                .code,
            0);
  const auto r = run({"stats", path.c_str()});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("vertices"), std::string::npos);
  EXPECT_NE(r.out.find("regular"), std::string::npos);
  EXPECT_NE(r.out.find("scCSC"), std::string::npos);
}

TEST(Cli, StatsOnMissingFileFailsGracefully) {
  const auto r = run({"stats", "/nonexistent/never.mtx"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("error:"), std::string::npos);
}

TEST(Cli, BfsPrintsDepthHistogram) {
  const std::string path = temp_mtx("cli_bfs.mtx");
  ASSERT_EQ(run({"generate", "--family", "smallworld", "--n", "300", "--k",
                 "6", "--out", path.c_str()})
                .code,
            0);
  const auto r = run({"bfs", path.c_str(), "--source", "5"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("BFS from 5"), std::string::npos);
  EXPECT_NE(r.out.find("depth"), std::string::npos);
  EXPECT_NE(r.out.find("reached 300/300"), std::string::npos);
}

TEST(Cli, BcSingleSourceVerifies) {
  const std::string path = temp_mtx("cli_bc.mtx");
  ASSERT_EQ(run({"generate", "--family", "erdos-renyi", "--n", "150",
                 "--arcs", "700", "--out", path.c_str()})
                .code,
            0);
  const auto r = run({"bc", path.c_str(), "--source", "3", "--verify"});
  EXPECT_EQ(r.code, 0) << r.out + r.err;
  EXPECT_NE(r.out.find("(OK)"), std::string::npos);
  EXPECT_NE(r.out.find("single-source"), std::string::npos);
}

TEST(Cli, BcExactWithEdgeBc) {
  const std::string path = temp_mtx("cli_bc_exact.mtx");
  ASSERT_EQ(run({"generate", "--family", "mycielski", "--order", "6",
                 "--out", path.c_str()})
                .code,
            0);
  const auto r = run({"bc", path.c_str(), "--exact", "--edge-bc", "--verify",
                      "--top", "5"});
  EXPECT_EQ(r.code, 0) << r.out + r.err;
  EXPECT_NE(r.out.find("exact BC"), std::string::npos);
  EXPECT_NE(r.out.find("edge BC computed"), std::string::npos);
  EXPECT_NE(r.out.find("(OK)"), std::string::npos);
}

TEST(Cli, BcExactBatchedVerifies) {
  const std::string path = temp_mtx("cli_bc_batch.mtx");
  ASSERT_EQ(run({"generate", "--family", "smallworld", "--n", "80", "--k",
                 "4", "--out", path.c_str()})
                .code,
            0);
  const auto r = run({"bc", path.c_str(), "--exact", "--batch", "8",
                      "--verify"});
  EXPECT_EQ(r.code, 0) << r.out + r.err;
  EXPECT_NE(r.out.find("batched x8"), std::string::npos);
  EXPECT_NE(r.out.find("(OK)"), std::string::npos);
}

/// The integer value of `"key": N` in a JSON report (0 when absent).
std::uint64_t json_uint(const std::string& json, const std::string& key) {
  const std::string tag = "\"" + key + "\": ";
  const auto at = json.find(tag);
  if (at == std::string::npos) return 0;
  return std::stoull(json.substr(at + tag.size()));
}

TEST(Cli, BcBatchedPeakIsTheBatchedEnginesOwn) {
  // The batched path must not keep an idle per-source engine (and its graph
  // upload) alive on the device it reports the peak of.
  const std::string path = std::string(TURBOBC_FIXTURES_DIR) + "/midskew.mtx";
  const auto r = run({"bc", path.c_str(), "--exact", "--batch", "8",
                      "--json"});
  ASSERT_EQ(r.code, 0) << r.err;

  sim::Device dev;
  bc::TurboBCBatched engine(dev, graph::read_matrix_market_file(path),
                            {.batch_size = 8});
  const auto want = engine.run_exact();
  EXPECT_EQ(json_uint(r.out, "peak_bytes"), want.peak_device_bytes);
}

TEST(Cli, BcApproximateRuns) {
  const std::string path = temp_mtx("cli_bc_approx.mtx");
  ASSERT_EQ(run({"generate", "--family", "smallworld", "--n", "200", "--k",
                 "6", "--out", path.c_str()})
                .code,
            0);
  const auto r = run({"bc", path.c_str(), "--approx", "16"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("approximate (16 sources)"), std::string::npos);
}

TEST(Cli, BcVariantOverrideAndAutotune) {
  const std::string path = temp_mtx("cli_bc_var.mtx");
  ASSERT_EQ(run({"generate", "--family", "mycielski", "--order", "8",
                 "--out", path.c_str()})
                .code,
            0);
  for (const char* v : {"sccooc", "sccsc", "vecsc", "autotune"}) {
    const auto r = run({"bc", path.c_str(), "--variant", v, "--verify"});
    EXPECT_EQ(r.code, 0) << v << ": " << r.err;
    EXPECT_NE(r.out.find("(OK)"), std::string::npos) << v;
  }
  // Unknown variants are CLI misuse: exit 2 with the usage text, like every
  // other malformed flag.
  const auto bad = run({"bc", path.c_str(), "--variant", "bogus"});
  EXPECT_EQ(bad.code, 2);
  EXPECT_NE(bad.err.find("unknown variant 'bogus'"), std::string::npos);
  EXPECT_NE(bad.err.find("usage:"), std::string::npos);
}

TEST(Cli, BcTraceWritesJson) {
  const std::string path = temp_mtx("cli_bc_trace.mtx");
  const std::string trace = ::testing::TempDir() + "/cli_trace.json";
  ASSERT_EQ(run({"generate", "--family", "grid", "--rows", "8", "--cols",
                 "8", "--out", path.c_str()})
                .code,
            0);
  const auto r = run({"bc", path.c_str(), "--trace", trace.c_str()});
  EXPECT_EQ(r.code, 0) << r.err;
  std::ifstream f(trace);
  std::string content((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
}

}  // namespace
}  // namespace turbobc::tools
