// Per-launch pin of every engine that runs Algorithm 1's level sweep.
//
// The golden tests under tests/golden/ pin totals; these pin the event
// stream itself. For each configuration the dump holds one line per kernel
// launch — device, kernel name, warps, load / store / L2-hit transactions
// and the modeled time as a hexfloat — followed by each device's kernel,
// transfer, overhead and comm seconds (hexfloat) and its peak bytes. Any
// reordering of allocations, fills, launches, readbacks or comm charges
// shifts an address, an L2 hit or a float fold and shows up as a diff here.
//
// On an intentional change, regenerate with
//   TURBOBC_UPDATE_GOLDEN=1 ./test_core --gtest_filter='*LaunchPin*'
// and review the diff under tests/golden/launch/.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/turbobc.hpp"
#include "core/turbobc_batched.hpp"
#include "core/turbobfs.hpp"
#include "dist/dist_turbobc.hpp"
#include "generators/generators.hpp"
#include "gpusim/topology.hpp"
#include "graph/csc.hpp"
#include "storage/compressed_csc.hpp"
#include "storage/streaming_bc.hpp"

namespace turbobc::bc {
namespace {

/// The two pinned graphs: a sparse directed G(n, m) (exercises the scatter
/// and the partitioned ring) and an undirected Kronecker graph dense enough
/// that --advance auto switches to pull for some levels.
graph::EdgeList directed_graph() {
  return gen::erdos_renyi({.n = 48, .arcs = 260, .directed = true,
                           .seed = 11});
}

graph::EdgeList undirected_graph() {
  return gen::kronecker({.scale = 6, .edge_factor = 6, .seed = 2});
}

constexpr vidx_t kSource = 3;
const std::vector<vidx_t> kBatch = {0, 3, 5, 7, 11, 13, 17, 19};
/// Three-wide blocks {0, 20, 20}, {40, 3, 40}, {17, 0}: a ragged last block
/// (a partial lane mask), and duplicate sources inside a block whose seed
/// masks collapse onto one vertex while the block's other lanes sit on
/// another shard of a 3-device partition.
const std::vector<vidx_t> kDupBatch = {0, 20, 20, 40, 3, 40, 17, 0};
const std::vector<double> kDupWeights = {1.5, 0.5, 2.0, 1.0,
                                         0.25, 3.0, 1.25, 0.75};

void dump_device(std::ostringstream& out, int k, const sim::Device& dev) {
  out << std::hexfloat;
  for (const sim::LaunchRecord& r : dev.launches()) {
    out << "dev " << k << ' ' << r.kernel << " warps=" << r.warps
        << " ld=" << r.load_transactions << " st=" << r.store_transactions
        << " l2=" << r.l2_hit_transactions << " t=" << r.time_s << '\n';
  }
  out << "dev " << k << " kernel_s=" << dev.kernel_seconds()
      << " transfer_s=" << dev.transfer_seconds()
      << " overhead_s=" << dev.overhead_seconds()
      << " comm_s=" << dev.comm_seconds()
      << " peak=" << dev.memory().peak_bytes() << '\n';
  out << std::defaultfloat;
}

void dump_topology(std::ostringstream& out, const sim::Topology& topo) {
  for (int k = 0; k < topo.num_devices(); ++k) {
    dump_device(out, k, topo.device(k));
  }
  out << std::hexfloat << "topology comm_s=" << topo.comm_seconds()
      << std::defaultfloat << " comm_bytes=" << topo.comm_bytes_total()
      << '\n';
}

void dump_bc(std::ostringstream& out, const std::vector<bc_t>& bc) {
  out << std::hexfloat << "bc";
  for (const bc_t v : bc) out << ' ' << v;
  out << std::defaultfloat << '\n';
}

/// Runs one configuration on one graph and returns its dump.
using Runner = std::function<std::string(const graph::EdgeList&)>;

Runner turbobc(BcOptions options, bool moments = false) {
  return [options, moments](const graph::EdgeList& el) {
    sim::Device dev;
    TurboBC engine(dev, el, options);
    BcResult r;
    if (moments) {
      TurboBC::MomentResult m;
      r = engine.run_sources_moments({kSource}, {1.5}, m);
    } else {
      r = engine.run_single_source(kSource);
    }
    std::ostringstream out;
    dump_device(out, 0, dev);
    dump_bc(out, r.bc);
    if (options.edge_bc) dump_bc(out, r.edge_bc);
    return out.str();
  };
}

Runner turbobfs(Advance advance, Variant variant = Variant::kScCsc) {
  return [advance, variant](const graph::EdgeList& el) {
    sim::Device dev;
    TurboBfs bfs(dev, el, variant, advance);
    const TurboBfsResult r = bfs.run(kSource);
    std::ostringstream out;
    dump_device(out, 0, dev);
    out << std::hexfloat << "bfs height=" << r.height
        << " reached=" << r.reached << " device_s=" << r.device_seconds
        << std::defaultfloat << " peak=" << r.peak_device_bytes << '\n';
    return out.str();
  };
}

Runner streaming() {
  return [](const graph::EdgeList& el) {
    graph::EdgeList canon = el;
    canon.canonicalize();
    const storage::CompressedCsc packed =
        storage::encode_csc(graph::CscGraph::from_edges(canon));
    sim::Device dev;
    storage::StreamingTurboBC engine(dev, packed,
                                     {.num_shards = 4, .window = 1});
    const BcResult r = engine.run_single_source(kSource);
    std::ostringstream out;
    dump_device(out, 0, dev);
    dump_bc(out, r.bc);
    return out.str();
  };
}

Runner partitioned(Advance advance, vidx_t batch,
                   std::optional<Variant> variant = std::nullopt,
                   const std::vector<vidx_t>& sources = kBatch) {
  return [advance, batch, variant, &sources](const graph::EdgeList& el) {
    sim::TopologyProps props = sim::TopologyProps::quad_titan_xp();
    props.num_devices = 3;
    sim::Topology topo(props);
    dist::DistTurboBC engine(topo, el,
                             {.strategy = dist::Strategy::kPartition,
                              .variant = variant,
                              .advance = advance,
                              .batch_size = batch});
    const dist::DistResult r =
        batch > 0 ? engine.run_sources(sources)
                  : engine.run_single_source(kSource);
    std::ostringstream out;
    dump_topology(out, topo);
    dump_bc(out, r.bc);
    return out.str();
  };
}

Runner batched(Advance advance, bool compress) {
  return [advance, compress](const graph::EdgeList& el) {
    sim::Device dev;
    TurboBCBatched engine(
        dev, el, {.batch_size = 8, .advance = advance, .compress = compress});
    const BcResult r = engine.run_sources(kBatch);
    std::ostringstream out;
    dump_device(out, 0, dev);
    dump_bc(out, r.bc);
    return out.str();
  };
}

Runner batched_moments(vidx_t batch) {
  return [batch](const graph::EdgeList& el) {
    sim::Device dev;
    TurboBCBatched engine(dev, el, {.batch_size = batch});
    TurboBC::MomentResult m;
    const BcResult r = engine.run_sources_moments(kDupBatch, kDupWeights, m);
    std::ostringstream out;
    dump_device(out, 0, dev);
    dump_bc(out, r.bc);
    dump_bc(out, m.sum);
    dump_bc(out, m.sumsq);
    return out.str();
  };
}

struct PinCase {
  std::string name;
  Runner run;
};

// Without a printer gtest lists the parameter as its raw bytes, which hold
// heap addresses; ctest's test names would then change with every build.
void PrintTo(const PinCase& c, std::ostream* os) { *os << c.name; }

std::vector<PinCase> pin_cases() {
  std::vector<PinCase> cases;
  const std::pair<const char*, Variant> variants[] = {
      {"sccooc", Variant::kScCooc},
      {"sccsc", Variant::kScCsc},
      {"vecsc", Variant::kVeCsc}};
  const std::pair<const char*, Advance> advances[] = {
      {"push", Advance::kPush},
      {"pull", Advance::kPull},
      {"auto", Advance::kAuto}};
  for (const auto& [vname, variant] : variants) {
    for (const auto& [aname, advance] : advances) {
      cases.push_back({std::string("turbobc_") + vname + "_" + aname,
                       turbobc({.variant = variant, .advance = advance})});
    }
  }
  cases.push_back({"turbobc_compressed_push",
                   turbobc({.advance = Advance::kPush, .compress = true})});
  cases.push_back({"turbobc_compressed_auto",
                   turbobc({.advance = Advance::kAuto, .compress = true})});
  cases.push_back({"turbobc_edge_sccsc",
                   turbobc({.variant = Variant::kScCsc, .edge_bc = true})});
  cases.push_back({"turbobc_edge_sccooc",
                   turbobc({.variant = Variant::kScCooc, .edge_bc = true})});
  cases.push_back({"turbobc_float_bfs_sccooc",
                   turbobc({.variant = Variant::kScCooc, .float_bfs = true})});
  cases.push_back({"turbobc_moments_vecsc",
                   turbobc({.variant = Variant::kVeCsc}, /*moments=*/true)});
  cases.push_back({"turbobfs_push", turbobfs(Advance::kPush)});
  cases.push_back({"turbobfs_auto", turbobfs(Advance::kAuto)});
  cases.push_back(
      {"turbobfs_sccooc", turbobfs(Advance::kPush, Variant::kScCooc)});
  cases.push_back({"streaming_w1_s4", streaming()});
  cases.push_back({"partition_k3_push", partitioned(Advance::kPush, 0)});
  cases.push_back({"partition_k3_auto", partitioned(Advance::kAuto, 0)});
  cases.push_back({"partition_k3_sccooc",
                   partitioned(Advance::kPush, 0, Variant::kScCooc)});
  cases.push_back({"partition_k3_vecsc_pull",
                   partitioned(Advance::kPull, 0, Variant::kVeCsc)});
  cases.push_back({"batched_k8", batched(Advance::kPush, false)});
  cases.push_back({"batched_k8_auto", batched(Advance::kAuto, false)});
  cases.push_back({"batched_k8_compressed_pull",
                   batched(Advance::kPull, true)});
  cases.push_back({"partition_k3_batched_k8",
                   partitioned(Advance::kPush, 8)});
  cases.push_back({"partition_k3_batched_k8_auto",
                   partitioned(Advance::kAuto, 8)});
  cases.push_back({"batched_k3_moments_dup", batched_moments(3)});
  cases.push_back({"partition_k3_batched_k3_dup",
                   partitioned(Advance::kPush, 3, std::nullopt, kDupBatch)});
  return cases;
}

void expect_matches_golden(const std::string& actual,
                           const std::string& name) {
  const std::string path =
      std::string(TURBOBC_TESTS_DIR) + "/golden/launch/" + name + ".golden";
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
  EXPECT_EQ(actual, expected.str()) << "launch stream drifted from " << name;
}

class LaunchPin : public ::testing::TestWithParam<PinCase> {};

TEST_P(LaunchPin, EventStreamMatchesGolden) {
  const PinCase& c = GetParam();
  std::string dump = "# directed\n" + c.run(directed_graph());
  dump += "# undirected\n" + c.run(undirected_graph());
  expect_matches_golden(dump, c.name);
}

INSTANTIATE_TEST_SUITE_P(Engines, LaunchPin, ::testing::ValuesIn(pin_cases()),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace turbobc::bc
