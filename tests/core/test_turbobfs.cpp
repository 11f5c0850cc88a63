#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "baselines/brandes.hpp"
#include "common/error.hpp"
#include "core/turbobfs.hpp"
#include "generators/generators.hpp"
#include "graph/bfs_probe.hpp"

namespace turbobc::bc {
namespace {

using graph::EdgeList;

/// One engine configuration: requested variant x frontier advance x
/// storage (plain CSC/COOC or the delta-varint compressed CSC).
struct BfsConfig {
  Variant variant;
  Advance advance;
  bool compress;
};

void PrintTo(const BfsConfig& c, std::ostream* os) {
  *os << to_string(c.variant) << '/' << to_string(c.advance) << '/'
      << (c.compress ? "compressed" : "plain");
}

TurboBfs make_bfs(sim::Device& dev, const EdgeList& el, const BfsConfig& c) {
  return TurboBfs(dev, el, c.variant, c.advance, {}, c.compress);
}

class TurboBfsVariants : public ::testing::TestWithParam<BfsConfig> {};

TEST_P(TurboBfsVariants, DepthsMatchReferenceBfs) {
  for (const bool directed : {true, false}) {
    const auto el = gen::erdos_renyi({.n = 150, .arcs = 700,
                                      .directed = directed, .seed = 3});
    sim::Device dev;
    TurboBfs bfs = make_bfs(dev, el, GetParam());
    const auto r = bfs.run(2);
    const auto probe =
        graph::bfs_reference(graph::CscGraph::from_edges(el), 2);
    EXPECT_EQ(r.depth, probe.depth);
    EXPECT_EQ(r.height, probe.height);
    EXPECT_EQ(r.reached, probe.reached);
  }
}

TEST_P(TurboBfsVariants, SigmaMatchesBrandesPathCounts) {
  const auto el = gen::kronecker({.scale = 8, .edge_factor = 8, .seed = 4});
  sim::Device dev;
  TurboBfs bfs = make_bfs(dev, el, GetParam());
  const auto r = bfs.run(0);
  const auto golden = baseline::brandes_sigma(el, 0);
  ASSERT_EQ(r.sigma.size(), golden.size());
  for (std::size_t v = 0; v < golden.size(); ++v) {
    EXPECT_DOUBLE_EQ(r.sigma[v], golden[v]) << v;
  }
}

TEST_P(TurboBfsVariants, DisconnectedVerticesAreMinusOne) {
  EdgeList el(6, true);
  el.add_edge(0, 1);
  el.add_edge(1, 2);
  el.symmetrize();
  sim::Device dev;
  TurboBfs bfs = make_bfs(dev, el, GetParam());
  const auto r = bfs.run(0);
  EXPECT_EQ(r.reached, 3);
  EXPECT_EQ(r.depth[4], kInvalidVertex);
  EXPECT_DOUBLE_EQ(r.sigma[4], 0.0);
}

std::vector<BfsConfig> bfs_configs() {
  std::vector<BfsConfig> configs;
  for (const Variant v :
       {Variant::kScCooc, Variant::kScCsc, Variant::kVeCsc}) {
    for (const Advance a : {Advance::kPush, Advance::kPull, Advance::kAuto}) {
      for (const bool compress : {false, true}) {
        configs.push_back({v, a, compress});
      }
    }
  }
  return configs;
}

INSTANTIATE_TEST_SUITE_P(AllVariants, TurboBfsVariants,
                         ::testing::ValuesIn(bfs_configs()),
                         [](const auto& info) {
                           const BfsConfig& c = info.param;
                           return std::string(to_string(c.variant)) + "_" +
                                  std::string(to_string(c.advance)) + "_" +
                                  (c.compress ? "compressed" : "plain");
                         });

TEST(TurboBfs, SourceDepthIsZeroAndSigmaOne) {
  const auto el = gen::mycielski(7);
  sim::Device dev;
  TurboBfs bfs(dev, el, Variant::kVeCsc);
  const auto r = bfs.run(5);
  EXPECT_EQ(r.depth[5], 0);
  EXPECT_DOUBLE_EQ(r.sigma[5], 1.0);
}

TEST(TurboBfs, ChargesDeviceTimeAndMemory) {
  const auto el = gen::small_world({.n = 1000, .k = 6, .rewire_p = 0.1,
                                    .seed = 5});
  sim::Device dev;
  TurboBfs bfs(dev, el, Variant::kScCsc);
  const auto r = bfs.run(0);
  EXPECT_GT(r.device_seconds, 0.0);
  // Graph + S + sigma + f + f_t at 4-byte widths.
  EXPECT_GE(r.peak_device_bytes, 4u * 4u * 1000u);
}

TEST(TurboBfs, RejectsBadInput) {
  EdgeList el(3, true);
  el.add_edge(0, 1);
  sim::Device dev;
  TurboBfs bfs(dev, el, Variant::kScCsc);
  EXPECT_THROW(bfs.run(3), InvalidArgument);
  EdgeList empty(0, true);
  EXPECT_THROW(TurboBfs(dev, empty, Variant::kScCsc), InvalidArgument);
}

TEST(TurboBfs, RepeatedRunsAreIndependent) {
  const auto el = gen::erdos_renyi({.n = 100, .arcs = 400, .directed = true,
                                    .seed = 6});
  sim::Device dev;
  TurboBfs bfs(dev, el, Variant::kScCsc);
  const auto a = bfs.run(0);
  const auto b = bfs.run(1);
  const auto c = bfs.run(0);
  EXPECT_EQ(a.depth, c.depth);
  EXPECT_NE(a.depth, b.depth);
}

}  // namespace
}  // namespace turbobc::bc
