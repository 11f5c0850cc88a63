#include <gtest/gtest.h>

#include <cmath>

#include "baselines/brandes.hpp"
#include "common/error.hpp"
#include "core/footprint.hpp"
#include "core/turbobc.hpp"
#include "generators/generators.hpp"
#include "graph/bfs_probe.hpp"

namespace turbobc::bc {
namespace {

using graph::EdgeList;

void expect_bc_equal(const std::vector<bc_t>& got,
                     const std::vector<bc_t>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double scale = std::max({std::abs(want[i]), 1.0});
    EXPECT_NEAR(got[i], want[i], 1e-9 * scale) << what << " vertex " << i;
  }
}

/// Variant x graph-shape grid: the heart of the correctness story.
/// The name is stored inline, not as a pointer: GoogleTest prints the param's
/// raw bytes into the registered test name, and a string-literal address
/// differs from run to run under ASLR.
struct Case {
  Variant variant;
  char name[12];
};

class TurboBcCorrectness : public ::testing::TestWithParam<Case> {};

TEST_P(TurboBcCorrectness, SingleSourceMatchesBrandesOnRandomDirected) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto el = gen::erdos_renyi({.n = 80, .arcs = 400, .directed = true,
                                      .seed = seed});
    sim::Device dev;
    TurboBC turbo(dev, el, {.variant = GetParam().variant});
    const auto r = turbo.run_single_source(3);
    expect_bc_equal(r.bc, baseline::brandes_delta(el, 3),
                    std::string("directed seed ") + std::to_string(seed));
  }
}

TEST_P(TurboBcCorrectness, SingleSourceMatchesBrandesOnRandomUndirected) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto el = gen::erdos_renyi({.n = 80, .arcs = 300, .directed = false,
                                      .seed = seed});
    sim::Device dev;
    TurboBC turbo(dev, el, {.variant = GetParam().variant});
    const auto r = turbo.run_single_source(0);
    expect_bc_equal(r.bc, baseline::brandes_delta(el, 0),
                    std::string("undirected seed ") + std::to_string(seed));
  }
}

TEST_P(TurboBcCorrectness, ExactMatchesBrandesOnSmallGraphs) {
  const auto directed = gen::erdos_renyi({.n = 40, .arcs = 160,
                                          .directed = true, .seed = 9});
  const auto undirected = gen::mycielski(6);
  for (const auto* el : {&directed, &undirected}) {
    sim::Device dev;
    dev.set_keep_launch_records(false);
    TurboBC turbo(dev, *el, {.variant = GetParam().variant});
    const auto r = turbo.run_exact();
    expect_bc_equal(r.bc, baseline::brandes_bc(*el), "exact");
    EXPECT_EQ(r.sources, el->num_vertices());
  }
}

TEST_P(TurboBcCorrectness, HandlesDisconnectedGraphs) {
  // Two components; BC from a source only covers its component (Brandes
  // handles this by definition; Algorithm 1's sigma>0 guard must too).
  EdgeList el(10, true);
  el.add_edge(0, 1);
  el.add_edge(1, 2);
  el.add_edge(2, 3);
  el.add_edge(5, 6);
  el.add_edge(6, 7);
  el.symmetrize();
  sim::Device dev;
  TurboBC turbo(dev, el, {.variant = GetParam().variant});
  expect_bc_equal(turbo.run_single_source(0).bc,
                  baseline::brandes_delta(el, 0), "component A");
  expect_bc_equal(turbo.run_single_source(5).bc,
                  baseline::brandes_delta(el, 5), "component B");
  expect_bc_equal(turbo.run_exact().bc, baseline::brandes_bc(el),
                  "exact disconnected");
}

TEST_P(TurboBcCorrectness, PathGraphHasClosedFormBc) {
  // Path 0-1-2-3-4 (undirected): exact BC of interior vertex i is
  // (i)(n-1-i) pairs each counted once... with Brandes' halving the ends are
  // 0 and bc(1)=bc(3)=3, bc(2)=4 for n=5.
  EdgeList el(5, true);
  for (vidx_t i = 0; i + 1 < 5; ++i) el.add_edge(i, i + 1);
  el.symmetrize();
  sim::Device dev;
  TurboBC turbo(dev, el, {.variant = GetParam().variant});
  const auto r = turbo.run_exact();
  EXPECT_NEAR(r.bc[0], 0.0, 1e-12);
  EXPECT_NEAR(r.bc[1], 3.0, 1e-12);
  EXPECT_NEAR(r.bc[2], 4.0, 1e-12);
  EXPECT_NEAR(r.bc[3], 3.0, 1e-12);
  EXPECT_NEAR(r.bc[4], 0.0, 1e-12);
}

TEST_P(TurboBcCorrectness, StarGraphCenterDominates) {
  EdgeList el(7, true);
  for (vidx_t i = 1; i < 7; ++i) el.add_edge(0, i);
  el.symmetrize();
  sim::Device dev;
  TurboBC turbo(dev, el, {.variant = GetParam().variant});
  const auto r = turbo.run_exact();
  // Center lies on all C(6,2) = 15 pairs.
  EXPECT_NEAR(r.bc[0], 15.0, 1e-12);
  for (std::size_t v = 1; v < 7; ++v) EXPECT_NEAR(r.bc[v], 0.0, 1e-12);
}

TEST_P(TurboBcCorrectness, BfsDepthMatchesReference) {
  const auto el = gen::small_world({.n = 500, .k = 6, .rewire_p = 0.05,
                                    .seed = 3});
  sim::Device dev;
  TurboBC turbo(dev, el, {.variant = GetParam().variant});
  const auto r = turbo.run_single_source(17);
  const auto probe =
      graph::bfs_reference(graph::CscGraph::from_edges(el), 17);
  EXPECT_EQ(r.last_source.bfs_depth, probe.height);
  EXPECT_EQ(r.last_source.reached, probe.reached);
}

TEST_P(TurboBcCorrectness, DirectedChainDependenciesAreExact) {
  // 0 -> 1 -> 2 -> 3: delta_0 = (2, 1, 0) on vertices 1, 2 and bc from all
  // sources: bc(1) = 2, bc(2) = 2 (pairs (0,2),(0,3),(1,3)).
  EdgeList el(4, true);
  el.add_edge(0, 1);
  el.add_edge(1, 2);
  el.add_edge(2, 3);
  sim::Device dev;
  TurboBC turbo(dev, el, {.variant = GetParam().variant});
  const auto single = turbo.run_single_source(0);
  EXPECT_NEAR(single.bc[1], 2.0, 1e-12);
  EXPECT_NEAR(single.bc[2], 1.0, 1e-12);
  const auto exact = turbo.run_exact();
  EXPECT_NEAR(exact.bc[1], 2.0, 1e-12);
  EXPECT_NEAR(exact.bc[2], 2.0, 1e-12);
}

TEST_P(TurboBcCorrectness, FloatBfsAblationIsStillCorrect) {
  const auto el = gen::erdos_renyi({.n = 60, .arcs = 240, .directed = false,
                                    .seed = 13});
  sim::Device dev;
  TurboBC turbo(dev, el, {.variant = GetParam().variant, .float_bfs = true});
  expect_bc_equal(turbo.run_single_source(1).bc,
                  baseline::brandes_delta(el, 1), "float bfs");
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, TurboBcCorrectness,
    ::testing::Values(Case{Variant::kScCooc, "scCOOC"},
                      Case{Variant::kScCsc, "scCSC"},
                      Case{Variant::kVeCsc, "veCSC"}),
    [](const auto& info) { return std::string(info.param.name); });

// ------------------------------------------------------------- edge cases

TEST(TurboBc, SingleVertexGraph) {
  EdgeList el(1, true);
  sim::Device dev;
  TurboBC turbo(dev, el, {.variant = Variant::kScCsc});
  const auto r = turbo.run_single_source(0);
  EXPECT_EQ(r.last_source.bfs_depth, 0);
  EXPECT_EQ(r.last_source.reached, 1);
  EXPECT_NEAR(r.bc[0], 0.0, 1e-12);
}

TEST(TurboBc, RejectsEmptyGraph) {
  EdgeList el(0, true);
  sim::Device dev;
  EXPECT_THROW(TurboBC(dev, el, {}), InvalidArgument);
}

TEST(TurboBc, RejectsBadSource) {
  EdgeList el(3, true);
  el.add_edge(0, 1);
  sim::Device dev;
  TurboBC turbo(dev, el, {});
  EXPECT_THROW(turbo.run_single_source(5), InvalidArgument);
  EXPECT_THROW(turbo.run_single_source(-1), InvalidArgument);
}

TEST(TurboBc, IsolatedSourceYieldsZeroBc) {
  EdgeList el(4, true);
  el.add_edge(1, 2);
  sim::Device dev;
  TurboBC turbo(dev, el, {});
  const auto r = turbo.run_single_source(0);
  for (const bc_t v : r.bc) EXPECT_NEAR(v, 0.0, 1e-12);
  EXPECT_EQ(r.last_source.reached, 1);
}

// --------------------------------------------------------- memory behaviour

TEST(TurboBcMemory, UploadsExactlyOneFormat) {
  const auto el = gen::erdos_renyi({.n = 200, .arcs = 1200, .directed = true,
                                    .seed = 21});
  sim::Device dcsc;
  TurboBC csc(dcsc, el, {.variant = Variant::kScCsc});
  sim::Device dcooc;
  TurboBC cooc(dcooc, el, {.variant = Variant::kScCooc});
  // CSC: (n+1) * 4 + m * 4; COOC: 2m * 4.
  const auto m = static_cast<std::size_t>(csc.num_arcs());
  EXPECT_EQ(csc.graph_device_bytes(), (200 + 1) * 4 + m * 4);
  EXPECT_EQ(cooc.graph_device_bytes(), 2 * m * 4);
}

TEST(TurboBcMemory, ThrowsWhenGraphDoesNotFit) {
  const auto el = gen::erdos_renyi({.n = 1000, .arcs = 8000, .directed = true,
                                    .seed = 22});
  sim::Device dev(sim::DeviceProps::titan_xp_scaled_memory(1e-6));  // ~12 KB
  EXPECT_THROW(TurboBC(dev, el, {}), DeviceOutOfMemory);
}

TEST(TurboBcMemory, PeakReflectsTheFreeReallocTrick) {
  // The dependency triple (3 x 8 B) replaces f/f_t (2 x 8 B): the peak must
  // stay below the naive everything-resident sum.
  const auto el = gen::erdos_renyi({.n = 5000, .arcs = 20000,
                                    .directed = false, .seed = 23});
  sim::Device dev;
  TurboBC turbo(dev, el, {.variant = Variant::kScCsc});
  const auto r = turbo.run_single_source(0);
  const std::size_t n = 5000;
  const std::size_t graph_bytes = turbo.graph_device_bytes();
  // All per-vertex arrays are modeled at the paper's 4-byte width:
  // everything-resident would hold S + sigma + f + f_t + delta triple + bc
  // = 8 x 4n + c; the free/realloc trick drops f/f_t before the triple.
  const std::size_t naive = graph_bytes + 8 * 4 * n + 4;
  EXPECT_LT(r.peak_device_bytes, naive);
  // And it must at least hold the dependency-stage inventory
  // (S + sigma + delta triple + bc = 6 x 4n).
  EXPECT_GE(r.peak_device_bytes, graph_bytes + 6 * 4 * n);
}

TEST(TurboBcMemory, FootprintModelOrdersTurboBelowGunrock) {
  for (vidx_t n : {1000, 100000}) {
    for (eidx_t m : {eidx_t{2} * n, eidx_t{30} * n}) {
      EXPECT_LT(turbobc_model_words(n, m), gunrock_model_words(n, m));
    }
  }
  EXPECT_EQ(turbobc_model_words(10, 100), 70u + 100u);
  EXPECT_EQ(gunrock_model_words(10, 100), 90u + 200u);
}

TEST(TurboBcMemory, FitPredicatesMatchThePaperTable4Numbers) {
  // kmer_V1r at paper scale: n = 214e6, m = 465e6.
  const vidx_t n = 214000000;
  const eidx_t m = 465000000;
  const std::uint64_t capacity = 12196ull * 1024 * 1024;
  EXPECT_TRUE(turbobc_fits(n, m, capacity));
  EXPECT_FALSE(gunrock_fits(n, m, capacity));
}

// ------------------------------------------------------ variant selection

TEST(VariantSelection, IrregularGraphsGetVeCsc) {
  EXPECT_EQ(select_variant(gen::mycielski(10)), Variant::kVeCsc);
  EXPECT_EQ(select_variant(gen::kronecker({.scale = 11, .edge_factor = 40,
                                           .seed = 1})),
            Variant::kVeCsc);
}

TEST(VariantSelection, HubSkewedRegularGraphsGetScCooc) {
  const auto mawi = gen::traffic_trace({.n = 8000, .hubs = 10, .decay = 0.45,
                                        .seed = 2});
  EXPECT_EQ(select_variant(mawi), Variant::kScCooc);
}

TEST(VariantSelection, PlainRegularGraphsGetScCsc) {
  EXPECT_EQ(select_variant(gen::triangulated_grid(40, 40)), Variant::kScCsc);
  EXPECT_EQ(select_variant(gen::small_world({.n = 2000, .k = 10,
                                             .rewire_p = 0.1, .seed = 3})),
            Variant::kScCsc);
}

// ---------------------------------------------------------- timing sanity

TEST(TurboBcTiming, DeviceSecondsArePositiveAndDeterministic) {
  const auto el = gen::mycielski(8);
  double t1, t2;
  {
    sim::Device dev;
    TurboBC turbo(dev, el, {.variant = Variant::kVeCsc});
    t1 = turbo.run_single_source(0).device_seconds;
  }
  {
    sim::Device dev;
    TurboBC turbo(dev, el, {.variant = Variant::kVeCsc});
    t2 = turbo.run_single_source(0).device_seconds;
  }
  EXPECT_GT(t1, 0.0);
  EXPECT_DOUBLE_EQ(t1, t2);
}

TEST(TurboBcTiming, DeeperGraphsPayMoreLaunchOverhead) {
  // Same vertex/arc counts, different depth: the deep chain needs ~n levels.
  EdgeList chain(512, true);
  for (vidx_t i = 0; i + 1 < 512; ++i) chain.add_edge(i, i + 1);
  chain.symmetrize();
  const auto shallow = gen::mycielski(9);  // depth 3, far more edges

  sim::Device d1;
  TurboBC t1(d1, chain, {.variant = Variant::kScCsc});
  const double chain_time = t1.run_single_source(0).device_seconds;

  sim::Device d2;
  TurboBC t2(d2, shallow, {.variant = Variant::kScCsc});
  const double myc_time = t2.run_single_source(0).device_seconds;

  EXPECT_GT(chain_time, myc_time);
}

}  // namespace
}  // namespace turbobc::bc
