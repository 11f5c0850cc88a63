// MS-BFS pinning suite: the packed-mask batched engine must be BIT-identical
// to the per-source TurboBC pipeline (kScCSC, the variant whose column fold
// order the batched SpMM kernels reproduce) on every generator family, in
// every advance mode, over both the plain and the compressed column storage,
// and through the distributed partitioned exchange.
//
// These are equality tests, not tolerance tests — the fixed fold order is the
// contract that lets the oracle's msbfs_agreement invariant compare doubles
// with ==.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "core/turbobc.hpp"
#include "core/turbobc_batched.hpp"
#include "dist/dist_turbobc.hpp"
#include "gpusim/topology.hpp"
#include "qa/fuzz_case.hpp"

namespace turbobc::bc {
namespace {

void expect_bits_equal(const std::vector<bc_t>& got,
                       const std::vector<bc_t>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Exact: the MS-BFS fold skips only exact-zero terms, so every surviving
    // float add happens in the per-source engine's order.
    ASSERT_EQ(got[i], want[i]) << what << " vertex " << i;
  }
}

/// Up to `want` sources spread across [0, n) — same shape the QA oracle uses.
std::vector<vidx_t> spread_sources(vidx_t n, vidx_t want) {
  const vidx_t count = std::min(n, want);
  std::vector<vidx_t> sources;
  sources.reserve(static_cast<std::size_t>(count));
  for (vidx_t i = 0; i < count; ++i) {
    sources.push_back(static_cast<vidx_t>(
        (static_cast<std::uint64_t>(i) * n) / count));
  }
  return sources;
}

class MsBfsFamilies : public ::testing::TestWithParam<qa::Family> {};

TEST_P(MsBfsFamilies, PackedMasksMatchPerSourceBitwise) {
  qa::FuzzCase c;
  c.family = GetParam();
  c.seed = 7;
  c.size_class = 1;
  const auto el = qa::build_graph(c);
  if (el.num_vertices() == 0) GTEST_SKIP() << "degenerate family draw";
  const auto sources = spread_sources(el.num_vertices(), 64);

  sim::Device d_ref;
  TurboBC plain(d_ref, el, {.variant = Variant::kScCsc});
  const auto ref = plain.run_sources(sources);

  for (const bool compress : {false, true}) {
    for (const Advance adv :
         {Advance::kPush, Advance::kPull, Advance::kAuto}) {
      sim::Device dev;
      TurboBCBatched batched(
          dev, el,
          {.batch_size = 64, .advance = adv, .compress = compress});
      const auto got = batched.run_sources(sources);
      expect_bits_equal(got.bc, ref.bc,
                        std::string("family ") +
                            std::string(qa::to_string(GetParam())) +
                            " advance " + std::string(to_string(adv)) +
                            (compress ? " compressed" : ""));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, MsBfsFamilies,
    ::testing::ValuesIn(qa::kGeneratorFamilies),
    [](const auto& info) { return std::string(qa::to_string(info.param)); });

TEST(MsBfsDist, PartitionedMaskExchangeMatchesSingleDevice) {
  for (const qa::Family family :
       {qa::Family::kKronecker, qa::Family::kLocalDigraph, qa::Family::kGrid}) {
    qa::FuzzCase c;
    c.family = family;
    c.seed = 11;
    c.size_class = 1;
    const auto el = qa::build_graph(c);
    const auto sources = spread_sources(el.num_vertices(), 24);

    sim::Device dev;
    TurboBCBatched single(dev, el, {.batch_size = 8});
    const auto want = single.run_sources(sources);

    sim::Topology topo(sim::TopologyProps::quad_titan_xp());
    dist::DistTurboBC engine(topo, el,
                             {.strategy = dist::Strategy::kPartition,
                              .batch_size = 8});
    const auto got = engine.run_sources(sources);
    EXPECT_EQ(got.strategy_used, dist::Strategy::kPartition);
    EXPECT_GT(got.comm_bytes, 0u);
    expect_bits_equal(got.bc, want.bc,
                      std::string("dist family ") +
                          std::string(qa::to_string(family)));
  }
}

TEST(MsBfsDist, RejectsNonPushAdvance) {
  qa::FuzzCase c;
  c.family = qa::Family::kGrid;
  c.seed = 3;
  const auto el = qa::build_graph(c);
  sim::Topology topo(sim::TopologyProps::quad_titan_xp());
  EXPECT_THROW(dist::DistTurboBC(topo, el,
                                 {.strategy = dist::Strategy::kPartition,
                                  .advance = Advance::kPull,
                                  .batch_size = 8}),
               InvalidArgument);
}

}  // namespace
}  // namespace turbobc::bc
