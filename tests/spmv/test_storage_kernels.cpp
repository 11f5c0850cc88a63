// Storage equivalence of the thread-per-column kernel family: every kernel
// templated on the column storage must produce BITWISE-identical outputs
// over DeviceCsc and over the delta-varint DeviceCompressedCsc of the same
// graph (the cursor yields the same rows in the same k order, so the fold
// is the same), and each instantiation must keep its own launch name —
// traces and the top-kernel rows of the benches key on those names.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "generators/kronecker.hpp"
#include "graph/csc.hpp"
#include "qa/fuzz_case.hpp"
#include "spmv/spmv_kernels.hpp"
#include "storage/compressed_csc.hpp"
#include "storage/device_ccsc.hpp"

namespace turbobc::spmv {
namespace {

constexpr std::size_t kLanes = 5;  // MS-BFS / batched dependency width

/// Every output of one run, as raw bit patterns (doubles bit-cast), plus
/// the launch name of each kernel in call order.
struct KernelRun {
  std::vector<std::vector<std::uint64_t>> outputs;
  std::vector<std::string> names;
};

template <typename T>
std::vector<std::uint64_t> bits(const std::vector<T>& v) {
  std::vector<std::uint64_t> out;
  out.reserve(v.size());
  for (const T x : v) {
    if constexpr (std::is_floating_point_v<T>) {
      out.push_back(std::bit_cast<std::uint64_t>(static_cast<double>(x)));
    } else {
      out.push_back(static_cast<std::uint64_t>(x));
    }
  }
  return out;
}

/// Host-built n/32 frontier bitmap: bit v iff nonzero(v).
template <typename Pred>
std::vector<std::uint32_t> host_bitmap(std::size_t n, Pred nonzero) {
  std::vector<std::uint32_t> words((n + 31) / 32, 0u);
  for (std::size_t v = 0; v < n; ++v) {
    if (nonzero(v)) words[v / 32] |= 1u << (v % 32);
  }
  return words;
}

/// Run every storage-templated kernel once over `g` on fixed inputs.
template <typename G>
KernelRun run_family(sim::Device& dev, const G& g, std::size_t n) {
  KernelRun run;
  const auto note = [&] {
    run.names.emplace_back(dev.launches().back().kernel);
  };

  // Forward push / pull over integer frontier values with a sigma mask.
  std::vector<sigma_t> x(n), mask(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = (i % 3 == 0) ? static_cast<sigma_t>(1 + i % 7) : 0;
    mask[i] = (i % 5 == 1) ? 1 : 0;
  }
  const auto fbits = host_bitmap(n, [&](std::size_t v) { return x[v] != 0; });
  sim::DeviceBuffer<sigma_t> xd(dev, n, "x"), sd(dev, n, "sigma");
  sim::DeviceBuffer<std::uint32_t> bm(dev, fbits.size(), "bitmap");
  xd.copy_from_host(x);
  sd.copy_from_host(mask);
  bm.copy_from_host(fbits);
  {
    sim::DeviceBuffer<sigma_t> y(dev, n, "y");
    y.device_fill(0);
    spmv_forward_sccsc(dev, g, xd, y, sd);
    note();
    run.outputs.push_back(bits(y.host()));
  }
  {
    sim::DeviceBuffer<sigma_t> y(dev, n, "y");
    y.device_fill(0);
    spmv_forward_pull_sccsc(dev, g, xd, bm, y, sd);
    note();
    run.outputs.push_back(bits(y.host()));
  }

  // Backward gather / pull / scatter over non-negative dependency values.
  std::vector<bc_t> du(n);
  for (std::size_t i = 0; i < n; ++i) {
    du[i] = (i % 4 == 0) ? 1.0 / static_cast<bc_t>(3 + i) : 0.0;
  }
  const auto dbits = host_bitmap(n, [&](std::size_t v) { return du[v] != 0; });
  sim::DeviceBuffer<bc_t> dud(dev, n, "delta_u");
  sim::DeviceBuffer<std::uint32_t> dbm(dev, dbits.size(), "bitmap");
  dud.copy_from_host(du);
  dbm.copy_from_host(dbits);
  {
    sim::DeviceBuffer<bc_t> y(dev, n, "delta_ut");
    y.device_fill(0.0);
    spmv_backward_gather_sccsc(dev, g, dud, y);
    note();
    run.outputs.push_back(bits(y.host()));
  }
  {
    sim::DeviceBuffer<bc_t> y(dev, n, "delta_ut");
    y.device_fill(0.0);
    spmv_backward_pull_sccsc(dev, g, dud, dbm, y);
    note();
    run.outputs.push_back(bits(y.host()));
  }
  {
    sim::DeviceBuffer<bc_t> y(dev, n, "delta_ut");
    y.device_fill(0.0);
    spmv_backward_scatter_sccsc(dev, g, dud, y);
    note();
    run.outputs.push_back(bits(y.host()));
  }

  // MS-BFS push / pull: kLanes lanes, a scattered frontier, some columns
  // partly visited, frontier values in the sigma matrix.
  const std::uint64_t full = (1ull << kLanes) - 1;
  std::vector<std::uint64_t> F(n, 0), V(n, 0);
  std::vector<sigma_t> sig(n * kLanes, 0);
  for (std::size_t v = 0; v < n; ++v) {
    if (v % 3 == 0) F[v] = (v * 0x9E3779B97F4A7C15ull >> 40) & full;
    V[v] = F[v] | ((v % 7 == 0) ? 0x3u : 0u);
    for (std::size_t j = 0; j < kLanes; ++j) {
      if ((F[v] >> j) & 1u) {
        sig[v * kLanes + j] = static_cast<sigma_t>(1 + v % 4);
      }
    }
  }
  const auto mbits = host_bitmap(n, [&](std::size_t v) { return F[v] != 0; });
  sim::DeviceBuffer<std::uint64_t> Fd(dev, n, "F.mask", 8);
  sim::DeviceBuffer<std::uint32_t> mbm(dev, mbits.size(), "bitmap");
  Fd.copy_from_host(F);
  mbm.copy_from_host(mbits);
  for (const bool pull : {false, true}) {
    sim::DeviceBuffer<std::uint64_t> Vd(dev, n, "V.mask", 8);
    sim::DeviceBuffer<std::uint64_t> Fn(dev, n, "Fn.mask", 8);
    sim::DeviceBuffer<sigma_t> sg(dev, n * kLanes, "sigma.k");
    sim::DeviceBuffer<std::int32_t> S(dev, n * kLanes, "S.k");
    sim::DeviceBuffer<std::int32_t> cflags(dev, kLanes + 2, "c.k");
    Vd.copy_from_host(V);
    Fn.device_fill(0);
    sg.copy_from_host(sig);
    S.device_fill(0);
    cflags.device_fill(0);
    if (pull) {
      spmm_forward_msbfs_pull_sccsc(dev, g, static_cast<int>(kLanes), full, 3,
                                    Fd, mbm, Vd, Fn, sg, S, cflags, true);
    } else {
      spmm_forward_msbfs_sccsc(dev, g, static_cast<int>(kLanes), full, 3, Fd,
                               sg, Vd, Fn, sg, S, cflags, true);
    }
    note();
    run.outputs.push_back(bits(Vd.host()));
    run.outputs.push_back(bits(Fn.host()));
    run.outputs.push_back(bits(sg.host()));
    run.outputs.push_back(bits(S.host()));
    run.outputs.push_back(bits(cflags.host()));
  }

  // Batched dependency gather / scatter over kLanes interleaved columns.
  std::vector<bc_t> duk(n * kLanes);
  for (std::size_t s = 0; s < duk.size(); ++s) {
    duk[s] = (s % 3 == 1) ? 0.5 / static_cast<bc_t>(1 + s % 11) : 0.0;
  }
  sim::DeviceBuffer<bc_t> dukd(dev, n * kLanes, "delta_u.k");
  dukd.copy_from_host(duk);
  for (const bool scatter : {false, true}) {
    sim::DeviceBuffer<bc_t> y(dev, n * kLanes, "delta_ut.k");
    y.device_fill(0.0);
    if (scatter) {
      dep_spmm_sccsc_scatter(dev, g, kLanes, dukd, y);
    } else {
      dep_spmm_sccsc(dev, g, kLanes, dukd, y);
    }
    note();
    run.outputs.push_back(bits(y.host()));
  }
  return run;
}

/// Three generator families: a skewed Kronecker graph large enough that its
/// sparse hub-tail columns are stored raw (both cursor branches run), an
/// undirected grid, and a directed local digraph.
graph::EdgeList family_graph(const std::string& name) {
  graph::EdgeList el =
      name == "kronecker"
          ? gen::kronecker({.scale = 11, .edge_factor = 4, .seed = 5})
          : qa::build_graph({.family = name == "grid"
                                           ? qa::Family::kGrid
                                           : qa::Family::kLocalDigraph,
                             .seed = 5,
                             .size_class = 2});
  el.canonicalize();
  return el;
}

class StorageKernels : public ::testing::TestWithParam<std::string> {};

TEST_P(StorageKernels, CompressedMatchesPlainBitwiseWithOwnNames) {
  const graph::EdgeList el = family_graph(GetParam());
  ASSERT_GT(el.num_vertices(), 0);
  const auto n = static_cast<std::size_t>(el.num_vertices());
  const auto csc = graph::CscGraph::from_edges(el);

  sim::Device plain_dev;
  const DeviceCsc plain(plain_dev, csc);
  const KernelRun want = run_family(plain_dev, plain, n);

  sim::Device comp_dev;
  const storage::DeviceCompressedCsc comp(comp_dev, storage::encode_csc(csc));
  const KernelRun got = run_family(comp_dev, comp, n);

  ASSERT_EQ(got.outputs.size(), want.outputs.size());
  for (std::size_t o = 0; o < want.outputs.size(); ++o) {
    EXPECT_EQ(got.outputs[o], want.outputs[o]) << "output " << o;
  }

  // The launch names of the parent's two kernel files, literally.
  EXPECT_EQ(want.names,
            (std::vector<std::string>{
                "bfs_spmv_sccsc", "bfs_spmv_pull_sccsc", "dep_spmv_sccsc",
                "dep_spmv_pull_sccsc", "dep_spmv_sccsc_scatter",
                "bfs_spmm_msbfs_sccsc", "bfs_spmm_msbfs_pull_sccsc",
                "dep_spmm_sccsc", "dep_spmm_sccsc_scatter"}));
  EXPECT_EQ(got.names,
            (std::vector<std::string>{
                "bfs_spmv_ccsc", "bfs_spmv_pull_ccsc", "dep_spmv_ccsc",
                "dep_spmv_pull_ccsc", "dep_spmv_ccsc_scatter",
                "bfs_spmm_msbfs_ccsc", "bfs_spmm_msbfs_pull_ccsc",
                "dep_spmm_ccsc", "dep_spmm_ccsc_scatter"}));
}

INSTANTIATE_TEST_SUITE_P(ThreeFamilies, StorageKernels,
                         ::testing::Values("kronecker", "grid",
                                           "local_digraph"),
                         [](const auto& info) { return info.param; });

TEST(StorageKernels, KroneckerExercisesRawColumns) {
  // The raw-column branch of the compressed cursor must be covered by the
  // sweep above, not only the varint branch.
  const auto cc = storage::encode_csc(
      graph::CscGraph::from_edges(family_graph("kronecker")));
  bool any_raw = false;
  for (vidx_t v = 0; v < cc.n; ++v) any_raw = any_raw || cc.raw_column(v);
  EXPECT_TRUE(any_raw);
}

}  // namespace
}  // namespace turbobc::spmv
