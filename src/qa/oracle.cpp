#include "qa/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "approx/driver.hpp"
#include "baselines/bc_la_seq.hpp"
#include "baselines/brandes.hpp"
#include "baselines/gunrock_like.hpp"
#include "baselines/ligra_like.hpp"
#include "common/error.hpp"
#include "core/footprint.hpp"
#include "core/turbobc.hpp"
#include "core/turbobc_batched.hpp"
#include "core/turbobfs.hpp"
#include "daemon/client.hpp"
#include "daemon/server.hpp"
#include "dist/dist_turbobc.hpp"
#include "dist/partition.hpp"
#include "gpusim/device.hpp"
#include "gpusim/executor.hpp"
#include "common/prng.hpp"
#include "graph/bfs_probe.hpp"
#include "graph/components.hpp"
#include "graph/csc.hpp"
#include "graph/mtx_io.hpp"
#include "hybrid/hybrid_bc.hpp"
#include "serve/protocol.hpp"
#include "serve/serve_engine.hpp"
#include "serve/session.hpp"
#include "storage/compressed_csc.hpp"
#include "storage/streaming_bc.hpp"

namespace turbobc::qa {

namespace {

using graph::EdgeList;

/// Shortest-path counts are integers, and every implementation accumulates
/// them in double — so they must agree EXACTLY while they fit a double's
/// 53-bit mantissa. Beyond 2^53 (deep lattices reach sigma ~ 1e17) exact
/// integer arithmetic is impossible and correct implementations summing in
/// different orders drift by ulps; there a tight relative tolerance is the
/// strongest checkable contract.
bool sigma_matches(sigma_t actual, sigma_t expected) {
  if (actual == expected) return true;
  constexpr double kExactLimit = 9007199254740992.0;  // 2^53
  if (std::abs(actual) <= kExactLimit && std::abs(expected) <= kExactLimit) {
    return false;
  }
  const double err = std::abs(actual - expected) /
                     std::max(std::abs(actual), std::abs(expected));
  return err <= 1e-9;
}

/// RAII save/restore of the process-wide pool width: the determinism check
/// flips it, and the oracle must leave the caller's configuration intact.
struct PoolWidthGuard {
  unsigned saved = sim::ExecutorPool::instance().threads();
  ~PoolWidthGuard() { sim::ExecutorPool::instance().set_threads(saved); }
};

struct Checker {
  const EdgeList& graph;     // raw input (implementations canonicalize)
  const EdgeList& canon;     // canonical form (reference structure)
  const OracleOptions& opt;
  OracleReport& report;

  void fail(const std::string& invariant, const std::string& detail) {
    report.violations.push_back({invariant, detail});
  }

  /// Relative comparison of a BC-like vector against the Brandes values.
  void compare_bc(const std::string& impl, const std::vector<bc_t>& expected,
                  const std::vector<bc_t>& actual) {
    if (expected.size() != actual.size()) {
      std::ostringstream os;
      os << impl << ": size " << actual.size() << " vs reference "
         << expected.size();
      fail("bc_agreement", os.str());
      return;
    }
    for (std::size_t v = 0; v < expected.size(); ++v) {
      const double err = std::abs(actual[v] - expected[v]) /
                         std::max(1.0, std::abs(expected[v]));
      if (!(err <= opt.tolerance)) {  // negated: catches NaN too
        std::ostringstream os;
        os << impl << ": bc[" << v << "] = " << actual[v] << " vs reference "
           << expected[v] << " (rel err " << err << ")";
        fail("bc_agreement", os.str());
        return;  // one sample per implementation is enough to key on
      }
    }
  }

  /// Bitwise comparison; records the first differing vertex under
  /// `invariant`.
  void compare_bits(const std::string& invariant, const std::string& what,
                    const std::vector<bc_t>& got,
                    const std::vector<bc_t>& want) {
    if (got.size() != want.size()) {
      fail(invariant, what + ": size " + std::to_string(got.size()) +
                          " vs " + std::to_string(want.size()));
      return;
    }
    for (std::size_t v = 0; v < got.size(); ++v) {
      if (got[v] != want[v]) {
        std::ostringstream os;
        os << what << ": bc[" << v << "] = " << got[v] << " vs " << want[v];
        fail(invariant, os.str());
        return;
      }
    }
  }

  /// The MS-BFS lanes — up to 16 sources spread over [0, n): enough to
  /// exercise a partial final mask word while a fuzz case stays cheap; <= 64
  /// keeps the per-source engine's fold in singleton blocks, the scope of
  /// the bit-identity contract — and their per-source scCSC BC (the layout
  /// the lane kernels hard-code), the bitwise reference of msbfs_agreement
  /// and of dist_bc_agreement's lane cell. Built once per case.
  struct LaneReference {
    std::vector<vidx_t> sources;
    std::vector<bc_t> bc;
  };
  std::optional<LaneReference> lane_ref;

  const LaneReference& lane_reference() {
    if (!lane_ref) {
      const vidx_t n = canon.num_vertices();
      const auto want = static_cast<vidx_t>(std::min<std::int64_t>(16, n));
      LaneReference r;
      for (vidx_t i = 0; i < want; ++i) {
        r.sources.push_back(static_cast<vidx_t>(
            static_cast<std::uint64_t>(i) * n / want));
      }
      sim::Device dev;
      dev.set_keep_launch_records(false);
      bc::TurboBC algo(dev, graph, {.variant = bc::Variant::kScCsc});
      r.bc = algo.run_sources(r.sources).bc;
      lane_ref = std::move(r);
    }
    return *lane_ref;
  }

  /// Deterministic spread of up to max_sources sources over [0, n).
  std::vector<vidx_t> pick_sources() const {
    const vidx_t n = canon.num_vertices();
    const auto want = static_cast<vidx_t>(
        std::min<std::int64_t>(opt.max_sources, n));
    std::vector<vidx_t> sources;
    for (vidx_t i = 0; i < want; ++i) {
      sources.push_back(static_cast<vidx_t>(
          static_cast<std::uint64_t>(i) * n / want));
    }
    return sources;
  }

  // ------------------------------------------------------------ invariants

  void check_mtx_roundtrip() {
    std::ostringstream out;
    graph::write_matrix_market(out, canon);
    std::istringstream in(out.str());
    EdgeList back = graph::read_matrix_market(in);
    back.canonicalize();
    if (back.num_vertices() != canon.num_vertices() ||
        back.directed() != canon.directed() ||
        !(back.edges() == canon.edges())) {
      std::ostringstream os;
      os << "write+reread changed the graph: n " << canon.num_vertices()
         << " -> " << back.num_vertices() << ", m " << canon.num_arcs()
         << " -> " << back.num_arcs();
      fail("mtx_roundtrip", os.str());
    }
  }

  void check_bfs_and_sigma(const graph::CscGraph& csc, vidx_t source,
                           const graph::BfsResult& ref,
                           const std::vector<sigma_t>& ref_sigma) {
    // Brandes' sigma counts must match the reference BFS reachability.
    for (std::size_t v = 0; v < ref_sigma.size(); ++v) {
      const bool reachable = ref.depth[v] >= 0;
      if (reachable != (ref_sigma[v] != 0)) {
        std::ostringstream os;
        os << "source " << source << ": vertex " << v << " depth "
           << ref.depth[v] << " but sigma " << ref_sigma[v];
        fail("sigma_agreement", os.str());
        break;
      }
    }

    // TurboBFS on the simulated device, every variant.
    for (const bc::Variant variant :
         {bc::Variant::kScCsc, bc::Variant::kScCooc, bc::Variant::kVeCsc}) {
      sim::Device dev;
      dev.set_keep_launch_records(false);
      bc::TurboBfs bfs(dev, graph, variant);
      const auto r = bfs.run(source);
      if (r.height != ref.height || r.reached != ref.reached ||
          !(r.depth == ref.depth)) {
        std::ostringstream os;
        os << "TurboBFS " << bc::to_string(variant) << " source " << source
           << ": height " << r.height << "/" << ref.height << ", reached "
           << r.reached << "/" << ref.reached;
        fail("bfs_agreement", os.str());
      }
      for (std::size_t v = 0; v < ref_sigma.size(); ++v) {
        if (!sigma_matches(r.sigma[v], ref_sigma[v])) {
          std::ostringstream os;
          os << "TurboBFS " << bc::to_string(variant) << " source " << source
             << ": sigma[" << v << "] = " << r.sigma[v] << " vs Brandes "
             << ref_sigma[v];
          fail("sigma_agreement", os.str());
          break;
        }
      }
    }
    (void)csc;
  }

  void check_dependency_conservation(vidx_t source,
                                     const graph::BfsResult& ref,
                                     const std::vector<bc_t>& delta) {
    // Brandes pair dependencies telescoped over interior vertices: the sum
    // of delta_s over all v equals sum over reachable t != s of
    // (depth(t) - 1), because a random shortest s->t path has depth(t) - 1
    // interior vertices. Halving (undirected) is undone first.
    double lhs = 0.0;
    for (const bc_t d : delta) lhs += d;
    if (!canon.directed()) lhs *= 2.0;
    double rhs = 0.0;
    for (std::size_t v = 0; v < ref.depth.size(); ++v) {
      if (static_cast<vidx_t>(v) != source && ref.depth[v] > 0) {
        rhs += static_cast<double>(ref.depth[v] - 1);
      }
    }
    const double err = std::abs(lhs - rhs) / std::max(1.0, rhs);
    if (!(err <= 1e-9)) {
      std::ostringstream os;
      os << "source " << source << ": sum(delta) = " << lhs
         << " but sum(depth - 1) over reachable targets = " << rhs;
      fail("dependency_conservation", os.str());
    }
  }

  /// One TurboBC single-source run with full ledger checks; returns the BC
  /// vector (empty if construction legitimately failed).
  std::vector<bc_t> run_turbobc_checked(bc::Variant variant, vidx_t source,
                                        bool edge_bc,
                                        std::vector<bc_t>* edge_out) {
    sim::Device dev;
    dev.set_keep_launch_records(false);
    const sim::LedgerSnapshot before = dev.memory().snapshot();
    std::vector<bc_t> bc;
    {
      bc::TurboBC algo(dev, graph, {.variant = variant, .edge_bc = edge_bc});
      auto r = algo.run_single_source(source);
      bc = std::move(r.bc);
      if (edge_out != nullptr) *edge_out = std::move(r.edge_bc);

      const std::size_t expected = expected_turbobc_peak_bytes(
          variant, canon.num_vertices(), canon.num_arcs(), edge_bc);
      if (r.peak_device_bytes != expected) {
        std::ostringstream os;
        os << bc::to_string(variant) << " source " << source
           << ": simulated peak " << r.peak_device_bytes
           << " B != analytic inventory " << expected << " B (n = "
           << canon.num_vertices() << ", m = " << canon.num_arcs() << ")";
        fail("footprint_ledger", os.str());
      }
    }
    // Everything the run allocated must have been freed, and the ledger's
    // alloc/free counters must balance.
    const sim::LedgerSnapshot after = dev.memory().snapshot();
    if (after.live_bytes != 0) {
      std::ostringstream os;
      os << bc::to_string(variant) << ": " << after.live_bytes
         << " B still live after destruction";
      fail("alloc_free_ledger", os.str());
    }
    if (after.alloc_count - before.alloc_count !=
        after.free_count - before.free_count) {
      std::ostringstream os;
      os << bc::to_string(variant) << ": "
         << (after.alloc_count - before.alloc_count) << " allocs vs "
         << (after.free_count - before.free_count) << " frees";
      fail("alloc_free_ledger", os.str());
    }
    return bc;
  }

  void check_single_source(vidx_t source, bool all_variants) {
    const auto ref_delta = baseline::brandes_delta(canon, source);

    // TurboBC: all variants on the primary source, the heuristic's pick on
    // the rest (keeps the per-case budget flat while every variant still
    // sees every graph family over the fuzz run).
    std::vector<bc::Variant> variants;
    if (all_variants) {
      variants = {bc::Variant::kScCsc, bc::Variant::kScCooc,
                  bc::Variant::kVeCsc};
    } else {
      variants = {bc::select_variant(canon)};
    }
    for (const bc::Variant variant : variants) {
      const auto bc_vec = run_turbobc_checked(variant, source,
                                              /*edge_bc=*/false, nullptr);
      compare_bc(std::string("TurboBC-") + std::string(bc::to_string(variant)),
                 ref_delta, bc_vec);
    }

    // Host baselines.
    compare_bc("bc_la_seq",
               ref_delta,
               baseline::SequentialBcLa(canon).run_single_source(source).bc);
    compare_bc("ligra_like",
               ref_delta,
               baseline::LigraLikeBc(canon).run_single_source(source).bc);
    {
      sim::Device dev;
      dev.set_keep_launch_records(false);
      baseline::GunrockLikeBc gunrock(dev, graph);
      compare_bc("gunrock_like", ref_delta,
                 gunrock.run_single_source(source).bc);
      const std::size_t expected = expected_gunrock_inventory_bytes(
          canon.num_vertices(), canon.num_arcs());
      if (gunrock.inventory_bytes() != expected ||
          gunrock.inventory_bytes() <
              bc::gunrock_model_bytes(canon.num_vertices(),
                                      canon.num_arcs())) {
        std::ostringstream os;
        os << "inventory " << gunrock.inventory_bytes()
           << " B vs analytic " << expected << " B (paper floor "
           << bc::gunrock_model_bytes(canon.num_vertices(), canon.num_arcs())
           << " B)";
        fail("gunrock_inventory", os.str());
      }
    }

    check_dependency_conservation(
        source, graph::bfs_reference(graph::CscGraph::from_edges(canon),
                                     source),
        ref_delta);
  }

  void check_edge_bc(vidx_t source) {
    const auto ref = baseline::brandes_edge_delta(canon, source);
    std::vector<bc_t> edge_vec;
    const auto bc_vec =
        run_turbobc_checked(bc::select_variant(canon), source,
                            /*edge_bc=*/true, &edge_vec);
    (void)bc_vec;
    if (edge_vec.size() != ref.size()) {
      std::ostringstream os;
      os << "edge vector size " << edge_vec.size() << " vs " << ref.size();
      fail("edge_bc_agreement", os.str());
      return;
    }
    for (std::size_t a = 0; a < ref.size(); ++a) {
      const double err = std::abs(edge_vec[a] - ref[a]) /
                         std::max(1.0, std::abs(ref[a]));
      if (!(err <= opt.tolerance)) {
        std::ostringstream os;
        os << "source " << source << ": edge_bc[" << a << "] = "
           << edge_vec[a] << " vs Brandes " << ref[a];
        fail("edge_bc_agreement", os.str());
        return;
      }
    }
  }

  void check_exact() {
    const auto ref = baseline::brandes_bc(canon);
    {
      sim::Device dev;
      dev.set_keep_launch_records(false);
      bc::TurboBC algo(dev, graph, {.variant = bc::select_variant(canon)});
      compare_bc("TurboBC-exact", ref, algo.run_exact().bc);
    }
    {
      sim::Device dev;
      dev.set_keep_launch_records(false);
      const auto batch = static_cast<vidx_t>(
          std::clamp<vidx_t>(canon.num_vertices() / 4, 1, 8));
      bc::TurboBCBatched batched(dev, graph, {.batch_size = batch});
      compare_bc("TurboBC-batched", ref, batched.run_exact().bc);
    }
  }

  void check_thread_determinism() {
    const auto sources = pick_sources();
    struct Run {
      std::vector<bc_t> bc;
      double seconds = 0.0;
      std::size_t peak = 0;
      std::map<std::string, sim::KernelAggregate, std::less<>> aggregates;
    };
    const auto run_at = [&](unsigned width) {
      sim::ExecutorPool::instance().set_threads(width);
      sim::Device dev;
      dev.set_keep_launch_records(false);
      bc::TurboBC algo(dev, graph, {.variant = bc::select_variant(canon)});
      auto r = algo.run_sources(sources);
      Run out;
      out.bc = std::move(r.bc);
      out.seconds = r.device_seconds;
      out.peak = r.peak_device_bytes;
      out.aggregates = dev.kernel_aggregates();
      return out;
    };
    PoolWidthGuard guard;
    const Run serial = run_at(1);
    const Run parallel = run_at(opt.det_threads);

    const auto mismatch = [&](const std::string& what) {
      fail("thread_determinism",
           "threads=1 vs threads=" + std::to_string(opt.det_threads) +
               " differ in " + what);
    };
    if (serial.bc != parallel.bc) {
      mismatch("BC vector");
      return;
    }
    if (serial.seconds != parallel.seconds) {
      mismatch("modeled seconds");
    }
    if (serial.peak != parallel.peak) {
      mismatch("peak device bytes");
    }
    if (serial.aggregates.size() != parallel.aggregates.size()) {
      mismatch("kernel aggregate set");
      return;
    }
    auto ita = serial.aggregates.begin();
    auto itb = parallel.aggregates.begin();
    for (; ita != serial.aggregates.end(); ++ita, ++itb) {
      const auto& a = ita->second;
      const auto& b = itb->second;
      if (ita->first != itb->first || a.launches != b.launches ||
          a.load_transactions != b.load_transactions ||
          a.store_transactions != b.store_transactions ||
          a.l2_hit_transactions != b.l2_hit_transactions ||
          a.dram_transactions != b.dram_transactions ||
          a.word_ops != b.word_ops || a.time_s != b.time_s) {
        mismatch("kernel aggregate " + ita->first);
        return;
      }
    }
  }

  /// Run the adaptive approx driver at a fixed small budget and return the
  /// full result (the budget keeps a fuzz case cheap; the confidence
  /// intervals it reports are valid at any stopping point). `comps` feeds
  /// the component sampler's cached map so the oracle's three runs on the
  /// same graph share one label sweep.
  approx::ApproxResult run_approx(approx::Engine engine, unsigned width,
                                  const graph::Components* comps) {
    PoolWidthGuard guard;
    sim::ExecutorPool::instance().set_threads(width);
    sim::Device dev;
    dev.set_keep_launch_records(false);
    approx::ApproxOptions aopt;
    aopt.epsilon = 0.05;
    aopt.delta = 0.1;
    aopt.seed = 42;
    // Rotate the sampler by graph size so the whole corpus exercises all
    // three draw distributions while each case stays deterministic.
    const auto n = canon.num_vertices();
    aopt.sampler = n % 3 == 0   ? approx::SamplerKind::kUniform
                   : n % 3 == 1 ? approx::SamplerKind::kDegree
                                : approx::SamplerKind::kComponent;
    aopt.engine = engine;
    aopt.variant = bc::select_variant(canon);
    aopt.max_sources = std::min<vidx_t>(opt.approx_budget, n);
    aopt.components = comps;
    return approx::run_adaptive(dev, canon, aopt);
  }

  void check_approx() {
    // One component sweep shared by every run below (only the kComponent
    // rotation slot actually reads it).
    std::optional<graph::Components> comps;
    if (canon.num_vertices() % 3 == 2) {
      comps.emplace(graph::weakly_connected_components(canon));
    }
    const graph::Components* comps_ptr = comps ? &*comps : nullptr;
    const approx::ApproxResult r =
        run_approx(approx::Engine::kScalar, 1, comps_ptr);
    const vidx_t n = canon.num_vertices();

    // Coverage: with probability >= 1 - delta ALL exact values lie inside
    // the reported intervals; the bounds are conservative enough (union
    // bound + delta schedule) that a genuine miss at fuzz sizes signals a
    // math bug, not bad luck.
    const auto exact = baseline::brandes_bc(canon);
    for (std::size_t v = 0; v < exact.size(); ++v) {
      const double err = std::abs(exact[v] - r.bc[v]);
      const double slack = r.half_width[v] + 1e-9 * r.norm;
      if (!(err <= slack)) {  // negated: catches NaN too
        std::ostringstream os;
        os << "vertex " << v << ": exact " << exact[v] << " outside "
           << r.bc[v] << " +/- " << r.half_width[v] << " (" << r.sources_used
           << " pivots)";
        fail("approx_coverage", os.str());
        break;
      }
    }

    // Accounting: totals must be the exact fold of the per-wave stats, and
    // the scalar engine's peak must equal the 9n + m inventory.
    double wave_seconds = 0.0;
    std::size_t wave_peak = 0;
    vidx_t wave_sources = 0;
    for (const approx::WaveStats& w : r.waves) {
      wave_seconds += w.device_seconds;
      wave_peak = std::max(wave_peak, w.peak_device_bytes);
      wave_sources += w.sources;
    }
    if (r.device_seconds != wave_seconds || r.peak_device_bytes != wave_peak ||
        r.sources_used != wave_sources) {
      std::ostringstream os;
      os << "totals (" << r.device_seconds << " s, " << r.peak_device_bytes
         << " B, " << r.sources_used << " pivots) != wave fold ("
         << wave_seconds << " s, " << wave_peak << " B, " << wave_sources
         << " pivots)";
      fail("approx_accounting", os.str());
    }
    const std::size_t expected = expected_approx_peak_bytes(
        bc::select_variant(canon), n, canon.num_arcs());
    if (r.peak_device_bytes != expected) {
      std::ostringstream os;
      os << "simulated peak " << r.peak_device_bytes
         << " B != analytic 9n+m inventory " << expected << " B (n = " << n
         << ", m = " << canon.num_arcs() << ")";
      fail("approx_accounting", os.str());
    }

    // Engine agreement: the batched SpMM engine sees the SAME pivot
    // sequence (same seed) so its estimates must match the scalar engine's
    // up to float-order effects.
    if (n > 1) {
      const approx::ApproxResult rb =
          run_approx(approx::Engine::kBatched, 1, comps_ptr);
      if (rb.sources_used != r.sources_used) {
        std::ostringstream os;
        os << "batched engine ran " << rb.sources_used << " pivots vs scalar "
           << r.sources_used;
        fail("approx_engine_agreement", os.str());
      } else {
        for (std::size_t v = 0; v < r.bc.size(); ++v) {
          const double err = std::abs(rb.bc[v] - r.bc[v]) /
                             std::max(1.0, std::abs(r.bc[v]));
          if (!(err <= opt.tolerance)) {
            std::ostringstream os;
            os << "vertex " << v << ": batched " << rb.bc[v] << " vs scalar "
               << r.bc[v] << " (rel err " << err << ")";
            fail("approx_engine_agreement", os.str());
            break;
          }
        }
      }
    }

    // Determinism: the whole result object must be bit-identical across
    // pool widths (PR 1's standard extended to the approx stack).
    if (opt.check_determinism && n > 1) {
      const approx::ApproxResult rp =
          run_approx(approx::Engine::kScalar, opt.det_threads, comps_ptr);
      const auto mismatch = [&](const std::string& what) {
        fail("approx_determinism",
             "threads=1 vs threads=" + std::to_string(opt.det_threads) +
                 " differ in " + what);
      };
      if (rp.bc != r.bc) mismatch("estimates");
      if (rp.half_width != r.half_width) mismatch("half-widths");
      if (rp.sources_used != r.sources_used || rp.converged != r.converged) {
        mismatch("stopping decision");
      }
      if (rp.device_seconds != r.device_seconds ||
          rp.peak_device_bytes != r.peak_device_bytes) {
        mismatch("modeled totals");
      }
      if (rp.waves.size() != r.waves.size()) {
        mismatch("wave count");
      } else {
        for (std::size_t w = 0; w < r.waves.size(); ++w) {
          if (rp.waves[w].sources != r.waves[w].sources ||
              rp.waves[w].device_seconds != r.waves[w].device_seconds ||
              rp.waves[w].peak_device_bytes != r.waves[w].peak_device_bytes ||
              rp.waves[w].max_half_width != r.waves[w].max_half_width ||
              rp.waves[w].converged != r.waves[w].converged) {
            mismatch("wave " + std::to_string(w) + " stats");
            break;
          }
        }
      }
    }
  }

  /// Distributed engine (src/dist/): one single-source run per strategy on
  /// an opt.dist_devices node, against the single-device engine with the
  /// SAME pinned variant — the replicated strategy shares its block runner
  /// and the partitioned fold replays its atomic order, so the BC vectors
  /// must match bit-for-bit. Also checks each partitioned shard's simulated
  /// peak against the analytic sharded inventory and the interconnect
  /// ledger's byte conservation.
  void check_dist() {
    const vidx_t n = canon.num_vertices();
    const bc::Variant variant = bc::select_variant(canon);
    const vidx_t source = pick_sources().front();

    sim::Device dev;
    bc::TurboBC single(dev, canon, {.variant = variant});
    const bc::BcResult ref = single.run_single_source(source);

    for (const dist::Strategy strategy :
         {dist::Strategy::kReplicate, dist::Strategy::kPartition}) {
      sim::TopologyProps props;
      props.num_devices = opt.dist_devices;
      sim::Topology topo(props);
      dist::DistTurboBC engine(topo, canon,
                               {.strategy = strategy, .variant = variant});
      const dist::DistResult r = engine.run_single_source(source);
      const std::string name = dist::to_string(strategy);

      compare_bits("dist_bc_agreement",
                   name + " vs single-device (source " +
                       std::to_string(source) + ", " +
                       std::to_string(opt.dist_devices) + " devices)",
                   r.bc, ref.bc);

      // Interconnect ledger: logical payloads conserve across the node, and
      // the topology total equals the per-device fold.
      std::uint64_t sent = 0;
      std::uint64_t received = 0;
      for (const dist::ShardInfo& s : r.shards) {
        sent += s.comm_bytes_sent;
        received += s.comm_bytes_received;
      }
      if (sent != received || sent != r.comm_bytes) {
        std::ostringstream os;
        os << name << ": " << sent << " B sent vs " << received
           << " B received (ledger total " << r.comm_bytes << " B)";
        fail("dist_comm_conservation", os.str());
      }

      // Partitioned shard peaks vs the analytic inventory. The simulator
      // pads allocations to 256-byte granules, so each of the ~10 arrays
      // may round up by at most one granule.
      if (strategy == dist::Strategy::kPartition) {
        for (const dist::ShardInfo& s : r.shards) {
          const std::uint64_t model = dist::partitioned_device_bytes(
              s.variant, n, s.col_end - s.col_begin,
              static_cast<std::uint64_t>(s.arcs));
          const std::uint64_t peak = s.peak_bytes;
          if (peak < model || peak > model + 10 * 256) {
            std::ostringstream os;
            os << "device " << s.device << ": simulated peak " << peak
               << " B outside analytic inventory " << model << " B (+2560 B "
               << "granule slack; cols [" << s.col_begin << ", " << s.col_end
               << "), " << s.arcs << " arcs)";
            fail("dist_inventory", os.str());
            break;
          }
        }
      }
    }
  }

  /// dist_bc_agreement's lane cell: the partitioned MS-BFS block (batch
  /// min(8, n) over the msbfs_agreement lanes) under push and under auto,
  /// bitwise against the lanes' per-source scCSC reference.
  void check_dist_lanes() {
    const vidx_t n = canon.num_vertices();
    const LaneReference& ref = lane_reference();
    for (const bc::Advance adv : {bc::Advance::kPush, bc::Advance::kAuto}) {
      sim::TopologyProps props;
      props.num_devices = opt.dist_devices;
      sim::Topology topo(props);
      dist::DistOptions o;
      o.strategy = dist::Strategy::kPartition;
      o.advance = adv;
      o.batch_size = std::min<vidx_t>(8, n);
      dist::DistTurboBC engine(topo, canon, o);
      compare_bits("dist_bc_agreement",
                   std::string("partition batched-") +
                       std::string(bc::to_string(adv)) + " vs per-source (" +
                       std::to_string(ref.sources.size()) + " sources)",
                   engine.run_sources(ref.sources).bc, ref.bc);
    }
  }

  /// Direction-optimizing engine: pull and auto forward sweeps against push.
  /// The contract (spmv_kernels.hpp): levels bit-identical by construction
  /// (the pull fold skips exact zeros only), so depths / sigma / bc are
  /// checked as hard as the rest of the oracle allows; each mode must also
  /// be bit-identical across pool widths, and the DO peak must match its
  /// analytic inventory while staying at 7n + m + ceil(n/32) words — below
  /// gunrock's resident set.
  void check_dobfs() {
    const vidx_t n = canon.num_vertices();
    const eidx_t m = canon.num_arcs();
    const vidx_t source = pick_sources().front();
    const bc::Variant variant = bc::select_variant(canon);

    const auto run_bfs = [&](bc::Advance adv) {
      sim::Device dev;
      dev.set_keep_launch_records(false);
      bc::TurboBfs bfs(dev, graph, variant, adv);
      return bfs.run(source);
    };
    const auto run_bc = [&](bc::Advance adv) {
      sim::Device dev;
      dev.set_keep_launch_records(false);
      bc::TurboBC algo(dev, graph, {.variant = variant, .advance = adv});
      return algo.run_single_source(source);
    };

    const bc::TurboBfsResult push_bfs = run_bfs(bc::Advance::kPush);
    const bc::BcResult push_bc = run_bc(bc::Advance::kPush);

    for (const bc::Advance adv : {bc::Advance::kPull, bc::Advance::kAuto}) {
      const std::string mode(bc::to_string(adv));

      const bc::TurboBfsResult r = run_bfs(adv);
      if (r.depth != push_bfs.depth || r.height != push_bfs.height ||
          r.reached != push_bfs.reached) {
        std::ostringstream os;
        os << mode << " source " << source << ": levels differ from push ("
           << "height " << r.height << "/" << push_bfs.height << ", reached "
           << r.reached << "/" << push_bfs.reached << ")";
        fail("dobfs_agreement", os.str());
      }
      for (std::size_t v = 0; v < push_bfs.sigma.size(); ++v) {
        if (!sigma_matches(r.sigma[v], push_bfs.sigma[v])) {
          std::ostringstream os;
          os << mode << " source " << source << ": sigma[" << v << "] = "
             << r.sigma[v] << " vs push " << push_bfs.sigma[v];
          fail("dobfs_agreement", os.str());
          break;
        }
      }

      const bc::BcResult rb = run_bc(adv);
      for (std::size_t v = 0; v < push_bc.bc.size(); ++v) {
        const double err = std::abs(rb.bc[v] - push_bc.bc[v]) /
                           std::max(1.0, std::abs(push_bc.bc[v]));
        if (!(err <= opt.tolerance)) {
          std::ostringstream os;
          os << mode << " source " << source << ": bc[" << v << "] = "
             << rb.bc[v] << " vs push " << push_bc.bc[v];
          fail("dobfs_agreement", os.str());
          break;
        }
      }

      // Footprint: the byte-exact DO inventory, and the paper-scale bound
      // 7n + m + ceil(n/32) words (+16 B slack: the CP_A tail entry and the
      // tiny-n case where the widened forward stage outgrows the triple).
      const std::size_t expected = expected_turbobc_peak_bytes(
          variant, n, m, /*edge_bc=*/false, adv, canon.directed());
      if (rb.peak_device_bytes != expected) {
        std::ostringstream os;
        os << mode << ": simulated peak " << rb.peak_device_bytes
           << " B != analytic DO inventory " << expected << " B (n = " << n
           << ", m = " << m << ")";
        fail("dobfs_agreement", os.str());
      }
      if (rb.peak_device_bytes > bc::turbobc_dobfs_model_bytes(n, m) + 16) {
        std::ostringstream os;
        os << mode << ": simulated peak " << rb.peak_device_bytes
           << " B above the 7n + m + ceil(n/32) model "
           << bc::turbobc_dobfs_model_bytes(n, m) << " B";
        fail("dobfs_agreement", os.str());
      }
    }
    if (bc::turbobc_dobfs_model_bytes(n, m) >=
        expected_gunrock_inventory_bytes(n, m)) {
      std::ostringstream os;
      os << "DO model " << bc::turbobc_dobfs_model_bytes(n, m)
         << " B not below the gunrock inventory "
         << expected_gunrock_inventory_bytes(n, m) << " B";
      fail("dobfs_agreement", os.str());
    }

    // Per-mode pool-width determinism, same standard as thread_determinism.
    if (opt.check_determinism && n > 1) {
      const auto sources = pick_sources();
      for (const bc::Advance adv : {bc::Advance::kPull, bc::Advance::kAuto}) {
        const auto run_at = [&](unsigned width) {
          PoolWidthGuard guard;
          sim::ExecutorPool::instance().set_threads(width);
          sim::Device dev;
          dev.set_keep_launch_records(false);
          bc::TurboBC algo(dev, graph,
                           {.variant = variant, .advance = adv});
          return algo.run_sources(sources);
        };
        const bc::BcResult a = run_at(1);
        const bc::BcResult b = run_at(opt.det_threads);
        if (a.bc != b.bc || a.device_seconds != b.device_seconds ||
            a.peak_device_bytes != b.peak_device_bytes) {
          fail("dobfs_agreement",
               std::string(bc::to_string(adv)) + ": threads=1 vs threads=" +
                   std::to_string(opt.det_threads) +
                   " modeled results differ");
        }
      }
    }
  }

  /// MS-BFS batched engine (core/turbobc_batched.*): the packed-mask SpMM
  /// sweep must reproduce the per-source engine's BC vector BIT-for-bit
  /// over any block of <= 64 sources — the fold-order contract documented
  /// in turbobc_batched.cpp (strict per-lane left folds over exact-zero
  /// skips) — in push, pull, and auto mode alike, at any pool width, with
  /// the new word-op traffic accounted and the peak inside the MS-BFS
  /// footprint model.
  void check_msbfs() {
    const vidx_t n = canon.num_vertices();
    const eidx_t m = canon.num_arcs();
    const auto& [sources, ref_bc] = lane_reference();
    const auto k = static_cast<vidx_t>(sources.size());

    const auto run_batched = [&](bc::Advance adv, unsigned width) {
      PoolWidthGuard guard;
      sim::ExecutorPool::instance().set_threads(width);
      sim::Device dev;
      dev.set_keep_launch_records(false);
      bc::TurboBCBatched batched(dev, graph,
                                 {.batch_size = k, .advance = adv});
      bc::BcResult r = batched.run_sources(sources);
      std::uint64_t words = 0;
      for (const auto& [name, agg] : dev.kernel_aggregates()) {
        words += agg.word_ops;
      }
      return std::make_pair(std::move(r), words);
    };

    const auto [push, push_words] = run_batched(bc::Advance::kPush, 1);
    compare_bits("msbfs_agreement", "batched-push vs per-source", push.bc,
                 ref_bc);
    // The mask kernels issue word ops on every traversed edge; a zero total
    // on a non-trivial graph means the accounting got disconnected.
    if (m > 0 && push_words == 0) {
      fail("msbfs_agreement",
           "batched push run reported zero word ops on a non-empty graph");
    }
    // Footprint: the simulated peak must sit inside the MS-BFS model
    // (allocation-granule + O(k) flag slack on either side).
    const std::uint64_t model = bc::turbobc_msbfs_model_bytes(n, m, k);
    constexpr std::uint64_t kSlack = 16 * 256;
    if (push.peak_device_bytes > model + kSlack ||
        push.peak_device_bytes + kSlack < model) {
      std::ostringstream os;
      os << "batched peak " << push.peak_device_bytes
         << " B outside MS-BFS model " << model << " B (+/- " << kSlack
         << " B; n = " << n << ", m = " << m << ", k = " << k << ")";
      fail("msbfs_agreement", os.str());
    }

    for (const bc::Advance adv : {bc::Advance::kPull, bc::Advance::kAuto}) {
      const auto [r, words] = run_batched(adv, 1);
      (void)words;
      compare_bits("msbfs_agreement",
                   std::string("batched-") + std::string(bc::to_string(adv)) +
                       " vs batched-push",
                   r.bc, push.bc);
    }

    // Pool-width determinism, the PR 1 standard: the whole modeled result
    // (values, clock, peak, word-op ledger) is bit-identical at any width.
    if (opt.check_determinism && n > 1) {
      const auto [rp, wp] = run_batched(bc::Advance::kPush, opt.det_threads);
      if (rp.bc != push.bc || rp.device_seconds != push.device_seconds ||
          rp.peak_device_bytes != push.peak_device_bytes ||
          wp != push_words) {
        fail("msbfs_agreement",
             "batched push: threads=1 vs threads=" +
                 std::to_string(opt.det_threads) +
                 " modeled results differ");
      }
    }
  }

  void check_serve() {
    const vidx_t n = canon.num_vertices();
    serve::ServeOptions sopt;  // kScCsc / push / component sampler, seed 1
    serve::ServeEngine engine(canon, sopt);

    // Scratch-vs-incremental bit-identity: the served full-BC vector must
    // equal a from-scratch run_exact on the engine's CURRENT graph, bit for
    // bit (shared fold order — see TurboBC::fold_source_blocks).
    const auto scratch_compare = [&](int event) {
      const std::vector<bc_t>& served = engine.query_bc();
      sim::Device dev;
      dev.set_keep_launch_records(false);
      bc::TurboBC algo(dev, engine.graph(), {.variant = sopt.variant});
      const bc::BcResult ref = algo.run_exact();
      if (served == ref.bc) return;
      for (std::size_t v = 0; v < served.size(); ++v) {
        if (served[v] != ref.bc[v]) {
          std::ostringstream os;
          os << "after event " << event << ": served bc[" << v << "] = "
             << served[v] << " vs scratch " << ref.bc[v] << " (epoch "
             << engine.counters().epoch << ")";
          fail("serve_agreement", os.str());
          return;
        }
      }
      fail("serve_agreement", "served bc size mismatch vs scratch");
    };

    scratch_compare(0);
    Xoshiro256 rng(0x5e2e0000ULL + static_cast<std::uint64_t>(n) * 1000003 +
                   static_cast<std::uint64_t>(canon.num_arcs()));
    const auto rand_vertex = [&] {
      return static_cast<vidx_t>(rng.uniform(static_cast<std::uint64_t>(n)));
    };
    for (int event = 1; event <= opt.serve_updates; ++event) {
      // Odd events delete an existing arc (when there is one) so the stream
      // exercises real deletions, not just absent-edge no-ops.
      if (event % 2 == 1 && engine.graph().num_arcs() > 0) {
        const auto& edges = engine.graph().edges();
        const graph::Edge e = edges[static_cast<std::size_t>(
            rng.uniform(static_cast<std::uint64_t>(edges.size())))];
        engine.remove_edge(e.u, e.v);
      } else {
        engine.insert_edge(rand_vertex(), rand_vertex());
      }
      scratch_compare(event);
      if (!report.violations.empty() &&
          report.violations.back().invariant == "serve_agreement") {
        return;  // one failing event is enough to key on
      }
    }

    // Transcript determinism: the same scripted session must produce a
    // byte-identical transcript at pool widths 1 and N — queries, updates,
    // approx waves, modeled stats and all.
    if (opt.check_determinism && n > 1) {
      std::ostringstream script;
      script << "bc 3\n"
             << "insert " << rand_vertex() << ' ' << rand_vertex() << "\n"
             << "top 3\n"
             << "approx 0.5\n"
             << "delete " << rand_vertex() << ' ' << rand_vertex() << "\n"
             << "bc 3\n"
             << "stats\n";
      const auto transcript = [&](unsigned width) {
        PoolWidthGuard guard;
        sim::ExecutorPool::instance().set_threads(width);
        std::istringstream in(script.str());
        std::ostringstream out;
        serve::run_session(canon, {.json = false, .top = 3, .engine = sopt},
                           in, out);
        return out.str();
      };
      if (transcript(1) != transcript(opt.det_threads)) {
        fail("serve_agreement",
             "session transcript differs between pool widths 1 and " +
                 std::to_string(opt.det_threads));
      }
    }
  }

  /// Serve daemon (src/daemon/): the socket front-end must add nothing and
  /// lose nothing. A single connection replaying a script over a real
  /// loopback socket produces a transcript byte-identical to run_session in
  /// wire mode (text and JSON); under concurrent connections, every bc
  /// response's (epoch, digest) pair must match a serial from-scratch
  /// replay of the scheduler's epoch-ordered update log — the wire response
  /// is a pure function of (command, epoch) whatever the interleaving.
  void check_daemon() {
    const vidx_t n = canon.num_vertices();
    Xoshiro256 rng(0xdae30000ULL + static_cast<std::uint64_t>(n) * 1000003 +
                   static_cast<std::uint64_t>(canon.num_arcs()));
    const auto rand_vertex = [&] {
      return static_cast<vidx_t>(rng.uniform(static_cast<std::uint64_t>(n)));
    };
    // Runs inside raw std::threads below, so failures must not escape.
    const auto client_run = [](const daemon::SocketAddr& addr,
                               const std::string& script) -> std::string {
      try {
        std::istringstream in(script);
        std::ostringstream out;
        daemon::ClientOptions copt;
        copt.connect = addr.display();
        daemon::run_client(copt, in, out);
        return out.str();
      } catch (const std::exception& e) {
        return std::string("<client threw: ") + e.what() + ">";
      }
    };

    // Single-connection transcript byte-identity vs run_session (wire mode).
    std::ostringstream script;
    script << "bc 3\n"
           << "insert " << rand_vertex() << ' ' << rand_vertex() << "\n"
           << "top 3\n"
           << "delete " << rand_vertex() << ' ' << rand_vertex() << "\n"
           << "bc 3\n"
           << "stats\n";
    for (const bool json : {false, true}) {
      daemon::DaemonOptions dopt;
      dopt.listen = "127.0.0.1:0";
      dopt.json = json;
      dopt.top = 3;
      daemon::DaemonServer server(canon, dopt);
      server.start();
      const std::string daemon_out = client_run(server.bound(), script.str());
      server.stop();

      std::istringstream in(script.str());
      std::ostringstream session_out;
      serve::SessionOptions sopt;
      sopt.json = json;
      sopt.wire = true;
      sopt.top = 3;
      serve::run_session(canon, sopt, in, session_out);
      if (daemon_out != session_out.str()) {
        fail("daemon_agreement",
             std::string("single-connection transcript differs from ") +
                 "run_session wire mode (json=" + (json ? "1" : "0") + ")");
        return;
      }
    }

    // Concurrent clients: three readers and one updating writer race over
    // real sockets; afterwards every served (epoch, digest) pair must equal
    // the scratch replay of the update log at that epoch.
    daemon::DaemonOptions dopt;
    dopt.listen = "127.0.0.1:0";
    dopt.top = 3;
    daemon::DaemonServer server(canon, dopt);
    server.start();

    std::ostringstream writer;
    for (int event = 1; event <= opt.serve_updates; ++event) {
      writer << (event % 2 == 1 ? "insert " : "delete ") << rand_vertex()
             << ' ' << rand_vertex() << "\n";
    }
    std::vector<std::string> transcripts(4);
    {
      std::vector<std::thread> clients;
      for (std::size_t i = 0; i < 3; ++i) {
        clients.emplace_back([&, i] {
          transcripts[i] = client_run(server.bound(), "bc 2\nbc 2\n");
        });
      }
      clients.emplace_back([&] {
        transcripts[3] = client_run(server.bound(), writer.str());
      });
      for (std::thread& t : clients) t.join();
    }
    const auto log = server.scheduler().update_log();
    server.stop();

    // Serial scratch replay: epoch -> digest of run_exact on the graph
    // state after that epoch's update (the serve engine pins kScCsc).
    const auto digest_of = [&](const EdgeList& state) {
      sim::Device dev;
      dev.set_keep_launch_records(false);
      bc::TurboBC algo(dev, state,
                       {.variant = serve::ServeOptions{}.variant});
      return serve::bc_digest(algo.run_exact().bc);
    };
    std::map<std::uint64_t, std::uint64_t> expected;
    EdgeList state = canon;
    expected[0] = digest_of(state);
    for (const auto& rec : log) {
      if (!rec.applied) continue;
      if (rec.kind == serve::UpdateKind::kInsert) {
        state.add_edge(rec.u, rec.v);
        if (!canon.directed()) state.add_edge(rec.v, rec.u);
      } else {
        state.remove_edge(rec.u, rec.v);
        if (!canon.directed()) state.remove_edge(rec.v, rec.u);
      }
      state.canonicalize();
      expected[rec.epoch] = digest_of(state);
    }

    std::size_t bc_lines = 0;
    for (const std::string& transcript : transcripts) {
      std::istringstream lines(transcript);
      std::string line;
      while (std::getline(lines, line)) {
        unsigned long long epoch = 0;
        char digest[17] = {};
        if (std::sscanf(line.c_str(), "bc: epoch=%llu digest=%16s", &epoch,
                        digest) != 2) {
          continue;
        }
        ++bc_lines;
        const auto it = expected.find(epoch);
        if (it == expected.end() ||
            serve::digest_hex(it->second) != digest) {
          std::ostringstream os;
          os << "served digest " << digest << " at epoch " << epoch
             << " != scratch replay "
             << (it == expected.end() ? std::string("<unknown epoch>")
                                      : serve::digest_hex(it->second));
          fail("daemon_agreement", os.str());
          return;
        }
      }
    }
    if (bc_lines != 6) {
      fail("daemon_agreement",
           "concurrent readers answered " + std::to_string(bc_lines) +
               " bc responses, expected 6");
    }
  }

  /// Out-of-core storage stack (src/storage/): the delta-varint codec must
  /// round-trip the canonical CSC bit-exactly; the compressed kernels must
  /// reproduce the uncompressed kScCsc engine's BC bit-for-bit in push /
  /// pull / auto at any pool width (the demotion contract: compress pins
  /// the layout to kScCsc whatever variant was asked for); StreamingTurboBC
  /// must equal the resident compressed engine both under a window that
  /// forces eviction and on the fetch-free fast path, whose ledger must
  /// stay refetch- and eviction-free; and the compressed image's device
  /// bytes must be byte-exact against the analytic model.
  void check_ooc() {
    const vidx_t n = canon.num_vertices();
    const eidx_t m = canon.num_arcs();
    const auto csc = graph::CscGraph::from_edges(canon);
    const storage::CompressedCsc cgraph = storage::encode_csc(csc);

    if (!storage::round_trips(cgraph, csc)) {
      fail("ooc_agreement",
           "delta-varint codec does not round-trip the canonical CSC");
      return;  // every engine below decodes this stream
    }

    const auto sources = pick_sources();
    const auto run_engine = [&](bool compress, bc::Advance adv,
                                unsigned width) {
      PoolWidthGuard guard;
      sim::ExecutorPool::instance().set_threads(width);
      sim::Device dev;
      dev.set_keep_launch_records(false);
      // The uncompressed reference is pinned to kScCsc — the layout the
      // compressed engine demotes to — so agreement is bit-exact, not
      // tolerance-based. The compressed run asks for the auto-selected
      // variant to exercise the demotion path itself.
      bc::TurboBC algo(dev, graph,
                       {.variant = compress ? bc::select_variant(canon)
                                            : bc::Variant::kScCsc,
                        .advance = adv,
                        .compress = compress});
      return algo.run_sources(sources);
    };
    const auto compare_bits = [&](const std::string& what,
                                  const std::vector<bc_t>& actual,
                                  const std::vector<bc_t>& expected) {
      if (actual.size() != expected.size()) {
        fail("ooc_agreement",
             what + ": size " + std::to_string(actual.size()) + " vs " +
                 std::to_string(expected.size()));
        return;
      }
      for (std::size_t v = 0; v < actual.size(); ++v) {
        if (actual[v] != expected[v]) {
          std::ostringstream os;
          os << what << ": bc[" << v << "] = " << actual[v] << " vs "
             << expected[v];
          fail("ooc_agreement", os.str());
          return;
        }
      }
    };

    bc::BcResult packed_push;
    for (const bc::Advance adv :
         {bc::Advance::kPush, bc::Advance::kPull, bc::Advance::kAuto}) {
      const std::string mode(bc::to_string(adv));
      const bc::BcResult plain = run_engine(false, adv, 1);
      const bc::BcResult packed = run_engine(true, adv, 1);
      compare_bits(mode + ": compressed vs uncompressed", packed.bc,
                   plain.bc);
      if (adv == bc::Advance::kPush) packed_push = packed;
    }

    // ooc_inventory: the resident compressed image is byte-exact against
    // the codec's model, and the engine's simulated peak is the analytic
    // kScCsc inventory with the graph term swapped for that image.
    {
      sim::Device dev;
      dev.set_keep_launch_records(false);
      bc::TurboBC algo(dev, graph, {.compress = true});
      if (algo.graph_device_bytes() != cgraph.model_bytes()) {
        std::ostringstream os;
        os << "compressed device image " << algo.graph_device_bytes()
           << " B != model " << cgraph.model_bytes() << " B";
        fail("ooc_inventory", os.str());
      }
      const bc::BcResult r = algo.run_sources(sources);
      const std::size_t csc_bytes =
          4 * (static_cast<std::size_t>(n) + 1) +
          4 * static_cast<std::size_t>(m);
      const std::size_t expected =
          expected_turbobc_peak_bytes(bc::Variant::kScCsc, n, m,
                                      /*edge_bc=*/false) -
          csc_bytes + cgraph.model_bytes();
      if (r.peak_device_bytes != expected) {
        std::ostringstream os;
        os << "compressed peak " << r.peak_device_bytes
           << " B != analytic inventory " << expected << " B (n = " << n
           << ", m = " << m << ")";
        fail("ooc_inventory", os.str());
      }
    }

    // Streamed == resident: a window of 1 over >= 2 shards forces LRU
    // eviction and refetch every sweep; the BC must still be bit-identical.
    {
      sim::Device dev;
      dev.set_keep_launch_records(false);
      storage::StreamingTurboBC streamed(dev, cgraph,
                                         {.num_shards = 3, .window = 1});
      compare_bits("streamed(window=1) vs resident compressed",
                   streamed.run_sources(sources).bc, packed_push.bc);
    }

    // Fetch-free fast path: window >= shards means every shard uploads
    // once and the ledger stays refetch- and eviction-free.
    {
      sim::Device dev;
      dev.set_keep_launch_records(false);
      storage::StreamingTurboBC fast(dev, cgraph,
                                     {.num_shards = 2, .window = 4});
      compare_bits("streamed(fetch-free) vs resident compressed",
                   fast.run_sources(sources).bc, packed_push.bc);
      if (!fast.fetch_free()) {
        fail("ooc_agreement",
             "window >= num_shards but engine does not report fetch_free");
      }
      if (fast.ledger().refetch_bytes != 0 || fast.ledger().evictions != 0) {
        std::ostringstream os;
        os << "fetch-free window reported refetch traffic ("
           << fast.ledger().refetch_bytes << " B, "
           << fast.ledger().evictions << " evictions)";
        fail("ooc_agreement", os.str());
      }
    }

    // Pool-width determinism, the PR 1 standard: compressed modeled results
    // are bit-identical at any width (sources run serially, so this must
    // hold for the streamed engine's values too).
    if (opt.check_determinism && n > 1) {
      const bc::BcResult wide = run_engine(true, bc::Advance::kPush,
                                           opt.det_threads);
      if (wide.bc != packed_push.bc ||
          wide.device_seconds != packed_push.device_seconds ||
          wide.peak_device_bytes != packed_push.peak_device_bytes) {
        fail("ooc_agreement",
             "compressed push: threads=1 vs threads=" +
                 std::to_string(opt.det_threads) +
                 " modeled results differ");
      }
    }
  }

  // See oracle.hpp: hybrid CPU-GPU co-execution (src/hybrid/).
  void check_hybrid() {
    const vidx_t n = canon.num_vertices();

    const auto same_bits = [](const std::vector<bc_t>& a,
                              const std::vector<bc_t>& b) {
      return a.size() == b.size() &&
             (a.empty() ||
              std::memcmp(a.data(), b.data(), a.size() * sizeof(bc_t)) == 0);
    };

    const auto run_hybrid = [&](unsigned width) {
      PoolWidthGuard guard;
      sim::ExecutorPool::instance().set_threads(width);
      sim::Device dev;
      dev.set_keep_launch_records(false);
      hybrid::HybridTurboBC engine(dev, graph, {}, {.devices = 2});
      return engine.run_exact();
    };

    hybrid::HybridResult serial;
    try {
      serial = run_hybrid(1);
    } catch (const InternalError& e) {
      // The engine's own runtime probe (heaviest block co-run on both
      // processor classes, compared bitwise) throws on disagreement —
      // that IS the invariant under test, so report it rather than
      // letting it surface as unexpected_throw.
      fail("hybrid_agreement",
           std::string("co-execution probe rejected the run: ") + e.what());
      return;
    }

    // Bit-identity against the single-engine run with the same pinned
    // variant — the contract that makes co-execution transparent.
    {
      sim::Device dev;
      dev.set_keep_launch_records(false);
      bc::TurboBC algo(dev, graph, {.variant = bc::Variant::kScCsc});
      const bc::BcResult want = algo.run_exact();
      if (!same_bits(serial.result.bc, want.bc)) {
        fail("hybrid_agreement",
             "hybrid run_exact BC differs bitwise from the single-engine "
             "kScCsc run_exact");
      }
    }

    // Ledger sanity: the per-processor accounting must fold back to the
    // whole run. Every block lands on exactly one processor; sources sum
    // to n (the empty tail block contributes none); no lane can be busier
    // than the makespan; the probe's host co-run is the one extra charge
    // on top of busy_seconds.
    {
      std::size_t blocks = 0;
      std::size_t src = 0;
      double lane_busy_total = 0.0;
      for (const hybrid::ProcessorStat& p : serial.processors) {
        blocks += p.blocks;
        src += p.sources;
        lane_busy_total += p.busy_seconds;
        if (p.utilization > 1.0 + 1e-12) {
          std::ostringstream os;
          os << p.name << " utilization " << p.utilization
             << " exceeds 1 (busy " << p.busy_seconds << " s, makespan "
             << serial.makespan_seconds << " s)";
          fail("hybrid_agreement", os.str());
        }
      }
      if (blocks != serial.num_blocks ||
          src != static_cast<std::size_t>(n)) {
        std::ostringstream os;
        os << "processor accounting: " << blocks << " blocks / " << src
           << " sources vs " << serial.num_blocks << " blocks / " << n
           << " sources run";
        fail("hybrid_agreement", os.str());
      }
      if (serial.makespan_seconds > lane_busy_total ||
          serial.busy_seconds > lane_busy_total) {
        std::ostringstream os;
        os << "makespan " << serial.makespan_seconds << " s / busy "
           << serial.busy_seconds
           << " s exceed the per-lane fold " << lane_busy_total << " s";
        fail("hybrid_agreement", os.str());
      }
    }

    // Pool-width determinism of the FULL report: the schedule is computed
    // serially from the probe, actual times are charged in block order, so
    // every modeled number — not just the BC — must be bit-identical at
    // any width.
    if (opt.check_determinism && n > 1) {
      const hybrid::HybridResult wide = run_hybrid(opt.det_threads);
      bool same = same_bits(wide.result.bc, serial.result.bc) &&
                  wide.makespan_seconds == serial.makespan_seconds &&
                  wide.busy_seconds == serial.busy_seconds &&
                  wide.probe_block == serial.probe_block &&
                  wide.num_blocks == serial.num_blocks &&
                  wide.result.peak_device_bytes ==
                      serial.result.peak_device_bytes &&
                  wide.processors.size() == serial.processors.size();
      for (std::size_t p = 0; same && p < serial.processors.size(); ++p) {
        const hybrid::ProcessorStat& a = serial.processors[p];
        const hybrid::ProcessorStat& b = wide.processors[p];
        same = a.name == b.name && a.blocks == b.blocks &&
               a.sources == b.sources && a.rate == b.rate &&
               a.busy_seconds == b.busy_seconds &&
               a.utilization == b.utilization;
      }
      if (!same) {
        fail("hybrid_agreement",
             "threads=1 vs threads=" + std::to_string(opt.det_threads) +
                 " hybrid reports differ (schedule, makespan, or stats)");
      }
    }
  }

  void run() {
    check_mtx_roundtrip();
    if (canon.num_vertices() == 0) return;  // nothing else is defined

    const auto sources = pick_sources();
    const auto csc = graph::CscGraph::from_edges(canon);
    bool first = true;
    for (const vidx_t source : sources) {
      const auto ref_bfs = graph::bfs_reference(csc, source);
      const auto ref_sigma = baseline::brandes_sigma(canon, source);
      check_bfs_and_sigma(csc, source, ref_bfs, ref_sigma);
      check_single_source(source, /*all_variants=*/first);
      first = false;
    }

    if (opt.check_edge_bc && !sources.empty()) {
      check_edge_bc(sources.front());
    }
    if (opt.check_exact && canon.num_vertices() <= opt.exact_max_vertices) {
      check_exact();
    }
    if (opt.check_determinism && canon.num_vertices() > 1) {
      check_thread_determinism();
    }
    if (opt.check_approx && canon.num_vertices() > 0) {
      check_approx();
    }
    if (opt.check_dist && canon.num_vertices() > 0) {
      check_dist();
      if (canon.num_vertices() <= opt.msbfs_max_vertices) check_dist_lanes();
    }
    if (opt.check_dobfs && canon.num_vertices() > 0) {
      check_dobfs();
    }
    if (opt.check_msbfs && canon.num_vertices() > 0 &&
        canon.num_vertices() <= opt.msbfs_max_vertices) {
      check_msbfs();
    }
    if (opt.check_serve && canon.num_vertices() > 0 &&
        canon.num_vertices() <= opt.serve_max_vertices) {
      check_serve();
    }
    if (opt.check_daemon && canon.num_vertices() > 0 &&
        canon.num_vertices() <= opt.daemon_max_vertices) {
      check_daemon();
    }
    if (opt.check_ooc && canon.num_vertices() > 0 &&
        canon.num_vertices() <= opt.ooc_max_vertices) {
      check_ooc();
    }
    if (opt.check_hybrid && canon.num_vertices() > 0 &&
        canon.num_vertices() <= opt.hybrid_max_vertices) {
      check_hybrid();
    }
  }
};

}  // namespace

std::string OracleReport::summary() const {
  std::ostringstream os;
  os << "n = " << vertices << ", m = " << arcs << ": ";
  if (ok()) {
    os << "all invariants hold";
    return os.str();
  }
  os << violations.size() << " violation(s)";
  for (const Violation& v : violations) {
    os << "\n  [" << v.invariant << "] " << v.detail;
  }
  return os.str();
}

OracleReport check_graph(const EdgeList& graph, const OracleOptions& options) {
  OracleReport report;
  EdgeList canon = graph;
  canon.canonicalize();
  report.vertices = canon.num_vertices();
  report.arcs = canon.num_arcs();

  Checker checker{graph, canon, options, report, {}};
  try {
    checker.run();
  } catch (const std::exception& e) {
    report.violations.push_back({"unexpected_throw", e.what()});
  }
  return report;
}

std::size_t expected_turbobc_peak_bytes(bc::Variant variant, vidx_t n,
                                        eidx_t m, bool edge_bc,
                                        bc::Advance advance, bool directed) {
  const auto un = static_cast<std::size_t>(n);
  const auto um = static_cast<std::size_t>(m);
  const bool dob = advance != bc::Advance::kPush;
  // The engine demotes kScCooc to kVeCsc in direction-optimizing mode (pull
  // needs column pointers); the inventory must mirror that.
  if (dob && variant == bc::Variant::kScCooc) variant = bc::Variant::kVeCsc;
  // Graph structure: one resident format (device_graph.hpp, 4-byte words).
  const std::size_t graph_bytes = variant == bc::Variant::kScCooc
                                      ? 8 * um           // row_A + col_A
                                      : 4 * (un + 1) + 4 * um;  // CP_A + row_A
  const std::size_t bitmap_bytes = 4 * ((un + 31) / 32);
  // bc accumulator + persistent S/sigma + the wider of the two stages:
  // forward f/f_t/c-flag (8n + 4) vs dependency triple (12n). The paper's
  // f/f_t free trick is exactly why the forward stage never dominates.
  // Direction-optimizing mode widens the forward stage — three-counter flag
  // block (12 B) plus the ceil(n/32)-word frontier bitmap — which the
  // triple still dominates for n >= 4; the UNDIRECTED backward stage grows
  // its own bitmap too (the pulled dependency gather rebuilds it from
  // delta_u each level), so both stage terms carry it symmetrically.
  const std::size_t forward = dob ? 8 * un + 12 + bitmap_bytes : 8 * un + 4;
  const std::size_t backward =
      12 * un + (dob && !directed ? bitmap_bytes : 0);
  const std::size_t stages = 4 * un + 8 * un + std::max(forward, backward);
  return graph_bytes + stages + (edge_bc ? 4 * um : 0);
}

std::size_t expected_approx_peak_bytes(bc::Variant variant, vidx_t n,
                                       eidx_t m) {
  // The TurboBC inventory plus the two n-word moment accumulators that ride
  // along on every device (main and replicas alike).
  return expected_turbobc_peak_bytes(variant, n, m, /*edge_bc=*/false) +
         8 * static_cast<std::size_t>(n);
}

std::size_t expected_gunrock_inventory_bytes(vidx_t n, eidx_t m) {
  const auto un = static_cast<std::size_t>(n);
  const auto um = static_cast<std::size_t>(m);
  // CSR + CSC offsets/indices, 8 n-sized bookkeeping arrays, the queue
  // counter, and the m-word load-balancing scratch — all 4-byte words.
  return 4 * (2 * (un + 1) + 8 * un + 1 + 3 * um);
}

}  // namespace turbobc::qa
