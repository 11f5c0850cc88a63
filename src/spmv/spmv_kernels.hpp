// Simulated-GPU SpMV kernels: the three TurboBC variants of Section 3.3.
//
//  * scCOOC — one thread per nonzero (Algorithm 2 parallelized): loads
//    x(row_A(k)) with perfectly coalesced index reads and atomically
//    scatters into y(col_A(k)). Immune to per-vertex degree skew (no thread
//    ever loops), which is why the paper picks it for graphs with
//    mega-degree outliers (mawi-*, Table 2).
//  * scCSC — one thread per column (Algorithm 3 parallelized): the sigma
//    mask skips discovered columns, then the thread serially gathers its
//    column. Fast on regular graphs; degree skew turns into warp-level load
//    imbalance (the thread with the fat column stalls its warp).
//  * veCSC — one warp per column (Algorithm 4): lanes stride the column,
//    a shuffle reduction combines lane sums, lane 0 writes. Coalesced and
//    balanced within the column — the irregular-graph variant.
//
// Forward (BFS) kernels are masked by sigma == 0; backward (dependency)
// kernels are unmasked, and come in gather form (symmetric matrices,
// undirected graphs) and scatter form (directed graphs need out-neighbour
// sums through the same single stored structure — see DESIGN.md).
//
// The batched engine's MS-BFS kernels (spmm_forward_msbfs_*) are the SpGEMM
// view of the forward sweep over a boolean semiring: per-vertex 64-bit
// source-membership masks replace up-to-64 integer frontier vectors, so one
// edge traversal serves every source in the block with AND/OR/popcount word
// ops (DESIGN.md §10).
//
// All kernels are templated on the vector element type: the BFS stage runs
// on integers (sigma_t) and the dependency stage on doubles; the datatype
// ablation bench instantiates the float versions.
//
// The thread-per-column kernels (every *_sccsc operator, the MS-BFS pair
// and the batched dependency SpMM) are also templated on the column
// storage G: DeviceCsc, or the delta-varint storage::DeviceCompressedCsc
// (DESIGN.md §12). A kernel walks a column through G::Cursor, which loads
// row_A words or decodes the byte stream; everything else — masks, operand
// loads, fold order, op counts — is the same code. Each instantiation keeps
// its own kernel name (bfs_spmv_sccsc vs bfs_spmv_ccsc, ...). The SpMV
// kernels take an optional `col_base` that shifts the OPERAND index space
// for a streamed shard whose columns are local while x / y / sigma stay
// full-length global vectors: masks read and results write at
// col_base + column. Only StreamingTurboBC sets it.
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>
#include <type_traits>

#include "gpusim/kernel.hpp"
#include "spmv/device_graph.hpp"

namespace turbobc::spmv {

/// Launch name of a thread-per-column kernel over storage G: `csc` for the
/// plain DeviceCsc, `ccsc` for the compressed image.
template <typename G>
constexpr std::string_view storage_kernel_name(std::string_view csc,
                                               std::string_view ccsc) {
  return std::is_same_v<G, DeviceCsc> ? csc : ccsc;
}

/// Grid size for warp-per-column kernels: enough warps to fill the device,
/// columns handled with a grid stride.
inline std::uint64_t vecsc_grid_warps(const sim::Device& device, vidx_t n) {
  const auto full = static_cast<std::uint64_t>(
      device.props().sm_count * device.props().issue_slots_per_sm * 32);
  return std::min<std::uint64_t>(static_cast<std::uint64_t>(n), full);
}

// ---------------------------------------------------------------------------
// Forward (masked) kernels: y(v) = sum_{u in column v} x(u) where sigma(v)==0.
// `y` must be zeroed beforehand.
// ---------------------------------------------------------------------------

template <typename T>
void spmv_forward_sccooc(sim::Device& device, const DeviceCooc& g,
                         const sim::DeviceBuffer<T>& x,
                         sim::DeviceBuffer<T>& y) {
  // Algorithm 2 verbatim: no sigma mask inside the kernel — the paper masks
  // f in a separate step (Algorithm 1 lines 20-22), so on dense frontiers
  // every positive-x edge fires an atomic. That unmasked atomic stream is
  // also why the integer-vs-float datatype choice matters so much on this
  // variant (Section 3.4).
  sim::launch_scalar(
      device, "bfs_spmv_sccooc", static_cast<std::uint64_t>(g.m()),
      [&](sim::ThreadCtx& t) {
        const auto k = static_cast<std::size_t>(t.global_id());
        const vidx_t row = g.row_idx().load(t, k);
        const T xv = x.load(t, static_cast<std::size_t>(row));
        t.count_ops(1);
        if (xv > 0) {
          const vidx_t col = g.col_idx().load(t, k);
          y.atomic_add(t, static_cast<std::size_t>(col), xv);
        }
      });
}

// ---------------------------------------------------------------------------
// Pull (direction-optimizing) forward kernels.
//
// A pull step inverts the frontier test: every UNDISCOVERED column scans its
// own CSC column (its in-neighbours), probes a dense frontier bitmap, and
// folds the frontier values it finds — no atomics, no frontier-sized value
// reads for non-frontier in-neighbours. The bitmap is n/32 words, small
// enough to stay L2-resident, which is where the modeled win on dense
// frontiers comes from.
//
// Bit-identity contract: the push scCSC kernel computes
//   sum over the column, in k order, of f(row_k)
// where f is exactly 0 off the frontier. The pull kernel folds only the
// bitmap-set rows, in the SAME k order — skipping an exact +0 leaves every
// partial sum bit-identical, so f_t (and hence S and sigma) match the push
// sweep bit for bit. The veCSC pair preserves per-lane partial sums the
// same way.
// ---------------------------------------------------------------------------

/// Number of 32-bit words in a dense frontier bitmap over n vertices.
inline std::uint64_t frontier_bitmap_words(vidx_t n) {
  return (static_cast<std::uint64_t>(n) + 31) / 32;
}

/// Rebuild the dense bitmap from the sparse-by-value frontier vector f:
/// one thread per 32-bit word, each reading its 32 consecutive f values
/// (fully coalesced) and composing the word — no atomics, deterministic.
/// This is the bitmap<->sparse conversion pass the cost model charges per
/// pull level.
template <typename T>
void frontier_to_bitmap(sim::Device& device, const sim::DeviceBuffer<T>& f,
                        vidx_t n, sim::DeviceBuffer<std::uint32_t>& bitmap) {
  sim::launch_scalar(
      device, "frontier_to_bitmap", frontier_bitmap_words(n),
      [&](sim::ThreadCtx& t) {
        const auto w = static_cast<std::size_t>(t.global_id());
        const std::size_t base = w * 32;
        std::uint32_t word = 0;
        for (std::size_t b = 0; b < 32; ++b) {
          const std::size_t v = base + b;
          if (v >= static_cast<std::size_t>(n)) break;
          if (f.load(t, v) != 0) word |= 1u << b;
        }
        t.count_ops(1);
        bitmap.store(t, w, word);
      });
}

// ---------------------------------------------------------------------------
// Column folds: the gather-form products, one body per thread layout.
//
// Column i folds x over its rows in edge order into y(col_base + i):
//  * kMasked (the forward SpMV, y = A^T f where sigma == 0): the column is
//    skipped when sigma(col_base + i) != 0, and only a positive sum is
//    written;
//  * unmasked (the backward gather, y(v) = sum over column v of x(row) —
//    the out-neighbour sum only on symmetric, i.e. undirected, matrices):
//    any nonzero sum is written;
//  * kPull: each row first probes the n/32 bitmap and x is loaded only on a
//    hit. The pulled backward gather probes a bitmap rebuilt from delta_u,
//    which is nonzero only on the level-d frontier; delta_u >= 0 and
//    x + 0.0 == x bitwise for non-negative x, so delta_ut is bit-identical
//    to the unmasked sweep, exactly as f_t is in the forward pull.
// ---------------------------------------------------------------------------

/// Thread per column (scCSC, or the compressed image through G::Cursor).
template <bool kMasked, bool kPull, typename G, typename T, typename M>
void column_fold(sim::Device& device, std::string_view name, const G& g,
                 const sim::DeviceBuffer<T>& x,
                 const sim::DeviceBuffer<std::uint32_t>* bitmap,
                 sim::DeviceBuffer<T>& y, const sim::DeviceBuffer<M>* sigma,
                 vidx_t col_base) {
  sim::launch_scalar(
      device, name, static_cast<std::uint64_t>(g.n()),
      [&](sim::ThreadCtx& t) {
        const auto i = static_cast<std::size_t>(t.global_id());
        const auto gi = static_cast<std::size_t>(col_base) + i;
        if constexpr (kMasked) {
          if (sigma->load(t, gi) != 0) return;
        }
        const dptr_t begin = g.col_ptr().load(t, i);
        const dptr_t end = g.col_ptr().load(t, i + 1);
        typename G::Cursor rows(g, t, i, begin);
        T sum = 0;
        for (dptr_t k = begin; k < end; ++k) {
          const auto row = static_cast<std::size_t>(rows.next());
          t.count_ops(1);
          if constexpr (kPull) {
            const std::uint32_t word = bitmap->load(t, row / 32);
            if (((word >> (row & 31u)) & 1u) == 0) continue;
          }
          sum += x.load(t, row);
        }
        if (kMasked ? sum > 0 : sum != 0) y.store(t, gi, sum);
      });
}

/// Warp per column (veCSC, Algorithm 4): lanes stride the column, a shuffle
/// reduction combines lane sums, lane 0 writes. Grid-stride over columns.
template <bool kMasked, bool kPull, typename T, typename M>
void warp_column_fold(sim::Device& device, std::string_view name,
                      const DeviceCsc& g, const sim::DeviceBuffer<T>& x,
                      const sim::DeviceBuffer<std::uint32_t>* bitmap,
                      sim::DeviceBuffer<T>& y,
                      const sim::DeviceBuffer<M>* sigma) {
  const vidx_t n = g.n();
  sim::launch_warp(
      device, name, vecsc_grid_warps(device, n), [&](sim::WarpCtx& w) {
        for (auto col = static_cast<vidx_t>(w.warp_id()); col < n;
             col = static_cast<vidx_t>(col + w.num_warps())) {
          const auto c = static_cast<std::size_t>(col);
          if constexpr (kMasked) {
            if (w.broadcast_load(*sigma, c) != 0) continue;
          }
          const dptr_t begin = w.broadcast_load(g.col_ptr(), c);
          const dptr_t end = w.broadcast_load(g.col_ptr(), c + 1);
          std::array<T, sim::kWarpSize> sum{};
          for (dptr_t base = begin; base < end; base += sim::kWarpSize) {
            std::uint32_t mask = 0;
            for (int lane = 0; lane < sim::kWarpSize; ++lane) {
              if (base + lane < end) mask |= 1u << lane;
            }
            const auto rows = w.gather(g.row_idx(), mask, [&](int lane) {
              return static_cast<std::size_t>(base + lane);
            });
            // Frontier-lane mask: under kPull only lanes whose row's bit is
            // set load x.
            std::uint32_t fmask = mask;
            if constexpr (kPull) {
              const auto words = w.gather(*bitmap, mask, [&](int lane) {
                return static_cast<std::size_t>(rows[lane]) / 32;
              });
              fmask = 0;
              for (int lane = 0; lane < sim::kWarpSize; ++lane) {
                if (((mask >> lane) & 1u) != 0 &&
                    ((words[lane] >>
                      (static_cast<std::uint32_t>(rows[lane]) & 31u)) &
                     1u) != 0) {
                  fmask |= 1u << lane;
                }
              }
            }
            const auto vals = w.gather(x, fmask, [&](int lane) {
              return static_cast<std::size_t>(rows[lane]);
            });
            for (int lane = 0; lane < sim::kWarpSize; ++lane) {
              if ((fmask >> lane) & 1u) sum[lane] += vals[lane];
            }
            w.count_ops(1);
          }
          const T total = w.reduce_add(sum);
          if (kMasked ? total > 0 : total != 0) {
            w.scatter(y, 0x1u, [&](int) { return c; },
                      [&](int) { return total; });
          }
        }
      });
}

// The eight named products over the two folds. `y` must be zeroed
// beforehand. The SpMV kernels take an optional `col_base` (see the file
// comment); a compressed column still decodes every varint of its gap chain
// when pulled — the saving is skipping the value load on bitmap misses.

template <typename G, typename T, typename M>
void spmv_forward_sccsc(sim::Device& device, const G& g,
                        const sim::DeviceBuffer<T>& x, sim::DeviceBuffer<T>& y,
                        const sim::DeviceBuffer<M>& sigma,
                        vidx_t col_base = 0) {
  column_fold<true, false>(
      device, storage_kernel_name<G>("bfs_spmv_sccsc", "bfs_spmv_ccsc"), g, x,
      nullptr, y, &sigma, col_base);
}

template <typename G, typename T, typename M>
void spmv_forward_pull_sccsc(sim::Device& device, const G& g,
                             const sim::DeviceBuffer<T>& x,
                             const sim::DeviceBuffer<std::uint32_t>& bitmap,
                             sim::DeviceBuffer<T>& y,
                             const sim::DeviceBuffer<M>& sigma,
                             vidx_t col_base = 0) {
  column_fold<true, true>(
      device,
      storage_kernel_name<G>("bfs_spmv_pull_sccsc", "bfs_spmv_pull_ccsc"), g,
      x, &bitmap, y, &sigma, col_base);
}

template <typename G, typename T>
void spmv_backward_gather_sccsc(sim::Device& device, const G& g,
                                const sim::DeviceBuffer<T>& x,
                                sim::DeviceBuffer<T>& y, vidx_t col_base = 0) {
  column_fold<false, false, G, T, T>(
      device, storage_kernel_name<G>("dep_spmv_sccsc", "dep_spmv_ccsc"), g, x,
      nullptr, y, nullptr, col_base);
}

template <typename G, typename T>
void spmv_backward_pull_sccsc(sim::Device& device, const G& g,
                              const sim::DeviceBuffer<T>& x,
                              const sim::DeviceBuffer<std::uint32_t>& bitmap,
                              sim::DeviceBuffer<T>& y, vidx_t col_base = 0) {
  column_fold<false, true, G, T, T>(
      device,
      storage_kernel_name<G>("dep_spmv_pull_sccsc", "dep_spmv_pull_ccsc"), g,
      x, &bitmap, y, nullptr, col_base);
}

template <typename T, typename M>
void spmv_forward_vecsc(sim::Device& device, const DeviceCsc& g,
                        const sim::DeviceBuffer<T>& x, sim::DeviceBuffer<T>& y,
                        const sim::DeviceBuffer<M>& sigma) {
  warp_column_fold<true, false>(device, "bfs_spmv_vecsc", g, x, nullptr, y,
                                &sigma);
}

template <typename T, typename M>
void spmv_forward_pull_vecsc(sim::Device& device, const DeviceCsc& g,
                             const sim::DeviceBuffer<T>& x,
                             const sim::DeviceBuffer<std::uint32_t>& bitmap,
                             sim::DeviceBuffer<T>& y,
                             const sim::DeviceBuffer<M>& sigma) {
  warp_column_fold<true, true>(device, "bfs_spmv_pull_vecsc", g, x, &bitmap,
                               y, &sigma);
}

template <typename T>
void spmv_backward_gather_vecsc(sim::Device& device, const DeviceCsc& g,
                                const sim::DeviceBuffer<T>& x,
                                sim::DeviceBuffer<T>& y) {
  warp_column_fold<false, false, T, T>(device, "dep_spmv_vecsc", g, x,
                                       nullptr, y, nullptr);
}

template <typename T>
void spmv_backward_pull_vecsc(sim::Device& device, const DeviceCsc& g,
                              const sim::DeviceBuffer<T>& x,
                              const sim::DeviceBuffer<std::uint32_t>& bitmap,
                              sim::DeviceBuffer<T>& y) {
  warp_column_fold<false, true, T, T>(device, "dep_spmv_pull_vecsc", g, x,
                                      &bitmap, y, nullptr);
}

// ---------------------------------------------------------------------------
// MS-BFS (multi-source) forward kernels for the batched engine.
//
// State per vertex v: one 64-bit frontier word F(v) (bit j set iff v is on
// source j's current frontier), one visited word V(v), and one next-frontier
// word Fn(v). The per-source shortest-path counts live in the interleaved
// sigma matrix (slot v*k + j) — and because a vertex newly discovered at
// this level had sigma == 0 before, sigma doubles as the frontier VALUE
// array: f(u, j) == sigma(u, j) for every frontier bit. The sweep therefore
// needs no f/f_t matrices at all; three n-word mask arrays replace 2nk
// words of per-source frontiers.
//
// One fused kernel per level and column v:
//   w_e = F(row_e) & ~V(v)          one word op per edge, all k sources
//   m   = OR over edges of w_e      new-lane mask for v
//   sums[j] += sigma(row_e, j)      only for set bits j of w_e, in edge
//                                   order — the same nonzero-skipping fold
//                                   as the per-source kernels, so sigma is
//                                   bit-identical per source
//   commit: Fn(v) = m, V(v) |= m, sigma/S/flags stored for bits of m.
//
// Races: thread v is the only writer of row v in Fn/V/sigma/S; flag stores
// are same-value; the degree counters are exact integer atomics. The pull
// variant probes the any-lane n/32 frontier bitmap (bit v iff F(v) != 0)
// before touching F — skipped edges have F == 0 and contribute nothing, so
// push and pull commit identical state level by level.
// ---------------------------------------------------------------------------

/// Rebuild the any-lane frontier bitmap from the packed mask array: bit v
/// set iff F(v) != 0. One thread per 32-bit word, fully coalesced reads.
inline void msbfs_frontier_to_bitmap(
    sim::Device& device, const sim::DeviceBuffer<std::uint64_t>& F, vidx_t n,
    sim::DeviceBuffer<std::uint32_t>& bitmap) {
  sim::launch_scalar(
      device, "msbfs_to_bitmap", frontier_bitmap_words(n),
      [&](sim::ThreadCtx& t) {
        const auto w = static_cast<std::size_t>(t.global_id());
        const std::size_t base = w * 32;
        std::uint32_t word = 0;
        for (std::size_t b = 0; b < 32; ++b) {
          const std::size_t v = base + b;
          if (v >= static_cast<std::size_t>(n)) break;
          if (F.load(t, v) != 0) word |= 1u << b;
        }
        t.count_word_ops(1);
        bitmap.store(t, w, word);
      });
}

/// Shared commit tail of the push and pull MS-BFS kernels: store the new
/// lane mask `m` for column v, mark visited, and write sigma / depth /
/// per-lane convergence flags for each newly set bit. `count_degrees`
/// enables the direction-switch counters cflags[k] (new any-lane vertices)
/// and cflags[k+1] (their in-degrees).
template <typename T>
inline void msbfs_column_commit(
    sim::ThreadCtx& t, std::size_t v, int k, vidx_t depth,
    sim::DeviceBuffer<std::uint64_t>& V, sim::DeviceBuffer<std::uint64_t>& Fn,
    sim::DeviceBuffer<T>& sigma, sim::DeviceBuffer<std::int32_t>& S,
    sim::DeviceBuffer<std::int32_t>& cflags, bool count_degrees,
    std::uint64_t degree, std::uint64_t vis, std::uint64_t m, const T* sums) {
  if (m == 0) return;
  Fn.store(t, v, m);
  V.store(t, v, vis | m);
  t.count_word_ops(2);
  const auto kk = static_cast<std::size_t>(k);
  for (std::uint64_t bits = m; bits != 0; bits &= bits - 1) {
    const auto j = static_cast<std::size_t>(std::countr_zero(bits));
    sigma.store(t, v * kk + j, sums[j]);
    S.store(t, v * kk + j, static_cast<std::int32_t>(depth));
    cflags.store(t, j, 1);
  }
  if (count_degrees) {
    cflags.atomic_add(t, kk, 1);
    cflags.atomic_add(t, kk + 1, static_cast<std::int32_t>(degree));
  }
}

/// One MS-BFS level: one thread per column v, serial scan of v's in-edges;
/// every edge costs one 8-byte mask load + one word op for all k sources.
/// kPull first probes the any-lane frontier bitmap (4-byte word,
/// L2-resident) and touches the mask + values only on a hit — the
/// direction-optimized form for levels where most in-neighbours are off
/// every lane's frontier.
///
/// The frontier operands are arguments: the mask word F (bit j of F(row)
/// iff row is on lane j's frontier) and the frontier values X (slot
/// row * k + j). A resident engine passes (F, sigma) — a frontier vertex's
/// value IS its sigma. The partitioned engine passes the EXCHANGED
/// full-length operands (Fx, Xs), global row space, assembled by its
/// per-level all_gather, while V / Fn / sigma / S commit to the shard's
/// local column slice; per-column edge order equals the single device's,
/// so the committed sigma matrix is bit-identical shard by shard.
template <bool kPull, typename G, typename T>
void msbfs_fold(sim::Device& device, std::string_view name, const G& g,
                int k, std::uint64_t full, vidx_t depth,
                const sim::DeviceBuffer<std::uint64_t>& F,
                const sim::DeviceBuffer<T>& X,
                const sim::DeviceBuffer<std::uint32_t>* bitmap,
                sim::DeviceBuffer<std::uint64_t>& V,
                sim::DeviceBuffer<std::uint64_t>& Fn,
                sim::DeviceBuffer<T>& sigma, sim::DeviceBuffer<std::int32_t>& S,
                sim::DeviceBuffer<std::int32_t>& cflags, bool count_degrees) {
  const auto kk = static_cast<std::size_t>(k);
  sim::launch_scalar(
      device, name, static_cast<std::uint64_t>(g.n()),
      [&](sim::ThreadCtx& t) {
        const auto v = static_cast<std::size_t>(t.global_id());
        const std::uint64_t vis = V.load(t, v);
        t.count_word_ops(1);
        if ((vis & full) == full) return;  // all lanes already discovered
        const dptr_t begin = g.col_ptr().load(t, v);
        const dptr_t end = g.col_ptr().load(t, v + 1);
        typename G::Cursor rows(g, t, v, begin);
        T sums[64] = {};
        std::uint64_t m = 0;
        for (dptr_t e = begin; e < end; ++e) {
          const auto row = static_cast<std::size_t>(rows.next());
          if constexpr (kPull) {
            const std::uint32_t word = bitmap->load(t, row / 32);
            t.count_ops(1);
            if (((word >> (row & 31u)) & 1u) == 0) continue;
          }
          const std::uint64_t w = F.load(t, row) & ~vis;
          t.count_word_ops(1);
          if (w == 0) continue;
          m |= w;
          for (std::uint64_t bits = w; bits != 0; bits &= bits - 1) {
            const auto j = static_cast<std::size_t>(std::countr_zero(bits));
            sums[j] += X.load(t, row * kk + j);
          }
        }
        msbfs_column_commit(t, v, k, depth, V, Fn, sigma, S, cflags,
                            count_degrees,
                            static_cast<std::uint64_t>(end - begin), vis, m,
                            sums);
      });
}

template <typename G, typename T>
void spmm_forward_msbfs_sccsc(
    sim::Device& device, const G& g, int k, std::uint64_t full, vidx_t depth,
    const sim::DeviceBuffer<std::uint64_t>& F, const sim::DeviceBuffer<T>& X,
    sim::DeviceBuffer<std::uint64_t>& V, sim::DeviceBuffer<std::uint64_t>& Fn,
    sim::DeviceBuffer<T>& sigma, sim::DeviceBuffer<std::int32_t>& S,
    sim::DeviceBuffer<std::int32_t>& cflags, bool count_degrees) {
  msbfs_fold<false>(
      device,
      storage_kernel_name<G>("bfs_spmm_msbfs_sccsc", "bfs_spmm_msbfs_ccsc"), g,
      k, full, depth, F, X, nullptr, V, Fn, sigma, S, cflags, count_degrees);
}

template <typename G, typename T>
void spmm_forward_msbfs_pull_sccsc(
    sim::Device& device, const G& g, int k, std::uint64_t full, vidx_t depth,
    const sim::DeviceBuffer<std::uint64_t>& F,
    const sim::DeviceBuffer<std::uint32_t>& bitmap,
    sim::DeviceBuffer<std::uint64_t>& V, sim::DeviceBuffer<std::uint64_t>& Fn,
    sim::DeviceBuffer<T>& sigma, sim::DeviceBuffer<std::int32_t>& S,
    sim::DeviceBuffer<std::int32_t>& cflags, bool count_degrees) {
  msbfs_fold<true>(device,
                   storage_kernel_name<G>("bfs_spmm_msbfs_pull_sccsc",
                                          "bfs_spmm_msbfs_pull_ccsc"),
                   g, k, full, depth, F, sigma, &bitmap, V, Fn, sigma, S,
                   cflags, count_degrees);
}

// ---------------------------------------------------------------------------
// Batched dependency SpMM (k dependency columns at once, interleaved slot
// v * k + j). Gather form for undirected graphs: column v sums its
// in-neighbours' k values, in edge order per lane. Scatter form for directed
// graphs: column w pushes each live lane's value onto its in-neighbours'
// slots. Row-side slots address a full-length vector (the partitioned
// engine's exchanged operand); column-side slots address the launch's own
// columns.
// ---------------------------------------------------------------------------

template <typename G>
void dep_spmm_sccsc(sim::Device& device, const G& g, std::size_t k,
                    const sim::DeviceBuffer<bc_t>& x,
                    sim::DeviceBuffer<bc_t>& y) {
  sim::launch_scalar(
      device, storage_kernel_name<G>("dep_spmm_sccsc", "dep_spmm_ccsc"),
      static_cast<std::uint64_t>(g.n()), [&](sim::ThreadCtx& t) {
        const auto v = static_cast<std::size_t>(t.global_id());
        const dptr_t begin = g.col_ptr().load(t, v);
        const dptr_t end = g.col_ptr().load(t, v + 1);
        typename G::Cursor rows(g, t, v, begin);
        bc_t sums[64] = {};
        for (dptr_t e = begin; e < end; ++e) {
          const auto u = static_cast<std::size_t>(rows.next());
          t.count_ops(1);
          for (std::size_t j = 0; j < k; ++j) {
            sums[j] += x.load(t, u * k + j);
          }
        }
        for (std::size_t j = 0; j < k; ++j) {
          if (sums[j] != 0.0) y.store(t, v * k + j, sums[j]);
        }
      });
}

template <typename G>
void dep_spmm_sccsc_scatter(sim::Device& device, const G& g, std::size_t k,
                            const sim::DeviceBuffer<bc_t>& x,
                            sim::DeviceBuffer<bc_t>& y) {
  sim::launch_scalar(
      device,
      storage_kernel_name<G>("dep_spmm_sccsc_scatter",
                             "dep_spmm_ccsc_scatter"),
      static_cast<std::uint64_t>(g.n()), [&](sim::ThreadCtx& t) {
        const auto w = static_cast<std::size_t>(t.global_id());
        std::uint64_t live = 0;
        for (std::size_t j = 0; j < k; ++j) {
          if (x.load(t, w * k + j) != 0.0) live |= 1ull << j;
        }
        if (live == 0) return;
        const dptr_t begin = g.col_ptr().load(t, w);
        const dptr_t end = g.col_ptr().load(t, w + 1);
        typename G::Cursor rows(g, t, w, begin);
        for (dptr_t e = begin; e < end; ++e) {
          const auto u = static_cast<std::size_t>(rows.next());
          t.count_ops(1);
          for (std::size_t j = 0; j < k; ++j) {
            if ((live >> j) & 1ull) {
              y.atomic_add(t, u * k + j, x.load(t, w * k + j));
            }
          }
        }
      });
}

// ---------------------------------------------------------------------------
// Edge-parallel backward gather (scCOOC); the column-fold forms are above.
// ---------------------------------------------------------------------------

template <typename T>
void spmv_backward_gather_sccooc(sim::Device& device, const DeviceCooc& g,
                                 const sim::DeviceBuffer<T>& x,
                                 sim::DeviceBuffer<T>& y) {
  sim::launch_scalar(
      device, "dep_spmv_sccooc", static_cast<std::uint64_t>(g.m()),
      [&](sim::ThreadCtx& t) {
        const auto k = static_cast<std::size_t>(t.global_id());
        const vidx_t row = g.row_idx().load(t, k);
        const T xv = x.load(t, static_cast<std::size_t>(row));
        t.count_ops(1);
        if (xv != 0) {
          const vidx_t col = g.col_idx().load(t, k);
          y.atomic_add(t, static_cast<std::size_t>(col), xv);
        }
      });
}

// ---------------------------------------------------------------------------
// Scatter form: y(row) += x(col) through the same stored structure — the
// transposed product, used by the backward stage on directed graphs.
// ---------------------------------------------------------------------------

template <typename G, typename T>
void spmv_backward_scatter_sccsc(sim::Device& device, const G& g,
                                 const sim::DeviceBuffer<T>& x,
                                 sim::DeviceBuffer<T>& y, vidx_t col_base = 0) {
  sim::launch_scalar(
      device,
      storage_kernel_name<G>("dep_spmv_sccsc_scatter",
                             "dep_spmv_ccsc_scatter"),
      static_cast<std::uint64_t>(g.n()), [&](sim::ThreadCtx& t) {
        const auto w = static_cast<std::size_t>(t.global_id());
        const T xv = x.load(t, static_cast<std::size_t>(col_base) + w);
        if (xv == 0) return;  // zero column: no row ids needed
        const dptr_t begin = g.col_ptr().load(t, w);
        const dptr_t end = g.col_ptr().load(t, w + 1);
        typename G::Cursor rows(g, t, w, begin);
        for (dptr_t k = begin; k < end; ++k) {
          const vidx_t row = rows.next();
          y.atomic_add(t, static_cast<std::size_t>(row), xv);
          t.count_ops(1);
        }
      });
}

template <typename T>
void spmv_backward_scatter_vecsc(sim::Device& device, const DeviceCsc& g,
                                 const sim::DeviceBuffer<T>& x,
                                 sim::DeviceBuffer<T>& y) {
  const vidx_t n = g.n();
  sim::launch_warp(
      device, "dep_spmv_vecsc_scatter", vecsc_grid_warps(device, n),
      [&](sim::WarpCtx& w) {
        for (auto col = static_cast<vidx_t>(w.warp_id()); col < n;
             col = static_cast<vidx_t>(col + w.num_warps())) {
          const T xv = w.broadcast_load(x, static_cast<std::size_t>(col));
          if (xv == 0) continue;
          const dptr_t begin =
              w.broadcast_load(g.col_ptr(), static_cast<std::size_t>(col));
          const dptr_t end =
              w.broadcast_load(g.col_ptr(), static_cast<std::size_t>(col) + 1);
          for (dptr_t base = begin; base < end; base += sim::kWarpSize) {
            std::uint32_t mask = 0;
            for (int lane = 0; lane < sim::kWarpSize; ++lane) {
              if (base + lane < end) mask |= 1u << lane;
            }
            const auto rows = w.gather(g.row_idx(), mask, [&](int lane) {
              return static_cast<std::size_t>(base + lane);
            });
            w.atomic_add(y, mask,
                         [&](int lane) {
                           return static_cast<std::size_t>(rows[lane]);
                         },
                         [&](int) { return xv; });
          }
        }
      });
}

template <typename T>
void spmv_backward_scatter_sccooc(sim::Device& device, const DeviceCooc& g,
                                  const sim::DeviceBuffer<T>& x,
                                  sim::DeviceBuffer<T>& y) {
  sim::launch_scalar(
      device, "dep_spmv_sccooc_scatter", static_cast<std::uint64_t>(g.m()),
      [&](sim::ThreadCtx& t) {
        const auto k = static_cast<std::size_t>(t.global_id());
        const vidx_t col = g.col_idx().load(t, k);
        const T xv = x.load(t, static_cast<std::size_t>(col));
        t.count_ops(1);
        if (xv != 0) {
          const vidx_t row = g.row_idx().load(t, k);
          y.atomic_add(t, static_cast<std::size_t>(row), xv);
        }
      });
}

}  // namespace turbobc::spmv
