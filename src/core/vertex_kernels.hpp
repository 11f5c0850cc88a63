// Algorithm 1's vertex-wise kernels, written once.
//
// Every engine runs the same handful of one-thread-per-vertex kernels
// around its sparse products: the BFS seed and update, the dependency
// prepare / update pair and the bc accumulation — plus their k-lane forms
// over the MS-BFS engines' interleaved slot v * k + j. Each kernel runs over
// a local column slice of `n_local` vertices: the whole graph for the
// resident and streamed engines, one shard's columns for the partitioned
// engine, whose accumulators also need the slice's first global column
// (`col_begin`) to skip the source's own lane. Launch names, per-thread
// load/store order and op counts are the contract the cost model and the
// launch-pin goldens see; they must not change.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "gpusim/buffer.hpp"
#include "gpusim/kernel.hpp"
#include "spmv/device_graph.hpp"

namespace turbobc::bc {

/// Seed the forward sweep: f(s) = sigma(s) = 1 at local index `s`.
template <typename T>
void bfs_init(sim::Device& dev, sim::DeviceBuffer<T>& f,
              sim::DeviceBuffer<T>& sigma, std::size_t s) {
  sim::launch_scalar(dev, "bfs_init", 1, [&](sim::ThreadCtx& t) {
    f.store(t, s, T{1});
    sigma.store(t, s, T{1});
  });
}

/// Commit level `d` (Algorithm 1 lines 20-26): f <- f_t, and for every new
/// vertex S <- d, sigma += f, raise the frontier flag c[0]. `mask` applies
/// the sigma mask here instead of inside the SpMV (the scCOOC pipeline).
/// A non-null `col_ptr` also counts the new vertices (c[1]) and their
/// in-edges (c[2]) for the direction switch.
template <typename T>
void bfs_update(sim::Device& dev, vidx_t n_local, vidx_t d,
                const sim::DeviceBuffer<T>& ft, sim::DeviceBuffer<T>& f,
                sim::DeviceBuffer<std::int32_t>& S,
                sim::DeviceBuffer<T>& sigma,
                sim::DeviceBuffer<std::int32_t>& cflag, bool mask,
                const sim::DeviceBuffer<spmv::dptr_t>* col_ptr) {
  sim::launch_scalar(
      dev, "bfs_update", static_cast<std::uint64_t>(n_local),
      [&](sim::ThreadCtx& t) {
        const auto i = static_cast<std::size_t>(t.global_id());
        T v = ft.load(t, i);
        t.count_ops(1);
        if (mask && v != 0 && sigma.load(t, i) != 0) v = 0;
        f.store(t, i, v);
        if (v != 0) {
          S.store(t, i, d);
          sigma.store(t, i, static_cast<T>(sigma.load(t, i) + v));
          cflag.store(t, 0, 1);
          if (col_ptr != nullptr) {
            cflag.atomic_add(t, 1, 1);
            cflag.atomic_add(t, 2,
                             static_cast<std::int32_t>(
                                 col_ptr->load(t, i + 1) -
                                 col_ptr->load(t, i)));
          }
        }
      });
}

/// delta_u <- (1 + delta) / sigma on the depth-d slice, 0 elsewhere. The
/// k-lane form (lanes = k >= 1, launch "dep_prepare_batched") walks each
/// vertex's k interleaved slots v * k + j; lanes = 0 is the per-source
/// kernel.
template <typename T>
void dep_prepare(sim::Device& dev, vidx_t n_local, vidx_t d,
                 const sim::DeviceBuffer<std::int32_t>& S,
                 const sim::DeviceBuffer<T>& sigma,
                 const sim::DeviceBuffer<bc_t>& delta,
                 sim::DeviceBuffer<bc_t>& delta_u, std::size_t lanes = 0) {
  const std::size_t k = lanes == 0 ? 1 : lanes;
  sim::launch_scalar(
      dev, lanes == 0 ? "dep_prepare" : "dep_prepare_batched",
      static_cast<std::uint64_t>(n_local), [&](sim::ThreadCtx& t) {
        const auto v = static_cast<std::size_t>(t.global_id());
        for (std::size_t s = v * k; s < v * k + k; ++s) {
          bc_t out = 0.0;
          if (S.load(t, s) == d) {
            const T sg = sigma.load(t, s);
            if (sg > 0) out = (1.0 + delta.load(t, s)) / static_cast<bc_t>(sg);
          }
          delta_u.store(t, s, out);
          t.count_ops(1);
        }
      });
}

/// delta += delta_ut * sigma on the depth-(d-1) slice; `lanes` as in
/// dep_prepare (launch "dep_update_batched").
template <typename T>
void dep_update(sim::Device& dev, vidx_t n_local, vidx_t d,
                const sim::DeviceBuffer<std::int32_t>& S,
                const sim::DeviceBuffer<T>& sigma,
                const sim::DeviceBuffer<bc_t>& delta_ut,
                sim::DeviceBuffer<bc_t>& delta, std::size_t lanes = 0) {
  const std::size_t k = lanes == 0 ? 1 : lanes;
  sim::launch_scalar(
      dev, lanes == 0 ? "dep_update" : "dep_update_batched",
      static_cast<std::uint64_t>(n_local), [&](sim::ThreadCtx& t) {
        const auto v = static_cast<std::size_t>(t.global_id());
        for (std::size_t s = v * k; s < v * k + k; ++s) {
          if (S.load(t, s) == d - 1) {
            const bc_t du = delta_ut.load(t, s);
            if (du != 0.0) {
              const T sg = sigma.load(t, s);
              delta.store(t, s, delta.load(t, s) + du * static_cast<bc_t>(sg));
            }
          }
          t.count_ops(1);
        }
      });
}

/// bc += delta * scale (Eq. 3), skipping the source's own vertex.
inline void bc_accum(sim::Device& dev, vidx_t n_local, vidx_t col_begin,
                     vidx_t source, bc_t scale,
                     const sim::DeviceBuffer<bc_t>& delta,
                     sim::DeviceBuffer<bc_t>& bc) {
  sim::launch_scalar(
      dev, "bc_accum", static_cast<std::uint64_t>(n_local),
      [&](sim::ThreadCtx& t) {
        const auto i = static_cast<std::size_t>(t.global_id());
        if (col_begin + static_cast<vidx_t>(i) == source) return;
        const bc_t dl = delta.load(t, i);
        if (dl != 0.0) bc.store(t, i, bc.load(t, i) + dl * scale);
        t.count_ops(1);
      });
}

/// Strict per-lane LEFT fold into the running accumulator: bc(v) gains each
/// lane's delta * scale one add at a time, in lane (source) order, skipping
/// exact zeros and each lane's own source — the float grouping of the
/// per-source engine's block merge, which keeps batched BC bit-identical to
/// per-source TurboBC.
inline void bc_accum_batched(sim::Device& dev, vidx_t n_local,
                             vidx_t col_begin,
                             const std::vector<vidx_t>& batch, bc_t scale,
                             const sim::DeviceBuffer<bc_t>& delta,
                             sim::DeviceBuffer<bc_t>& bc) {
  const std::size_t k = batch.size();
  sim::launch_scalar(
      dev, "bc_accum_batched", static_cast<std::uint64_t>(n_local),
      [&](sim::ThreadCtx& t) {
        const auto i = static_cast<std::size_t>(t.global_id());
        const vidx_t v = col_begin + static_cast<vidx_t>(i);
        bc_t acc = bc.load(t, i);
        bool touched = false;
        for (std::size_t j = 0; j < k; ++j) {
          if (v == batch[j]) continue;
          const bc_t dl = delta.load(t, i * k + j);
          if (dl != 0.0) {
            acc += dl * scale;
            touched = true;
          }
          t.count_ops(1);
        }
        if (touched) bc.store(t, i, acc);
      });
}

}  // namespace turbobc::bc
