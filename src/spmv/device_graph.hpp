// Device-resident sparse adjacency structures.
//
// Matching the paper's memory strategy, exactly ONE storage format is
// uploaded per BC computation, the value array of the binary matrix is never
// materialized, and the index arrays are 32-bit words — so the device-side
// inventory is (n+1) + m words for CSC and 2m words for COOC (Figure 4).
//
// Each column-major structure (DeviceCsc here, storage::DeviceCompressedCsc
// for the delta-varint image) exposes a nested Cursor: the sequential
// row-id reader the storage-templated thread-per-column kernels of
// spmv_kernels.hpp walk a column with. The kernels are written once; the
// cursor decides what a row id costs.
#pragma once

#include <limits>

#include "common/error.hpp"
#include "common/types.hpp"
#include "gpusim/buffer.hpp"
#include "gpusim/kernel.hpp"
#include "graph/cooc.hpp"
#include "graph/csc.hpp"

namespace turbobc::spmv {

/// 32-bit device edge offset (the paper's CP_A entries). All workloads in
/// this repo keep m below 2^31; construction checks.
using dptr_t = std::int32_t;

class DeviceCsc {
 public:
  /// Row ids of one column, in k order from the column's first nonzero:
  /// each one is a single charged 4-byte row_A load.
  class Cursor {
   public:
    Cursor(const DeviceCsc& g, sim::ThreadCtx& t, std::size_t /*col*/,
           dptr_t begin)
        : g_(g), t_(t), k_(static_cast<std::size_t>(begin)) {}

    vidx_t next() { return g_.row_idx().load(t_, k_++); }

   private:
    const DeviceCsc& g_;
    sim::ThreadCtx& t_;
    std::size_t k_;
  };

  DeviceCsc(sim::Device& device, const graph::CscGraph& g)
      : n_(g.num_vertices()),
        m_(g.num_arcs()),
        col_ptr_(device, static_cast<std::size_t>(n_) + 1, "CP_A"),
        row_idx_(device, static_cast<std::size_t>(m_), "row_A") {
    TBC_CHECK(m_ <= std::numeric_limits<dptr_t>::max(),
              "graph too large for 32-bit device column pointers");
    std::vector<dptr_t> cp(g.col_ptr().size());
    for (std::size_t i = 0; i < cp.size(); ++i) {
      cp[i] = static_cast<dptr_t>(g.col_ptr()[i]);
    }
    col_ptr_.copy_from_host(cp);
    row_idx_.copy_from_host(g.row_idx());
  }

  /// Upload a raw shard: `n_cols` local columns whose pointer array indexes
  /// into `rows`. Used by the 1D-partitioned engine, whose column blocks keep
  /// GLOBAL row ids (the SpMV kernels then gather from a full-length operand
  /// vector while writing a local-length result).
  DeviceCsc(sim::Device& device, vidx_t n_cols, std::vector<dptr_t> cp,
            std::vector<vidx_t> rows)
      : n_(n_cols),
        m_(static_cast<eidx_t>(rows.size())),
        col_ptr_(device, static_cast<std::size_t>(n_cols) + 1, "CP_A"),
        row_idx_(device, rows.size(), "row_A") {
    TBC_CHECK(cp.size() == static_cast<std::size_t>(n_cols) + 1,
              "shard column pointer array has wrong length");
    col_ptr_.copy_from_host(cp);
    row_idx_.copy_from_host(rows);
  }

  /// Clone an already-uploaded structure onto another device (used by the
  /// parallel source fan-out's replica devices: same arrays, same modeled
  /// widths, so replica memory accounting matches the original exactly).
  DeviceCsc(sim::Device& device, const DeviceCsc& other)
      : n_(other.n_),
        m_(other.m_),
        col_ptr_(device, other.col_ptr_.size(), "CP_A"),
        row_idx_(device, other.row_idx_.size(), "row_A") {
    col_ptr_.copy_from_host(other.col_ptr_.host());
    row_idx_.copy_from_host(other.row_idx_.host());
  }

  vidx_t n() const noexcept { return n_; }
  eidx_t m() const noexcept { return m_; }
  const sim::DeviceBuffer<dptr_t>& col_ptr() const noexcept { return col_ptr_; }
  const sim::DeviceBuffer<vidx_t>& row_idx() const noexcept { return row_idx_; }

 private:
  vidx_t n_;
  eidx_t m_;
  sim::DeviceBuffer<dptr_t> col_ptr_;
  sim::DeviceBuffer<vidx_t> row_idx_;
};

class DeviceCooc {
 public:
  DeviceCooc(sim::Device& device, const graph::CoocGraph& g)
      : n_(g.num_vertices()),
        m_(g.num_arcs()),
        row_idx_(device, static_cast<std::size_t>(m_), "row_A"),
        col_idx_(device, static_cast<std::size_t>(m_), "col_A") {
    row_idx_.copy_from_host(g.row_idx());
    col_idx_.copy_from_host(g.col_idx());
  }

  /// Upload a raw shard of `n_cols` local columns; `rows` keeps global row
  /// ids while `cols` is rebased to the local column range (see DeviceCsc's
  /// shard constructor).
  DeviceCooc(sim::Device& device, vidx_t n_cols, std::vector<vidx_t> rows,
             std::vector<vidx_t> cols)
      : n_(n_cols),
        m_(static_cast<eidx_t>(rows.size())),
        row_idx_(device, rows.size(), "row_A"),
        col_idx_(device, cols.size(), "col_A") {
    TBC_CHECK(rows.size() == cols.size(),
              "shard COOC index arrays have mismatched lengths");
    row_idx_.copy_from_host(rows);
    col_idx_.copy_from_host(cols);
  }

  /// Clone an already-uploaded structure onto another device (see
  /// DeviceCsc's clone constructor).
  DeviceCooc(sim::Device& device, const DeviceCooc& other)
      : n_(other.n_),
        m_(other.m_),
        row_idx_(device, other.row_idx_.size(), "row_A"),
        col_idx_(device, other.col_idx_.size(), "col_A") {
    row_idx_.copy_from_host(other.row_idx_.host());
    col_idx_.copy_from_host(other.col_idx_.host());
  }

  vidx_t n() const noexcept { return n_; }
  eidx_t m() const noexcept { return m_; }
  const sim::DeviceBuffer<vidx_t>& row_idx() const noexcept { return row_idx_; }
  const sim::DeviceBuffer<vidx_t>& col_idx() const noexcept { return col_idx_; }

 private:
  vidx_t n_;
  eidx_t m_;
  sim::DeviceBuffer<vidx_t> row_idx_;
  sim::DeviceBuffer<vidx_t> col_idx_;
};

}  // namespace turbobc::spmv
