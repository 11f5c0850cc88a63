// Device-resident delta-varint compressed CSC (DESIGN.md §12).
//
// Four buffers mirror the host CompressedCsc layout:
//   CP_A      (n+1 dptr_t)  — edge offsets, same modeled width as DeviceCsc's
//                             column pointers so degree reads cost the same.
//   CPB_A     (n+1 dptr_t)  — byte offsets into the varint stream.
//   row_bytes (B uint8)     — the byte stream, modeled at ONE byte per
//                             element. Sequential byte loads from one column
//                             coalesce into ~4x fewer 32-byte sectors than
//                             4-byte row-id loads — the fewer-transactions
//                             side of the decode tradeoff, charged by the
//                             existing coalescing model with no cost-model
//                             changes.
//   CFMT_A    (n/32 words)  — the per-column format bitmap: raw hub columns
//                             read row ids as single 4-byte vector loads
//                             (DeviceBuffer::load_span) instead of the
//                             byte-at-a-time varint walk.
//
// The shard constructor uploads a REBASED column window: `n_cols` local
// columns with col_ptr/byte_off rebased to start at zero, used by
// StreamingTurboBC's resident window. Row ids stay global in the stream
// (they are what the varints decode to), so kernels gather from full-length
// operand vectors while writing local columns — the same convention as the
// 1D-partitioned DeviceCsc shards.
//
// The nested Cursor decodes one column's row ids for the storage-templated
// thread-per-column kernels of spmv/spmv_kernels.hpp: instantiated over this
// type, every scCSC operator reads the byte stream instead of row_A.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "gpusim/buffer.hpp"
#include "spmv/device_graph.hpp"
#include "storage/compressed_csc.hpp"

namespace turbobc::storage {

class DeviceCompressedCsc {
 public:
  class Cursor;

  DeviceCompressedCsc(sim::Device& device, const CompressedCsc& c)
      : n_(c.n),
        m_(c.m),
        col_ptr_(device, static_cast<std::size_t>(c.n) + 1, "CP_A"),
        byte_off_(device, static_cast<std::size_t>(c.n) + 1, "CPB_A"),
        bytes_(device, c.bytes.size(), "row_bytes",
               /*modeled_elem_bytes=*/1),
        fmt_(device, fmt_words(c.n), "CFMT_A") {
    TBC_CHECK(c.col_ptr.size() == static_cast<std::size_t>(c.n) + 1 &&
                  c.byte_off.size() == static_cast<std::size_t>(c.n) + 1,
              "compressed CSC offset arrays have wrong length");
    col_ptr_.copy_from_host(c.col_ptr);
    byte_off_.copy_from_host(c.byte_off);
    bytes_.copy_from_host(c.bytes);
    if (c.fmt.size() == fmt_words(c.n)) {
      fmt_.copy_from_host(c.fmt);
    } else {
      // Hand-built fixtures without a bitmap: all-varint.
      fmt_.copy_from_host(std::vector<std::uint32_t>(fmt_words(c.n), 0u));
    }
  }

  /// Upload a raw column shard: `n_cols` local columns whose offset arrays
  /// are rebased to zero; the varint stream still decodes to GLOBAL row ids.
  DeviceCompressedCsc(sim::Device& device, vidx_t n_cols,
                      std::vector<spmv::dptr_t> cp,
                      std::vector<spmv::dptr_t> boff,
                      std::vector<std::uint8_t> stream,
                      std::vector<std::uint32_t> fmt)
      : n_(n_cols),
        m_(cp.empty() ? 0 : static_cast<eidx_t>(cp.back())),
        col_ptr_(device, static_cast<std::size_t>(n_cols) + 1, "CP_A"),
        byte_off_(device, static_cast<std::size_t>(n_cols) + 1, "CPB_A"),
        bytes_(device, stream.size(), "row_bytes",
               /*modeled_elem_bytes=*/1),
        fmt_(device, fmt_words(n_cols), "CFMT_A") {
    TBC_CHECK(cp.size() == static_cast<std::size_t>(n_cols) + 1 &&
                  boff.size() == static_cast<std::size_t>(n_cols) + 1,
              "compressed shard offset arrays have wrong length");
    TBC_CHECK(fmt.size() == fmt_words(n_cols),
              "compressed shard format bitmap has wrong length");
    col_ptr_.copy_from_host(cp);
    byte_off_.copy_from_host(boff);
    bytes_.copy_from_host(stream);
    fmt_.copy_from_host(fmt);
  }

  /// Clone onto another device (parallel source fan-out replicas).
  DeviceCompressedCsc(sim::Device& device, const DeviceCompressedCsc& other)
      : n_(other.n_),
        m_(other.m_),
        col_ptr_(device, other.col_ptr_.size(), "CP_A"),
        byte_off_(device, other.byte_off_.size(), "CPB_A"),
        bytes_(device, other.bytes_.size(), "row_bytes",
               /*modeled_elem_bytes=*/1),
        fmt_(device, other.fmt_.size(), "CFMT_A") {
    col_ptr_.copy_from_host(other.col_ptr_.host());
    byte_off_.copy_from_host(other.byte_off_.host());
    bytes_.copy_from_host(other.bytes_.host());
    fmt_.copy_from_host(other.fmt_.host());
  }

  vidx_t n() const noexcept { return n_; }
  eidx_t m() const noexcept { return m_; }
  const sim::DeviceBuffer<spmv::dptr_t>& col_ptr() const noexcept {
    return col_ptr_;
  }
  const sim::DeviceBuffer<spmv::dptr_t>& byte_off() const noexcept {
    return byte_off_;
  }
  const sim::DeviceBuffer<std::uint8_t>& bytes() const noexcept {
    return bytes_;
  }
  const sim::DeviceBuffer<std::uint32_t>& fmt() const noexcept {
    return fmt_;
  }

  /// Device bytes this structure occupies under the modeled widths.
  std::uint64_t device_bytes() const noexcept {
    return 4ull * (static_cast<std::uint64_t>(n_) + 1) * 2 +
           4ull * static_cast<std::uint64_t>(fmt_.size()) +
           static_cast<std::uint64_t>(bytes_.size());
  }

 private:
  vidx_t n_;
  eidx_t m_;
  sim::DeviceBuffer<spmv::dptr_t> col_ptr_;
  sim::DeviceBuffer<spmv::dptr_t> byte_off_;
  sim::DeviceBuffer<std::uint8_t> bytes_;
  sim::DeviceBuffer<std::uint32_t> fmt_;
};

/// Sequential row-id reader over one column's byte range. The format bitmap
/// picks the branch per column: varint chains consume one charged 1-byte
/// load plus one decode word-op per byte; raw hub columns read each row id
/// as a single charged 4-byte vector load (load_span) with no decode ALU —
/// the same shape as the uncompressed kernel's row-index load.
///
/// Bit-identity: the decode yields exactly the row sequence the plain CSC
/// cursor loads, in the same k order, so every kernel instantiated over
/// both storages folds the same values in the same order (oracle invariant
/// `ooc_agreement`). `local_col` is the column within this (possibly
/// rebased) structure; decoded row ids are always global.
class DeviceCompressedCsc::Cursor {
 public:
  Cursor(const DeviceCompressedCsc& g, sim::ThreadCtx& t,
         std::size_t local_col, spmv::dptr_t /*begin*/)
      : g_(g), t_(t) {
    pos_ = static_cast<std::size_t>(g.byte_off().load(t, local_col));
    const std::uint32_t word = g.fmt().load(t, local_col >> 5);
    raw_ = ((word >> (local_col & 31u)) & 1u) != 0;
    t.count_word_ops(1);  // bitmap shift/test
  }

  /// The next row id: a raw 4-byte word, or a decoded varint (absolute for
  /// the first call, prior + gap afterwards — the inverse of
  /// append_column_bytes's delta chain).
  vidx_t next() {
    if (raw_) {
      std::uint8_t w[4];
      g_.bytes().load_span(t_, pos_, 4, w);
      pos_ += 4;
      return static_cast<vidx_t>(
          static_cast<std::uint32_t>(w[0]) |
          static_cast<std::uint32_t>(w[1]) << 8 |
          static_cast<std::uint32_t>(w[2]) << 16 |
          static_cast<std::uint32_t>(w[3]) << 24);
    }
    std::uint32_t value = 0;
    int shift = 0;
    while (true) {
      const std::uint8_t b = g_.bytes().load(t_, pos_++);
      t_.count_word_ops(1);
      value |= static_cast<std::uint32_t>(b & 0x7Fu) << shift;
      if ((b & 0x80u) == 0) break;
      shift += 7;
    }
    acc_ = first_ ? value : acc_ + value;
    first_ = false;
    return static_cast<vidx_t>(acc_);
  }

 private:
  const DeviceCompressedCsc& g_;
  sim::ThreadCtx& t_;
  std::size_t pos_ = 0;
  std::uint32_t acc_ = 0;
  bool first_ = true;
  bool raw_ = false;
};

/// Call `fn` with the resident column storage — the compressed image when
/// present, the plain CSC otherwise — so one generic lambda instantiates a
/// storage-templated kernel of spmv/spmv_kernels.hpp for either.
template <typename Fn>
void with_columns(const spmv::DeviceCsc* csc, const DeviceCompressedCsc* ccsc,
                  Fn&& fn) {
  if (ccsc != nullptr) {
    fn(*ccsc);
  } else {
    fn(*csc);
  }
}

/// Exactly one sparse format resident on one device (paper Section 3.4).
struct ResidentGraph {
  std::optional<spmv::DeviceCsc> csc;
  std::optional<spmv::DeviceCooc> cooc;
  std::optional<DeviceCompressedCsc> ccsc;

  /// Upload the compressed image under `compress`, else COOC or CSC.
  void upload(sim::Device& device, const graph::EdgeList& canon,
              bool use_cooc, bool compress) {
    if (compress) {
      ccsc.emplace(device, encode_csc(graph::CscGraph::from_edges(canon)));
    } else if (use_cooc) {
      cooc.emplace(device, graph::CoocGraph::from_edges(canon));
    } else {
      csc.emplace(device, graph::CscGraph::from_edges(canon));
    }
  }

  /// Copy another device's image onto `device` (the source fan-out's
  /// per-block replicas).
  void replicate(sim::Device& device, const ResidentGraph& other) {
    if (other.ccsc) {
      ccsc.emplace(device, *other.ccsc);
    } else if (other.cooc) {
      cooc.emplace(device, *other.cooc);
    } else {
      csc.emplace(device, *other.csc);
    }
  }
};

}  // namespace turbobc::storage
