// Equivalence of the cost model's slot pipeline against the sort-every-slot
// coalescer it replaced. The pipeline's fast paths (in-order sector
// collection, division-free L2 line index, in-place warp reduction) must
// reproduce every modeled count, sector and bit of the reference; this file
// keeps that reference verbatim and drives both with randomized slots.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "common/prng.hpp"
#include "gpusim/buffer.hpp"
#include "gpusim/costmodel.hpp"
#include "gpusim/kernel.hpp"

namespace turbobc::sim {
namespace {

// ---- Reference: the coalescer as it stood before the fast paths. ----

std::uint64_t reference_coalesce_slot(const DeviceProps& props,
                                      LaunchRecord& rec,
                                      const Access* accesses, int count,
                                      std::vector<std::uint64_t>& sectors_out) {
  if (count <= 0) return 0;

  // Collect the touched sectors of the warp's active lanes. A lane request
  // can straddle a sector boundary (16 B loads), hence up to 2 sectors each.
  std::array<std::uint64_t, 64> sectors;
  int n_sectors = 0;
  std::array<std::uint64_t, 32> addrs;  // for atomic contention analysis
  int n_atomics = 0;
  bool has_float_atomic = false;
  bool is_store = false;

  const auto sector_of = [&](std::uint64_t a) {
    return a / static_cast<std::uint64_t>(props.sector_bytes);
  };

  for (int i = 0; i < count; ++i) {
    const Access& a = accesses[i];
    const std::uint64_t first = sector_of(a.addr);
    const std::uint64_t last = sector_of(a.addr + (a.size ? a.size - 1 : 0));
    sectors[n_sectors++] = first;
    if (last != first) sectors[n_sectors++] = last;
    switch (a.op) {
      case MemOp::kLoad:
        ++rec.load_requests;
        break;
      case MemOp::kStore:
        ++rec.store_requests;
        is_store = true;
        break;
      case MemOp::kAtomicFloat:
        has_float_atomic = true;
        ++rec.atomic_float_requests;
        [[fallthrough]];
      case MemOp::kAtomic:
        ++rec.atomic_requests;
        is_store = true;  // atomics produce read-modify-write traffic
        addrs[n_atomics++] = a.addr;
        break;
    }
  }

  std::sort(sectors.begin(), sectors.begin() + n_sectors);
  const auto uniq_end = std::unique(sectors.begin(), sectors.begin() + n_sectors);
  const auto unique_sectors =
      static_cast<std::uint64_t>(uniq_end - sectors.begin());

  sectors_out.insert(sectors_out.end(), sectors.begin(), uniq_end);
  if (is_store) {
    rec.store_transactions += unique_sectors;
  } else {
    rec.load_transactions += unique_sectors;
  }

  // Issue cost: one issue plus a replay per extra transaction; contended
  // atomics additionally serialize per conflicting lane.
  std::uint64_t slots = std::max<std::uint64_t>(1, unique_sectors);
  if (n_atomics > 0) {
    std::sort(addrs.begin(), addrs.begin() + n_atomics);
    const auto distinct = static_cast<std::uint64_t>(
        std::unique(addrs.begin(), addrs.begin() + n_atomics) - addrs.begin());
    slots += static_cast<std::uint64_t>(n_atomics) - distinct;
    if (has_float_atomic) slots *= CostModel::kFloatAtomicPenalty;
  }
  rec.issue_slots += slots;
  return slots;
}

/// The warp reduction as it stood before the in-place fold: five shfl_down
/// copies of the whole warp.
template <typename T>
T reference_reduce_add(WarpCtx& w, std::array<T, kWarpSize> v) {
  for (int offset = kWarpSize / 2; offset > 0; offset /= 2) {
    const auto shifted = w.shfl_down(v, offset);
    for (int lane = 0; lane < kWarpSize; ++lane) {
      v[lane] = static_cast<T>(v[lane] + shifted[lane]);
    }
    w.count_ops(1);  // the add
  }
  return v[0];
}

void expect_same_record(const LaunchRecord& a, const LaunchRecord& b) {
  EXPECT_EQ(a.kernel, b.kernel);
  EXPECT_EQ(a.warps, b.warps);
  EXPECT_EQ(a.issue_slots, b.issue_slots);
  EXPECT_EQ(a.max_warp_slots, b.max_warp_slots);
  EXPECT_EQ(a.load_requests, b.load_requests);
  EXPECT_EQ(a.store_requests, b.store_requests);
  EXPECT_EQ(a.atomic_requests, b.atomic_requests);
  EXPECT_EQ(a.atomic_float_requests, b.atomic_float_requests);
  EXPECT_EQ(a.load_transactions, b.load_transactions);
  EXPECT_EQ(a.store_transactions, b.store_transactions);
  EXPECT_EQ(a.l2_hit_transactions, b.l2_hit_transactions);
  EXPECT_EQ(a.dram_transactions, b.dram_transactions);
  EXPECT_EQ(a.word_ops, b.word_ops);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.time_s),
            std::bit_cast<std::uint64_t>(b.time_s));
}

enum class Order { kAscending, kDescending, kShuffled };

/// A random slot of 0-32 lanes: addresses in the given lane order, some
/// lanes repeating a neighbour's address, widths from {1, 4, 8, 16} at
/// arbitrary byte offsets (so wide lanes straddle sectors), and either one
/// width and op for the whole slot or a per-lane mix.
std::vector<Access> random_slot(Xoshiro256& rng, Order order, bool mixed_ops) {
  static constexpr std::array<std::uint8_t, 4> kWidths{1, 4, 8, 16};
  static constexpr std::array<MemOp, 4> kOps{
      MemOp::kLoad, MemOp::kStore, MemOp::kAtomic, MemOp::kAtomicFloat};
  const int count = static_cast<int>(rng.uniform(33));
  // Two 64 KiB windows, so slots revisit sectors (L2 hits); the upper one
  // straddles sector 2^32, where the L2 index leaves its fast path.
  const std::uint64_t base = (rng.bernoulli(0.5) ? 0 : (1ULL << 37) - 32768) +
                             rng.uniform(1 << 16);
  const std::uint64_t stride = rng.uniform(80);
  const std::uint8_t slot_width = kWidths[rng.uniform(kWidths.size())];
  const MemOp slot_op = kOps[rng.uniform(kOps.size())];
  std::vector<Access> acc;
  for (int lane = 0; lane < count; ++lane) {
    Access a;
    a.addr = lane > 0 && rng.bernoulli(0.2)
                 ? acc.back().addr
                 : base + static_cast<std::uint64_t>(lane) * stride +
                       rng.uniform(4);
    a.size = mixed_ops ? kWidths[rng.uniform(kWidths.size())] : slot_width;
    a.op = mixed_ops ? kOps[rng.uniform(kOps.size())] : slot_op;
    acc.push_back(a);
  }
  if (order == Order::kDescending) {
    std::reverse(acc.begin(), acc.end());
  } else if (order == Order::kShuffled) {
    std::shuffle(acc.begin(), acc.end(), rng);
  }
  return acc;
}

TEST(CoalesceEquivalence, RandomSlotsMatchReferenceCountsAndSectors) {
  const DeviceProps props = DeviceProps::titan_xp();
  CostModel model(props);
  CostModel replay_model(props);
  CostModel reference_model(props);
  Xoshiro256 rng(0xc0a1e5ce);
  LaunchRecord rec, replay_rec, ref_rec;
  std::vector<std::uint64_t> stream, ref_stream;
  for (int iter = 0; iter < 20000; ++iter) {
    const auto order = static_cast<Order>(iter % 3);
    const bool mixed_ops = (iter / 3) % 2 == 1;
    const std::vector<Access> acc = random_slot(rng, order, mixed_ops);
    const int count = static_cast<int>(acc.size());

    // Per-lane path (the scalar launcher's zipped lane logs); the
    // warp-uniform path is checked through WarpCtx below.
    SlotSectors sectors;
    const std::uint64_t slots = model.coalesce(
        rec, count, [&](int i) -> const Access& { return acc[i]; }, sectors);
    const std::size_t before = ref_stream.size();
    const std::uint64_t ref_slots =
        reference_coalesce_slot(props, ref_rec, acc.data(), count, ref_stream);
    ASSERT_EQ(slots, ref_slots) << "iteration " << iter;
    ASSERT_TRUE(std::equal(sectors.begin(), sectors.end(),
                           ref_stream.begin() +
                               static_cast<std::ptrdiff_t>(before),
                           ref_stream.end()))
        << "iteration " << iter;
    stream.insert(stream.end(), sectors.begin(), sectors.end());

    // The stateful pipeline: process_slot against the reference's sectors
    // replayed through an L2 of the same shape.
    replay_model.process_slot(replay_rec, acc.data(), count);
  }
  reference_model.replay_sectors(ref_rec, ref_stream.data(), ref_stream.size());
  model.replay_sectors(rec, stream.data(), stream.size());
  EXPECT_EQ(stream, ref_stream);
  expect_same_record(rec, ref_rec);
  expect_same_record(replay_rec, ref_rec);
  EXPECT_GT(ref_rec.l2_hit_transactions, 0u);
  EXPECT_GT(ref_rec.dram_transactions, 0u);
}

TEST(CoalesceEquivalence, EmptySlotCostsNothingAndEmitsNoSectors) {
  CostModel model(DeviceProps::titan_xp());
  LaunchRecord rec;
  SlotSectors sectors;
  sectors.count = 7;
  EXPECT_EQ(model.coalesce(rec, 0, [](int) { return Access{}; }, sectors), 0u);
  EXPECT_EQ(sectors.count, 0);
  expect_same_record(rec, LaunchRecord{});
}

/// Gathers, scatters, atomics and broadcast loads through WarpCtx against
/// the reference fed the Access each lane used to record (sizeof(T) wide).
TEST(CoalesceEquivalence, WarpContextSlotsMatchReference) {
  Device dev;
  DeviceBuffer<double> narrow(dev, 4096, "narrow", 4);  // modeled 4 B
  DeviceBuffer<std::uint32_t> words(dev, 4096, "words");
  narrow.device_fill(1.0);
  words.device_fill(1);
  Xoshiro256 rng(7);
  std::vector<std::array<std::size_t, kWarpSize>> idx(64);
  std::vector<std::uint32_t> masks(64);
  for (std::size_t s = 0; s < idx.size(); ++s) {
    const std::size_t base = rng.uniform(4000);
    for (int lane = 0; lane < kWarpSize; ++lane) {
      switch (s % 3) {
        case 0: idx[s][lane] = base + static_cast<std::size_t>(lane); break;
        case 1: idx[s][lane] = base + 64 - static_cast<std::size_t>(lane); break;
        default: idx[s][lane] = rng.uniform(4096); break;
      }
    }
    masks[s] = s % 4 == 0 ? kFullMask : static_cast<std::uint32_t>(rng());
  }

  const DeviceProps props = dev.props();
  CostModel reference(props);
  LaunchRecord ref_rec;
  ref_rec.kernel = intern_kernel_name("equivalence");
  ref_rec.warps = 1;
  std::vector<std::uint64_t> ref_stream;
  std::uint64_t ref_warp_slots = 0;
  const auto ref_slot = [&](std::vector<Access> acc) {
    ref_warp_slots += reference_coalesce_slot(
        props, ref_rec, acc.data(), static_cast<int>(acc.size()), ref_stream);
  };
  const auto lanes_of = [&](std::size_t s, const auto& buf, std::uint8_t size,
                            MemOp op) {
    std::vector<Access> acc;
    for (int lane = 0; lane < kWarpSize; ++lane) {
      if ((masks[s] >> lane) & 1u) {
        acc.push_back({buf.addr_of(idx[s][lane]), size, op});
      }
    }
    return acc;
  };

  launch_warp(dev, "equivalence", 1, [&](WarpCtx& w) {
    for (std::size_t s = 0; s < idx.size(); ++s) {
      const auto at = [&](int lane) { return idx[s][lane]; };
      w.gather(narrow, masks[s], at);
      w.gather(words, masks[s], at);
      w.scatter(words, masks[s], at, [](int lane) { return lane; });
      w.atomic_add(narrow, masks[s], at, [](int) { return 0.5; });
      w.atomic_add(words, masks[s], at, [](int) { return 1u; });
      w.broadcast_load(narrow, idx[s][0]);
    }
  });
  for (std::size_t s = 0; s < idx.size(); ++s) {
    ref_slot(lanes_of(s, narrow, sizeof(double), MemOp::kLoad));
    ref_slot(lanes_of(s, words, sizeof(std::uint32_t), MemOp::kLoad));
    ref_slot(lanes_of(s, words, sizeof(std::uint32_t), MemOp::kStore));
    ref_slot(lanes_of(s, narrow, sizeof(double), MemOp::kAtomicFloat));
    ref_slot(lanes_of(s, words, sizeof(std::uint32_t), MemOp::kAtomic));
    ref_slot({Access{narrow.addr_of(idx[s][0]), sizeof(double),
                     MemOp::kLoad}});
  }
  reference.replay_sectors(ref_rec, ref_stream.data(), ref_stream.size());
  ref_rec.max_warp_slots = ref_warp_slots;
  reference.finalize(ref_rec);
  ASSERT_EQ(dev.launches().size(), 1u);
  expect_same_record(dev.launches()[0], ref_rec);
}

TEST(CoalesceEquivalence, L2LineIndexEqualsModulo) {
  Xoshiro256 rng(11);
  // The Titan Xp's 98,304 lines (not a power of two), one line, a power of
  // two, and odd and prime-ish line counts.
  for (const std::size_t l2_bytes :
       {std::size_t{3} << 20, std::size_t{32}, std::size_t{1} << 20,
        std::size_t{32} * 99991, std::size_t{32} * 3, std::size_t{16}}) {
    DeviceProps props = DeviceProps::titan_xp();
    props.l2_bytes = l2_bytes;
    const CostModel model(props);
    const std::uint64_t lines = model.l2_lines();
    const auto check = [&](std::uint64_t sector) {
      ASSERT_EQ(model.l2_line(sector), sector % lines)
          << "sector " << sector << " lines " << lines;
    };
    for (int i = 0; i < 100000; ++i) {
      check(rng());
      check(rng() >> 32);
      check(rng.uniform(1ULL << 24));
    }
    for (std::uint64_t s = (1ULL << 32) - 2048; s < (1ULL << 32) + 2048; ++s) {
      check(s);
    }
    for (std::uint64_t k = 0; k <= (1ULL << 32) / lines + 1; k += 1 + k / 64) {
      for (const std::uint64_t s : {k * lines - 1, k * lines, k * lines + 1,
                                    k * lines + lines - 1}) {
        check(s);
      }
    }
    check(0);
    check(std::numeric_limits<std::uint64_t>::max());
  }
}

template <typename T>
std::array<T, kWarpSize> random_lanes(Xoshiro256& rng) {
  const std::array<T, 6> specials{T{0}, -T{0},
                                  std::numeric_limits<T>::infinity(),
                                  -std::numeric_limits<T>::infinity(),
                                  std::numeric_limits<T>::denorm_min(),
                                  std::numeric_limits<T>::max()};
  std::array<T, kWarpSize> v{};
  for (T& x : v) {
    if (rng.bernoulli(0.25)) {
      x = specials[rng.uniform(specials.size())];
    } else {
      const double mag = std::ldexp(rng.uniform_real(),
                                    static_cast<int>(rng.uniform(80)) - 40);
      x = static_cast<T>(rng.bernoulli(0.5) ? mag : -mag);
    }
  }
  return v;
}

template <typename T, typename Bits>
void check_reduce_add_matches_shuffle_tree(std::uint64_t seed) {
  Device dev;
  Xoshiro256 rng(seed);
  launch_warp(dev, "reduce_equivalence", 1, [&](WarpCtx& w) {
    for (int iter = 0; iter < 5000; ++iter) {
      std::array<T, kWarpSize> v = random_lanes<T>(rng);
      if (iter % 7 == 0) v.fill(-T{0});
      if (iter % 11 == 0) v.fill(T{0});
      const std::uint64_t s0 = w.slots();
      const T got = w.reduce_add(v);
      const std::uint64_t s1 = w.slots();
      const T want = reference_reduce_add(w, v);
      const std::uint64_t s2 = w.slots();
      ASSERT_EQ(std::bit_cast<Bits>(got), std::bit_cast<Bits>(want))
          << "iteration " << iter;
      ASSERT_EQ(s1 - s0, 10u);
      ASSERT_EQ(s2 - s1, 10u);
    }
  });
}

TEST(CoalesceEquivalence, ReduceAddMatchesShuffleTreeBitwiseDouble) {
  check_reduce_add_matches_shuffle_tree<double, std::uint64_t>(21);
}

TEST(CoalesceEquivalence, ReduceAddMatchesShuffleTreeBitwiseFloat) {
  check_reduce_add_matches_shuffle_tree<float, std::uint32_t>(22);
}

}  // namespace
}  // namespace turbobc::sim
