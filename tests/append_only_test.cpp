// Tests for the append-only bitvector (paper Theorem 4.5 + the Theorem 4.3
// Init offset). Queries are interleaved with appends and cross-checked
// against a reference, across densities and with/without a virtual prefix.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "bitvector/append_only.hpp"

namespace wt {
namespace {

struct Ref {
  std::vector<bool> bits;
  size_t Rank1(size_t pos) const {
    size_t c = 0;
    for (size_t i = 0; i < pos; ++i) c += bits[i];
    return c;
  }
  size_t Select(bool b, size_t k) const {
    for (size_t i = 0; i < bits.size(); ++i) {
      if (bits[i] == b && k-- == 0) return i;
    }
    ADD_FAILURE() << "reference select out of range";
    return size_t(-1);
  }
};

struct Cfg {
  double density;
  bool prefix_bit;
  size_t prefix_len;
};

class AppendOnlyParamTest : public ::testing::TestWithParam<Cfg> {};

TEST_P(AppendOnlyParamTest, InterleavedAppendsAndQueries) {
  const Cfg cfg = GetParam();
  std::mt19937_64 rng(99 + size_t(cfg.density * 1000) + cfg.prefix_len);
  std::bernoulli_distribution coin(cfg.density);

  AppendOnlyBitVector v =
      cfg.prefix_len > 0
          ? AppendOnlyBitVector(cfg.prefix_bit, cfg.prefix_len)
          : AppendOnlyBitVector();
  Ref ref;
  for (size_t i = 0; i < cfg.prefix_len; ++i) ref.bits.push_back(cfg.prefix_bit);

  // Enough appends to cross several chunk boundaries (chunk = 4096 bits).
  const size_t kAppends = 3 * AppendOnlyBitVector::kChunkBits + 123;
  size_t ones = cfg.prefix_bit ? cfg.prefix_len : 0;
  for (size_t i = 0; i < kAppends; ++i) {
    const bool b = coin(rng);
    v.Append(b);
    ref.bits.push_back(b);
    ones += b;
    // Light interleaved checks at random points, heavier at chunk edges.
    const bool at_edge = (i % AppendOnlyBitVector::kChunkBits) < 2 ||
                         (i % AppendOnlyBitVector::kChunkBits) >
                             AppendOnlyBitVector::kChunkBits - 3;
    if (at_edge || i % 509 == 0) {
      ASSERT_EQ(v.size(), ref.bits.size());
      ASSERT_EQ(v.num_ones(), ones);
      const size_t pos = rng() % (v.size() + 1);
      size_t expect = 0;
      for (size_t j = 0; j < pos; ++j) expect += ref.bits[j];
      ASSERT_EQ(v.Rank1(pos), expect) << "pos=" << pos << " i=" << i;
      ASSERT_EQ(v.Rank0(pos), pos - expect);
      if (pos < v.size()) {
        ASSERT_EQ(v.Get(pos), ref.bits[pos]);
      }
    }
  }

  // Full verification at the end.
  ASSERT_EQ(v.size(), ref.bits.size());
  size_t running = 0;
  std::vector<size_t> ones_pos, zeros_pos;
  for (size_t i = 0; i < ref.bits.size(); ++i) {
    ASSERT_EQ(v.Rank1(i), running) << i;
    ASSERT_EQ(v.Get(i), ref.bits[i]) << i;
    if (ref.bits[i])
      ones_pos.push_back(i);
    else
      zeros_pos.push_back(i);
    running += ref.bits[i];
  }
  ASSERT_EQ(v.Rank1(v.size()), running);
  for (size_t k = 0; k < ones_pos.size(); k += 7) {
    ASSERT_EQ(v.Select1(k), ones_pos[k]) << "k=" << k;
  }
  for (size_t k = 0; k < zeros_pos.size(); k += 7) {
    ASSERT_EQ(v.Select0(k), zeros_pos[k]) << "k=" << k;
  }

  // Iterator sweep.
  AppendOnlyBitVector::Iterator it(&v, 0);
  for (size_t i = 0; i < ref.bits.size(); ++i) {
    ASSERT_EQ(it.Next(), ref.bits[i]) << "iterator at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, AppendOnlyParamTest,
    ::testing::Values(Cfg{0.5, false, 0}, Cfg{0.05, false, 0},
                      Cfg{0.95, false, 0}, Cfg{0.5, false, 1000},
                      Cfg{0.5, true, 1000}, Cfg{0.2, true, 5000},
                      Cfg{0.8, false, 4096}),
    [](const auto& info) {
      const Cfg& c = info.param;
      std::string name = "d";
      name += std::to_string(int(c.density * 100));
      name += "_p";
      name += std::to_string(c.prefix_len);
      name += c.prefix_bit ? "1" : "0";
      return name;
    });

TEST(AppendOnly, EmptyVector) {
  AppendOnlyBitVector v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.num_ones(), 0u);
  EXPECT_EQ(v.Rank1(0), 0u);
}

TEST(AppendOnly, PureVirtualRun) {
  AppendOnlyBitVector v(true, 1 << 20);  // O(1) despite a million bits
  EXPECT_EQ(v.size(), 1u << 20);
  EXPECT_EQ(v.num_ones(), 1u << 20);
  EXPECT_EQ(v.Rank1(12345), 12345u);
  EXPECT_EQ(v.Select1(999), 999u);
  EXPECT_TRUE(v.Get(54321));

  AppendOnlyBitVector z(false, 777);
  EXPECT_EQ(z.num_ones(), 0u);
  EXPECT_EQ(z.Rank0(500), 500u);
  EXPECT_EQ(z.Select0(776), 776u);
}

TEST(AppendOnly, VirtualRunThenOppositeBits) {
  AppendOnlyBitVector v(false, 100);
  for (int i = 0; i < 50; ++i) v.Append(true);
  EXPECT_EQ(v.size(), 150u);
  EXPECT_EQ(v.num_ones(), 50u);
  EXPECT_EQ(v.Rank1(100), 0u);
  EXPECT_EQ(v.Rank1(150), 50u);
  EXPECT_EQ(v.Select1(0), 100u);
  EXPECT_EQ(v.Select1(49), 149u);
  EXPECT_EQ(v.Select0(99), 99u);
}

TEST(AppendOnly, InitIsConstantTimeShape) {
  // Init must not allocate proportionally to the run length: construct many
  // huge virtual runs; footprint stays tiny per instance.
  std::vector<AppendOnlyBitVector> vs;
  for (int i = 0; i < 1000; ++i) vs.emplace_back(true, size_t(1) << 40);
  size_t total_bits = 0;
  for (const auto& v : vs) total_bits += v.SizeInBits();
  EXPECT_LT(total_bits / 1000, 4096u);  // well under a chunk each
}

TEST(AppendOnly, CompressionOnSkewedStream) {
  AppendOnlyBitVector v;
  std::mt19937_64 rng(4);
  const size_t n = 1 << 18;
  for (size_t i = 0; i < n; ++i) v.Append(rng() % 100 == 0);  // 1% ones
  // Sealed chunks are RRR-compressed. At 1% density the entropy content is
  // ~0.08n; the per-chunk RRR directory overhead (6-bit classes, superblock
  // counters, struct) dominates, but the total must stay well below raw.
  EXPECT_LT(v.SizeInBits(), 4 * n / 5);
}

TEST(AppendOnly, RankSelectInverseProperty) {
  AppendOnlyBitVector v(true, 333);
  std::mt19937_64 rng(8);
  for (size_t i = 0; i < 3 * AppendOnlyBitVector::kChunkBits; ++i) {
    v.Append(rng() % 3 == 0);
  }
  for (size_t k = 0; k < v.num_ones(); k += 11) {
    ASSERT_EQ(v.Rank1(v.Select1(k)), k);
    ASSERT_TRUE(v.Get(v.Select1(k)));
  }
  for (size_t k = 0; k < v.num_zeros(); k += 11) {
    ASSERT_EQ(v.Rank0(v.Select0(k)), k);
    ASSERT_FALSE(v.Get(v.Select0(k)));
  }
}

}  // namespace
}  // namespace wt
