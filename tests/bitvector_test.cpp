// Tests for the static bitvectors: plain BitVector and RRR.
//
// Strategy: randomized cross-checks against a trivially-correct reference
// (prefix-sum arrays), parameterized over bit densities so both dense and
// sparse regimes are exercised, plus adversarial edge cases (empty, all-zero,
// all-one, block/superblock boundaries).
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "bitvector/bit_vector.hpp"
#include "bitvector/rrr.hpp"
#include "common/bit_array.hpp"

namespace wt {
namespace {

// Reference rank/select built with prefix sums.
class RefBits {
 public:
  explicit RefBits(const std::vector<bool>& bits) : bits_(bits) {
    rank_.resize(bits.size() + 1, 0);
    for (size_t i = 0; i < bits.size(); ++i) {
      rank_[i + 1] = rank_[i] + (bits[i] ? 1 : 0);
      if (bits[i])
        ones_.push_back(i);
      else
        zeros_.push_back(i);
    }
  }
  size_t Rank1(size_t pos) const { return rank_[pos]; }
  size_t Rank0(size_t pos) const { return pos - rank_[pos]; }
  size_t NumOnes() const { return ones_.size(); }
  size_t NumZeros() const { return zeros_.size(); }
  size_t Select1(size_t k) const { return ones_[k]; }
  size_t Select0(size_t k) const { return zeros_[k]; }
  bool Get(size_t i) const { return bits_[i]; }
  size_t size() const { return bits_.size(); }

 private:
  std::vector<bool> bits_;
  std::vector<size_t> rank_;
  std::vector<size_t> ones_, zeros_;
};

std::vector<bool> RandomBits(size_t n, double density, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution coin(density);
  std::vector<bool> bits(n);
  for (size_t i = 0; i < n; ++i) bits[i] = coin(rng);
  return bits;
}

BitArray ToBitArray(const std::vector<bool>& bits) {
  BitArray a;
  for (bool b : bits) a.PushBack(b);
  return a;
}

template <typename BV>
void CheckAgainstReference(const BV& bv, const RefBits& ref) {
  ASSERT_EQ(bv.size(), ref.size());
  ASSERT_EQ(bv.num_ones(), ref.NumOnes());
  std::mt19937_64 rng(1234);
  // All positions for small inputs, random sample for large ones.
  const size_t n = ref.size();
  const size_t checks = std::min<size_t>(n + 1, 4000);
  for (size_t c = 0; c < checks; ++c) {
    const size_t pos = (n + 1 <= 4000) ? c : rng() % (n + 1);
    ASSERT_EQ(bv.Rank1(pos), ref.Rank1(pos)) << "pos=" << pos;
    ASSERT_EQ(bv.Rank0(pos), ref.Rank0(pos)) << "pos=" << pos;
    if (pos < n) {
      ASSERT_EQ(bv.Get(pos), ref.Get(pos)) << "pos=" << pos;
    }
  }
  const size_t sel_checks = 2000;
  for (size_t c = 0; c < sel_checks && ref.NumOnes() > 0; ++c) {
    const size_t k = (ref.NumOnes() <= sel_checks) ? c % ref.NumOnes()
                                                   : rng() % ref.NumOnes();
    ASSERT_EQ(bv.Select1(k), ref.Select1(k)) << "k=" << k;
  }
  for (size_t c = 0; c < sel_checks && ref.NumZeros() > 0; ++c) {
    const size_t k = (ref.NumZeros() <= sel_checks) ? c % ref.NumZeros()
                                                    : rng() % ref.NumZeros();
    ASSERT_EQ(bv.Select0(k), ref.Select0(k)) << "k=" << k;
  }
}

// ------------------------------------------------------- parameterized sweep

struct Density {
  double p;
};

class BitVectorDensityTest : public ::testing::TestWithParam<Density> {};

TEST_P(BitVectorDensityTest, PlainMatchesReference) {
  for (size_t n : {1u, 63u, 64u, 65u, 511u, 512u, 513u, 100000u}) {
    auto bits = RandomBits(n, GetParam().p, 17 * n + 1);
    RefBits ref(bits);
    BitVector bv(ToBitArray(bits));
    CheckAgainstReference(bv, ref);
  }
}

TEST_P(BitVectorDensityTest, RrrMatchesReference) {
  for (size_t n : {1u, 62u, 63u, 64u, 2015u, 2016u, 2017u, 100000u}) {
    auto bits = RandomBits(n, GetParam().p, 31 * n + 7);
    RefBits ref(bits);
    Rrr rrr(ToBitArray(bits));
    CheckAgainstReference(rrr, ref);
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, BitVectorDensityTest,
                         ::testing::Values(Density{0.001}, Density{0.01},
                                           Density{0.1}, Density{0.5},
                                           Density{0.9}, Density{0.999}),
                         [](const auto& info) {
                           return "p" + std::to_string(
                                            int(info.param.p * 1000));
                         });

// ------------------------------------------------------------- edge cases

TEST(BitVectorEdge, Empty) {
  BitVector bv{BitArray{}};
  EXPECT_EQ(bv.size(), 0u);
  EXPECT_EQ(bv.Rank1(0), 0u);
  Rrr rrr{BitArray{}};
  EXPECT_EQ(rrr.size(), 0u);
  EXPECT_EQ(rrr.Rank1(0), 0u);
}

TEST(BitVectorEdge, AllZeros) {
  BitArray a(10000, false);
  BitVector bv(a);
  Rrr rrr(a);
  EXPECT_EQ(bv.Rank1(10000), 0u);
  EXPECT_EQ(rrr.Rank1(10000), 0u);
  EXPECT_EQ(bv.Select0(9999), 9999u);
  EXPECT_EQ(rrr.Select0(9999), 9999u);
  EXPECT_EQ(bv.num_ones(), 0u);
  EXPECT_EQ(rrr.num_ones(), 0u);
}

TEST(BitVectorEdge, AllOnes) {
  BitArray a(10000, true);
  BitVector bv(a);
  Rrr rrr(a);
  EXPECT_EQ(bv.Rank1(10000), 10000u);
  EXPECT_EQ(rrr.Rank1(10000), 10000u);
  EXPECT_EQ(bv.Select1(9999), 9999u);
  EXPECT_EQ(rrr.Select1(9999), 9999u);
}

TEST(BitVectorEdge, SingleBit) {
  for (bool b : {false, true}) {
    BitArray a;
    a.PushBack(b);
    BitVector bv(a);
    EXPECT_EQ(bv.Rank1(1), b ? 1u : 0u);
    EXPECT_EQ(bv.Select(b, 0), 0u);
    Rrr rrr(a);
    EXPECT_EQ(rrr.Rank1(1), b ? 1u : 0u);
    EXPECT_EQ(rrr.Select(b, 0), 0u);
  }
}

TEST(BitVectorEdge, RankSelectInverse) {
  auto bits = RandomBits(50000, 0.3, 555);
  Rrr rrr(ToBitArray(bits));
  BitVector bv(ToBitArray(bits));
  for (size_t k = 0; k < rrr.num_ones(); k += 97) {
    ASSERT_EQ(rrr.Rank1(rrr.Select1(k)), k);
    ASSERT_EQ(bv.Rank1(bv.Select1(k)), k);
    ASSERT_TRUE(rrr.Get(rrr.Select1(k)));
  }
}

TEST(BitVectorEdge, SparseVeryLong) {
  // Ones only every ~20000 positions: stresses select sampling windows.
  std::vector<bool> bits(1 << 20, false);
  std::mt19937_64 rng(77);
  for (size_t i = 0; i < bits.size(); i += 15000 + rng() % 10000) bits[i] = true;
  RefBits ref(bits);
  BitVector bv(ToBitArray(bits));
  Rrr rrr(ToBitArray(bits));
  for (size_t k = 0; k < ref.NumOnes(); ++k) {
    ASSERT_EQ(bv.Select1(k), ref.Select1(k));
    ASSERT_EQ(rrr.Select1(k), ref.Select1(k));
  }
  for (size_t pos = 0; pos <= bits.size(); pos += 9973) {
    ASSERT_EQ(bv.Rank1(pos), ref.Rank1(pos));
    ASSERT_EQ(rrr.Rank1(pos), ref.Rank1(pos));
  }
}

TEST(Rrr, CompressionBeatsPlainOnSkewedInput) {
  // 1% density: RRR must be far below the plain bitvector's n bits.
  auto bits = RandomBits(1 << 20, 0.01, 9);
  Rrr rrr(ToBitArray(bits));
  BitVector bv(ToBitArray(bits));
  EXPECT_LT(rrr.SizeInBits(), bv.SizeInBits() / 4);
}

TEST(Rrr, IteratorMatchesGet) {
  for (double p : {0.05, 0.5, 0.95}) {
    auto bits = RandomBits(20000, p, 21);
    Rrr rrr(ToBitArray(bits));
    for (size_t start : {size_t(0), size_t(1), size_t(63), size_t(64),
                         size_t(1000), size_t(19999)}) {
      Rrr::Iterator it(&rrr, start);
      for (size_t i = start; i < bits.size(); ++i) {
        ASSERT_EQ(it.Next(), bits[i]) << "i=" << i << " start=" << start;
      }
    }
  }
}

}  // namespace
}  // namespace wt
