// Tests for secure bit-decomposition: exhaustive small domains, the paper's
// Example 4, the verification/retry path under injected wraparound failures,
// and batched decomposition.
#include <gtest/gtest.h>

#include "crypto/op_counters.h"
#include "proto/sbd.h"
#include "tests/proto_test_util.h"

namespace sknn {
namespace {

class SbdTest : public ::testing::Test {
 protected:
  TwoPartyHarness harness_;
  Random rng_{321};
};

TEST_F(SbdTest, PaperExample4) {
  // Example 4: z = 55, l = 6 -> [55] = <1,1,0,1,1,1> MSB first.
  const auto& pk = harness_.pk();
  SbdOptions opts;
  opts.l = 6;
  auto bits = BitDecompose(harness_.ctx(), pk.Encrypt(BigInt(55), rng_), opts);
  ASSERT_TRUE(bits.ok()) << bits.status();
  ASSERT_EQ(bits->size(), 6u);
  std::vector<int> expected = {1, 1, 0, 1, 1, 1};
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(harness_.Decrypt((*bits)[i]), BigInt(expected[i])) << "bit " << i;
  }
}

TEST_F(SbdTest, ExhaustiveFourBitDomain) {
  const auto& pk = harness_.pk();
  SbdOptions opts;
  opts.l = 4;
  for (uint64_t z = 0; z < 16; ++z) {
    auto bits = BitDecompose(harness_.ctx(),
                             pk.Encrypt(BigInt(static_cast<int64_t>(z)), rng_),
                             opts);
    ASSERT_TRUE(bits.ok()) << "z=" << z;
    EXPECT_EQ(harness_.DecryptBits(*bits), z);
  }
}

TEST_F(SbdTest, BatchDecomposition) {
  const auto& pk = harness_.pk();
  SbdOptions opts;
  opts.l = 10;
  std::vector<uint64_t> values;
  std::vector<Ciphertext> enc;
  for (int i = 0; i < 25; ++i) {
    uint64_t z = rng_.UniformUint64(1 << 10);
    values.push_back(z);
    enc.push_back(pk.Encrypt(BigInt(static_cast<int64_t>(z)), rng_));
  }
  auto bits = BitDecomposeBatch(harness_.ctx(), enc, opts);
  ASSERT_TRUE(bits.ok());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(harness_.DecryptBits((*bits)[i]), values[i]) << i;
  }
}

TEST_F(SbdTest, BoundaryValues) {
  const auto& pk = harness_.pk();
  SbdOptions opts;
  opts.l = 12;
  for (uint64_t z : {uint64_t{0}, uint64_t{1}, uint64_t{(1 << 12) - 1}}) {
    auto bits = BitDecompose(harness_.ctx(),
                             pk.Encrypt(BigInt(static_cast<int64_t>(z)), rng_),
                             opts);
    ASSERT_TRUE(bits.ok()) << "z=" << z;
    EXPECT_EQ(harness_.DecryptBits(*bits), z);
  }
}

TEST_F(SbdTest, AdversarialMasksForceRetryButStillCorrect) {
  // With r = N-1 every z > 0 wraps mod N and the first pass produces wrong
  // bits; SVR must catch it and the retry (uniform masks) must fix it.
  const auto& pk = harness_.pk();
  SbdOptions opts;
  opts.l = 8;
  opts.adversarial_masks_for_test = true;
  std::vector<Ciphertext> enc;
  std::vector<uint64_t> values = {1, 5, 100, 255};
  for (uint64_t z : values) {
    enc.push_back(pk.Encrypt(BigInt(static_cast<int64_t>(z)), rng_));
  }
  auto bits = BitDecomposeBatch(harness_.ctx(), enc, opts);
  ASSERT_TRUE(bits.ok()) << bits.status();
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(harness_.DecryptBits((*bits)[i]), values[i]) << i;
  }
}

TEST_F(SbdTest, WithoutVerifyAdversarialMasksCorruptBits) {
  // Sanity check that the SVR round is doing real work: when it is disabled
  // the adversarial masks produce a wrong decomposition for some z > 0.
  const auto& pk = harness_.pk();
  SbdOptions opts;
  opts.l = 8;
  opts.verify = false;
  opts.adversarial_masks_for_test = true;
  auto bits =
      BitDecompose(harness_.ctx(), pk.Encrypt(BigInt(200), rng_), opts);
  ASSERT_TRUE(bits.ok());
  uint64_t recovered = 0;
  for (const auto& b : *bits) {
    BigInt v = harness_.Decrypt(b);
    // Bits may not even be 0/1 after a poisoned pass; treat any non-bit as
    // corruption.
    if (v != BigInt(0) && v != BigInt(1)) {
      SUCCEED();
      return;
    }
    recovered = (recovered << 1) | v.ToUint64().value();
  }
  EXPECT_NE(recovered, 200u);
}

TEST_F(SbdTest, OpCountsDoNotDependOnMaskParity) {
  // C1 negates the returned parity on both branches of the mask-parity
  // select, so a pass costs the same whether every mask is odd (the
  // adversarial hook: r = N-1) or the masks are uniform. Without SVR the
  // poisoned pass is not retried, so both runs do exactly one pass.
  const auto& pk = harness_.pk();
  std::vector<Ciphertext> enc;
  for (int64_t z : {3, 77, 140, 255}) enc.push_back(pk.Encrypt(BigInt(z), rng_));
  auto measure = [&](bool all_odd) {
    SbdOptions opts;
    opts.l = 8;
    opts.verify = false;
    opts.adversarial_masks_for_test = all_odd;
    OpSnapshot before = OpCounters::Snapshot();
    EXPECT_TRUE(BitDecomposeBatch(harness_.ctx(), enc, opts).ok());
    return OpCounters::Snapshot() - before;
  };
  OpSnapshot odd = measure(true);
  OpSnapshot uniform = measure(false);
  EXPECT_EQ(odd, uniform) << odd.ToString() << " vs " << uniform.ToString();
  EXPECT_EQ(odd.inversions, 2u * 8u * enc.size());
}

TEST_F(SbdTest, RejectsZeroWidth) {
  const auto& pk = harness_.pk();
  SbdOptions opts;
  opts.l = 0;
  EXPECT_FALSE(
      BitDecompose(harness_.ctx(), pk.Encrypt(BigInt(1), rng_), opts).ok());
}

TEST_F(SbdTest, RejectsDomainLargerThanModulus) {
  TwoPartyHarness small(32, 5);
  SbdOptions opts;
  opts.l = 40;  // 2^40 > N for a 32-bit key
  Random rng(6);
  EXPECT_FALSE(
      BitDecompose(small.ctx(), small.pk().Encrypt(BigInt(1), rng), opts)
          .ok());
}

TEST_F(SbdTest, ComposeFromBitsRoundTrip) {
  const auto& pk = harness_.pk();
  SbdOptions opts;
  opts.l = 9;
  for (uint64_t z : {uint64_t{0}, uint64_t{37}, uint64_t{311}, uint64_t{511}}) {
    auto bits = BitDecompose(harness_.ctx(),
                             pk.Encrypt(BigInt(static_cast<int64_t>(z)), rng_),
                             opts);
    ASSERT_TRUE(bits.ok());
    Ciphertext recomposed = ComposeFromBits(pk, *bits);
    EXPECT_EQ(harness_.Decrypt(recomposed), BigInt(static_cast<int64_t>(z)));
  }
}

// Property sweep: random values across widths and key sizes.
class SbdProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(SbdProperty, RandomValuesRoundTrip) {
  auto [l, key_bits] = GetParam();
  TwoPartyHarness harness(key_bits, 1000 + l);
  Random rng(2000 + l);
  const auto& pk = harness.pk();
  SbdOptions opts;
  opts.l = l;
  std::vector<uint64_t> values;
  std::vector<Ciphertext> enc;
  for (int i = 0; i < 10; ++i) {
    uint64_t z = rng.UniformUint64(uint64_t{1} << l);
    values.push_back(z);
    enc.push_back(pk.Encrypt(BigInt(static_cast<int64_t>(z)), rng));
  }
  auto bits = BitDecomposeBatch(harness.ctx(), enc, opts);
  ASSERT_TRUE(bits.ok());
  for (std::size_t i = 0; i < values.size(); ++i) {
    uint64_t out = 0;
    for (const auto& b : (*bits)[i]) {
      BigInt v = harness.c2().secret_key().Decrypt(b);
      ASSERT_TRUE(v == BigInt(0) || v == BigInt(1));
      out = (out << 1) | v.ToUint64().value();
    }
    EXPECT_EQ(out, values[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(WidthsAndKeys, SbdProperty,
                         ::testing::Combine(::testing::Values(1u, 6u, 12u,
                                                              20u),
                                            ::testing::Values(128u, 256u)));

}  // namespace
}  // namespace sknn
