// Complexity-accounting tests — Section 4.4 made executable.
//
// The paper bounds each protocol in counts of Paillier encryptions,
// decryptions and exponentiations. These tests measure the actual counters
// and check the claimed growth laws *exactly*, using the fact that a
// function is linear iff its second differences vanish:
//   * SM / SBOR: constant ops per instance;
//   * SSED: linear in m;  SBD: linear in l;  SMIN: linear in l;
//   * SMIN_n: exactly (n-1) SMINs worth of ops;
//   * SkNN_b: linear in n (at fixed m, k);
//   * SkNN_m: linear in k (at fixed n, m, l).
// Operation counts are randomness-independent (only *values* are random),
// so the comparisons are exact, not statistical.
#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.h"
#include "crypto/op_counters.h"
#include "data/synthetic.h"
#include "proto/sbd.h"
#include "proto/sbor.h"
#include "proto/sm.h"
#include "proto/smin.h"
#include "proto/ssed.h"
#include "tests/proto_test_util.h"

namespace sknn {

// gtest prints OpSnapshot mismatches through this.
void PrintTo(const OpSnapshot& ops, std::ostream* os) { *os << ops.ToString(); }

namespace {

// Ops fields in order: {enc, dec, exp, mul, inv, small_exp}. exp counts
// full-width exponentiations only; small exponentiations (scalar <= 64
// bits) and inversions (negation) are separate classes.
using Ops = OpSnapshot;

Ops Measure(const std::function<void()>& fn) {
  OpSnapshot before = OpCounters::Snapshot();
  fn();
  return OpCounters::Snapshot() - before;
}

Ops Scale(const Ops& o, uint64_t f) {
  return {o.encryptions * f,     o.decryptions * f, o.exponentiations * f,
          o.multiplications * f, o.inversions * f,  o.small_exponentiations * f};
}

class ComplexityTest : public ::testing::Test {
 protected:
  TwoPartyHarness harness_;
  Random rng_{424242};

  std::vector<Ciphertext> EncryptMany(std::size_t count, int64_t bound) {
    std::vector<Ciphertext> out;
    for (std::size_t i = 0; i < count; ++i) {
      out.push_back(harness_.pk().Encrypt(
          BigInt(static_cast<int64_t>(rng_.UniformUint64(bound))), rng_));
    }
    return out;
  }
};

TEST_F(ComplexityTest, SmIsConstantPerInstance) {
  auto run = [&](std::size_t batch) {
    return Measure([&] {
      auto as = EncryptMany(batch, 100);
      auto bs = EncryptMany(batch, 100);
      OpSnapshot setup_excluded = OpCounters::Snapshot();
      (void)setup_excluded;
      ASSERT_TRUE(SecureMultiplyBatch(harness_.ctx(), as, bs).ok());
    });
  };
  // Setup encryptions scale with batch too, but both linearly: second
  // difference over batch sizes 2, 4, 6 must vanish.
  Ops o2 = run(2), o4 = run(4), o6 = run(6);
  EXPECT_EQ(o6 - o4, o4 - o2) << "SM ops not linear in batch size";
  // And per instance: 4x the batch = 4x the ops.
  Ops o8 = run(8);
  EXPECT_EQ(Scale(o4 - o2, 3), o8 - o2);
}

TEST_F(ComplexityTest, SborIsOneSmPlusConstant) {
  auto as = EncryptMany(3, 2);
  auto bs = EncryptMany(3, 2);
  Ops sbor = Measure([&] {
    ASSERT_TRUE(SecureBitOrBatch(harness_.ctx(), as, bs).ok());
  });
  Ops sm = Measure([&] {
    ASSERT_TRUE(SecureMultiplyBatch(harness_.ctx(), as, bs).ok());
  });
  // SBOR = SM + per item one Add and one Sub (an inversion and an Add).
  EXPECT_EQ(sbor, sm + Scale(Ops{0, 0, 0, 2, 1, 0}, 3));
}

TEST_F(ComplexityTest, SsedIsLinearInM) {
  auto run = [&](std::size_t m) {
    auto x = EncryptMany(m, 50);
    auto y = EncryptMany(m, 50);
    return Measure([&] {
      ASSERT_TRUE(SecureSquaredDistance(harness_.ctx(), x, y).ok());
    });
  };
  Ops o2 = run(2), o4 = run(4), o6 = run(6);
  EXPECT_EQ(o6 - o4, o4 - o2) << "SSED ops not linear in m";
}

TEST_F(ComplexityTest, SbdIsLinearInL) {
  Ciphertext z = harness_.pk().Encrypt(BigInt(3), rng_);
  auto run = [&](unsigned l) {
    SbdOptions opts;
    opts.l = l;
    return Measure(
        [&] { ASSERT_TRUE(BitDecompose(harness_.ctx(), z, opts).ok()); });
  };
  Ops o4 = run(4), o8 = run(8), o12 = run(12);
  EXPECT_EQ(o12 - o8, o8 - o4) << "SBD ops not linear in l";
}

TEST_F(ComplexityTest, SminIsLinearInL) {
  auto run = [&](unsigned l) {
    auto u = harness_.EncryptBits(1, l);
    auto v = harness_.EncryptBits(2 % (1u << l), l);
    return Measure(
        [&] { ASSERT_TRUE(SecureMin(harness_.ctx(), u, v).ok()); });
  };
  Ops o4 = run(4), o8 = run(8), o12 = run(12);
  EXPECT_EQ(o12 - o8, o8 - o4) << "SMIN ops not linear in l";
}

TEST_F(ComplexityTest, SminNCostsExactlyNMinusOneSmins) {
  const unsigned l = 5;
  auto run = [&](std::size_t n) {
    std::vector<EncryptedBits> ds;
    for (std::size_t i = 0; i < n; ++i) {
      ds.push_back(harness_.EncryptBits(i % (1u << l), l));
    }
    return Measure(
        [&] { ASSERT_TRUE(SecureMinN(harness_.ctx(), ds).ok()); });
  };
  // n-1 SMINs: 4 for n=5, 8 for n=9 -> exactly double the ops.
  Ops o5 = run(5), o9 = run(9);
  Ops per_smin = {o5.encryptions / 4,     o5.decryptions / 4,
                  o5.exponentiations / 4, o5.multiplications / 4,
                  o5.inversions / 4,      o5.small_exponentiations / 4};
  EXPECT_EQ(Scale(per_smin, 4), o5) << "SMIN_n(5) not a multiple of 4 SMINs";
  EXPECT_EQ(Scale(per_smin, 8), o9) << "SMIN_n(9) != 8 SMINs worth of ops";
}

TEST_F(ComplexityTest, PaperBoundForSkNNm) {
  // Section 4.4: SkNN_m is O(n * (l + m + k*l*log2 n)) encryptions and
  // exponentiations. Check the measured counts against the explicit bound
  // with a generous constant.
  const std::size_t n = 8, m = 3;
  const unsigned k = 2;
  PlainTable table = GenerateUniformTable(n, m, 3, 5);
  SknnEngine::Options opts;
  opts.key_bits = 256;
  opts.attr_bits = 2;
  auto engine = SknnEngine::Create(table, opts);
  ASSERT_TRUE(engine.ok());
  const unsigned l = (*engine)->distance_bits();
  QueryRequest request;
  request.record = {1, 1, 1};
  request.k = k;
  request.protocol = QueryProtocol::kSecure;
  auto result = (*engine)->Query(request);
  ASSERT_TRUE(result.ok());
  const double bound =
      static_cast<double>(n) *
      (l + m + static_cast<double>(k) * l * std::log2(double(n)));
  const double kConstant = 40.0;  // generous per-unit constant
  EXPECT_LT(static_cast<double>(result->ops.encryptions), kConstant * bound);
  // The paper's "exponentiations" are every ciphertext power: full-width,
  // small and inverse alike.
  EXPECT_LT(static_cast<double>(result->ops.exponentiations +
                                result->ops.small_exponentiations +
                                result->ops.inversions),
            kConstant * bound);
}

TEST_F(ComplexityTest, SkNNmRoundCountIsIndependentOfNPerStage) {
  // Whole-stage messages: one SkNN_m query exchanges O(l + k*l) C1->C2 messages — NOT O(n*l). The exact count,
  // from the per-query QueryMeter (frames_to_c2 == frames_from_c2, each
  // exchange is one round trip):
  //   SSED            1                  (one fused SM stage)
  //   SBD             l + 1              (one kLsbVec per bit + one SVR)
  //   per iteration   2*ceil(log2 n)     (SMIN_n tournament: SM + phase2
  //                                       per level)
  //                   + 1                (min pointer)
  //                   + 1                (fused extract+clamp SM)
  //   finalize        1                  (masked ship to Bob)
  // Since n <= 2^l here, ceil(log2 n) <= l and the whole query is <= the
  // paper-shaped bound 2 + l + k*(2*l + 2) + 1 — and independent of n per
  // stage (doubling n adds at most one tournament level per iteration).
  unsigned l = 0;
  auto frames_for = [&](std::size_t n, unsigned k) -> uint64_t {
    PlainTable table = GenerateUniformTable(n, 2, 3, 99);
    SknnEngine::Options opts;
    opts.key_bits = 256;
    opts.attr_bits = 2;
    opts.c1_threads = 4;  // fan-out must not multiply the message count
    opts.c2_threads = 4;
    auto engine = SknnEngine::Create(table, opts);
    EXPECT_TRUE(engine.ok()) << engine.status();
    l = (*engine)->distance_bits();
    QueryRequest request;
    request.record = {1, 1};
    request.k = k;
    request.protocol = QueryProtocol::kSecure;
    auto result = (*engine)->Query(request);
    EXPECT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->traffic.frames_a_to_b, result->traffic.frames_b_to_a);
    return result->traffic.frames_a_to_b;
  };

  auto exact = [&](std::size_t n, unsigned k) -> uint64_t {
    uint64_t levels = static_cast<uint64_t>(std::ceil(std::log2(double(n))));
    return 1 + (l + 1) + k * (2 * levels + 2) + 1;
  };
  for (auto [n, k] : std::vector<std::pair<std::size_t, unsigned>>{
           {8, 1}, {8, 2}, {16, 2}}) {
    uint64_t frames = frames_for(n, k);
    ASSERT_GE(l, 4u);  // sanity: log2(n) <= l must hold for the O-bound
    EXPECT_EQ(frames, exact(n, k)) << "n=" << n << " k=" << k;
    // The O(l + k*l) law itself (would be wildly exceeded by O(n*l)).
    EXPECT_LE(frames, 2 * (l + uint64_t{k} * l) + 4) << "n=" << n;
  }
  // Doubling n must cost at most one extra tournament level (2 rounds) per
  // iteration — the signature of O(k log n), not O(n).
  EXPECT_LE(frames_for(16, 2) - frames_for(8, 2), 2u * 2u);
}

TEST(StageFrameTest, EachBatchedStageIsOneExchangeAtFourC1Threads) {
  // A C1 thread pool fans out local homomorphic work only: every batched
  // stage is still exactly one exchange with C2, however many instances it
  // carries.
  TwoPartyHarness harness(256, 4040, /*c1_threads=*/4, /*c2_threads=*/2);
  QueryMeter meter;
  ProtoContext ctx(&harness.pk(), harness.ctx().client(), harness.ctx().pool(),
                   /*query_id=*/0, &meter);
  auto exchanges = [&](const std::function<void()>& fn) {
    const uint64_t before = meter.traffic().frames_a_to_b;
    fn();
    EXPECT_EQ(meter.traffic().frames_a_to_b, meter.traffic().frames_b_to_a);
    return meter.traffic().frames_a_to_b - before;
  };
  Random rng(17);
  const PaillierPublicKey& pk = harness.pk();

  std::vector<Ciphertext> as, bs;
  for (int i = 0; i < 8; ++i) {
    as.push_back(pk.Encrypt(BigInt(i), rng));
    bs.push_back(pk.Encrypt(BigInt(i + 1), rng));
  }
  const uint64_t sm = exchanges(
      [&] { ASSERT_TRUE(SecureMultiplyBatch(ctx, as, bs).ok()); });
  EXPECT_EQ(sm, 1u) << "SM of 8 instances";

  const unsigned l = 6;
  std::vector<Ciphertext> zs;
  for (int i = 0; i < 8; ++i) zs.push_back(pk.Encrypt(BigInt(5 * i), rng));
  for (bool verify : {true, false}) {
    SbdOptions opts;
    opts.l = l;
    opts.verify = verify;
    const uint64_t sbd = exchanges(
        [&] { ASSERT_TRUE(BitDecomposeBatch(ctx, zs, opts).ok()); });
    EXPECT_EQ(sbd, verify ? l + 1 : l)
        << "SBD of 8 instances, verify=" << verify;
  }

  std::vector<EncryptedBits> us, vs;
  for (uint64_t i = 0; i < 4; ++i) {
    us.push_back(harness.EncryptBits(i, l));
    vs.push_back(harness.EncryptBits(63 - i, l));
  }
  const uint64_t smin = exchanges(
      [&] { ASSERT_TRUE(SecureMinBatch(ctx, us, vs).ok()); });
  EXPECT_EQ(smin, 2u) << "SMIN of 4 pairs";
}

TEST_F(ComplexityTest, SkNNbOpsLinearInN) {
  const std::size_t m = 3;
  auto run = [&](std::size_t n) {
    PlainTable table = GenerateUniformTable(n, m, 3, n);
    SknnEngine::Options opts;
    opts.key_bits = 256;
    opts.attr_bits = 2;
    auto engine = SknnEngine::Create(table, opts);
    EXPECT_TRUE(engine.ok());
    QueryRequest request;
    request.record = {1, 2, 3};
    request.k = 2;
    request.protocol = QueryProtocol::kBasic;
    auto result = (*engine)->Query(request);
    EXPECT_TRUE(result.ok());
    return result->ops;
  };
  Ops o4 = run(4), o8 = run(8), o12 = run(12);
  EXPECT_EQ(o12 - o8, o8 - o4) << "SkNN_b ops not linear in n";
}

TEST_F(ComplexityTest, SkNNmOpsLinearInK) {
  const std::size_t n = 6, m = 2;
  PlainTable table = GenerateUniformTable(n, m, 3, 77);
  SknnEngine::Options opts;
  opts.key_bits = 256;
  opts.attr_bits = 2;
  auto engine = SknnEngine::Create(table, opts);
  ASSERT_TRUE(engine.ok());
  auto run = [&](unsigned k) {
    QueryRequest request;
    request.record = {1, 1};
    request.k = k;
    request.protocol = QueryProtocol::kSecure;
    auto result = (*engine)->Query(request);
    EXPECT_TRUE(result.ok());
    return result->ops;
  };
  // Iterations 2..k are identical in op count; iteration k skips the SBOR
  // update, so compare k in {2,3,4}: second difference of the *middle*
  // iterations vanishes.
  Ops o2 = run(2), o3 = run(3), o4 = run(4);
  EXPECT_EQ(o4 - o3, o3 - o2) << "SkNN_m ops not linear in k";
}

// -- Exact costs ---------------------------------------------------------
// Measured over both clouds (the harness runs C2 in process). The per-item
// vectors below are the reference the protocol code is held to.

TEST_F(ComplexityTest, ExactPrimitiveCosts) {
  // SM, per instance: C1 encrypts ra, rb and Epk(-ra*rb) and blinds (2 mul);
  // C2 decrypts two values and encrypts h; C1 strips the cross terms with
  // two full-width powers and three Adds.
  const Ops kSmPerInstance{4, 2, 2, 5, 0, 0};
  auto as = EncryptMany(3, 2);
  auto bs = EncryptMany(3, 2);
  Ops sm = Measure([&] {
    ASSERT_TRUE(SecureMultiplyBatch(harness_.ctx(), as, bs).ok());
  });
  EXPECT_EQ(sm, Scale(kSmPerInstance, 3)) << "SM";

  // SBD, per bit: mask encryption and blinding Add, C2's decrypt and parity
  // encryption, Epk(b), the parity negation (on both branches) and its Add,
  // the Sub of the LSB and the full-width halving. SVR adds one
  // recomposition (l small powers, l-1 Adds), one Sub, the full-width
  // gamma power and C2's decryption.
  const unsigned l = 6;
  const Ops kSbdPerBit{3, 1, 1, 3, 2, 0};
  const Ops kSvr{0, 1, 1, l, 1, l};
  SbdOptions opts;
  opts.l = l;
  Ciphertext z = harness_.pk().Encrypt(BigInt(37), rng_);
  Ops sbd = Measure([&] {
    ASSERT_TRUE(BitDecompose(harness_.ctx(), z, opts).ok());
  });
  EXPECT_EQ(sbd, Scale(kSbdPerBit, l) + kSvr) << "SBD";

  // SMIN, per bit: one SM, then W and the difference (two Subs), Gamma
  // (encrypt + Add), G = u + v - 2uv (two Adds, a squaring, a Sub), H
  // (full-width power + Add), Phi (encrypt + Add), L (full-width power +
  // Add); C2 decrypts L' and rerandomizes M'; C1 unblinds with a full-width
  // power and two Adds. Per block: Epk(0) seeding H and C2's Epk(alpha).
  const Ops kSminPerBit = kSmPerInstance + Ops{3, 1, 3, 11, 3, 0};
  const Ops kSminPerBlock{2, 0, 0, 0, 0, 0};
  auto u = harness_.EncryptBits(9, l);
  auto v = harness_.EncryptBits(22, l);
  Ops smin = Measure([&] {
    ASSERT_TRUE(SecureMin(harness_.ctx(), u, v).ok());
  });
  EXPECT_EQ(smin, Scale(kSminPerBit, l) + kSminPerBlock) << "SMIN";
}

TEST_F(ComplexityTest, ExactQueryCostsAtBenchmarkShapes) {
  // The served benchmark's secure_serial (n 16, m 6, l 6, k 2) and
  // basic_scan (n 500, m 6, k 5) shapes. Op counts do not depend on the key
  // size or the data, so 256-bit keys reproduce the K = 1024 counts; the
  // first four fields are what the benchmark's "counts" lines print.
  auto run = [](std::size_t n, unsigned attr_bits, unsigned k,
                QueryProtocol protocol) {
    PlainTable table =
        GenerateUniformTable(n, 6, (int64_t{1} << attr_bits) - 1, 3);
    SknnEngine::Options opts;
    opts.key_bits = 256;
    opts.attr_bits = attr_bits;
    auto engine = SknnEngine::Create(table, opts);
    EXPECT_TRUE(engine.ok()) << engine.status();
    QueryRequest request;
    request.record = {1, 2, 3, 0, 1, 2};
    request.k = k;
    request.protocol = protocol;
    auto result = (*engine)->Query(request);
    EXPECT_TRUE(result.ok()) << result.status();
    return result->ops;
  };
  EXPECT_EQ(run(16, 2, 2, QueryProtocol::kSecure),
            (Ops{4638, 2074, 2722, 9076, 1502, 470}));
  EXPECT_EQ(run(500, 5, 5, QueryProtocol::kBasic),
            (Ops{12030, 6530, 6000, 20530, 3000, 0}));
}

}  // namespace
}  // namespace sknn
