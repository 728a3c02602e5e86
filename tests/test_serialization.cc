// Tests for the persistence layer: Paillier key text format and the binary
// encrypted-database format, including corruption handling — the artifacts
// of the Alice -> C1 / Alice -> C2 outsourcing hand-off.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <set>

#include "bigint/random.h"
#include "common/mutex.h"
#include "core/sknn_b.h"
#include "core/db_io.h"
#include "core/data_owner.h"
#include "crypto/serialization.h"
#include "data/synthetic.h"
#include "net/query_wire.h"
#include "net/shard_wire.h"
#include "proto/c2_service.h"
#include "proto/smin.h"

namespace sknn {
namespace {

PaillierKeyPair MakeKeys(unsigned bits = 256, uint64_t seed = 50) {
  Random rng(seed);
  return GeneratePaillierKeyPair(bits, rng).value();
}

TEST(KeySerializationTest, PublicKeyRoundTrip) {
  PaillierKeyPair keys = MakeKeys();
  std::string text = SerializePublicKey(keys.pk);
  EXPECT_NE(text.find("sknn-paillier-public-v1"), std::string::npos);
  auto parsed = ParsePublicKey(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->n(), keys.pk.n());
  EXPECT_EQ(parsed->g(), keys.pk.g());
  EXPECT_EQ(parsed->key_bits(), keys.pk.key_bits());
}

TEST(KeySerializationTest, SecretKeyRoundTripDecrypts) {
  PaillierKeyPair keys = MakeKeys();
  auto parsed = ParseSecretKey(SerializeSecretKey(keys.sk));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  Random rng(51);
  for (int i = 0; i < 5; ++i) {
    BigInt m = rng.Below(keys.pk.n());
    Ciphertext c = keys.pk.Encrypt(m, rng);
    EXPECT_EQ(parsed->Decrypt(c), m);
  }
}

TEST(KeySerializationTest, RejectsWrongHeader) {
  PaillierKeyPair keys = MakeKeys();
  // Public text fed to the secret parser and vice versa.
  EXPECT_FALSE(ParseSecretKey(SerializePublicKey(keys.pk)).ok());
  EXPECT_FALSE(ParsePublicKey(SerializeSecretKey(keys.sk)).ok());
  EXPECT_FALSE(ParsePublicKey("").ok());
  EXPECT_FALSE(ParsePublicKey("garbage\n").ok());
}

TEST(KeySerializationTest, RejectsMissingOrCorruptFields) {
  EXPECT_FALSE(
      ParsePublicKey("sknn-paillier-public-v1\nkey_bits: 256\n").ok());
  EXPECT_FALSE(
      ParsePublicKey("sknn-paillier-public-v1\nn: ff\nkey_bits: xyz\n").ok());
  // n inconsistent with key_bits.
  EXPECT_FALSE(
      ParsePublicKey("sknn-paillier-public-v1\nkey_bits: 256\nn: ff\n").ok());
  // Secret key with composite factors.
  EXPECT_FALSE(ParseSecretKey(
                   "sknn-paillier-secret-v1\nkey_bits: 16\np: ff\nq: fd\n")
                   .ok());
}

TEST(KeySerializationTest, FileRoundTrip) {
  PaillierKeyPair keys = MakeKeys();
  std::string pk_path = testing::TempDir() + "/sknn_pk.txt";
  std::string sk_path = testing::TempDir() + "/sknn_sk.txt";
  ASSERT_TRUE(WritePublicKeyFile(pk_path, keys.pk).ok());
  ASSERT_TRUE(WriteSecretKeyFile(sk_path, keys.sk).ok());
  auto pk = ReadPublicKeyFile(pk_path);
  auto sk = ReadSecretKeyFile(sk_path);
  ASSERT_TRUE(pk.ok());
  ASSERT_TRUE(sk.ok());
  EXPECT_EQ(pk->n(), keys.pk.n());
  Random rng(52);
  Ciphertext c = pk->Encrypt(BigInt(777), rng);
  EXPECT_EQ(sk->Decrypt(c), BigInt(777));
  std::remove(pk_path.c_str());
  std::remove(sk_path.c_str());
  EXPECT_FALSE(ReadPublicKeyFile("/nonexistent/pk").ok());
}

class DbIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    keys_ = MakeKeys(256, 60);
    DataOwner alice = [] {
      // DataOwner::Create would generate fresh keys; build the encrypted DB
      // directly so the test controls the key pair.
      return DataOwner::Create(256).value();
    }();
    table_ = GenerateUniformTable(7, 3, 15, 61);
    auto db = alice.EncryptDatabase(table_, 4);
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    pk_ = alice.public_key();
    path_ = testing::TempDir() + "/sknn_db.bin";
  }

  void TearDown() override { std::remove(path_.c_str()); }

  PaillierKeyPair keys_;
  PlainTable table_;
  EncryptedDatabase db_;
  PaillierPublicKey pk_;
  std::string path_;
};

TEST_F(DbIoTest, RoundTripPreservesEverything) {
  ASSERT_TRUE(WriteEncryptedDatabase(path_, db_).ok());
  auto loaded = ReadEncryptedDatabase(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->num_records(), db_.num_records());
  EXPECT_EQ(loaded->num_attributes(), db_.num_attributes());
  EXPECT_EQ(loaded->distance_bits, db_.distance_bits);
  for (std::size_t i = 0; i < db_.num_records(); ++i) {
    for (std::size_t j = 0; j < db_.num_attributes(); ++j) {
      EXPECT_EQ(loaded->records[i][j], db_.records[i][j]);
    }
  }
  EXPECT_TRUE(ValidateCiphertexts(*loaded, pk_).ok());
}

TEST_F(DbIoTest, RejectsBadMagicAndTruncation) {
  ASSERT_TRUE(WriteEncryptedDatabase(path_, db_).ok());
  // Corrupt the magic.
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.write("XXXXXXXX", 8);
  }
  EXPECT_FALSE(ReadEncryptedDatabase(path_).ok());

  // Truncate the file.
  ASSERT_TRUE(WriteEncryptedDatabase(path_, db_).ok());
  {
    std::ifstream in(path_, std::ios::binary | std::ios::ate);
    auto size = in.tellg();
    std::vector<char> buf(static_cast<std::size_t>(size) / 2);
    in.seekg(0);
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  }
  EXPECT_FALSE(ReadEncryptedDatabase(path_).ok());
}

TEST_F(DbIoTest, RejectsTrailingGarbage) {
  ASSERT_TRUE(WriteEncryptedDatabase(path_, db_).ok());
  {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out.write("x", 1);
  }
  EXPECT_FALSE(ReadEncryptedDatabase(path_).ok());
}

TEST_F(DbIoTest, ValidateCatchesForeignKey) {
  // Ciphertexts valid under Alice's key are (overwhelmingly likely) invalid
  // under an unrelated key: either out of range or sharing a factor never —
  // but the range check alone suffices for a smaller modulus.
  Random rng(62);
  auto other = GeneratePaillierKeyPair(128, rng).value();
  EXPECT_FALSE(ValidateCiphertexts(db_, other.pk).ok());
}

TEST_F(DbIoTest, ValidateCatchesTamperedCiphertext) {
  db_.records[2][1] = Ciphertext(pk_.n_squared());  // out of range
  EXPECT_FALSE(ValidateCiphertexts(db_, pk_).ok());
}

TEST(DbIoErrorTest, WriteRejectsEmptyAndUnopenablePaths) {
  EXPECT_FALSE(WriteEncryptedDatabase("/tmp/x.bin", EncryptedDatabase{}).ok());
  EXPECT_FALSE(ReadEncryptedDatabase("/nonexistent/db.bin").ok());
}

// ---------------------------------------------------------------------------
// Malformed-frame sweep over BOTH wire catalogs (net/query_wire.h,
// net/shard_wire.h): every frame type, truncated at EVERY aux length from 0
// to full. A truncated frame must decode successfully ONLY at the lengths
// the contract documents as valid shorter shapes (kQuery's optional
// deadline and clustered tails, kShardQuery's optional deadline word, the
// free-length error-message frames); every other cut must come back as a
// typed error — never an out-of-bounds read, which the sanitizer CI leg
// would turn into a crash right here.

// Decodes `full` truncated to every prefix length; `decodes_ok` must return
// true exactly at the lengths in `allowed` (the full length is always
// allowed).
void SweepAuxTruncations(const Message& full,
                         const std::set<std::size_t>& allowed,
                         const std::function<bool(const Message&)>& decodes_ok,
                         const char* what) {
  for (std::size_t cut = 0; cut <= full.aux.size(); ++cut) {
    Message truncated = full;
    truncated.aux.resize(cut);
    const bool ok = decodes_ok(truncated);
    if (cut == full.aux.size() || allowed.count(cut)) {
      EXPECT_TRUE(ok) << what << " must decode at aux length " << cut;
    } else {
      EXPECT_FALSE(ok) << what << " truncated to aux length " << cut << " (of "
                       << full.aux.size() << ") decoded instead of failing";
    }
  }
}

TEST(FrameTruncationSweep, QueryRequestAllowsOnlyDocumentedTails) {
  QueryRequest request;
  request.record = {5, -3, 7};
  request.k = 2;
  request.protocol = QueryProtocol::kSecure;
  request.table = "t1";
  request.deadline_ms = 250;
  request.index_mode = IndexMode::kClustered;
  request.probe_clusters = 2;
  Message full = EncodeQueryRequest(request);
  // header(16) + record(24) + len(4) + "t1"(2) = [table]; + deadline(4) =
  // [table][deadline]; + mode/probe(8) = [table][deadline][mode][probe].
  // A frame that ends at the record (no table name) is malformed.
  ASSERT_EQ(full.aux.size(), 58u);
  SweepAuxTruncations(
      full, {46, 50},
      [](const Message& m) { return DecodeQueryRequest(m).ok(); }, "kQuery");

  // The exact-mode frame keeps the revision-3/4 shape byte for byte: no
  // clustered tail ever rides a default request (old servers stay
  // compatible with new exact-mode clients).
  request.index_mode = IndexMode::kExact;
  request.deadline_ms = 0;
  EXPECT_EQ(EncodeQueryRequest(request).aux.size(), 46u);
}

TEST(FrameTruncationSweep, QueryResponsePerShardBlocksAreExactSize) {
  QueryResponse response;
  response.records = {{1, 2, 3}, {4, 5, 6}};
  response.shards.resize(2);
  response.shards[0].shard = 0;
  response.shards[0].candidates = 2;
  response.shards[1].shard = 1;
  response.shards[1].pruned = 1;
  response.shards[1].shard_records = 9;
  Message full = EncodeQueryResponse(response);
  SweepAuxTruncations(
      full, {}, [](const Message& m) { return DecodeQueryResponse(m).ok(); },
      "kQueryResult");
  // Empty rows cost no bytes, so a hostile row count is bounded by the
  // bytes behind it like any other count.
  Message empty_rows = EncodeQueryResponse(QueryResponse{});
  empty_rows.aux[0] = 0x00;
  empty_rows.aux[1] = 0x00;
  empty_rows.aux[2] = 0x10;  // rows = 2^20, cols = 0
  EXPECT_FALSE(DecodeQueryResponse(empty_rows).ok());

  // And the widened revision-5 block actually round-trips.
  auto decoded = DecodeQueryResponse(full);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->shards.size(), 2u);
  EXPECT_EQ(decoded->shards[1].pruned, 1u);
  EXPECT_EQ(decoded->shards[1].shard_records, 9u);
}

TEST(FrameTruncationSweep, ErrorFramesNeedOnlyTheStatusCode) {
  // The message text is free-length: every cut >= 4 is a (shorter) valid
  // frame; cuts 0..3 must fail, not read past the end.
  Message query_error = EncodeQueryError(Status::InvalidArgument("boom"));
  std::set<std::size_t> text_cuts;
  for (std::size_t cut = 4; cut < query_error.aux.size(); ++cut) {
    text_cuts.insert(cut);
  }
  SweepAuxTruncations(query_error, text_cuts,
                      [](const Message& m) {
                        return DecodeQueryError(m).code() ==
                               StatusCode::kInvalidArgument;
                      },
                      "kQueryError");
  Message shard_error = EncodeShardError(Status::InvalidArgument("boom"));
  SweepAuxTruncations(shard_error, text_cuts,
                      [](const Message& m) {
                        return DecodeShardError(m).code() ==
                               StatusCode::kInvalidArgument;
                      },
                      "kShardError");
}

TEST(FrameTruncationSweep, ControlPlaneFramesAreExactSize) {
  SweepAuxTruncations(
      EncodeHello(HelloInfo{}), {},
      [](const Message& m) { return DecodeHello(m).ok(); }, "kHello");
  SweepAuxTruncations(
      EncodeHelloAck(HelloInfo{}), {},
      [](const Message& m) { return DecodeHelloAck(m).ok(); }, "kHelloAck");
  SweepAuxTruncations(
      EncodeTableList({"alpha", "b"}), {},
      [](const Message& m) { return DecodeTableList(m).ok(); }, "kTableList");
  SweepAuxTruncations(
      EncodeTableInfoRequest("tbl"), {},
      [](const Message& m) { return DecodeTableInfoRequest(m).ok(); },
      "kTableInfo");

  TableInfoReply info;
  info.name = "tbl";
  info.num_records = 100;
  info.num_clusters = 8;
  SweepAuxTruncations(
      EncodeTableInfoReply(info), {},
      [](const Message& m) { return DecodeTableInfoReply(m).ok(); },
      "kTableInfoResult");

  ServiceStatsReply stats;
  stats.tables.resize(2);
  stats.tables[0].name = "a";
  stats.tables[1].name = "longer-name";
  SweepAuxTruncations(
      EncodeServiceStatsReply(stats), {},
      [](const Message& m) { return DecodeServiceStatsReply(m).ok(); },
      "kServiceStatsResult");

  HealthReply health;
  health.tables.resize(2);
  health.tables[0].name = "replicated";
  health.tables[0].replicas.resize(2);
  health.tables[1].name = "local";
  SweepAuxTruncations(
      EncodeHealthReply(health), {},
      [](const Message& m) { return DecodeHealthReply(m).ok(); },
      "kHealthResult");

  SweepAuxTruncations(
      EncodeReloadTableRequest({"tbl", "db=/x.bin,shards=2"}), {},
      [](const Message& m) { return DecodeReloadTableRequest(m).ok(); },
      "kReloadTable");
  SweepAuxTruncations(
      EncodeDetachTableRequest("tbl"), {},
      [](const Message& m) { return DecodeDetachTableRequest(m).ok(); },
      "kDetachTable");
  SweepAuxTruncations(
      EncodeAdminAck("tbl"), {},
      [](const Message& m) { return DecodeAdminAck(m).ok(); }, "kAdminAck");
  SweepAuxTruncations(
      EncodeTableChanged({"tbl", TableChangeKind::kDetached}), {},
      [](const Message& m) { return DecodeTableChanged(m).ok(); },
      "kTableChanged");
}

TEST(FrameTruncationSweep, ShardFramesAllowOnlyTheDeadlineTail) {
  ShardGeometry geometry;
  geometry.manifest.num_shards = 4;
  geometry.manifest.total_records = 100;
  geometry.shard_records = 25;
  SweepAuxTruncations(
      EncodeShardGeometry(geometry), {},
      [](const Message& m) { return DecodeShardGeometry(m).ok(); },
      "kShardPing geometry");

  ShardQueryFrame query;
  query.k = 2;
  query.deadline_ms = 500;
  query.enc_query = {Ciphertext(BigInt(7))};
  // aux length 8 = the pre-deadline header, a documented valid shape.
  SweepAuxTruncations(
      EncodeShardQuery(query), {8},
      [](const Message& m) { return DecodeShardQuery(m).ok(); },
      "kShardQuery");

  // Secure-mode candidates: bits + records, no indices/distances.
  ShardCandidatesFrame secure;
  secure.candidates.bits = {{Ciphertext(BigInt(1)), Ciphertext(BigInt(2))},
                            {Ciphertext(BigInt(3)), Ciphertext(BigInt(4))}};
  secure.candidates.records = {{Ciphertext(BigInt(5))},
                               {Ciphertext(BigInt(6))}};
  SweepAuxTruncations(
      EncodeShardCandidates(secure), {},
      [](const Message& m) { return DecodeShardCandidates(m).ok(); },
      "kShardCandidates (secure)");

  // Basic-mode candidates: distances + global indices widen the aux block.
  ShardCandidatesFrame basic;
  basic.candidates.records = {{Ciphertext(BigInt(5))},
                              {Ciphertext(BigInt(6))}};
  basic.candidates.distances = {Ciphertext(BigInt(9)),
                                Ciphertext(BigInt(10))};
  basic.candidates.global_indices = {3, 11};
  SweepAuxTruncations(
      EncodeShardCandidates(basic), {},
      [](const Message& m) { return DecodeShardCandidates(m).ok(); },
      "kShardCandidates (basic)");
}

// ---------------------------------------------------------------------------
// Golden frames: the exact bytes of every frame in both wire catalogs, the
// C1<->C2 aux payloads and one WireCodec envelope, with every field set to
// a distinct non-default value. The hex literals were captured from the
// hand-offset codecs that preceded the field-list cursor (net/message.h);
// the field-list codecs must reproduce them byte for byte, which is what
// keeps the protocol revision unchanged. Each frame must also decode back
// to a struct equal to the one encoded.

std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 15]);
  }
  return out;
}

void ExpectGoldenBytes(const std::vector<uint8_t>& bytes, const char* name,
                       const char* hex) {
  EXPECT_EQ(Hex(bytes), hex) << name;
}

// The whole frame as it crosses a link: envelope header, ints and aux.
void ExpectGolden(const Message& msg, const char* name, const char* hex) {
  ExpectGoldenBytes(WireCodec::Encode(msg), name, hex);
}

template <class T>
void ExpectRoundTrip(const Result<T>& decoded, const T& original,
                     const char* name) {
  ASSERT_TRUE(decoded.ok()) << name << ": " << decoded.status();
  EXPECT_TRUE(*decoded == original) << name << " decoded to a different value";
}

TEST(GoldenFrames, QueryFrames) {
  // kQuery carries three shapes after the table name: none, the lone
  // deadline word, and the full clustered tail.
  QueryRequest bare;
  bare.record = {5, -3, 0x0102030405060708};
  bare.k = 0x21;
  bare.protocol = QueryProtocol::kFarthest;
  bare.want_breakdown = false;
  bare.want_op_counts = true;
  bare.no_cache = true;
  bare.table = "tbl";
  ExpectGolden(EncodeQueryRequest(bare), "kQuery [table]",
               "010100000000000000000000000000000000000000002f0000002100"
               "00000200000006000000030000000500000000000000fdffffffffff"
               "ffff08070605040302010300000074626c");
  ExpectRoundTrip(DecodeQueryRequest(EncodeQueryRequest(bare)), bare,
                  "kQuery [table]");

  QueryRequest with_deadline = bare;
  with_deadline.protocol = QueryProtocol::kBasic;
  with_deadline.want_breakdown = true;
  with_deadline.want_op_counts = false;
  with_deadline.deadline_ms = 0x0A0B0C0D;
  ExpectGolden(EncodeQueryRequest(with_deadline), "kQuery [table][deadline]",
               "01010000000000000000000000000000000000000000330000002100"
               "00000000000005000000030000000500000000000000fdffffffffff"
               "ffff08070605040302010300000074626c0d0c0b0a");
  ExpectRoundTrip(DecodeQueryRequest(EncodeQueryRequest(with_deadline)),
                  with_deadline, "kQuery [table][deadline]");

  QueryRequest clustered = with_deadline;
  clustered.protocol = QueryProtocol::kSecure;
  clustered.index_mode = IndexMode::kClustered;
  clustered.probe_clusters = 0x33;
  ExpectGolden(EncodeQueryRequest(clustered),
               "kQuery [table][deadline][mode][probe]",
               "010100000000000000000000000000000000000000003b0000002100"
               "00000100000005000000030000000500000000000000fdffffffffff"
               "ffff08070605040302010300000074626c0d0c0b0a01000000330000"
               "00");
  ExpectRoundTrip(DecodeQueryRequest(EncodeQueryRequest(clustered)), clustered,
                  "kQuery [table][deadline][mode][probe]");

  // Only the four original op words cross the wire, so the response keeps
  // inversions and small_exponentiations at zero.
  QueryResponse response;
  response.records = {{1, -2, 3}, {0x7FFFFFFFFFFFFFFF, 5, -6}};
  response.bob_seconds = 1.5;
  response.cloud_seconds = 2.25;
  response.traffic = {11, 12, 13, 14};
  response.ops.encryptions = 21;
  response.ops.decryptions = 22;
  response.ops.exponentiations = 23;
  response.ops.multiplications = 24;
  response.breakdown = {0.5, 0.75, 1.25, 1.75, 2.5, 3.5};
  response.merge_seconds = 4.5;
  response.shards.resize(2);
  for (uint32_t i = 0; i < 2; ++i) {
    ShardQueryStats& shard = response.shards[i];
    const uint32_t base = 100 * (i + 1);
    shard.shard = base + 1;
    shard.candidates = base + 2;
    shard.seconds = 0.125 * (i + 1);
    shard.traffic = {base + 3, base + 4, base + 5, base + 6};
    shard.ops.encryptions = base + 7;
    shard.ops.decryptions = base + 8;
    shard.ops.exponentiations = base + 9;
    shard.ops.multiplications = base + 10;
    shard.replica = base + 11;
    shard.failovers = base + 12;
    shard.pruned = base + 13;
    shard.shard_records = base + 14;
  }
  response.cache_hit = true;
  response.encrypted_records = {{0xAA, 0xBB, 0xCC}, {0xDD}};
  ExpectGolden(EncodeQueryResponse(response), "kQueryResult",
               "02010000000000000000000000000000000000000000980100000200"
               "0000030000000100000000000000feffffffffffffff030000000000"
               "0000ffffffffffffff7f0500000000000000faffffffffffffff0000"
               "00000000f83f00000000000002400b000000000000000c0000000000"
               "00000d000000000000000e0000000000000015000000000000001600"
               "00000000000017000000000000001800000000000000000000000000"
               "e03f000000000000e83f000000000000f43f000000000000fc3f0000"
               "0000000004400000000000000c400000000000001240020000006500"
               "0000660000006f000000700000007100000072000000000000000000"
               "c03f6700000000000000680000000000000069000000000000006a00"
               "0000000000006b000000000000006c000000000000006d0000000000"
               "00006e00000000000000c9000000ca000000d3000000d4000000d500"
               "0000d6000000000000000000d03fcb00000000000000cc0000000000"
               "0000cd00000000000000ce00000000000000cf00000000000000d000"
               "000000000000d100000000000000d200000000000000010000000200"
               "000003000000aabbcc01000000dd");
  ExpectRoundTrip(DecodeQueryResponse(EncodeQueryResponse(response)), response,
                  "kQueryResult");

  const Status error = Status::NotFound("no such table");
  ExpectGolden(EncodeQueryError(error), "kQueryError",
               "03010000000000000000000000000000000000000000110000000800"
               "00006e6f2073756368207461626c65");
  EXPECT_EQ(DecodeQueryError(EncodeQueryError(error)), error);
}

TEST(GoldenFrames, SessionAndControlFrames) {
  const HelloInfo hello{0x01020304, 0x0A0B0C0D, 0x11};
  ExpectGolden(EncodeHello(hello), "kHello",
               "100100000000000000000000000000000000000000000c0000000403"
               "02010d0c0b0a11000000");
  ExpectRoundTrip(DecodeHello(EncodeHello(hello)), hello, "kHello");
  const HelloInfo ack{0x05060708, 0x0E0F1011, 0x12};
  ExpectGolden(EncodeHelloAck(ack), "kHelloAck",
               "110100000000000000000000000000000000000000000c0000000807"
               "060511100f0e12000000");
  ExpectRoundTrip(DecodeHelloAck(EncodeHelloAck(ack)), ack, "kHelloAck");

  ExpectGolden(EncodeListTablesRequest(), "kListTables",
               "1201000000000000000000000000000000000000000000000000");
  const std::vector<std::string> names = {"alpha", "b"};
  ExpectGolden(EncodeTableList(names), "kTableList",
               "13010000000000000000000000000000000000000000120000000200"
               "000005000000616c7068610100000062");
  ExpectRoundTrip(DecodeTableList(EncodeTableList(names)), names,
                  "kTableList");
  ExpectGolden(EncodeTableInfoRequest("tbl"), "kTableInfo",
               "14010000000000000000000000000000000000000000070000000300"
               "000074626c");
  ExpectRoundTrip(DecodeTableInfoRequest(EncodeTableInfoRequest("tbl")),
                  std::string("tbl"), "kTableInfo");

  TableInfoReply info;
  info.name = "heart";
  info.num_records = 0x0102030405;
  info.num_attributes = 6;
  info.attr_bits = 7;
  info.k_max = 8;
  info.distance_bits = 9;
  info.num_shards = 10;
  info.shard_scheme = 2;
  info.remote_workers = true;
  info.num_clusters = 11;
  ExpectGolden(EncodeTableInfoReply(info), "kTableInfoResult",
               "15010000000000000000000000000000000000000000310000000500"
               "00006865617274050403020100000006000000070000000800000009"
               "0000000a00000002000000010000000b000000");
  ExpectRoundTrip(DecodeTableInfoReply(EncodeTableInfoReply(info)), info,
                  "kTableInfoResult");

  ExpectGolden(EncodeServiceStatsRequest(), "kServiceStats",
               "1601000000000000000000000000000000000000000000000000");
  ServiceStatsReply stats;
  stats.uptime_seconds = 12.5;
  stats.connections_accepted = 31;
  stats.in_flight = 32;
  stats.tables.resize(2);
  for (uint64_t i = 0; i < 2; ++i) {
    TableStatsEntry& t = stats.tables[i];
    const uint64_t base = 1000 * (i + 1);
    t.name = i == 0 ? "a" : "second";
    t.completed = base + 1;
    t.failed = base + 2;
    t.rejected = base + 3;
    t.in_flight = base + 4;
    t.c1_pool_hits = base + 5;
    t.c1_pool_misses = base + 6;
    t.c1_pool_stock = base + 7;
    t.c1_pool_capacity = base + 8;
    t.c2_pool_hits = base + 9;
    t.c2_pool_misses = base + 10;
    t.c2_pool_stock = base + 11;
    t.c2_pool_capacity = base + 12;
    t.weight = static_cast<uint32_t>(base + 13);
    t.share_limit = static_cast<uint32_t>(base + 14);
    t.cache_hits = base + 15;
    t.cache_misses = base + 16;
    t.cache_evictions = base + 17;
    t.cache_entries = base + 18;
    t.cache_bytes = base + 19;
  }
  stats.auth_enabled = true;
  stats.keys.resize(2);
  for (uint64_t i = 0; i < 2; ++i) {
    ApiKeyStatsEntry& key = stats.keys[i];
    const uint64_t base = 5000 * (i + 1);
    key.id = i == 0 ? "ops" : "batch-key";
    key.completed = base + 1;
    key.denied = base + 2;
    key.quota_rejected = base + 3;
    key.quota = base + 4;
    key.remaining = base + 5;
    key.weight = static_cast<uint32_t>(base + 6);
  }
  ExpectGolden(EncodeServiceStatsReply(stats), "kServiceStatsResult",
               "17010000000000000000000000000000000000000000bf0100000000"
               "0000000029401f000000000000002000000000000000020000000100"
               "000061e903000000000000ea03000000000000eb03000000000000ec"
               "03000000000000ed03000000000000ee03000000000000ef03000000"
               "000000f003000000000000f103000000000000f203000000000000f3"
               "03000000000000f403000000000000f5030000f6030000f703000000"
               "000000f803000000000000f903000000000000fa03000000000000fb"
               "03000000000000060000007365636f6e64d107000000000000d20700"
               "0000000000d307000000000000d407000000000000d5070000000000"
               "00d607000000000000d707000000000000d807000000000000d90700"
               "0000000000da07000000000000db07000000000000dc070000000000"
               "00dd070000de070000df07000000000000e007000000000000e10700"
               "0000000000e207000000000000e30700000000000001000000020000"
               "00030000006f707389130000000000008a130000000000008b130000"
               "000000008c130000000000008d130000000000008e13000009000000"
               "62617463682d6b657911270000000000001227000000000000132700"
               "00000000001427000000000000152700000000000016270000");
  ExpectRoundTrip(DecodeServiceStatsReply(EncodeServiceStatsReply(stats)),
                  stats, "kServiceStatsResult");

  ExpectGolden(EncodeHealthRequest(), "kHealth",
               "1801000000000000000000000000000000000000000000000000");
  HealthReply health;
  health.tables.resize(2);
  health.tables[0].name = "replicated";
  health.tables[0].replicas = {{1, 2, false, 3, 4, 5.5},
                               {6, 7, true, 8, 9, -1}};
  health.tables[1].name = "local";
  ExpectGolden(EncodeHealthReply(health), "kHealthResult",
               "19010000000000000000000000000000000000000000630000000200"
               "00000a0000007265706c696361746564020000000100000002000000"
               "00000000030000000400000000000000000000000000164006000000"
               "0700000001000000080000000900000000000000000000000000f0bf"
               "050000006c6f63616c00000000");
  ExpectRoundTrip(DecodeHealthReply(EncodeHealthReply(health)), health,
                  "kHealthResult");

  const ReloadTableRequest reload{"tbl", "db=/x.bin,shards=2"};
  ExpectGolden(EncodeReloadTableRequest(reload), "kReloadTable",
               "1a0100000000000000000000000000000000000000001d0000000300"
               "000074626c1200000064623d2f782e62696e2c7368617264733d32");
  ExpectRoundTrip(DecodeReloadTableRequest(EncodeReloadTableRequest(reload)),
                  reload, "kReloadTable");
  ExpectGolden(EncodeDetachTableRequest("old"), "kDetachTable",
               "1b010000000000000000000000000000000000000000070000000300"
               "00006f6c64");
  ExpectRoundTrip(DecodeDetachTableRequest(EncodeDetachTableRequest("old")),
                  std::string("old"), "kDetachTable");
  ExpectGolden(EncodeAdminAck("done"), "kAdminAck",
               "1c010000000000000000000000000000000000000000080000000400"
               "0000646f6e65");
  ExpectRoundTrip(DecodeAdminAck(EncodeAdminAck("done")), std::string("done"),
                  "kAdminAck");
  const TableChangedNote note{"tbl", TableChangeKind::kDetached};
  ExpectGolden(EncodeTableChanged(note), "kTableChanged",
               "1d0100000000000000000000000000000000000000000b0000000300"
               "000074626c01000000");
  ExpectRoundTrip(DecodeTableChanged(EncodeTableChanged(note)), note,
                  "kTableChanged");
  ExpectGolden(EncodeAuthenticateRequest("s3cret"), "kAuthenticate",
               "1e0100000000000000000000000000000000000000000a0000000600"
               "0000733363726574");
  ExpectRoundTrip(
      DecodeAuthenticateRequest(EncodeAuthenticateRequest("s3cret")),
      std::string("s3cret"), "kAuthenticate");
  ExpectGolden(EncodeAuthAck("ops"), "kAuthAck",
               "1f010000000000000000000000000000000000000000070000000300"
               "00006f7073");
  ExpectRoundTrip(DecodeAuthAck(EncodeAuthAck("ops")), std::string("ops"),
                  "kAuthAck");
}

TEST(GoldenFrames, ShardFrames) {
  ExpectGolden(EncodeShardPing(), "kShardPing",
               "0102000000000000000000000000000000000000000000000000");
  ShardGeometry geometry;
  geometry.shard = 3;
  geometry.manifest.scheme = ShardScheme::kByCluster;
  geometry.manifest.num_shards = 5;
  geometry.manifest.total_records = 0x010203;
  geometry.num_attributes = 7;
  geometry.distance_bits = 19;
  geometry.shard_records = 0x0405;
  ExpectGolden(EncodeShardGeometry(geometry), "kShardPing geometry",
               "010200000000000000000000000000000000000000001c0000000300"
               "0000020000000500000003020100070000001300000005040000");
  ExpectRoundTrip(DecodeShardGeometry(EncodeShardGeometry(geometry)), geometry,
                  "kShardPing geometry");

  ShardQueryFrame query;
  query.query_id = 0x1122334455667788;
  query.k = 9;
  query.protocol = QueryProtocol::kFarthest;
  query.enc_query = {Ciphertext(BigInt(0x0102)), Ciphertext(BigInt(0))};
  ExpectGolden(EncodeShardQuery(query), "kShardQuery",
               "02020000000000000000887766554433221102000000020000000102"
               "00000000080000000900000002000000");
  ExpectRoundTrip(DecodeShardQuery(EncodeShardQuery(query)), query,
                  "kShardQuery");
  query.deadline_ms = 0x0A0B0C0D;
  ExpectGolden(EncodeShardQuery(query), "kShardQuery [deadline]",
               "02020000000000000000887766554433221102000000020000000102"
               "000000000c00000009000000020000000d0c0b0a");
  ExpectRoundTrip(DecodeShardQuery(EncodeShardQuery(query)), query,
                  "kShardQuery [deadline]");

  ShardCandidatesFrame secure;
  secure.candidates.bits = {{Ciphertext(BigInt(1)), Ciphertext(BigInt(2))},
                            {Ciphertext(BigInt(3)), Ciphertext(BigInt(4))}};
  secure.candidates.records = {{Ciphertext(BigInt(5)), Ciphertext(BigInt(6))},
                               {Ciphertext(BigInt(7)), Ciphertext(BigInt(8))}};
  secure.seconds = 0.375;
  secure.traffic = {41, 42, 43, 44};
  secure.ops.encryptions = 45;
  secure.ops.decryptions = 46;
  secure.ops.exponentiations = 47;
  secure.ops.multiplications = 48;
  ExpectGolden(EncodeShardCandidates(secure), "kShardCandidates (secure)",
               "03020000000000000000000000000000000008000000010000000101"
               "00000002010000000301000000040100000005010000000601000000"
               "07010000000858000000020000000200000002000000000000000000"
               "00000000d83f29000000000000002a000000000000002b0000000000"
               "00002c000000000000002d000000000000002e000000000000002f00"
               "0000000000003000000000000000");
  ExpectRoundTrip(DecodeShardCandidates(EncodeShardCandidates(secure)), secure,
                  "kShardCandidates (secure)");

  ShardCandidatesFrame basic = secure;
  basic.candidates.bits.clear();
  basic.candidates.distances = {Ciphertext(BigInt(9)), Ciphertext(BigInt(10))};
  basic.candidates.global_indices = {3, 0x0B0C};
  basic.seconds = 0.625;
  ExpectGolden(EncodeShardCandidates(basic), "kShardCandidates (basic)",
               "03020000000000000000000000000000000006000000010000000501"
               "00000006010000000701000000080100000009010000000a60000000"
               "02000000000000000200000001000000030000000c0b000000000000"
               "0000e43f29000000000000002a000000000000002b00000000000000"
               "2c000000000000002d000000000000002e000000000000002f000000"
               "000000003000000000000000");
  ExpectRoundTrip(DecodeShardCandidates(EncodeShardCandidates(basic)), basic,
                  "kShardCandidates (basic)");

  const Status error = Status::Unavailable("worker draining");
  ExpectGolden(EncodeShardError(error), "kShardError",
               "04020000000000000000000000000000000000000000130000000a00"
               "0000776f726b657220647261696e696e67");
  EXPECT_EQ(DecodeShardError(EncodeShardError(error)), error);
}

TEST(GoldenFrames, WireCodecEnvelope) {
  Message msg;
  msg.type = 0x0A0B;
  msg.correlation_id = 0x0102030405060708;
  msg.query_id = 0x1112131415161718;
  msg.ints = {BigInt(0), BigInt(0x0A0B0C), BigInt(1)};
  msg.aux = {0xFE, 0xED};
  ExpectGolden(msg, "WireCodec envelope",
               "0b0a0807060504030201181716151413121103000000000000000300"
               "00000a0b0c010000000102000000feed");
  Result<Message> decoded = WireCodec::Decode(WireCodec::Encode(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->type, msg.type);
  EXPECT_EQ(decoded->correlation_id, msg.correlation_id);
  EXPECT_EQ(decoded->query_id, msg.query_id);
  EXPECT_EQ(decoded->ints, msg.ints);
  EXPECT_EQ(decoded->aux, msg.aux);
}

// The C1<->C2 aux payloads ride real exchanges: a recording front of the
// RPC server captures what C1's protocol code sends, and C2Service::Handle
// produces the replies.
TEST(GoldenFrames, C1C2AuxPayloads) {
  PaillierKeyPair keys = MakeKeys(256, 90);
  const PaillierPublicKey pk = keys.pk;
  C2Service c2(std::move(keys.sk));
  Mutex mutex;
  std::vector<Message> requests;
  Channel::EndpointPair link = Channel::CreatePair();
  RpcServer server(std::move(link.b), [&](const Message& req) {
    {
      MutexLock lock(&mutex);
      requests.push_back(req);
    }
    return c2.Handle(req);
  });
  RpcClient client(std::move(link.a));
  ProtoContext ctx(&pk, &client);
  auto last_request = [&](Op op) {
    MutexLock lock(&mutex);
    for (auto it = requests.rbegin(); it != requests.rend(); ++it) {
      if (it->type == OpCode(op)) return *it;
    }
    ADD_FAILURE() << "no request with opcode " << OpCode(op);
    return Message{};
  };
  Random rng(91);
  auto encrypt_bits = [&](uint64_t value, unsigned l) {
    EncryptedBits bits;
    for (unsigned i = 0; i < l; ++i) {
      bits.push_back(pk.Encrypt(BigInt((value >> (l - 1 - i)) & 1), rng));
    }
    return bits;
  };

  // kSminPhase2Vec: the [l][count] header of a 3-bit, 2-pair level.
  auto mins = SecureMinBatch(ctx, {encrypt_bits(5, 3), encrypt_bits(2, 3)},
                             {encrypt_bits(6, 3), encrypt_bits(1, 3)});
  ASSERT_TRUE(mins.ok()) << mins.status();
  ExpectGoldenBytes(last_request(Op::kSminPhase2Vec).aux,
               "kSminPhase2Vec aux",
                    "0300000002000000");

  // kTopKIndices: the [k] header out, k indices back.
  std::vector<Ciphertext> dists;
  for (uint64_t d : {9, 3, 7, 1}) dists.push_back(pk.Encrypt(BigInt(d), rng));
  auto top = SecureTopKIndices(ctx, dists, 3);
  ASSERT_TRUE(top.ok()) << top.status();
  EXPECT_EQ(*top, (std::vector<uint32_t>{3, 1, 2}));
  Message topk = last_request(Op::kTopKIndices);
  ExpectGoldenBytes(topk.aux, "kTopKIndices aux",
                    "03000000");
  topk.query_id = 77;
  auto topk_reply = c2.Handle(topk);
  ASSERT_TRUE(topk_reply.ok()) << topk_reply.status();
  ExpectGoldenBytes(topk_reply->aux, "kTopKIndices reply",
                    "030000000100000002000000");

  // kFetchQueryOps: the ledger of query 77 (the top-k exchange above plus
  // one SMIN phase-2 block).
  Message smin = last_request(Op::kSminPhase2Vec);
  smin.query_id = 77;
  ASSERT_TRUE(c2.Handle(smin).ok());
  Message fetch_ops;
  fetch_ops.type = OpCode(Op::kFetchQueryOps);
  fetch_ops.query_id = 77;
  auto ops_reply = c2.Handle(fetch_ops);
  ASSERT_TRUE(ops_reply.ok()) << ops_reply.status();
  ExpectGoldenBytes(ops_reply->aux, "kFetchQueryOps reply",
                    "08000000000000000a00000000000000000000000000000000000000"
                    "00000000");

  // kFetchPoolStats: a filled pool, then disabled so its workers idle and
  // every take computes inline (misses) — the counters stay deterministic.
  c2.EnableRandomizerPool(12, 1);
  c2.randomizer_pool()->WaitUntilFull();
  c2.randomizer_pool()->set_enabled(false);
  ASSERT_TRUE(c2.Handle(smin).ok());
  Message fetch_pool;
  fetch_pool.type = OpCode(Op::kFetchPoolStats);
  auto pool_reply = c2.Handle(fetch_pool);
  ASSERT_TRUE(pool_reply.ok()) << pool_reply.status();
  ExpectGoldenBytes(pool_reply->aux, "kFetchPoolStats reply",
                    "000000000000000008000000000000000c000000000000000c000000"
                    "00000000");
}

}  // namespace
}  // namespace sknn
