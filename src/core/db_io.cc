#include "core/db_io.h"

#include <cstring>
#include <fstream>

#include "net/message.h"

namespace sknn {
namespace {

constexpr char kMagic[8] = {'S', 'K', 'N', 'N', 'D', 'B', '0', '1'};
constexpr char kManifestMagic[8] = {'S', 'K', 'N', 'N', 'S', 'H', '0', '1'};
constexpr char kClusterMagic[8] = {'S', 'K', 'N', 'N', 'C', 'L', '0', '1'};

// Little-endian u32 words through the wire cursor (net/message.h).
void PutU32(std::ofstream& out, uint32_t v) {
  std::vector<uint8_t> bytes;
  WireWriter(&bytes).U32(v);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

bool GetU32(std::ifstream& in, uint32_t* v) {
  uint8_t bytes[4];
  if (!in.read(reinterpret_cast<char*>(bytes), sizeof(bytes))) return false;
  WireReader(bytes, sizeof(bytes)).U32(*v);
  return true;
}

// Reads and checks an 8-byte magic whose last two characters are the format
// revision. Three distinct outcomes for the caller's error message: OK,
// "right family, unknown revision" (version skew — an artifact from a
// newer/older build must be re-exported, not half-parsed), and "not ours".
enum class MagicCheck { kOk, kVersionSkew, kForeign };

MagicCheck CheckMagic(std::ifstream& in, const char (&expected)[8]) {
  char magic[8];
  if (!in.read(magic, sizeof(magic))) return MagicCheck::kForeign;
  if (std::memcmp(magic, expected, sizeof(magic)) == 0) return MagicCheck::kOk;
  if (std::memcmp(magic, expected, 6) == 0) return MagicCheck::kVersionSkew;
  return MagicCheck::kForeign;
}

}  // namespace

Status WriteEncryptedDatabase(const std::string& path,
                              const EncryptedDatabase& db) {
  if (db.records.empty() || db.records[0].empty()) {
    return Status::InvalidArgument("WriteEncryptedDatabase: empty database");
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::IoError("WriteEncryptedDatabase: cannot open " + path);
  }
  out.write(kMagic, sizeof(kMagic));
  PutU32(out, static_cast<uint32_t>(db.num_records()));
  PutU32(out, static_cast<uint32_t>(db.num_attributes()));
  PutU32(out, db.distance_bits);
  for (const auto& row : db.records) {
    if (row.size() != db.num_attributes()) {
      return Status::InvalidArgument("WriteEncryptedDatabase: ragged rows");
    }
    for (const auto& ct : row) {
      std::vector<uint8_t> bytes = ct.value().ToBytes();
      PutU32(out, static_cast<uint32_t>(bytes.size()));
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
  }
  if (!out.good()) {
    return Status::IoError("WriteEncryptedDatabase: write failure");
  }
  return Status::OK();
}

Result<EncryptedDatabase> ReadEncryptedDatabase(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("ReadEncryptedDatabase: cannot open " + path);
  }
  switch (CheckMagic(in, kMagic)) {
    case MagicCheck::kOk:
      break;
    case MagicCheck::kVersionSkew:
      return Status::InvalidArgument(
          "ReadEncryptedDatabase: " + path +
          " is an sknn database of an unsupported format revision (this "
          "build reads SKNNDB01); re-export it with this build's "
          "sknn_encrypt");
    case MagicCheck::kForeign:
      return Status::InvalidArgument(
          "ReadEncryptedDatabase: bad magic (not an sknn database)");
  }
  uint32_t n = 0, m = 0, l = 0;
  if (!GetU32(in, &n) || !GetU32(in, &m) || !GetU32(in, &l) || n == 0 ||
      m == 0 || l == 0) {
    return Status::InvalidArgument("ReadEncryptedDatabase: bad geometry");
  }
  EncryptedDatabase db;
  db.distance_bits = l;
  db.records.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::vector<Ciphertext> row;
    row.reserve(m);
    for (uint32_t j = 0; j < m; ++j) {
      uint32_t len = 0;
      if (!GetU32(in, &len)) {
        return Status::InvalidArgument(
            "ReadEncryptedDatabase: truncated file");
      }
      std::vector<uint8_t> bytes(len);
      if (len > 0 &&
          !in.read(reinterpret_cast<char*>(bytes.data()), len)) {
        return Status::InvalidArgument(
            "ReadEncryptedDatabase: truncated ciphertext");
      }
      row.emplace_back(BigInt::FromBytes(bytes));
    }
    db.records.push_back(std::move(row));
  }
  // Reject trailing garbage.
  char extra;
  if (in.read(&extra, 1)) {
    return Status::InvalidArgument("ReadEncryptedDatabase: trailing bytes");
  }
  return db;
}

Status WriteShardManifest(const std::string& path,
                          const ShardManifest& manifest) {
  // Round-trip through the validator so a malformed manifest can never be
  // persisted in the first place.
  SKNN_ASSIGN_OR_RETURN(ShardManifest checked,
                        MakeShardManifest(manifest.total_records,
                                          manifest.num_shards,
                                          manifest.scheme));
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::IoError("WriteShardManifest: cannot open " + path);
  }
  out.write(kManifestMagic, sizeof(kManifestMagic));
  PutU32(out, static_cast<uint32_t>(checked.scheme));
  PutU32(out, static_cast<uint32_t>(checked.num_shards));
  PutU32(out, static_cast<uint32_t>(checked.total_records));
  if (!out.good()) {
    return Status::IoError("WriteShardManifest: write failure");
  }
  return Status::OK();
}

Result<ShardManifest> ReadShardManifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("ReadShardManifest: cannot open " + path);
  }
  switch (CheckMagic(in, kManifestMagic)) {
    case MagicCheck::kOk:
      break;
    case MagicCheck::kVersionSkew:
      return Status::InvalidArgument(
          "ReadShardManifest: " + path +
          " is a shard manifest of an unsupported format revision (this "
          "build reads SKNNSH01); re-export it with this build's "
          "sknn_encrypt");
    case MagicCheck::kForeign:
      return Status::InvalidArgument(
          "ReadShardManifest: bad magic (not a shard manifest)");
  }
  uint32_t scheme = 0, num_shards = 0, total_records = 0;
  if (!GetU32(in, &scheme) || !GetU32(in, &num_shards) ||
      !GetU32(in, &total_records)) {
    return Status::InvalidArgument("ReadShardManifest: truncated file");
  }
  char extra;
  if (in.read(&extra, 1)) {
    return Status::InvalidArgument("ReadShardManifest: trailing bytes");
  }
  if (scheme > static_cast<uint32_t>(ShardScheme::kByCluster)) {
    return Status::InvalidArgument("ReadShardManifest: unknown scheme");
  }
  return MakeShardManifest(total_records, num_shards,
                           static_cast<ShardScheme>(scheme));
}

Status ValidateManifestForDatabase(const ShardManifest& manifest,
                                   const EncryptedDatabase& db) {
  if (manifest.total_records != db.num_records()) {
    return Status::InvalidArgument(
        "shard manifest describes " +
        std::to_string(manifest.total_records) +
        " records but the database holds " +
        std::to_string(db.num_records()) +
        " — manifest and database are not from the same export");
  }
  return Status::OK();
}

namespace {

// The db-independent half of ValidateClusterManifestForDatabase: internal
// consistency of counts, assignment range, and centroid geometry.
Status CheckClusterManifestShape(const ClusterManifest& manifest) {
  if (manifest.num_clusters == 0) {
    return Status::InvalidArgument("cluster manifest: zero clusters");
  }
  if (manifest.total_records == 0 || manifest.num_attributes == 0) {
    return Status::InvalidArgument("cluster manifest: empty geometry");
  }
  if (manifest.assignment.size() != manifest.total_records) {
    return Status::InvalidArgument(
        "cluster manifest: assignment covers " +
        std::to_string(manifest.assignment.size()) + " of " +
        std::to_string(manifest.total_records) + " records");
  }
  for (uint32_t c : manifest.assignment) {
    if (c >= manifest.num_clusters) {
      return Status::InvalidArgument(
          "cluster manifest: assignment names cluster " + std::to_string(c) +
          " of " + std::to_string(manifest.num_clusters));
    }
  }
  if (manifest.centroids.size() != manifest.num_clusters) {
    return Status::InvalidArgument(
        "cluster manifest: " + std::to_string(manifest.centroids.size()) +
        " centroid rows for " + std::to_string(manifest.num_clusters) +
        " clusters");
  }
  for (const auto& row : manifest.centroids) {
    if (row.size() != manifest.num_attributes) {
      return Status::InvalidArgument("cluster manifest: ragged centroids");
    }
  }
  return Status::OK();
}

}  // namespace

Status WriteClusterManifest(const std::string& path,
                            const ClusterManifest& manifest) {
  if (Status shape = CheckClusterManifestShape(manifest); !shape.ok()) {
    return shape;
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::IoError("WriteClusterManifest: cannot open " + path);
  }
  out.write(kClusterMagic, sizeof(kClusterMagic));
  PutU32(out, manifest.num_clusters);
  PutU32(out, static_cast<uint32_t>(manifest.num_attributes));
  PutU32(out, static_cast<uint32_t>(manifest.total_records));
  for (uint32_t c : manifest.assignment) PutU32(out, c);
  for (const auto& row : manifest.centroids) {
    for (const auto& ct : row) {
      std::vector<uint8_t> bytes = ct.value().ToBytes();
      PutU32(out, static_cast<uint32_t>(bytes.size()));
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
  }
  if (!out.good()) {
    return Status::IoError("WriteClusterManifest: write failure");
  }
  return Status::OK();
}

Result<ClusterManifest> ReadClusterManifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("ReadClusterManifest: cannot open " + path);
  }
  switch (CheckMagic(in, kClusterMagic)) {
    case MagicCheck::kOk:
      break;
    case MagicCheck::kVersionSkew:
      return Status::InvalidArgument(
          "ReadClusterManifest: " + path +
          " is a cluster manifest of an unsupported format revision (this "
          "build reads SKNNCL01); re-export it with this build's "
          "sknn_encrypt");
    case MagicCheck::kForeign:
      return Status::InvalidArgument(
          "ReadClusterManifest: bad magic (not a cluster manifest)");
  }
  uint32_t num_clusters = 0, m = 0, n = 0;
  if (!GetU32(in, &num_clusters) || !GetU32(in, &m) || !GetU32(in, &n) ||
      num_clusters == 0 || m == 0 || n == 0) {
    return Status::InvalidArgument("ReadClusterManifest: bad geometry");
  }
  if (num_clusters > n) {
    return Status::InvalidArgument(
        "ReadClusterManifest: more clusters than records");
  }
  ClusterManifest manifest;
  manifest.num_clusters = num_clusters;
  manifest.num_attributes = m;
  manifest.total_records = n;
  manifest.assignment.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t c = 0;
    if (!GetU32(in, &c)) {
      return Status::InvalidArgument(
          "ReadClusterManifest: truncated assignment");
    }
    manifest.assignment.push_back(c);
  }
  manifest.centroids.reserve(num_clusters);
  for (uint32_t c = 0; c < num_clusters; ++c) {
    std::vector<Ciphertext> row;
    row.reserve(m);
    for (uint32_t j = 0; j < m; ++j) {
      uint32_t len = 0;
      if (!GetU32(in, &len)) {
        return Status::InvalidArgument(
            "ReadClusterManifest: truncated centroids");
      }
      std::vector<uint8_t> bytes(len);
      if (len > 0 && !in.read(reinterpret_cast<char*>(bytes.data()), len)) {
        return Status::InvalidArgument(
            "ReadClusterManifest: truncated centroid ciphertext");
      }
      row.emplace_back(BigInt::FromBytes(bytes));
    }
    manifest.centroids.push_back(std::move(row));
  }
  char extra;
  if (in.read(&extra, 1)) {
    return Status::InvalidArgument("ReadClusterManifest: trailing bytes");
  }
  if (Status shape = CheckClusterManifestShape(manifest); !shape.ok()) {
    return shape;
  }
  return manifest;
}

Status ValidateCiphertexts(const EncryptedDatabase& db,
                           const PaillierPublicKey& pk) {
  for (std::size_t i = 0; i < db.records.size(); ++i) {
    for (std::size_t j = 0; j < db.records[i].size(); ++j) {
      if (!pk.IsValidCiphertext(db.records[i][j])) {
        return Status::CryptoError(
            "ValidateCiphertexts: invalid ciphertext at record " +
            std::to_string(i) + ", attribute " + std::to_string(j));
      }
    }
  }
  return Status::OK();
}

}  // namespace sknn
