#include "net/shard_wire.h"

#include <string>

namespace sknn {

// One field list per frame body; the same list drives Encode* and Decode*.

template <class Io>
void Fields(Io& io, ShardGeometry& geometry) {
  io.U32(geometry.shard);
  io.Enum(geometry.manifest.scheme, ShardScheme::kByCluster);
  io.U32(geometry.manifest.num_shards);
  io.U32(geometry.manifest.total_records);
  io.U32(geometry.num_attributes);
  io.U32(geometry.distance_bits);
  io.U32(geometry.shard_records);
}

// kShardQuery's aux; Epk(Q) rides the ints and the query id the header.
template <class Io>
void Fields(Io& io, ShardQueryFrame& frame) {
  io.U32(frame.k);
  io.Enum(frame.protocol, QueryProtocol::kFarthest);
  if (io.Tail(frame.deadline_ms != 0)) io.U32(frame.deadline_ms);
}

namespace {

// Shape of the candidate ciphertexts in kShardCandidates' ints: count
// candidates of bits_per bits (secure) then m attributes, then one distance
// each (basic).
struct CandidateGeometry {
  uint32_t count = 0;
  uint32_t bits_per = 0;
  uint32_t m = 0;
  bool has_distances = false;
};

// kShardCandidates' aux: the geometry, the basic protocol's global indices
// (one per candidate, no count prefix), then the stage instrumentation.
template <class Io>
void CandidateFields(Io& io, CandidateGeometry& geometry,
                     ShardCandidatesFrame& frame) {
  io.U32(geometry.count);
  io.U32(geometry.bits_per);
  io.U32(geometry.m);
  io.U32(geometry.has_distances);
  io.Array(frame.candidates.global_indices,
           geometry.has_distances ? geometry.count : 0);
  io.F64(frame.seconds);
  Fields(io, frame.traffic);
  Fields(io, frame.ops);
}

template <class T>
Result<T> Decode(const Message& msg, ShardOp op, const char* name) {
  return DecodeFrame<T>(msg, ShardOpCode(op),
                        std::string("shard frame ") + name);
}

Status BadFrame(const char* what) {
  return Status::ProtocolError(std::string("shard frame: ") + what);
}

}  // namespace

Message EncodeShardPing() {
  Message msg;
  msg.type = ShardOpCode(ShardOp::kShardPing);
  return msg;
}

Message EncodeShardGeometry(const ShardGeometry& geometry) {
  return EncodeFrame(ShardOpCode(ShardOp::kShardPing), geometry);
}

Result<ShardGeometry> DecodeShardGeometry(const Message& msg) {
  // Coordinator and workers deploy as a unit (same build), so the geometry
  // frame carries no compatibility tail.
  return Decode<ShardGeometry>(msg, ShardOp::kShardPing, "kShardPing");
}

Message EncodeShardQuery(const ShardQueryFrame& frame) {
  Message msg = EncodeFrame(ShardOpCode(ShardOp::kShardQuery), frame);
  msg.query_id = frame.query_id;
  msg.ints.reserve(frame.enc_query.size());
  for (const auto& c : frame.enc_query) msg.ints.push_back(c.value());
  return msg;
}

Result<ShardQueryFrame> DecodeShardQuery(const Message& msg) {
  SKNN_ASSIGN_OR_RETURN(
      ShardQueryFrame frame,
      Decode<ShardQueryFrame>(msg, ShardOp::kShardQuery, "kShardQuery"));
  if (frame.k == 0) return BadFrame("k must be at least 1");
  if (msg.ints.empty()) return BadFrame("empty query vector");
  frame.query_id = msg.query_id;
  frame.enc_query.reserve(msg.ints.size());
  for (const auto& v : msg.ints) frame.enc_query.emplace_back(v);
  return frame;
}

Message EncodeShardCandidates(const ShardCandidatesFrame& frame) {
  const ShardCandidates& c = frame.candidates;
  const std::size_t count = c.count();
  const std::size_t bits_per = c.bits.empty() ? 0 : c.bits[0].size();
  const std::size_t m = c.records.empty() ? 0 : c.records[0].size();
  CandidateGeometry geometry{static_cast<uint32_t>(count),
                             static_cast<uint32_t>(bits_per),
                             static_cast<uint32_t>(m), !c.distances.empty()};
  Message msg;
  msg.type = ShardOpCode(ShardOp::kShardCandidates);
  WireWriter writer(&msg.aux);
  // The writer only reads through the frame (see WireWriter).
  CandidateFields(writer, geometry, const_cast<ShardCandidatesFrame&>(frame));
  msg.ints.reserve(count * (bits_per + m) + c.distances.size());
  for (const auto& bits : c.bits) {
    for (const auto& b : bits) msg.ints.push_back(b.value());
  }
  for (const auto& record : c.records) {
    for (const auto& attr : record) msg.ints.push_back(attr.value());
  }
  for (const auto& d : c.distances) msg.ints.push_back(d.value());
  return msg;
}

Result<ShardCandidatesFrame> DecodeShardCandidates(const Message& msg) {
  if (msg.type == ShardOpCode(ShardOp::kShardError)) {
    return DecodeShardError(msg);
  }
  if (msg.type != ShardOpCode(ShardOp::kShardCandidates)) {
    return BadFrame("not a kShardCandidates frame");
  }
  CandidateGeometry geometry;
  ShardCandidatesFrame frame;
  WireReader reader(msg.aux);
  CandidateFields(reader, geometry, frame);
  SKNN_RETURN_NOT_OK(reader.Finish("shard frame kShardCandidates"));
  const std::size_t count = geometry.count;
  const std::size_t bits_per = geometry.bits_per;
  const std::size_t m = geometry.m;
  if (count == 0 || count > kMaxWireDim || bits_per > kMaxWireDim || m == 0 ||
      m > kMaxWireDim) {
    return BadFrame("candidates geometry implausible");
  }
  const std::size_t want_ints =
      count * (bits_per + m) + (geometry.has_distances ? count : 0);
  if (msg.ints.size() != want_ints) {
    return BadFrame("candidates payload geometry mismatch");
  }
  if (geometry.has_distances == (bits_per > 0)) {
    return BadFrame("candidates must carry bits XOR distances");
  }
  ShardCandidates& c = frame.candidates;
  std::size_t at = 0;
  if (bits_per > 0) {
    c.bits.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      EncryptedBits bits;
      bits.reserve(bits_per);
      for (std::size_t g = 0; g < bits_per; ++g) {
        bits.emplace_back(msg.ints[at++]);
      }
      c.bits.push_back(std::move(bits));
    }
  }
  c.records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<Ciphertext> record;
    record.reserve(m);
    for (std::size_t j = 0; j < m; ++j) record.emplace_back(msg.ints[at++]);
    c.records.push_back(std::move(record));
  }
  if (geometry.has_distances) {
    c.distances.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      c.distances.emplace_back(msg.ints[at++]);
    }
  }
  return frame;
}

Message EncodeShardError(const Status& status) {
  return EncodeStatusFrame(ShardOpCode(ShardOp::kShardError), status);
}

Status DecodeShardError(const Message& msg) {
  return DecodeStatusFrame(msg, ShardOpCode(ShardOp::kShardError),
                           StatusCode::kDeadlineExceeded,
                           "shard frame kShardError");
}

}  // namespace sknn
