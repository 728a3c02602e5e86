#include "net/query_wire.h"

#include <string>

namespace sknn {
namespace {

// A serialized Paillier ciphertext is at most 2*|N| bits; 64 KiB covers
// keys far beyond anything this system runs. Anything longer in the
// kQueryResult cache tail is a hostile or corrupt frame.
constexpr std::size_t kMaxCiphertextLen = std::size_t{1} << 16;
// kReloadTable's build spec (paths and options) is the one string allowed
// past kMaxWireName.
constexpr std::size_t kMaxSpecLen = 4096;

}  // namespace

// One field list per frame body and per repeated block. The order of the
// calls is the wire order documented in query_wire.h and docs/API.md; the
// same list drives Encode* and Decode*.

template <class Io>
void Fields(Io& io, QueryRequest& q) {
  io.U32(q.k);
  io.Enum(q.protocol, QueryProtocol::kFarthest);
  io.Flags(q.want_breakdown, q.want_op_counts, q.no_cache);
  // Attributes as two's-complement i64: requests are validated server-side,
  // so out-of-domain values must survive the wire to be rejected properly.
  io.List(q.record);
  io.Str(q.table);
  // Exact-mode requests carry the deadline word only when one is set;
  // clustered requests always carry it, then the mode and probe words.
  const bool clustered = q.index_mode != IndexMode::kExact;
  if (io.Tail(clustered || q.deadline_ms != 0)) {
    io.U32(q.deadline_ms);
    if (io.Tail(clustered)) {
      io.Enum(q.index_mode, IndexMode::kClustered);
      io.U32(q.probe_clusters);
    }
  }
}

template <class Io>
void Fields(Io& io, SkNNmBreakdown& b) {
  io.F64(b.ssed_seconds);
  io.F64(b.sbd_seconds);
  io.F64(b.sminn_seconds);
  io.F64(b.extract_seconds);
  io.F64(b.update_seconds);
  io.F64(b.finalize_seconds);
}

template <class Io>
void Fields(Io& io, ShardQueryStats& shard) {
  io.U32(shard.shard);
  io.U32(shard.candidates);
  io.U32(shard.replica);
  io.U32(shard.failovers);
  io.U32(shard.pruned);
  io.U32(shard.shard_records);
  io.F64(shard.seconds);
  Fields(io, shard.traffic);
  Fields(io, shard.ops);
}

template <class Io>
void Fields(Io& io, QueryResponse& r) {
  io.Grid(r.records, kMaxWireDim);
  io.F64(r.bob_seconds);
  io.F64(r.cloud_seconds);
  Fields(io, r.traffic);
  Fields(io, r.ops);
  Fields(io, r.breakdown);
  io.F64(r.merge_seconds);
  io.List(r.shards, kMaxWireDim);
  io.U32(r.cache_hit);
  io.List(r.encrypted_records, kNoWireCap, [](auto& cursor, auto& ct) {
    cursor.Bytes(ct, kMaxCiphertextLen);
  });
}

template <class Io>
void Fields(Io& io, HelloInfo& hello) {
  io.U32(hello.revision);
  io.U32(hello.features);
  io.U32(hello.num_tables);
}

template <class Io>
void Fields(Io& io, TableInfoReply& info) {
  io.Str(info.name);
  io.U64(info.num_records);
  io.U32(info.num_attributes);
  io.U32(info.attr_bits);
  io.U32(info.k_max);
  io.U32(info.distance_bits);
  io.U32(info.num_shards);
  io.U32(info.shard_scheme);
  io.U32(info.remote_workers);
  io.U32(info.num_clusters);
}

template <class Io>
void Fields(Io& io, TableStatsEntry& t) {
  io.Str(t.name);
  io.U64(t.completed);
  io.U64(t.failed);
  io.U64(t.rejected);
  io.U64(t.in_flight);
  io.U64(t.c1_pool_hits);
  io.U64(t.c1_pool_misses);
  io.U64(t.c1_pool_stock);
  io.U64(t.c1_pool_capacity);
  io.U64(t.c2_pool_hits);
  io.U64(t.c2_pool_misses);
  io.U64(t.c2_pool_stock);
  io.U64(t.c2_pool_capacity);
  io.U32(t.weight);
  io.U32(t.share_limit);
  io.U64(t.cache_hits);
  io.U64(t.cache_misses);
  io.U64(t.cache_evictions);
  io.U64(t.cache_entries);
  io.U64(t.cache_bytes);
}

template <class Io>
void Fields(Io& io, ApiKeyStatsEntry& key) {
  io.Str(key.id);
  io.U64(key.completed);
  io.U64(key.denied);
  io.U64(key.quota_rejected);
  io.U64(key.quota);
  io.U64(key.remaining);
  io.U32(key.weight);
}

template <class Io>
void Fields(Io& io, ServiceStatsReply& stats) {
  io.F64(stats.uptime_seconds);
  io.U64(stats.connections_accepted);
  io.U64(stats.in_flight);
  io.List(stats.tables);
  io.U32(stats.auth_enabled);
  io.List(stats.keys);
}

template <class Io>
void Fields(Io& io, ReplicaHealthEntry& replica) {
  io.U32(replica.shard);
  io.U32(replica.replica);
  io.U32(replica.healthy);
  io.U32(replica.consecutive_failures);
  io.U64(replica.failovers);
  io.F64(replica.last_ok_age_seconds);
}

template <class Io>
void Fields(Io& io, TableHealthEntry& table) {
  io.Str(table.name);
  io.List(table.replicas, kMaxWireDim);
}

template <class Io>
void Fields(Io& io, HealthReply& health) {
  io.List(health.tables);
}

template <class Io>
void Fields(Io& io, ReloadTableRequest& request) {
  io.Str(request.table);
  io.Str(request.spec, kMaxSpecLen);
}

template <class Io>
void Fields(Io& io, TableChangedNote& note) {
  io.Str(note.table);
  io.Enum(note.kind, TableChangeKind::kDetached);
}

namespace {

template <class T>
Message Encode(FrontendOp op, const T& body) {
  return EncodeFrame(FrontendOpCode(op), body);
}

template <class T>
Result<T> Decode(const Message& msg, FrontendOp op, const char* name) {
  return DecodeFrame<T>(msg, FrontendOpCode(op),
                        std::string("front-end frame ") + name);
}

Message Empty(FrontendOp op) {
  Message msg;
  msg.type = FrontendOpCode(op);
  return msg;
}

}  // namespace

Message EncodeQueryRequest(const QueryRequest& request) {
  return Encode(FrontendOp::kQuery, request);
}

Result<QueryRequest> DecodeQueryRequest(const Message& msg) {
  return Decode<QueryRequest>(msg, FrontendOp::kQuery, "kQuery");
}

Message EncodeQueryResponse(const QueryResponse& response) {
  return Encode(FrontendOp::kQueryResult, response);
}

Result<QueryResponse> DecodeQueryResponse(const Message& msg) {
  return Decode<QueryResponse>(msg, FrontendOp::kQueryResult, "kQueryResult");
}

Message EncodeQueryError(const Status& status) {
  return EncodeStatusFrame(FrontendOpCode(FrontendOp::kQueryError), status);
}

Status DecodeQueryError(const Message& msg) {
  return DecodeStatusFrame(msg, FrontendOpCode(FrontendOp::kQueryError),
                           StatusCode::kPermissionDenied,
                           "front-end frame kQueryError");
}

Message EncodeHello(const HelloInfo& hello) {
  return Encode(FrontendOp::kHello, hello);
}

Result<HelloInfo> DecodeHello(const Message& msg) {
  return Decode<HelloInfo>(msg, FrontendOp::kHello, "kHello");
}

Message EncodeHelloAck(const HelloInfo& ack) {
  return Encode(FrontendOp::kHelloAck, ack);
}

Result<HelloInfo> DecodeHelloAck(const Message& msg) {
  return Decode<HelloInfo>(msg, FrontendOp::kHelloAck, "kHelloAck");
}

Message EncodeListTablesRequest() { return Empty(FrontendOp::kListTables); }

Message EncodeTableList(const std::vector<std::string>& names) {
  return Encode(FrontendOp::kTableList, names);
}

Result<std::vector<std::string>> DecodeTableList(const Message& msg) {
  return Decode<std::vector<std::string>>(msg, FrontendOp::kTableList,
                                          "kTableList");
}

Message EncodeTableInfoRequest(const std::string& name) {
  return Encode(FrontendOp::kTableInfo, name);
}

Result<std::string> DecodeTableInfoRequest(const Message& msg) {
  return Decode<std::string>(msg, FrontendOp::kTableInfo, "kTableInfo");
}

Message EncodeTableInfoReply(const TableInfoReply& info) {
  return Encode(FrontendOp::kTableInfoResult, info);
}

Result<TableInfoReply> DecodeTableInfoReply(const Message& msg) {
  return Decode<TableInfoReply>(msg, FrontendOp::kTableInfoResult,
                                "kTableInfoResult");
}

Message EncodeServiceStatsRequest() { return Empty(FrontendOp::kServiceStats); }

Message EncodeServiceStatsReply(const ServiceStatsReply& stats) {
  return Encode(FrontendOp::kServiceStatsResult, stats);
}

Result<ServiceStatsReply> DecodeServiceStatsReply(const Message& msg) {
  return Decode<ServiceStatsReply>(msg, FrontendOp::kServiceStatsResult,
                                   "kServiceStatsResult");
}

Message EncodeHealthRequest() { return Empty(FrontendOp::kHealth); }

Message EncodeHealthReply(const HealthReply& health) {
  return Encode(FrontendOp::kHealthResult, health);
}

Result<HealthReply> DecodeHealthReply(const Message& msg) {
  return Decode<HealthReply>(msg, FrontendOp::kHealthResult, "kHealthResult");
}

Message EncodeReloadTableRequest(const ReloadTableRequest& request) {
  return Encode(FrontendOp::kReloadTable, request);
}

Result<ReloadTableRequest> DecodeReloadTableRequest(const Message& msg) {
  return Decode<ReloadTableRequest>(msg, FrontendOp::kReloadTable,
                                    "kReloadTable");
}

Message EncodeDetachTableRequest(const std::string& name) {
  return Encode(FrontendOp::kDetachTable, name);
}

Result<std::string> DecodeDetachTableRequest(const Message& msg) {
  return Decode<std::string>(msg, FrontendOp::kDetachTable, "kDetachTable");
}

Message EncodeAdminAck(const std::string& name) {
  return Encode(FrontendOp::kAdminAck, name);
}

Result<std::string> DecodeAdminAck(const Message& msg) {
  return Decode<std::string>(msg, FrontendOp::kAdminAck, "kAdminAck");
}

Message EncodeTableChanged(const TableChangedNote& note) {
  return Encode(FrontendOp::kTableChanged, note);
}

Result<TableChangedNote> DecodeTableChanged(const Message& msg) {
  return Decode<TableChangedNote>(msg, FrontendOp::kTableChanged,
                                  "kTableChanged");
}

Message EncodeAuthenticateRequest(const std::string& key) {
  return Encode(FrontendOp::kAuthenticate, key);
}

Result<std::string> DecodeAuthenticateRequest(const Message& msg) {
  return Decode<std::string>(msg, FrontendOp::kAuthenticate, "kAuthenticate");
}

Message EncodeAuthAck(const std::string& key_id) {
  return Encode(FrontendOp::kAuthAck, key_id);
}

Result<std::string> DecodeAuthAck(const Message& msg) {
  return Decode<std::string>(msg, FrontendOp::kAuthAck, "kAuthAck");
}

}  // namespace sknn
