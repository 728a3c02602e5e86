// Typed protocol message, its wire codec, and the cursor every codec uses.
//
// The two clouds exchange Messages: an opcode, a correlation id (so many
// requests can be in flight during parallel record fan-out), a query id (so
// many *queries* can be in flight — C2 keys its per-query state, e.g. Bob's
// outbox, by it), a vector of big integers (ciphertexts / plaintext
// residues) and optional raw bytes. Messages are actually serialized to a
// length-prefixed wire format — the traffic counters in channel.h therefore
// measure real communication cost, and the same codec would work over a
// socket.
//
// Every byte layout — the envelope below, each front-end and shard frame
// (net/query_wire.h, net/shard_wire.h) and the C1<->C2 aux headers
// (proto/opcodes.h) — is written ONCE, as a field list:
//
//   template <class Io> void Fields(Io& io, Hello& h) {
//     io.U32(h.revision);
//     io.U32(h.features);
//   }
//
// Run over a WireWriter the list appends the fields little-endian; run over
// a WireReader it reads them back, every read bounds-checked. A failed read
// marks the reader failed and yields zeros, so a field list never branches
// on errors; the caller checks once, with WireReader::Finish.
#ifndef SKNN_NET_MESSAGE_H_
#define SKNN_NET_MESSAGE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "bigint/bigint.h"
#include "common/status.h"

namespace sknn {

struct Message {
  uint16_t type = 0;
  uint64_t correlation_id = 0;
  /// Identifies which client query this exchange belongs to (0 = untagged).
  /// Assigned by C1's request scheduler; echoed back in responses.
  uint64_t query_id = 0;
  std::vector<BigInt> ints;
  std::vector<uint8_t> aux;

  /// \brief Serialized size in bytes (what the codec will emit).
  std::size_t WireSize() const;
};

/// \brief Wire format:
///   [type:2][cid:8][qid:8][n_ints:4]([len:4][bytes])*[aux_len:4][aux]
/// all integers little-endian; BigInts as big-endian magnitudes (values are
/// protocol residues, always non-negative).
class WireCodec {
 public:
  static std::vector<uint8_t> Encode(const Message& msg);
  static Result<Message> Decode(const std::vector<uint8_t>& bytes);
};

/// \brief Longest length-prefixed name a frame may carry (table names, key
/// ids, API keys); anything longer is a hostile or corrupt frame.
constexpr std::size_t kMaxWireName = 256;
/// \brief Cap on a decoded count or dimension that sizes an allocation
/// (rows, columns, shard blocks, replicas, candidates).
constexpr std::size_t kMaxWireDim = std::size_t{1} << 20;
/// \brief No cap beyond the bytes actually present.
constexpr std::size_t kNoWireCap = std::numeric_limits<std::size_t>::max();

template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;

/// \brief Reads or writes one value with its natural wire shape: strings,
/// byte strings and BigInts length-prefixed, vectors as a counted list, and
/// any other struct through its `Fields` list (found by argument-dependent
/// lookup, so a list is declared beside its struct).
template <class Io, class T>
void WireItem(Io& io, T& value) {
  if constexpr (std::is_same_v<T, std::string>) {
    io.Str(value);
  } else if constexpr (std::is_same_v<T, std::vector<uint8_t>>) {
    io.Bytes(value);
  } else if constexpr (std::is_same_v<T, BigInt>) {
    io.Big(value);
  } else if constexpr (std::is_same_v<T, int64_t>) {
    io.I64(value);
  } else if constexpr (std::is_same_v<T, uint32_t>) {
    io.U32(value);
  } else if constexpr (kIsVector<T>) {
    io.List(value);
  } else {
    Fields(io, value);
  }
}

struct WireItemFn {
  template <class Io, class T>
  void operator()(Io& io, T& value) const {
    WireItem(io, value);
  }
};

/// \brief Encode half of the cursor: appends to a byte vector.
///
/// Field lists take their struct by non-const reference so that one list
/// serves both directions; the writer only reads through it.
class WireWriter {
 public:
  explicit WireWriter(std::vector<uint8_t>* out) : out_(out) {}

  void U16(uint16_t v) { Put(v, 2); }
  /// Integers, enums and bools up to 32 bits; a bool crosses as 0 or 1.
  template <class T>
  void U32(const T& v) {
    Put(static_cast<uint32_t>(v), 4);
  }
  void U64(uint64_t v) { Put(v, 8); }
  void I64(int64_t v) { Put(static_cast<uint64_t>(v), 8); }
  void F64(double v) { Put(std::bit_cast<uint64_t>(v), 8); }
  /// An enum as u32; the reader rejects values above `last`.
  template <class E>
  void Enum(const E& v, E /*last*/) {
    U32(v);
  }
  /// Bools packed into one u32, the first argument in bit 0.
  template <class... Bits>
  void Flags(const Bits&... bits) {
    uint32_t word = 0;
    unsigned bit = 0;
    ((word |= static_cast<uint32_t>(bits ? 1 : 0) << bit++), ...);
    U32(word);
  }
  /// [len:u32][bytes]; the cap is checked by the reader.
  void Str(const std::string& s, std::size_t /*max_len*/ = kMaxWireName) {
    U32(s.size());
    out_->insert(out_->end(), s.begin(), s.end());
  }
  void Bytes(const std::vector<uint8_t>& b,
             std::size_t /*max_len*/ = kNoWireCap) {
    U32(b.size());
    out_->insert(out_->end(), b.begin(), b.end());
  }
  void Big(const BigInt& v) { Bytes(v.ToBytes()); }
  /// Raw bytes running to the end of the frame (no length prefix).
  void Rest(const std::string& s) {
    out_->insert(out_->end(), s.begin(), s.end());
  }
  /// An optional trailing group: written iff `present`. The reader takes it
  /// iff bytes remain, so a group may only be followed by further tails.
  bool Tail(bool present) { return present; }
  /// [count:u32] then each item.
  template <class T, class ItemFn = WireItemFn>
  void List(std::vector<T>& v, std::size_t /*max_count*/ = kNoWireCap,
            ItemFn item = {}) {
    U32(v.size());
    for (T& e : v) item(*this, e);
  }
  /// Items without a count prefix: the count is known from elsewhere in
  /// the frame (the reader takes exactly `count`).
  template <class T, class ItemFn = WireItemFn>
  void Array(std::vector<T>& v, std::size_t /*count*/, ItemFn item = {}) {
    for (T& e : v) item(*this, e);
  }
  /// [rows:u32][cols:u32] then the rows*cols items row-major.
  template <class T>
  void Grid(std::vector<std::vector<T>>& grid, std::size_t /*max_dim*/) {
    U32(grid.size());
    U32(grid.empty() ? 0 : grid[0].size());
    for (auto& row : grid) {
      for (T& e : row) WireItem(*this, e);
    }
  }

 private:
  void Put(uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      out_->push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<uint8_t>* out_;
};

/// \brief The fewest bytes one item can occupy: the encoding of a
/// default-constructed T (empty strings and lists). A decoded count is
/// implausible when count * this exceeds the bytes left.
template <class T, class ItemFn = WireItemFn>
std::size_t MinWireSize() {
  static const std::size_t size = [] {
    std::vector<uint8_t> bytes;
    WireWriter writer(&bytes);
    T value{};
    ItemFn{}(writer, value);
    return bytes.size();
  }();
  return size;
}

/// \brief Decode half of the cursor: every read is bounds-checked.
class WireReader {
 public:
  explicit WireReader(const std::vector<uint8_t>& bytes)
      : WireReader(bytes.data(), bytes.size()) {}
  WireReader(const uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  bool ok() const { return error_ == nullptr; }
  /// \brief OK iff every read succeeded and the bytes were consumed
  /// exactly; otherwise a ProtocolError naming `what` and the first fault.
  Status Finish(std::string_view what) const;

  void U16(uint16_t& v) { v = static_cast<uint16_t>(Get(2)); }
  template <class T>
  void U32(T& v) {
    v = static_cast<T>(Get(4));
  }
  void U64(uint64_t& v) { v = Get(8); }
  void I64(int64_t& v) { v = static_cast<int64_t>(Get(8)); }
  void F64(double& v) { v = std::bit_cast<double>(Get(8)); }
  template <class E>
  void Enum(E& v, E last) {
    const uint32_t raw = static_cast<uint32_t>(Get(4));
    if (raw > static_cast<uint32_t>(last)) return Fail("unknown enum value");
    v = static_cast<E>(raw);
  }
  template <class... Bits>
  void Flags(Bits&... bits) {
    const uint64_t word = Get(4);
    unsigned bit = 0;
    ((bits = ((word >> bit++) & 1) != 0), ...);
  }
  void Str(std::string& s, std::size_t max_len = kMaxWireName) {
    std::size_t len = 0;
    if (const uint8_t* p = Prefixed(max_len, &len)) s.assign(p, p + len);
  }
  void Bytes(std::vector<uint8_t>& b, std::size_t max_len = kNoWireCap) {
    std::size_t len = 0;
    if (const uint8_t* p = Prefixed(max_len, &len)) b.assign(p, p + len);
  }
  void Big(BigInt& v);
  void Rest(std::string& s) {
    s.assign(data_ + pos_, data_ + size_);
    pos_ = size_;
  }
  bool Tail(bool /*present*/) { return ok() && pos_ < size_; }
  template <class T, class ItemFn = WireItemFn>
  void List(std::vector<T>& v, std::size_t max_count = kNoWireCap,
            ItemFn item = {}) {
    const uint64_t count = Get(4);
    if (count > max_count) return Fail("count implausible");
    Array(v, count, item);
  }
  template <class T, class ItemFn = WireItemFn>
  void Array(std::vector<T>& v, std::size_t count, ItemFn item = {}) {
    // Bound the count by the bytes behind it BEFORE reserving, so a hostile
    // count cannot force a huge allocation.
    if (!Plausible(count, MinWireSize<T, ItemFn>())) return;
    v.clear();
    v.reserve(count);
    for (std::size_t i = 0; i < count && ok(); ++i) {
      item(*this, v.emplace_back());
    }
  }
  template <class T>
  void Grid(std::vector<std::vector<T>>& grid, std::size_t max_dim) {
    const uint64_t rows = Get(4);
    const uint64_t cols = Get(4);
    if (rows > max_dim || cols > max_dim) return Fail("geometry implausible");
    // A row of no items is still an allocation: count it as one item.
    if (!Plausible(rows * std::max<uint64_t>(cols, 1), MinWireSize<T>())) {
      return;
    }
    grid.assign(rows, {});
    for (auto& row : grid) Array(row, cols);
  }

 private:
  void Fail(const char* why) {
    if (error_ == nullptr) error_ = why;
  }
  // The next `width` bytes little-endian; 0 (and failed) past the end.
  uint64_t Get(std::size_t width);
  // [len:u32] then len bytes: a pointer to them, or nullptr (and failed)
  // when len exceeds max_len or the bytes left.
  const uint8_t* Prefixed(std::size_t max_len, std::size_t* len);
  bool Plausible(uint64_t count, std::size_t min_item_size);

  const uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  const char* error_ = nullptr;
};

/// \brief Appends `value` to `out` with its field list.
template <class T>
void WriteFields(std::vector<uint8_t>* out, const T& value) {
  WireWriter writer(out);
  WireItem(writer, const_cast<T&>(value));
}

/// \brief Reads `*value` from exactly `bytes` with its field list.
template <class T>
Status ReadFields(const std::vector<uint8_t>& bytes, T* value,
                  std::string_view what) {
  WireReader reader(bytes);
  WireItem(reader, *value);
  return reader.Finish(what);
}

/// \brief A frame of `type` whose aux is exactly `body`'s field list.
template <class T>
Message EncodeFrame(uint16_t type, const T& body) {
  Message msg;
  msg.type = type;
  WriteFields(&msg.aux, body);
  return msg;
}

template <class T>
Result<T> DecodeFrame(const Message& msg, uint16_t type,
                      std::string_view what) {
  if (msg.type != type) {
    return Status::ProtocolError(std::string(what) + ": wrong frame type");
  }
  T body{};
  SKNN_RETURN_NOT_OK(ReadFields(msg.aux, &body, what));
  return body;
}

/// \brief The typed error frames (kQueryError, kShardError): aux =
/// [status code:u32] then the message text to the end of the frame.
Message EncodeStatusFrame(uint16_t type, const Status& status);
/// \brief The carried Status (never OK), or a ProtocolError naming `what`
/// when the frame is malformed or its code is 0 or above `max_code`.
Status DecodeStatusFrame(const Message& msg, uint16_t type,
                         StatusCode max_code, std::string_view what);

template <class Io>
void Fields(Io& io, Message& msg) {
  io.U16(msg.type);
  io.U64(msg.correlation_id);
  io.U64(msg.query_id);
  io.List(msg.ints);
  io.Bytes(msg.aux);
}

}  // namespace sknn

#endif  // SKNN_NET_MESSAGE_H_
