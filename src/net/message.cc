#include "net/message.h"

namespace sknn {

std::size_t Message::WireSize() const {
  std::size_t size = 2 + 8 + 8 + 4 + 4 + aux.size();
  for (const auto& v : ints) {
    size += 4 + (v.IsZero() ? 0 : (v.BitLength() + 7) / 8);
  }
  return size;
}

std::vector<uint8_t> WireCodec::Encode(const Message& msg) {
  std::vector<uint8_t> out;
  out.reserve(msg.WireSize());
  WriteFields(&out, msg);
  return out;
}

Result<Message> WireCodec::Decode(const std::vector<uint8_t>& bytes) {
  Message msg;
  SKNN_RETURN_NOT_OK(ReadFields(bytes, &msg, "WireCodec"));
  return msg;
}

Status WireReader::Finish(std::string_view what) const {
  if (error_ == nullptr && pos_ == size_) return Status::OK();
  return Status::ProtocolError(std::string(what) + ": " +
                               (error_ != nullptr ? error_ : "trailing bytes"));
}

uint64_t WireReader::Get(std::size_t width) {
  if (!ok() || size_ - pos_ < width) {
    Fail("truncated");
    return 0;
  }
  uint64_t v = 0;
  for (std::size_t i = 0; i < width; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += width;
  return v;
}

const uint8_t* WireReader::Prefixed(std::size_t max_len, std::size_t* len) {
  *len = Get(4);
  if (!ok()) return nullptr;
  if (*len > max_len) {
    Fail("length over its cap");
    return nullptr;
  }
  if (size_ - pos_ < *len) {
    Fail("truncated");
    return nullptr;
  }
  const uint8_t* p = data_ + pos_;
  pos_ += *len;
  return p;
}

bool WireReader::Plausible(uint64_t count, std::size_t min_item_size) {
  if (!ok()) return false;
  // Every item occupies at least min_item_size bytes (zero-size items are
  // still bounded by kMaxWireDim at their count's source).
  if (min_item_size != 0 && count > (size_ - pos_) / min_item_size) {
    Fail("count implausible");
    return false;
  }
  return true;
}

void WireReader::Big(BigInt& v) {
  std::size_t len = 0;
  if (const uint8_t* p = Prefixed(kNoWireCap, &len)) {
    v = BigInt::FromBytes(std::vector<uint8_t>(p, p + len));
  }
}

namespace {

// kQueryError / kShardError body.
struct StatusBody {
  uint32_t code = 0;
  std::string text;
};

template <class Io>
void Fields(Io& io, StatusBody& body) {
  io.U32(body.code);
  io.Rest(body.text);
}

}  // namespace

Message EncodeStatusFrame(uint16_t type, const Status& status) {
  return EncodeFrame(type, StatusBody{static_cast<uint32_t>(status.code()),
                                      status.message()});
}

Status DecodeStatusFrame(const Message& msg, uint16_t type,
                         StatusCode max_code, std::string_view what) {
  SKNN_ASSIGN_OR_RETURN(StatusBody body,
                        DecodeFrame<StatusBody>(msg, type, what));
  if (body.code == 0 || body.code > static_cast<uint32_t>(max_code)) {
    return Status::ProtocolError(std::string(what) + ": unknown status code");
  }
  return Status(static_cast<StatusCode>(body.code), std::move(body.text));
}

}  // namespace sknn
