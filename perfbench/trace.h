// In-memory span recorder for the benchmark's traced run.
//
// Every span is recorded from the benchmark's own code around a call into
// one layer of the system — nothing inside src/ is instrumented:
//   serve  — a thin client's RemoteQueryClient::Query call
//   net    — one C1<->C2 exchange, seen by TracingEndpoint (the engine's
//            c2_link) as a request frame out and the matching response
//            frame back, paired by correlation id
//   proto  — one C2Service::Handle call, timed by the C2 RpcServer handler
//   core   — set-up phases and direct QueryClient calls
//   crypto — direct Paillier / randomizer calls
// Spans stay in memory and are written out once, when the run ends.
#ifndef SKNN_PERFBENCH_TRACE_H_
#define SKNN_PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "net/endpoint.h"

namespace perfbench {

/// \brief Seconds since the first call in this process (steady clock).
double Now();

enum class Layer { kServe, kNet, kCore, kProto, kCrypto };
const char* LayerName(Layer layer);
constexpr int kNumLayers = 5;

struct Span {
  std::string name;
  Layer layer = Layer::kServe;
  double start = 0;
  double end = 0;
  /// Index of the causing span, -1 for a root.
  int64_t parent = -1;
  /// The engine query id carried by the C2 frames (0 = untagged/unknown).
  uint64_t query_id = 0;
  /// C1<->C2 opcode (net and proto spans).
  uint16_t op = 0;
  /// Correlation id of the exchange (net and proto spans).
  uint64_t correlation_id = 0;
  /// Bytes on the wire, both directions (net spans).
  uint64_t bytes = 0;
};

class Tracer {
 public:
  /// \brief Spans are recorded only while enabled.
  void set_enabled(bool enabled) { enabled_.store(enabled); }
  bool enabled() const { return enabled_.load(); }

  /// \brief Opens a span ending "now" unless End() is called; returns its
  /// index, or -1 while disabled.
  int64_t Begin(std::string name, Layer layer, int64_t parent = -1);
  void End(int64_t index);
  /// \brief Records a finished span; the caller checked enabled() when
  /// the span started.
  void Add(Span span);

  /// \brief The span every net exchange sent from now on is parented to —
  /// the one in-flight client call of a closed-loop serial workload; -1
  /// when calls overlap and cannot be told apart at the link.
  void set_active_parent(int64_t index) { active_parent_.store(index); }
  int64_t active_parent() const { return active_parent_.load(); }

  /// \brief All spans so far, with every proto span parented to the net
  /// exchange that carried it (matched by correlation id).
  std::vector<Span> Finish() const;

  /// \brief Writes `spans` as one JSON object per line.
  static bool WriteJsonLines(const std::vector<Span>& spans,
                             const std::string& path);

 private:
  mutable sknn::Mutex mutex_;
  std::vector<Span> spans_ GUARDED_BY(mutex_);
  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> active_parent_{-1};
};

/// \brief Self time of each span: its duration minus the part of it its
/// children cover.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// \brief Total length of the union of [start, end) intervals.
double UnionLength(std::vector<std::pair<double, double>> intervals);

/// \brief Endpoint decorator for the engine's C2 link: forwards every frame
/// unchanged and, while the tracer is enabled, records one net span per
/// request/response pair. Only the frame header is read (the layout of
/// net/message.h: type u16, correlation id u64, query id u64, all
/// little-endian).
class TracingEndpoint : public sknn::Endpoint {
 public:
  TracingEndpoint(std::unique_ptr<sknn::Endpoint> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  bool Send(std::vector<uint8_t> frame) override;
  bool Recv(std::vector<uint8_t>* frame) override;
  void Close() override { inner_->Close(); }

 private:
  struct Pending {
    double start = 0;
    uint16_t op = 0;
    uint64_t query_id = 0;
    uint64_t bytes = 0;
    int64_t parent = -1;
  };

  std::unique_ptr<sknn::Endpoint> inner_;
  Tracer* tracer_;
  sknn::Mutex mutex_;
  std::map<uint64_t, Pending> pending_ GUARDED_BY(mutex_);
};

}  // namespace perfbench

#endif  // SKNN_PERFBENCH_TRACE_H_
