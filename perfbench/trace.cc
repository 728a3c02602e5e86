#include "trace.h"

#include <algorithm>
#include <fstream>
#include <iomanip>

namespace perfbench {

double Now() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kServe:
      return "serve";
    case Layer::kNet:
      return "net";
    case Layer::kCore:
      return "core";
    case Layer::kProto:
      return "proto";
    case Layer::kCrypto:
      return "crypto";
  }
  return "?";
}

int64_t Tracer::Begin(std::string name, Layer layer, int64_t parent) {
  if (!enabled()) return -1;
  Span span;
  span.name = std::move(name);
  span.layer = layer;
  span.start = span.end = Now();
  span.parent = parent;
  sknn::MutexLock lock(&mutex_);
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t index) {
  if (index < 0) return;
  const double now = Now();
  sknn::MutexLock lock(&mutex_);
  spans_[static_cast<std::size_t>(index)].end = now;
}

void Tracer::Add(Span span) {
  sknn::MutexLock lock(&mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::Finish() const {
  std::vector<Span> spans;
  {
    sknn::MutexLock lock(&mutex_);
    spans = spans_;
  }
  std::map<uint64_t, int64_t> exchange_by_cid;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].layer == Layer::kNet && spans[i].correlation_id != 0) {
      exchange_by_cid[spans[i].correlation_id] = static_cast<int64_t>(i);
    }
  }
  for (Span& span : spans) {
    if (span.layer != Layer::kProto) continue;
    auto it = exchange_by_cid.find(span.correlation_id);
    if (it != exchange_by_cid.end()) span.parent = it->second;
  }
  return spans;
}

bool Tracer::WriteJsonLines(const std::vector<Span>& spans,
                            const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) return false;
  out << std::setprecision(9);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"layer\": \"" << LayerName(s.layer)
        << "\", \"start\": " << s.start << ", \"end\": " << s.end
        << ", \"parent\": " << s.parent << ", \"query_id\": " << s.query_id
        << ", \"op\": " << s.op << ", \"bytes\": " << s.bytes << "}\n";
  }
  return out.good();
}

double UnionLength(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0;
  double cur_start = 0, cur_end = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (open && start <= cur_end) {
      cur_end = std::max(cur_end, end);
      continue;
    }
    if (open) total += cur_end - cur_start;
    cur_start = start;
    cur_end = end;
    open = true;
  }
  if (open) total += cur_end - cur_start;
  return total;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.start,
                                                                   span.end);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    // Children timed on other threads may overrun their parent by a clock
    // read or two; only the covered part of the parent counts.
    for (auto& [start, end] : children[i]) {
      start = std::clamp(start, spans[i].start, spans[i].end);
      end = std::clamp(end, spans[i].start, spans[i].end);
    }
    self[i] = (spans[i].end - spans[i].start) - UnionLength(children[i]);
  }
  return self;
}

namespace {

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

constexpr std::size_t kHeaderBytes = 18;

}  // namespace

bool TracingEndpoint::Send(std::vector<uint8_t> frame) {
  if (tracer_->enabled() && frame.size() >= kHeaderBytes) {
    Pending pending;
    pending.start = Now();
    pending.op = static_cast<uint16_t>(frame[0] | (frame[1] << 8));
    pending.query_id = LoadU64(frame.data() + 10);
    pending.bytes = frame.size();
    pending.parent = tracer_->active_parent();
    const uint64_t cid = LoadU64(frame.data() + 2);
    sknn::MutexLock lock(&mutex_);
    pending_[cid] = pending;
  }
  return inner_->Send(std::move(frame));
}

bool TracingEndpoint::Recv(std::vector<uint8_t>* frame) {
  if (!inner_->Recv(frame)) return false;
  if (frame->size() < kHeaderBytes) return true;
  const double now = Now();
  const uint64_t cid = LoadU64(frame->data() + 2);
  Pending pending;
  {
    sknn::MutexLock lock(&mutex_);
    auto it = pending_.find(cid);
    if (it == pending_.end()) return true;  // sent while tracing was off
    pending = it->second;
    pending_.erase(it);
  }
  Span span;
  span.name = "net.c2_exchange";
  span.layer = Layer::kNet;
  span.start = pending.start;
  span.end = now;
  span.parent = pending.parent;
  span.query_id = pending.query_id;
  span.op = pending.op;
  span.correlation_id = cid;
  span.bytes = pending.bytes + frame->size();
  // Recorded even if tracing was switched off mid-exchange: the request
  // was traced, so its response belongs to the trace.
  tracer_->Add(std::move(span));
  return true;
}

}  // namespace perfbench
