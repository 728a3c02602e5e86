// Global operation counters for the complexity accounting of Section 4.4:
// the paper states costs in numbers of encryptions, decryptions and
// exponentiations. Benchmarks enable these to verify e.g. that SkNN_m is
// bounded by O(n * (l + m + k*l*log2 n)) encryptions/exponentiations.
//
// Exponentiations are split by cost class: a full-width ciphertext^scalar
// (scalar wider than 64 bits, a ~|N|-bit modexp mod N^2) costs tens of
// times more than a small one (e.g. the 2^i of bit recomposition) and over
// a hundred times more than an inversion (homomorphic negation) at
// K = 1024.
#ifndef SKNN_CRYPTO_OP_COUNTERS_H_
#define SKNN_CRYPTO_OP_COUNTERS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace sknn {

struct OpSnapshot {
  uint64_t encryptions = 0;
  uint64_t decryptions = 0;
  uint64_t exponentiations = 0;  // ciphertext^scalar, scalar > 64 bits
  uint64_t multiplications = 0;  // ciphertext*ciphertext (homomorphic add)
  uint64_t inversions = 0;       // ciphertext^-1 (homomorphic negation)
  uint64_t small_exponentiations = 0;  // ciphertext^scalar, scalar <= 64 bits

  OpSnapshot operator-(const OpSnapshot& o) const {
    return {encryptions - o.encryptions,
            decryptions - o.decryptions,
            exponentiations - o.exponentiations,
            multiplications - o.multiplications,
            inversions - o.inversions,
            small_exponentiations - o.small_exponentiations};
  }
  OpSnapshot operator+(const OpSnapshot& o) const {
    return {encryptions + o.encryptions,
            decryptions + o.decryptions,
            exponentiations + o.exponentiations,
            multiplications + o.multiplications,
            inversions + o.inversions,
            small_exponentiations + o.small_exponentiations};
  }
  bool operator==(const OpSnapshot&) const = default;
  std::string ToString() const;
};

/// \brief The op words that cross the wire (kQueryResult, kShardCandidates,
/// kFetchQueryOps), in wire order (net/message.h). inversions and
/// small_exponentiations are not on the wire yet: carrying them is one line
/// each here plus a protocol revision bump.
template <class Io>
void Fields(Io& io, OpSnapshot& ops) {
  io.U64(ops.encryptions);
  io.U64(ops.decryptions);
  io.U64(ops.exponentiations);
  io.U64(ops.multiplications);
}

/// \brief Thread-safe accumulator for attributing operations to one scope
/// (one query, one RPC) while other scopes run concurrently on other
/// threads. Installed per-thread via ScopedOpSink; many threads may share
/// one accumulator (the per-query fan-out workers all sink into the query's
/// meter).
class OpAccumulator {
 public:
  OpSnapshot snapshot() const {
    return {enc_.load(kOrder), dec_.load(kOrder), exp_.load(kOrder),
            mul_.load(kOrder), inv_.load(kOrder), small_exp_.load(kOrder)};
  }

 private:
  friend class OpCounters;
  static constexpr std::memory_order kOrder = std::memory_order_relaxed;
  std::atomic<uint64_t> enc_{0};
  std::atomic<uint64_t> dec_{0};
  std::atomic<uint64_t> exp_{0};
  std::atomic<uint64_t> mul_{0};
  std::atomic<uint64_t> inv_{0};
  std::atomic<uint64_t> small_exp_{0};
};

/// \brief Process-wide relaxed-atomic counters; negligible overhead next to
/// the modular exponentiations they count. Each count additionally lands in
/// the calling thread's sink accumulator, if one is installed — this is how
/// concurrent queries get exact per-query operation accounting without
/// engine-level snapshot deltas.
class OpCounters {
 public:
  static void CountEncryption() {
    enc_.fetch_add(1, kOrder);
    if (sink_ != nullptr) sink_->enc_.fetch_add(1, kOrder);
  }
  static void CountDecryption() {
    dec_.fetch_add(1, kOrder);
    if (sink_ != nullptr) sink_->dec_.fetch_add(1, kOrder);
  }
  static void CountExponentiation() {
    exp_.fetch_add(1, kOrder);
    if (sink_ != nullptr) sink_->exp_.fetch_add(1, kOrder);
  }
  static void CountMultiplication() {
    mul_.fetch_add(1, kOrder);
    if (sink_ != nullptr) sink_->mul_.fetch_add(1, kOrder);
  }
  static void CountInversion() {
    inv_.fetch_add(1, kOrder);
    if (sink_ != nullptr) sink_->inv_.fetch_add(1, kOrder);
  }
  static void CountSmallExponentiation() {
    small_exp_.fetch_add(1, kOrder);
    if (sink_ != nullptr) sink_->small_exp_.fetch_add(1, kOrder);
  }

  static OpSnapshot Snapshot() {
    return {enc_.load(kOrder), dec_.load(kOrder), exp_.load(kOrder),
            mul_.load(kOrder), inv_.load(kOrder), small_exp_.load(kOrder)};
  }
  static void Reset();

  /// \brief This thread's current sink (null if none) — capture it before
  /// fanning work out to a pool, re-install inside the workers.
  static OpAccumulator* ThreadSink() { return sink_; }
  /// \brief Installs `sink` on this thread, returns the previous one.
  /// Defined out of line: gcc 12's -fsanitize=null misfires on an inlined
  /// store to this thread_local at -O1 and above (the TLS slot is reported
  /// as a null pointer), and the swap is nowhere near a hot path.
  static OpAccumulator* SwapThreadSink(OpAccumulator* sink);

 private:
  static constexpr std::memory_order kOrder = std::memory_order_relaxed;
  static std::atomic<uint64_t> enc_;
  static std::atomic<uint64_t> dec_;
  static std::atomic<uint64_t> exp_;
  static std::atomic<uint64_t> mul_;
  static std::atomic<uint64_t> inv_;
  static std::atomic<uint64_t> small_exp_;
  static thread_local OpAccumulator* sink_;
};

/// \brief RAII sink installer: ops counted on this thread while the scope is
/// alive are also attributed to `sink` (pass null to detach the thread).
class ScopedOpSink {
 public:
  explicit ScopedOpSink(OpAccumulator* sink)
      : prev_(OpCounters::SwapThreadSink(sink)) {}
  ~ScopedOpSink() { OpCounters::SwapThreadSink(prev_); }

  ScopedOpSink(const ScopedOpSink&) = delete;
  ScopedOpSink& operator=(const ScopedOpSink&) = delete;

 private:
  OpAccumulator* prev_;
};

}  // namespace sknn

#endif  // SKNN_CRYPTO_OP_COUNTERS_H_
