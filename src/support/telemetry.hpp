// Structured exploration telemetry: typed events, counters, timers.
//
// The paper's interactive loop (Section 5) is a dialogue of decisions,
// eliminations, and re-assessments. This module turns that dialogue into a
// first-class, queryable record instead of a flat string log:
//
//   * Event — a typed record (kind, monotonic sequence number, subject,
//     detail, optional duration) of one step of an exploration or one
//     query-layer action, with a one-line JSONL wire form (to_jsonl /
//     parse_event_jsonl);
//   * RingBufferSink — the last N events in memory (the shell's `trace`
//     view);
//   * Telemetry — the per-object hub: assigns sequence numbers, records
//     events in its ring, keeps aggregate per-kind counters for
//     high-frequency kinds that are counted but not materialized
//     (ConstraintEvaluated, ComplianceCheck on the hot candidate scan),
//     and owns per-query-kind latency histograms;
//   * ScopedTimer — RAII wall-clock probe feeding a named histogram and
//     emitting a QueryTimed event on scope exit.
//
// Layering: this is a support module — it knows nothing about CDOs,
// sessions, or values. The dsl layer encodes its payloads into the
// subject/detail strings, and an exploration session keeps its replay
// journal as the to_jsonl() lines of the state-mutating events it emits
// (see ExplorationSession::export_journal()).
//
// Threading model (audited for the concurrent exploration service,
// DESIGN.md §9): count()/count_of() are thread-safe (relaxed atomics) —
// they are the only telemetry operations the layer-side query hot paths
// perform under the service's SHARED reader lock. Everything else
// (emit(), record_timing(), the ring, histograms, the sequence counter)
// requires external synchronization: session hubs are guarded by the
// service's per-session lock, and the shared layer's hub only emits or
// times on exclusive-epoch paths (index_cores, first-touch index builds —
// both pre-warmed by service::SharedLayer::prime()).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/relaxed_counter.hpp"

namespace dslayer::telemetry {

/// Everything the exploration and query layers report. Order is part of
/// the JSONL schema only through to_string(); new kinds append.
enum class EventKind : std::uint8_t {
  kSessionOpened,        ///< subject = CDO class path
  kRequirementSet,       ///< subject = property, detail = encoded value
  kDecision,             ///< subject = issue, detail = encoded value
  kRetract,              ///< subject = property
  kReaffirm,             ///< subject = property
  kOptionEliminated,     ///< subject = issue, detail = option + constraint id
  kReassessmentFlagged,  ///< subject = property, detail = constraint id
  kConstraintEvaluated,  ///< counted only (hot path) — predicate violated() calls
  kComplianceCheck,      ///< counted only (hot path) — cores run through the filter
  kCacheHit,             ///< subject = which memoized query answered
  kCacheMiss,            ///< subject = which memoized query recomputed
  kIndexRebuild,         ///< subject = which index was (re)built
  kQueryTimed,           ///< subject = query kind, duration_us = wall time
  kOverlayWrite,         ///< counted only (hot path) — per-core binding-overlay map writes
  kFilterCall,           ///< counted only (hot path) — custom core filter invocations
};

inline constexpr std::size_t kEventKindCount = 15;

/// Stable wire name ("Decision", "CacheHit", ...).
const char* to_string(EventKind kind);

/// Inverse of to_string; nullopt for unknown names.
std::optional<EventKind> parse_event_kind(std::string_view name);

/// One telemetry record. `seq` is monotonic per Telemetry hub, so a
/// journal that keeps only some kinds still records their order.
struct Event {
  std::uint64_t seq = 0;
  EventKind kind = EventKind::kSessionOpened;
  std::string subject;
  std::string detail;
  double duration_us = 0.0;

  friend bool operator==(const Event&, const Event&) = default;
};

/// Escapes `s` for embedding in a JSON string literal (quotes, backslash,
/// control characters; non-ASCII bytes pass through untouched).
std::string json_escape(std::string_view s);

/// Renders one event as a single JSON line (no trailing newline):
/// {"seq":3,"kind":"Decision","subject":"Algorithm","detail":"txt:Montgomery","us":0}
std::string to_jsonl(const Event& event);

/// Parses a line produced by to_jsonl (tolerant of key order and extra
/// whitespace). nullopt on malformed input or unknown kind.
std::optional<Event> parse_event_jsonl(std::string_view line);

/// Bounded in-memory event history: keeps the most recent `capacity`
/// events, counting (not failing on) overflow. Every Telemetry hub owns
/// one (the shell's `trace` view).
class RingBufferSink {
 public:
  explicit RingBufferSink(std::size_t capacity = 4096);

  void on_event(const Event& event);

  /// Oldest-first copy of the retained events.
  std::vector<Event> snapshot() const;

  std::size_t capacity() const { return capacity_; }
  std::uint64_t total_seen() const { return total_; }
  /// Events evicted by overflow (total_seen - retained).
  std::uint64_t dropped() const;
  void clear();

 private:
  std::size_t capacity_;
  std::vector<Event> buffer_;  // ring once full; next_ is the write head
  std::size_t next_ = 0;
  std::uint64_t total_ = 0;
};

/// The latency histograms' bucket-edge convention, pinned by
/// tests/telemetry_test.cpp and shared with the Prometheus exposition
/// (service::render_metrics): bucket i holds samples in the half-open
/// nanosecond range [2^i, 2^(i+1)), so exact powers of two open their own
/// bucket (1 ns -> bucket 0, 2 ns -> bucket 1, 2^k -> bucket k,
/// 2^k + 1 -> bucket k). Bucket 0 additionally absorbs 0 ns, and the last
/// bucket absorbs everything >= 2^63 ns.
inline constexpr std::size_t kHistogramBuckets = 64;

/// Bucket index for an integer nanosecond sample (floor(log2 ns)).
std::size_t latency_bucket_ns(std::uint64_t ns);

/// Exclusive upper bound of bucket i: 2^(i+1) ns (saturating at the last
/// bucket, whose true upper bound is +inf).
std::uint64_t bucket_upper_bound_ns(std::size_t bucket);

/// Copy of one named histogram's raw state, for exposition layers that
/// need the buckets themselves rather than the TimingSummary quantiles.
struct HistogramSnapshot {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  double max_us = 0.0;
  double total_us = 0.0;
};

/// count / p50 / p95 / max / total of one named latency population.
/// Quantiles are read from power-of-two nanosecond buckets, so they are
/// upper-bound estimates accurate to 2x (see DESIGN.md §8); count, max,
/// and total are exact.
struct TimingSummary {
  std::uint64_t count = 0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
  double total_us = 0.0;
};

/// The hub: sequence numbers, ring, counters, histograms. One per
/// instrumented object (DesignSpaceLayer, ExplorationSession).
class Telemetry {
 public:
  explicit Telemetry(std::size_t ring_capacity = 4096);

  /// Materializes an event: assigns the next sequence number, bumps the
  /// per-kind counter, and records it in the ring buffer. Returns the
  /// assigned sequence number.
  std::uint64_t emit(EventKind kind, std::string subject = {}, std::string detail = {},
                     double duration_us = 0.0);

  /// Counter-only fast path for high-frequency kinds: no Event is
  /// allocated and the ring is not touched. Thread-safe (relaxed atomic) —
  /// shared-layer hot paths bump these concurrently under a reader lock.
  void count(EventKind kind, std::uint64_t n = 1) {
    counts_[static_cast<std::size_t>(kind)].add(n);
  }

  /// Total occurrences of `kind`, through either emit() or count().
  /// Thread-safe snapshot read.
  std::uint64_t count_of(EventKind kind) const {
    return counts_[static_cast<std::size_t>(kind)].get();
  }

  /// Records one latency sample into the named histogram and emits a
  /// QueryTimed event.
  void record_timing(const std::string& query_kind, double duration_us);

  /// Snapshot of every named histogram.
  std::map<std::string, TimingSummary> timings() const;

  /// Raw-bucket snapshot of every named histogram (the `!metrics`
  /// exposition path). Same external-synchronization contract as
  /// timings().
  std::map<std::string, HistogramSnapshot> histogram_snapshots() const;

  /// The built-in bounded recent-events view.
  RingBufferSink& ring() { return ring_; }
  const RingBufferSink& ring() const { return ring_; }

  /// Zeroes counters and histograms. The ring buffer keeps its contents
  /// (resetting stats must not erase the trace); the sequence counter is
  /// never reset so event ids stay unique.
  void reset_counters();

 private:
  /// Power-of-two nanosecond buckets per the latency_bucket_ns()
  /// convention above; 64 buckets cover any double duration.
  struct Histogram {
    std::array<std::uint64_t, kHistogramBuckets> buckets{};
    std::uint64_t count = 0;
    double max_us = 0.0;
    double total_us = 0.0;

    void record(double us);
    double quantile_us(double q) const;  ///< bucket upper bound at quantile q
  };

  std::uint64_t seq_ = 0;
  std::array<RelaxedCounter, kEventKindCount> counts_{};
  RingBufferSink ring_;
  std::map<std::string, Histogram> histograms_;
};

/// RAII wall-clock probe: times its own lifetime and reports it to
/// `telemetry` under `query_kind`. Null-safe (a disabled probe costs one
/// branch). Move-only.
class ScopedTimer {
 public:
  ScopedTimer(Telemetry* telemetry, std::string query_kind)
      : telemetry_(telemetry),
        query_kind_(std::move(query_kind)),
        start_(std::chrono::steady_clock::now()) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    if (telemetry_ == nullptr) return;
    const auto stop = std::chrono::steady_clock::now();
    telemetry_->record_timing(query_kind_,
                              std::chrono::duration<double, std::micro>(stop - start_).count());
  }

 private:
  Telemetry* telemetry_;
  std::string query_kind_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace dslayer::telemetry
