// Unit tests for the structured telemetry substrate (support/telemetry):
// event-kind naming, JSONL round-trips, the ring buffer, aggregate
// counters, latency histograms, and the RAII timer. The session journal
// built from these JSONL lines is tested with the session
// (dsl_exploration_test) and the shell's `trace export` (dsl_shell_test).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "support/telemetry.hpp"

namespace dslayer::telemetry {
namespace {

TEST(EventKindNames, RoundTripAndReject) {
  for (std::size_t i = 0; i < kEventKindCount; ++i) {
    const auto kind = static_cast<EventKind>(i);
    const auto parsed = parse_event_kind(to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parse_event_kind("NoSuchKind").has_value());
  EXPECT_FALSE(parse_event_kind("").has_value());
}

TEST(Jsonl, RoundTripsEveryField) {
  Event event;
  event.seq = 42;
  event.kind = EventKind::kDecision;
  event.subject = "Algorithm";
  event.detail = "txt:Montgomery";
  event.duration_us = 12.625;
  const auto parsed = parse_event_jsonl(to_jsonl(event));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, event);
}

TEST(Jsonl, RoundTripsEscapesAndControlCharacters) {
  Event event;
  event.seq = 1;
  event.kind = EventKind::kRequirementSet;
  event.subject = "quote \" backslash \\ tab\t";
  event.detail = "line\nbreak \x01 bell\x07 end";
  const std::string line = to_jsonl(event);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // stays a single line
  const auto parsed = parse_event_jsonl(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, event);
}

TEST(Jsonl, RoundTripsDoublesExactly) {
  Event event;
  event.kind = EventKind::kQueryTimed;
  event.duration_us = 0.1 + 0.2;  // classic non-representable sum
  const auto parsed = parse_event_jsonl(to_jsonl(event));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->duration_us, event.duration_us);  // bit-exact, not near
}

TEST(Jsonl, ToleratesReorderedAndUnknownKeys) {
  const auto parsed = parse_event_jsonl(
      R"(  {"detail":"d","kind":"Retract","extra":"ignored","n":7,"subject":"Radix","seq":3}  )");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kind, EventKind::kRetract);
  EXPECT_EQ(parsed->subject, "Radix");
  EXPECT_EQ(parsed->detail, "d");
  EXPECT_EQ(parsed->seq, 3u);
}

TEST(Jsonl, RejectsMalformedLines) {
  for (const char* line :
       {"", "not json", "{", "{}", R"({"kind":"NoSuchKind"})", R"({"seq":1})",
        R"({"kind":"Decision")", R"({"kind":"Decision"} trailing)",
        R"({"kind":"Decision","subject":"unterminated)"}) {
    EXPECT_FALSE(parse_event_jsonl(line).has_value()) << line;
  }
}

TEST(RingBufferSink, KeepsTheMostRecentEvents) {
  RingBufferSink ring(4);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    Event event;
    event.seq = i;
    event.kind = EventKind::kCacheHit;
    ring.on_event(event);
  }
  EXPECT_EQ(ring.total_seen(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  const auto snapshot = ring.snapshot();
  ASSERT_EQ(snapshot.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(snapshot[i].seq, 7 + i);  // oldest first
  ring.clear();
  EXPECT_EQ(ring.total_seen(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST(TelemetryHub, EmitAssignsMonotonicSeqAndFansOut) {
  Telemetry hub;
  const auto s1 = hub.emit(EventKind::kSessionOpened, "Root");
  const auto s2 = hub.emit(EventKind::kDecision, "Algorithm", "txt:Montgomery");
  EXPECT_LT(s1, s2);
  const auto ring = hub.ring().snapshot();
  ASSERT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring[1].seq, s2);
  EXPECT_EQ(ring[1].detail, "txt:Montgomery");
  EXPECT_EQ(hub.count_of(EventKind::kDecision), 1u);
}

TEST(TelemetryHub, CountIsAggregateOnly) {
  Telemetry hub;
  hub.count(EventKind::kConstraintEvaluated, 7);
  hub.count(EventKind::kConstraintEvaluated);
  EXPECT_EQ(hub.count_of(EventKind::kConstraintEvaluated), 8u);
  EXPECT_TRUE(hub.ring().snapshot().empty());  // no events materialized
}

TEST(TelemetryHub, ResetCountersKeepsTheTrace) {
  Telemetry hub;
  hub.emit(EventKind::kDecision, "X");
  hub.record_timing("candidates", 10.0);
  hub.reset_counters();
  EXPECT_EQ(hub.count_of(EventKind::kDecision), 0u);
  EXPECT_TRUE(hub.timings().empty());
  EXPECT_EQ(hub.ring().snapshot().size(), 2u);  // Decision + QueryTimed survive
  // The sequence counter never rewinds: new events keep unique ids.
  const Event last = hub.ring().snapshot().back();
  EXPECT_GT(hub.emit(EventKind::kRetract, "X"), last.seq);
}

// Pins the histogram bucket convention: bucket i covers [2^i, 2^(i+1))
// nanoseconds, with 0ns folded into bucket 0. Exact powers of two start
// a NEW bucket; one past a power of two stays in that same bucket. The
// metrics exposition (service/metrics.cpp) and quantile estimation both
// assume exactly this mapping via bucket_upper_bound_ns.
TEST(HistogramBuckets, PinsTheLog2BucketConvention) {
  EXPECT_EQ(latency_bucket_ns(0), 0u);
  EXPECT_EQ(latency_bucket_ns(1), 0u);
  EXPECT_EQ(latency_bucket_ns(2), 1u);
  EXPECT_EQ(latency_bucket_ns(3), 1u);
  for (std::size_t k = 2; k < 63; ++k) {
    const std::uint64_t pow = 1ULL << k;
    EXPECT_EQ(latency_bucket_ns(pow - 1), k - 1) << "2^" << k << " - 1";
    EXPECT_EQ(latency_bucket_ns(pow), k) << "2^" << k;
    EXPECT_EQ(latency_bucket_ns(pow + 1), k) << "2^" << k << " + 1";
  }
  EXPECT_EQ(latency_bucket_ns(~0ULL), 63u);  // saturates at the last bucket
}

TEST(HistogramBuckets, UpperBoundsAreExclusiveAndMonotone) {
  // A sample always lands strictly below its bucket's upper bound and at
  // or above the previous bucket's.
  for (std::size_t bucket = 0; bucket < kHistogramBuckets - 1; ++bucket) {
    EXPECT_EQ(bucket_upper_bound_ns(bucket), 1ULL << (bucket + 1));
    EXPECT_EQ(latency_bucket_ns(bucket_upper_bound_ns(bucket) - 1), bucket);
    EXPECT_EQ(latency_bucket_ns(bucket_upper_bound_ns(bucket)), bucket + 1);
  }
  // The last bucket is open-ended; its reported bound saturates at the
  // all-ones value, keeping the sequence strictly monotone.
  EXPECT_EQ(bucket_upper_bound_ns(kHistogramBuckets - 1), ~0ULL);
  EXPECT_GT(bucket_upper_bound_ns(63), bucket_upper_bound_ns(62));
}

TEST(TelemetryHub, HistogramSnapshotsExposeRawBuckets) {
  Telemetry hub;
  hub.record_timing("verb", 0.001);  // 1ns -> bucket 0
  hub.record_timing("verb", 1.0);    // 1000ns -> bucket 9 ([512, 1024))
  const auto snapshots = hub.histogram_snapshots();
  ASSERT_TRUE(snapshots.contains("verb"));
  const HistogramSnapshot& s = snapshots.at("verb");
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[9], 1u);
  EXPECT_DOUBLE_EQ(s.total_us, 1.001);
}

TEST(TelemetryHub, TimingHistogramQuantiles) {
  Telemetry hub;
  for (int i = 0; i < 99; ++i) hub.record_timing("fast", 1.0);
  hub.record_timing("fast", 1000.0);
  const auto timings = hub.timings();
  ASSERT_TRUE(timings.contains("fast"));
  const TimingSummary& t = timings.at("fast");
  EXPECT_EQ(t.count, 100u);
  EXPECT_EQ(t.max_us, 1000.0);
  EXPECT_DOUBLE_EQ(t.total_us, 99.0 + 1000.0);
  // Bucketed quantiles are upper bounds accurate to 2x: the p50/p95 of a
  // population of 1us samples sit in the [1024, 2048) ns bucket.
  EXPECT_GE(t.p50_us, 1.0);
  EXPECT_LE(t.p50_us, 2.048);
  EXPECT_LE(t.p50_us, t.p95_us);
  EXPECT_LE(t.p95_us, t.max_us);
  // The outlier owns the tail beyond p95 only.
  EXPECT_LT(t.p95_us, 1000.0);
}

TEST(TelemetryHub, TimingZeroAndHugeSamplesAreSafe) {
  Telemetry hub;
  hub.record_timing("edge", 0.0);
  hub.record_timing("edge", 1.0e12);
  const TimingSummary t = hub.timings().at("edge");
  EXPECT_EQ(t.count, 2u);
  EXPECT_EQ(t.max_us, 1.0e12);
  EXPECT_LE(t.p50_us, t.p95_us);
}

TEST(ScopedTimer, RecordsOnDestructionAndIsNullSafe) {
  Telemetry hub;
  {
    ScopedTimer timer(&hub, "probe");
    EXPECT_TRUE(hub.timings().empty());  // nothing until scope exit
  }
  const auto timings = hub.timings();
  ASSERT_TRUE(timings.contains("probe"));
  EXPECT_EQ(timings.at("probe").count, 1u);
  EXPECT_GT(timings.at("probe").max_us, 0.0);
  EXPECT_EQ(hub.count_of(EventKind::kQueryTimed), 1u);

  { ScopedTimer disabled(nullptr, "ignored"); }  // must not crash
}

}  // namespace
}  // namespace dslayer::telemetry
