// Measures the indexed + cached query layer on a deliberately oversized
// library: the Table 1 catalog swept across widths and technologies and
// replicated to ~10k cores, then the coprocessor exploration's hot queries
// (candidates / metric_range / option_ranges) repeated as an interactive
// session would — once with the session memoization disabled (the
// pre-index recompute-everything behavior) and once with it enabled. The
// QueryStats counters show where the work went.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>

#include "domains/crypto.hpp"
#include "support/strings.hpp"
#include "support/telemetry.hpp"
#include "synthetic_library.hpp"

using namespace dslayer;
using namespace dslayer::domains;

namespace {

constexpr std::size_t kTargetCores = 10000;
constexpr int kRepeats = 40;

/// The hot-query loop an interactive session hammers after every decision:
/// candidate census, area range, and the Section 5.1.5 what-if ranges for
/// the still-open Algorithm issue. Returns a checksum so the work cannot
/// be optimized away.
std::size_t query_round(const dsl::ExplorationSession& s) {
  std::size_t checksum = s.candidates().size();
  if (const auto area = s.metric_range(kMetricArea)) checksum += area->count;
  for (const auto& [option, range] : s.option_ranges(kAlgorithm, kMetricClockNs)) {
    checksum += option.size() + range.count;
  }
  return checksum;
}

double run_timed(const dsl::ExplorationSession& s, std::size_t& checksum) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kRepeats; ++i) checksum += query_round(s);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

dsl::ExplorationSession scripted_session(const dsl::DesignSpaceLayer& layer) {
  dsl::ExplorationSession s(layer, kPathOMM);
  apply_coprocessor_spec(s);
  s.decide(kImplStyle, "Hardware");
  // Pin the legacy scan so this bench keeps measuring memoization alone;
  // the columnar engine has its own bench (candidate_filter).
  s.set_columnar(false);
  return s;
}

void json_stats(std::ostream& out, const char* indent, const dsl::QueryStats& s) {
  out << indent << "\"constraint_evaluations\": " << s.constraint_evaluations << ",\n"
      << indent << "\"compliance_checks\": " << s.compliance_checks << ",\n"
      << indent << "\"cache_hits\": " << s.cache_hits << ",\n"
      << indent << "\"cache_misses\": " << s.cache_misses << ",\n"
      << indent << "\"index_rebuilds\": " << s.index_rebuilds << "\n";
}

struct PhaseResult {
  double wall_ms = 0.0;
  dsl::QueryStats session;
  dsl::QueryStats layer;
  std::uint64_t events_seen = 0;
  std::uint64_t timed_queries = 0;
};

void json_phase(std::ostream& out, const char* indent, const PhaseResult& p) {
  out << indent << "  \"wall_ms\": " << p.wall_ms << ",\n"
      << indent << "  \"events_seen\": " << p.events_seen << ",\n"
      << indent << "  \"timed_queries\": " << p.timed_queries << ",\n"
      << indent << "  \"session\": {\n";
  json_stats(out, cat(indent, "    ").c_str(), p.session);
  out << indent << "  },\n" << indent << "  \"layer\": {\n";
  json_stats(out, cat(indent, "    ").c_str(), p.layer);
  out << indent << "  }\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0] << " [--json <path>]\n";
      return 2;
    }
  }
  auto layer = build_crypto_layer();
  const std::size_t synthetic =
      bench::populate_synthetic_library(layer->add_library("syn-hardcores"), kTargetCores);
  const std::size_t indexed = layer->index_cores();
  std::cout << "=== Query cache benchmark ===\n";
  std::cout << "synthetic cores: " << synthetic << " (indexed total: " << indexed << ")\n";
  std::cout << "scripted exploration: coprocessor spec (Fig. 8) + ImplementationStyle=Hardware\n";
  std::cout << "query round: candidates + area range + Algorithm what-if ranges, x" << kRepeats
            << "\n\n";

  std::size_t checksum_off = 0;
  PhaseResult off;
  dsl::ExplorationSession uncached = scripted_session(*layer);
  uncached.set_query_cache(false);
  uncached.reset_query_stats();
  layer->reset_query_stats();
  off.wall_ms = run_timed(uncached, checksum_off);
  off.session = uncached.query_stats();
  off.layer = layer->query_stats();
  off.events_seen = uncached.telemetry().ring().total_seen();
  off.timed_queries = uncached.telemetry().count_of(telemetry::EventKind::kQueryTimed);
  std::cout << "cache off: " << format_double(off.wall_ms, 4) << " ms\n";
  std::cout << "  session: " << off.session.summary() << "\n";
  std::cout << "  layer:   " << off.layer.summary() << "\n\n";

  std::size_t checksum_on = 0;
  PhaseResult on;
  dsl::ExplorationSession cached = scripted_session(*layer);
  cached.reset_query_stats();
  layer->reset_query_stats();
  on.wall_ms = run_timed(cached, checksum_on);
  on.session = cached.query_stats();
  on.layer = layer->query_stats();
  on.events_seen = cached.telemetry().ring().total_seen();
  on.timed_queries = cached.telemetry().count_of(telemetry::EventKind::kQueryTimed);
  std::cout << "cache on:  " << format_double(on.wall_ms, 4) << " ms\n";
  std::cout << "  session: " << on.session.summary() << "\n";
  std::cout << "  layer:   " << on.layer.summary() << "\n\n";

  if (checksum_on != checksum_off) {
    std::cout << "MISMATCH: cached and uncached query results differ (" << checksum_on
              << " != " << checksum_off << ")\n";
    return 1;
  }
  const double speedup = on.wall_ms > 0.0 ? off.wall_ms / on.wall_ms : 0.0;
  std::cout << "identical results (checksum " << checksum_on << "); speedup: "
            << format_double(speedup, 3) << "x " << (speedup >= 5.0 ? "(>= 5x: PASS)" : "(< 5x)")
            << "\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 2;
    }
    const std::string& journal = cached.export_journal();
    const auto journal_events = std::count(journal.begin(), journal.end(), '\n');
    out.precision(17);
    out << "{\n"
        << "  \"bench\": \"query_cache\",\n"
        << "  \"synthetic_cores\": " << synthetic << ",\n"
        << "  \"indexed_cores\": " << indexed << ",\n"
        << "  \"repeats\": " << kRepeats << ",\n"
        << "  \"checksum\": " << checksum_on << ",\n"
        << "  \"journal_events\": " << journal_events << ",\n"
        << "  \"cache_off\": {\n";
    json_phase(out, "  ", off);
    out << "  },\n  \"cache_on\": {\n";
    json_phase(out, "  ", on);
    out << "  },\n  \"speedup\": " << speedup << "\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return speedup >= 5.0 ? 0 : 1;
}
