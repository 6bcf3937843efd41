// Measures the cold candidate-matching path (DESIGN.md Section 10, §14) at
// million-core scale: the legacy per-core scan — merged-bindings map rebuild
// plus string-keyed lookups per core — against the columnar CoreFilterPlan
// engine, with the word kernels forced scalar and forced to the widest
// SIMD ISA the host supports, on a 1M-core synthetic library.
//
// Scenarios:
//
//  * "declarative": the Fig. 8 coprocessor spec minus the latency bound,
//    so every filtering step is expressible as equality / metric-bound /
//    compiled-predicate kernels. Phases: legacy, columnar_scalar,
//    columnar_simd. The headline gates: SIMD >= 5x over legacy and >= 2x
//    over the scalar columnar sweep, byte-identical candidate sets.
//  * "custom_filter": the full spec including LatencySingleOperation,
//    whose CoreFilter reads the 10 slice/software bindings. The legacy
//    scan calls it once per row; the columnar engines once per distinct
//    key of those bindings among the alive rows (80 slice configs in the
//    synthetic catalog). The gate is SIMD >= 5x over legacy; the report
//    also gives the custom/declarative SIMD ratio.
//
// All engines run with the session query cache OFF so every repeat pays
// the cold scan. Work counters (constraint evaluations, compliance
// checks, overlay writes, filter calls) are reported PER SCAN —
// totals divided by the phase's repeat count — so the committed
// baselines in bench/baselines/counters.json stay independent of the
// per-engine repeat choices. The JSON also carries the columnar table's
// bytes_per_core so the memory footprint regresses as loudly as time
// (scripts/check_bench_counters.py gates it with a {"max": ...} bound).

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "domains/crypto.hpp"
#include "support/simd.hpp"
#include "support/strings.hpp"
#include "support/telemetry.hpp"
#include "synthetic_library.hpp"

using namespace dslayer;
using namespace dslayer::domains;

namespace simd = dslayer::support::simd;

namespace {

constexpr std::size_t kDefaultTargetCores = 1'000'000;
// The legacy scan costs seconds per pass at 1M cores; the columnar sweeps
// cost milliseconds. Separate repeat counts keep the bench's wall time
// sane while still averaging the fast engines over enough passes.
constexpr int kLegacyRepeats = 3;
constexpr int kColumnarRepeats = 12;

enum class Engine { kLegacy, kColumnarScalar, kColumnarSimd };

struct PhaseResult {
  int repeats = 0;
  double wall_ms = 0.0;      ///< total across repeats
  double per_scan_ms = 0.0;  ///< wall_ms / repeats
  // Deterministic work counters, per scan.
  std::uint64_t constraint_evaluations = 0;
  std::uint64_t compliance_checks = 0;
  std::uint64_t overlay_writes = 0;
  std::uint64_t filter_calls = 0;
};

struct ScenarioResult {
  std::size_t candidates = 0;
  bool identical = false;        ///< every engine's survivors == legacy's
  bool counters_match = false;   ///< per-scan declarative counters agree
  PhaseResult legacy;
  PhaseResult scalar;
  PhaseResult simd;
  double speedup_simd_vs_legacy = 0.0;
  double speedup_simd_vs_scalar = 0.0;
};

/// Scripts one scenario's decisions/requirements onto a fresh session.
using Script = void (*)(dsl::ExplorationSession&);

void script_declarative(dsl::ExplorationSession& s) {
  s.set_requirement(kEOL, 768.0);
  s.set_requirement(kOperandCoding, "2's complement");
  s.set_requirement(kResultCoding, "Redundant");
  s.set_requirement(kModuloIsOdd, "Guaranteed");
  s.decide(kImplStyle, "Hardware");
}

void script_custom_filter(dsl::ExplorationSession& s) {
  apply_coprocessor_spec(s);  // includes LatencySingleOperation -> opaque filter
  s.decide(kImplStyle, "Hardware");
}

PhaseResult run_phase(const dsl::DesignSpaceLayer& layer, Script script, Engine engine,
                      std::vector<const dsl::Core*>& out) {
  const bool columnar = engine != Engine::kLegacy;
  simd::set_kernel(engine == Engine::kColumnarScalar ? simd::Kernel::kScalar
                                                     : simd::widest_supported());
  dsl::ExplorationSession s(layer, kPathOMM);
  script(s);
  s.set_query_cache(false);
  s.set_columnar(columnar);
  out = s.candidates();  // warm-up: layer-side caches + filter plan (writers prime these)
  s.reset_query_stats();
  const int repeats = columnar ? kColumnarRepeats : kLegacyRepeats;
  const auto start = std::chrono::steady_clock::now();
  std::size_t checksum = 0;
  for (int i = 0; i < repeats; ++i) checksum += s.candidates().size();
  const auto stop = std::chrono::steady_clock::now();
  simd::reset_kernel_choice();
  if (checksum != out.size() * static_cast<std::size_t>(repeats)) {
    std::cerr << "unstable candidate count across repeats\n";
    std::exit(2);
  }
  PhaseResult r;
  r.repeats = repeats;
  r.wall_ms = std::chrono::duration<double, std::milli>(stop - start).count();
  r.per_scan_ms = r.wall_ms / repeats;
  const dsl::QueryStats stats = s.query_stats();
  const auto per_scan = [&](std::uint64_t total, const char* what) {
    if (total % static_cast<std::uint64_t>(repeats) != 0) {
      std::cerr << what << " not divisible by repeat count — nondeterministic scan\n";
      std::exit(2);
    }
    return total / static_cast<std::uint64_t>(repeats);
  };
  r.constraint_evaluations = per_scan(stats.constraint_evaluations, "constraint_evaluations");
  r.compliance_checks = per_scan(stats.compliance_checks, "compliance_checks");
  r.overlay_writes =
      per_scan(s.telemetry().count_of(telemetry::EventKind::kOverlayWrite), "overlay_writes");
  r.filter_calls =
      per_scan(s.telemetry().count_of(telemetry::EventKind::kFilterCall), "filter_calls");
  return r;
}

bool counters_agree(const PhaseResult& a, const PhaseResult& b) {
  return a.constraint_evaluations == b.constraint_evaluations &&
         a.compliance_checks == b.compliance_checks;
}

ScenarioResult run_scenario(const dsl::DesignSpaceLayer& layer, Script script) {
  ScenarioResult r;
  std::vector<const dsl::Core*> legacy_set, scalar_set, simd_set;
  r.legacy = run_phase(layer, script, Engine::kLegacy, legacy_set);
  r.scalar = run_phase(layer, script, Engine::kColumnarScalar, scalar_set);
  r.simd = run_phase(layer, script, Engine::kColumnarSimd, simd_set);
  r.candidates = simd_set.size();
  r.identical = legacy_set == scalar_set && legacy_set == simd_set;
  r.counters_match = counters_agree(r.legacy, r.scalar) && counters_agree(r.legacy, r.simd) &&
                     r.scalar.filter_calls == r.simd.filter_calls;
  r.speedup_simd_vs_legacy =
      r.simd.per_scan_ms > 0.0 ? r.legacy.per_scan_ms / r.simd.per_scan_ms : 0.0;
  r.speedup_simd_vs_scalar =
      r.simd.per_scan_ms > 0.0 ? r.scalar.per_scan_ms / r.simd.per_scan_ms : 0.0;
  return r;
}

void print_phase(const char* name, const PhaseResult& p) {
  std::cout << "  " << name << ": " << format_double(p.per_scan_ms, 4) << " ms/scan (x"
            << p.repeats << ")  (" << p.constraint_evaluations << " constraint evals, "
            << p.compliance_checks << " compliance checks, " << p.overlay_writes
            << " overlay writes, " << p.filter_calls << " filter calls)\n";
}

void print_scenario(const char* name, const ScenarioResult& r) {
  std::cout << name << ":\n";
  print_phase("legacy         ", r.legacy);
  print_phase("columnar scalar", r.scalar);
  print_phase("columnar simd  ", r.simd);
  std::cout << "  candidates: " << r.candidates << "; identical: " << (r.identical ? "yes" : "NO")
            << "; counters match: " << (r.counters_match ? "yes" : "NO") << "\n"
            << "  simd vs legacy: " << format_double(r.speedup_simd_vs_legacy, 3)
            << "x; simd vs scalar: " << format_double(r.speedup_simd_vs_scalar, 3) << "x\n\n";
}

void json_phase(std::ostream& out, const char* name, const PhaseResult& p) {
  out << "    \"" << name << "\": {\n"
      << "      \"repeats\": " << p.repeats << ",\n"
      << "      \"wall_ms\": " << p.wall_ms << ",\n"
      << "      \"per_scan_ms\": " << p.per_scan_ms << ",\n"
      << "      \"constraint_evaluations\": " << p.constraint_evaluations << ",\n"
      << "      \"compliance_checks\": " << p.compliance_checks << ",\n"
      << "      \"overlay_writes\": " << p.overlay_writes << ",\n"
      << "      \"filter_calls\": " << p.filter_calls << "\n"
      << "    }";
}

void json_scenario(std::ostream& out, const char* name, const ScenarioResult& r) {
  out << "  \"" << name << "\": {\n"
      << "    \"candidates\": " << r.candidates << ",\n"
      << "    \"identical\": " << (r.identical ? "true" : "false") << ",\n"
      << "    \"counters_match\": " << (r.counters_match ? "true" : "false") << ",\n";
  json_phase(out, "legacy", r.legacy);
  out << ",\n";
  json_phase(out, "columnar_scalar", r.scalar);
  out << ",\n";
  json_phase(out, "columnar_simd", r.simd);
  out << ",\n    \"speedup_simd_vs_legacy\": " << r.speedup_simd_vs_legacy
      << ",\n    \"speedup_simd_vs_scalar\": " << r.speedup_simd_vs_scalar << "\n  }";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::size_t target_cores = kDefaultTargetCores;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--cores" && i + 1 < argc) {
      target_cores = static_cast<std::size_t>(std::stoull(argv[++i]));
    } else {
      std::cerr << "usage: " << argv[0] << " [--json <path>] [--cores <n>]\n";
      return 2;
    }
  }
  auto layer = build_crypto_layer();
  const auto build_start = std::chrono::steady_clock::now();
  const std::size_t synthetic =
      bench::populate_synthetic_library(layer->add_library("syn-hardcores"), target_cores);
  const std::size_t indexed = layer->index_cores();
  const double build_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - build_start)
                              .count();
  std::cout << "=== Candidate filter benchmark ===\n";
  std::cout << "synthetic cores: " << synthetic << " (indexed total: " << indexed
            << ", built in " << format_double(build_ms, 1) << " ms)\n";
  std::cout << "kernel (widest supported): " << simd::to_string(simd::widest_supported())
            << "; cold candidates() per phase, session query cache off\n\n";

  const ScenarioResult declarative = run_scenario(*layer, script_declarative);
  print_scenario("declarative (Fig. 8 spec minus latency bound)", declarative);
  const ScenarioResult custom = run_scenario(*layer, script_custom_filter);
  print_scenario("custom_filter (full spec, latency core filter)", custom);
  // What the latency filter costs on top of the declarative sweep.
  const double custom_vs_declarative =
      declarative.simd.per_scan_ms > 0.0 ? custom.simd.per_scan_ms / declarative.simd.per_scan_ms
                                         : 0.0;
  std::cout << "custom_filter / declarative simd per scan: "
            << format_double(custom_vs_declarative, 3) << "x\n";

  // Memory footprint of the layer's columnar table, whose row range for
  // the kPathOMM subtree (the session's scope) the phases swept.
  dsl::ExplorationSession probe(*layer, kPathOMM);
  const dsl::CoreFilterPlan& plan = layer->filter_plan(probe.current());
  const std::size_t table_bytes = plan.table.memory_bytes();
  const double bytes_per_core =
      plan.table.rows() > 0 ? static_cast<double>(table_bytes) / plan.table.rows() : 0.0;
  std::cout << "columnar table: " << plan.table.rows() << " rows, " << table_bytes << " bytes ("
            << format_double(bytes_per_core, 1) << " bytes/core); swept range " << plan.rows()
            << " rows\n";

  const bool ok = declarative.identical && declarative.counters_match && custom.identical &&
                  custom.counters_match && declarative.speedup_simd_vs_legacy >= 5.0 &&
                  declarative.speedup_simd_vs_scalar >= 2.0 && custom.speedup_simd_vs_legacy >= 5.0;
  std::cout << "gates: simd declarative >= 5x legacy: "
            << (declarative.speedup_simd_vs_legacy >= 5.0 ? "PASS" : "FAIL")
            << "; simd >= 2x scalar: "
            << (declarative.speedup_simd_vs_scalar >= 2.0 ? "PASS" : "FAIL")
            << "; simd custom_filter >= 5x legacy: "
            << (custom.speedup_simd_vs_legacy >= 5.0 ? "PASS" : "FAIL") << "\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot write " << json_path << "\n";
      return 2;
    }
    out.precision(17);
    out << "{\n"
        << "  \"bench\": \"candidate_filter\",\n"
        << "  \"synthetic_cores\": " << synthetic << ",\n"
        << "  \"indexed_cores\": " << indexed << ",\n"
        << "  \"kernel\": \"" << simd::to_string(simd::widest_supported()) << "\",\n"
        << "  \"table_rows\": " << plan.rows() << ",\n"
        << "  \"table_bytes\": " << table_bytes << ",\n"
        << "  \"bytes_per_core\": " << bytes_per_core << ",\n";
    json_scenario(out, "declarative", declarative);
    out << ",\n";
    json_scenario(out, "custom_filter", custom);
    out << ",\n  \"custom_vs_declarative_simd\": " << custom_vs_declarative
        << ",\n  \"speedup\": " << declarative.speedup_simd_vs_legacy << "\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return ok ? 0 : 1;
}
