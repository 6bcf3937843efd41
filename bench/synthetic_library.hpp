// Shared synthetic reuse library for the benchmarks: the Table 1 catalog
// swept across widths and technologies and replicated (with small metric
// jitter so each copy is a distinct catalog entry) until `target` cores
// exist. The bindings are the complete hardware-slice set, so the
// latency/power core filters can reconstruct each core's SliceConfig
// exactly as for the real library.
//
// The generator is built for million-core targets: the expensive part —
// constructing a SliceDesign and evaluating its area/clock/latency model —
// is memoized per (catalog entry, width, process) combo on the first lap,
// and every later lap replays the cached numbers with only the per-core
// jitter varying. Generating 1M cores costs 1M map inserts, not 1M
// datapath model evaluations.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "domains/crypto.hpp"
#include "rtl/modmul_design.hpp"
#include "support/strings.hpp"
#include "tech/technology.hpp"

namespace dslayer::bench {

/// Single-operation latency at EOL = 768 bits in us, unjittered. No
/// filter or bench reads it; it stays because the end-to-end benchmark's
/// fixture catalog is generated from this library, and dropping a metric
/// would change the catalog (and the snapshot) that benchmark measures.
inline constexpr const char* kMetricLatencyEol768Us = "latency_eol768_us";

namespace detail {

/// One memoized (catalog entry, width, process) point of the sweep.
struct SyntheticCombo {
  const rtl::CatalogEntry* entry = nullptr;  ///< into the static table1_catalog()
  unsigned width = 0;
  tech::Technology technology;  ///< tech::technology() returns by value
  double area = 0.0;
  double clock_ns = 0.0;
  double latency_ns = 0.0;
  double latency_eol768_us = 0.0;
};

inline const std::vector<SyntheticCombo>& synthetic_combos() {
  using namespace dslayer::domains;
  static const std::vector<SyntheticCombo> combos = [] {
    std::vector<SyntheticCombo> out;
    for (const rtl::CatalogEntry& entry : rtl::table1_catalog()) {
      for (const unsigned width : rtl::kTable1SliceWidths) {
        for (const tech::Process process : {tech::Process::k035um, tech::Process::k070um}) {
          const tech::Technology& technology =
              tech::technology(process, tech::LayoutStyle::kStandardCell);
          const rtl::SliceConfig config = rtl::make_config(entry, width, technology);
          const rtl::SliceDesign slice(config);
          SyntheticCombo combo;
          combo.entry = &entry;
          combo.width = width;
          combo.technology = technology;
          combo.area = slice.area();
          combo.clock_ns = slice.clock_ns();
          combo.latency_ns = slice.latency_ns(width);
          combo.latency_eol768_us =
              rtl::MultiplierDesign::for_operand_length(config, 768).latency_ns(768) / 1000.0;
          out.push_back(combo);
        }
      }
    }
    return out;
  }();
  return combos;
}

}  // namespace detail

inline std::size_t populate_synthetic_library(dsl::ReuseLibrary& lib, std::size_t target) {
  using namespace dslayer::domains;
  const std::vector<detail::SyntheticCombo>& combos = detail::synthetic_combos();
  std::size_t serial = 0;
  while (serial < target) {
    const detail::SyntheticCombo& combo = combos[serial % combos.size()];
    const rtl::CatalogEntry& entry = *combo.entry;
    const tech::Technology& technology = combo.technology;
    const double jitter = 1.0 + 0.001 * static_cast<double>(serial % 97);
    dsl::Core core(cat("syn_", serial, "_mm", entry.design_no, "_w", combo.width, "_",
                       technology.name()),
                   kPathOMM);
    core.bind(kImplStyle, dsl::Value::text("Hardware"))
        .bind(kAlgorithm, dsl::Value::text(rtl::to_string(entry.algorithm)))
        .bind(kRadix, dsl::Value::number(entry.radix))
        .bind(kLoopAdder, dsl::Value::text(rtl::to_string(entry.adder)))
        .bind(kLoopMultiplier, dsl::Value::text(rtl::to_string(entry.multiplier)))
        .bind(kSliceWidth, dsl::Value::number(combo.width))
        .bind(kLayoutStyle, dsl::Value::text(tech::to_string(technology.layout)))
        .bind(kFabTech, dsl::Value::text(tech::to_string(technology.process)))
        .bind(kResultCoding, dsl::Value::text(entry.adder == rtl::AdderKind::kCarrySave
                                                  ? "Redundant"
                                                  : "2's complement"))
        .bind(kOperandCoding, dsl::Value::text("2's complement"));
    // The slice metrics carry the per-copy jitter; latency_eol768_us is
    // never jittered (see kMetricLatencyEol768Us).
    core.set_metric(kMetricArea, combo.area * jitter)
        .set_metric(kMetricClockNs, combo.clock_ns * jitter)
        .set_metric(kMetricLatencyNs, combo.latency_ns * jitter)
        .set_metric(kMetricWidth, combo.width)
        .set_metric(kMetricLatencyEol768Us, combo.latency_eol768_us);
    lib.add(std::move(core));
    ++serial;
  }
  return serial;
}

}  // namespace dslayer::bench
