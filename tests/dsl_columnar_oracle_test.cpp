// Oracle equivalence of the two candidates() engines (DESIGN.md Section 10):
// every query below runs on a TWIN pair of sessions — one on the columnar
// CoreFilterPlan engine, one on the legacy per-core scan — fed byte-identical
// action sequences. The engines must agree on
//   * the candidate set, element for element (same Core pointers, same order);
//   * option_ranges() / available_options() built on top of it;
//   * the deterministic work counters (constraint evaluations, compliance
//     checks) — the columnar sweep replays the legacy early-exit totals;
//   * which actions throw, with identical ExplorationError messages.
// Coverage deliberately spans every engine path: interned-text equality
// columns, numeric columns, mixed-kind (boxed) columns, missing bindings and
// metrics, declarative compliance (at-least / at-most / equals), custom
// filters evaluated once per distinct key, compiled predicate programs, the
// opaque-lambda overlay fallback, session-only property resolution, and plan
// invalidation after index_cores() / add_constraint().

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "domains/crypto.hpp"
#include "dsl/exploration.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "support/strings.hpp"

namespace dslayer {
namespace {

using dsl::Bindings;
using dsl::Cdo;
using dsl::Compliance;
using dsl::ConsistencyConstraint;
using dsl::Core;
using dsl::DesignSpaceLayer;
using dsl::ExplorationSession;
using dsl::FilterRead;
using dsl::FilterView;
using dsl::PredicateAtom;
using dsl::Property;
using dsl::PropertyPath;
using dsl::ReuseLibrary;
using dsl::Value;
using dsl::ValueDomain;
using Cmp = PredicateAtom::Cmp;

/// Two sessions over the same layer, one per engine, fed identical actions.
struct Twin {
  ExplorationSession columnar;
  ExplorationSession legacy;

  Twin(const DesignSpaceLayer& layer, const std::string& path)
      : columnar(layer, path), legacy(layer, path) {
    columnar.set_columnar(true);
    legacy.set_columnar(false);
  }

  /// Applies one action to both sessions; both must succeed or both must
  /// throw the same ExplorationError.
  template <typename Fn>
  void apply(Fn&& fn) {
    std::string what_columnar, what_legacy;
    bool threw_columnar = false, threw_legacy = false;
    try {
      fn(columnar);
    } catch (const ExplorationError& e) {
      threw_columnar = true;
      what_columnar = e.what();
    }
    try {
      fn(legacy);
    } catch (const ExplorationError& e) {
      threw_legacy = true;
      what_legacy = e.what();
    }
    EXPECT_EQ(threw_columnar, threw_legacy) << what_columnar << what_legacy;
    EXPECT_EQ(what_columnar, what_legacy);
  }

  /// The core oracle: identical candidate vectors (pointer-for-pointer) and
  /// scope.
  void expect_candidates_agree() {
    EXPECT_EQ(columnar.current().path(), legacy.current().path());
    const auto& c = columnar.candidates();
    const auto& l = legacy.candidates();
    ASSERT_EQ(c.size(), l.size());
    EXPECT_EQ(c, l);  // element-wise Core* equality — byte-identical sets
  }

  void expect_ranges_agree(const std::string& issue, const std::string& metric) {
    const auto c = columnar.option_ranges(issue, metric);
    const auto l = legacy.option_ranges(issue, metric);
    ASSERT_EQ(c.size(), l.size()) << issue << "/" << metric;
    for (const auto& [option, range] : c) {
      ASSERT_TRUE(l.contains(option)) << option;
      EXPECT_DOUBLE_EQ(range.min, l.at(option).min) << option;
      EXPECT_DOUBLE_EQ(range.max, l.at(option).max) << option;
      EXPECT_EQ(range.count, l.at(option).count) << option;
    }
  }

  void expect_counters_agree() {
    const auto c = columnar.query_stats();
    const auto l = legacy.query_stats();
    EXPECT_EQ(c.constraint_evaluations, l.constraint_evaluations);
    EXPECT_EQ(c.compliance_checks, l.compliance_checks);
  }
};

// ---------------------------------------------------------------------------
// Randomized abstract library: every column kind and filter path at once.
// ---------------------------------------------------------------------------

/// A layer whose cores randomly mix kinds, drop bindings, and skip metrics —
/// the shapes the columnar presence bitmaps and kMixed columns exist for.
/// Filtering exercises declarative compliance (>=, <=, ==), custom core
/// filters keyed by a metric (Cert) and by bindings of every column kind
/// (Fit), compiled predicates (D1, D2), and an opaque lambda (O1).
void declare_oracle_space(DesignSpaceLayer& layer, Cdo& node) {
  node.add_property(Property::requirement("MinScore", ValueDomain::real_range(0.0, 100.0), "")
                        .with_compliance(Compliance::kCoreAtLeast, "score"));
  node.add_property(Property::requirement("MaxCost", ValueDomain::real_range(0.0, 100.0), "")
                        .with_compliance(Compliance::kCoreAtMost, "cost"));
  node.add_property(
      Property::requirement("Coding", ValueDomain::options({"sign", "carry", "redundant"}), "")
          .with_compliance(Compliance::kCoreEquals));
  node.add_property(Property::requirement("Cert", ValueDomain::options({"gold", "silver"}), ""));
  node.add_property(Property::requirement("Mode", ValueDomain::options({"strict", "lax"}), ""));
  node.add_property(Property::requirement("Fit", ValueDomain::options({"narrow", "wide"}), ""));
  node.add_property(Property::design_issue("Tech", ValueDomain::options({"t1", "t2", "t3"}), ""));
  node.add_property(Property::design_issue("Width", ValueDomain::powers_of_two(), ""));
  node.add_property(Property::design_issue("Grade", ValueDomain::any(), ""));
  node.add_property(Property::design_issue("Phantom", ValueDomain::options({"on", "off"}), ""));

  // D1/D2: compiled into the columnar predicate program.
  layer.add_constraint(ConsistencyConstraint::inconsistent_when(
      "D1", "t3 cannot drive wide datapaths", {PropertyPath::parse("Tech@Node")},
      {PropertyPath::parse("Width@Node")},
      {PredicateAtom::equals("Tech", Value::text("t3")),
       PredicateAtom::compares("Width", Cmp::kGe, 32.0)}));
  layer.add_constraint(ConsistencyConstraint::inconsistent_when(
      "D2", "strict mode rejects t1", {PropertyPath::parse("Mode@Node")},
      {PropertyPath::parse("Tech@Node")},
      {PredicateAtom::equals("Mode", Value::text("strict")),
       PredicateAtom::equals("Tech", Value::text("t1"))}));
  // O1: opaque lambda — the columnar engine must fall back to the
  // merged-bindings overlay for this one.
  layer.add_constraint(ConsistencyConstraint::inconsistent_options(
      "O1", "numeric grades above 5 need t2", {PropertyPath::parse("Tech@Node")},
      {PropertyPath::parse("Grade@Node")}, [](const Bindings& b) {
        const Value grade = dsl::get_or_empty(b, "Grade");
        return grade.kind() == Value::Kind::kNumber && grade.as_number() > 5.0 &&
               dsl::get_or_empty(b, "Tech").as_text() != "t2";
      }));
  // Custom filter keyed by a metric: gold certification demands a score
  // of 50+. The jittered scores make nearly every row its own key.
  layer.set_core_filter("Cert", {{FilterRead::metric("score")},
                                  [](const FilterView& core, const Bindings& bindings) {
                                    const double floor =
                                        dsl::get_or_empty(bindings, "Cert").as_text() == "gold"
                                            ? 50.0
                                            : 10.0;
                                    const auto score = core.metric("score");
                                    return score.has_value() && *score >= floor;
                                  }});
  // Custom filter keyed by a text, a number and a mixed-kind binding:
  // at most 4 x 5 x 15 keys. Narrow fits reject wide or high-grade cores
  // (strict mode also rejects cores without a Tech); wide fits need a
  // known Width.
  layer.set_core_filter(
      "Fit", {{FilterRead::binding("Tech"), FilterRead::binding("Width"),
               FilterRead::binding("Grade")},
              [](const FilterView& core, const Bindings& bindings) {
                const Value* width = core.binding("Width");
                if (dsl::get_or_empty(bindings, "Fit").as_text() == "wide") return width != nullptr;
                const Value* grade = core.binding("Grade");
                if (width != nullptr && width->as_number() > 16.0) return false;
                if (grade != nullptr && grade->kind() == Value::Kind::kNumber &&
                    grade->as_number() > 7.0) {
                  return false;
                }
                return core.binding("Tech") != nullptr ||
                       dsl::get_or_empty(bindings, "Mode") != Value::text("strict");
              }});
}

/// One randomized oracle core: gaps in every column, Grade of mixed kind,
/// Coding usually text. `text_width` binds Width as text instead of a
/// number (same random draws).
Core random_oracle_core(Rng& rng, std::size_t i, bool text_width = false) {
  const char* techs[] = {"t1", "t2", "t3"};
  const char* codings[] = {"sign", "carry", "redundant"};
  const double widths[] = {8, 16, 32, 64};
  Core c("c" + std::to_string(i), "Node");
  if (rng.next_bool(0.9)) c.bind("Tech", Value::text(techs[rng.next_below(3)]));
  if (rng.next_bool(0.9)) {
    const double width = widths[rng.next_below(4)];
    c.bind("Width", text_width ? Value::text("w" + std::to_string(static_cast<int>(width)))
                               : Value::number(width));
  }
  // Grade is a mixed-kind column: numbers, texts, and gaps.
  switch (rng.next_below(3)) {
    case 0: c.bind("Grade", Value::number(static_cast<double>(rng.next_below(10)))); break;
    case 1: c.bind("Grade", Value::text("g" + std::to_string(rng.next_below(4)))); break;
    default: break;  // missing
  }
  // Coding is usually text, occasionally a number (kind mismatch vs the
  // kCoreEquals requirement) and occasionally absent.
  if (rng.next_bool(0.8)) {
    c.bind("Coding", Value::text(codings[rng.next_below(3)]));
  } else if (rng.next_bool(0.4)) {
    c.bind("Coding", Value::number(1.0));
  }
  // Jitter below 0.1 keeps every integer-bound comparison's outcome.
  if (rng.next_bool(0.85)) {
    c.set_metric("score", static_cast<double>(rng.next_below(100)) + 0.001 * (i % 97));
  }
  if (rng.next_bool(0.85)) c.set_metric("cost", static_cast<double>(rng.next_below(100)));
  return c;
}

std::unique_ptr<DesignSpaceLayer> oracle_layer(unsigned seed, std::size_t core_count) {
  auto layer = std::make_unique<DesignSpaceLayer>("oracle");
  declare_oracle_space(*layer, layer->space().add_root("Node"));
  Rng rng(seed);
  ReuseLibrary& lib = layer->add_library("cores");
  for (std::size_t i = 0; i < core_count; ++i) lib.add(random_oracle_core(rng, i));
  layer->index_cores();
  return layer;
}

class ColumnarOracleFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(ColumnarOracleFuzz, RandomAbstractWalkAgrees) {
  auto layer = oracle_layer(GetParam() * 104729 + 1, 400);
  Twin twin(*layer, "Node");
  twin.columnar.reset_query_stats();
  twin.legacy.reset_query_stats();
  Rng rng(GetParam() * 31 + 7);

  const char* requirements[] = {"MinScore", "MaxCost", "Coding", "Cert", "Mode"};
  const char* issues[] = {"Tech", "Width", "Grade", "Phantom"};
  for (int step = 0; step < 40; ++step) {
    switch (rng.next_below(6)) {
      case 0: {  // numeric requirement
        const char* name = rng.next_bool() ? "MinScore" : "MaxCost";
        const double value = static_cast<double>(rng.next_below(101));
        twin.apply([&](ExplorationSession& s) { s.set_requirement(name, value); });
        break;
      }
      case 1: {  // option requirement
        const char* name = requirements[2 + rng.next_below(3)];
        const char* codings[] = {"sign", "carry", "redundant"};
        const char* certs[] = {"gold", "silver"};
        const char* modes[] = {"strict", "lax"};
        const char* value = name == std::string("Coding") ? codings[rng.next_below(3)]
                            : name == std::string("Cert") ? certs[rng.next_below(2)]
                                                          : modes[rng.next_below(2)];
        twin.apply([&](ExplorationSession& s) { s.set_requirement(name, value); });
        break;
      }
      case 2: {  // decide an issue
        const char* name = issues[rng.next_below(4)];
        Value value = Value::text("");
        if (name == std::string("Tech")) {
          const char* techs[] = {"t1", "t2", "t3"};
          value = Value::text(techs[rng.next_below(3)]);
        } else if (name == std::string("Width")) {
          const double widths[] = {8, 16, 32, 64};
          value = Value::number(widths[rng.next_below(4)]);
        } else if (name == std::string("Grade")) {
          // any() domain: mixed kinds from the session side too
          value = rng.next_bool() ? Value::number(static_cast<double>(rng.next_below(10)))
                                  : Value::text("g" + std::to_string(rng.next_below(4)));
        } else {
          value = Value::text(rng.next_bool() ? "on" : "off");  // no core binds Phantom
        }
        twin.apply([&](ExplorationSession& s) { s.decide(name, value); });
        break;
      }
      case 3: {  // retract something (requirement or issue)
        const char* name =
            rng.next_bool() ? requirements[rng.next_below(5)] : issues[rng.next_below(4)];
        twin.apply([&](ExplorationSession& s) {
          if (s.value_of(name).has_value()) s.retract(name);
        });
        break;
      }
      case 4:
        twin.expect_ranges_agree("Tech", "score");
        break;
      default: {  // only enumerated issues have option lists
        const char* issue = rng.next_bool() ? "Tech" : "Phantom";
        EXPECT_EQ(twin.columnar.available_options(issue), twin.legacy.available_options(issue));
        break;
      }
    }
    twin.expect_candidates_agree();
  }
  twin.expect_counters_agree();
  // The opaque O1 constraint forces the overlay fallback in the columnar
  // engine too; both engines must have paid overlay writes at some point.
  EXPECT_GT(twin.legacy.telemetry().count_of(telemetry::EventKind::kOverlayWrite), 0u);
}

INSTANTIATE_TEST_SUITE_P(Walks, ColumnarOracleFuzz, ::testing::Range(1u, 13u));

// ---------------------------------------------------------------------------
// Randomized crypto walk: the real domain layer, decide/retract chains.
// ---------------------------------------------------------------------------

class ColumnarCryptoOracle : public ::testing::TestWithParam<unsigned> {};

TEST_P(ColumnarCryptoOracle, RandomCryptoWalkAgrees) {
  auto layer = domains::build_crypto_layer();
  Rng rng(GetParam() * 7919 + 3);
  const char* roots[] = {domains::kPathOMM, domains::kPathOMMH, domains::kPathOMMHM};
  Twin twin(*layer, roots[rng.next_below(3)]);
  twin.columnar.reset_query_stats();
  twin.legacy.reset_query_stats();

  for (int step = 0; step < 50; ++step) {
    // Enumerate actions from the (shared) scope of the legacy twin.
    std::vector<const Property*> requirements;
    std::vector<const Property*> issues;
    for (const Property* p : twin.legacy.current().visible_properties()) {
      if (p->kind == dsl::PropertyKind::kRequirement) requirements.push_back(p);
      if (p->kind == dsl::PropertyKind::kDesignIssue) issues.push_back(p);
    }
    const auto action = rng.next_below(10);
    if (action < 3 && !requirements.empty()) {
      const Property* p = requirements[rng.next_below(requirements.size())];
      Value value = Value::number(768.0);
      if (p->domain.kind() == ValueDomain::Kind::kOptions) {
        const auto& options = p->domain.option_list();
        value = Value::text(options[rng.next_below(options.size())]);
      } else if (p->domain.kind() == ValueDomain::Kind::kRealRange) {
        const double choices[] = {0.5, 2.0, 8.0, 100.0, 5000.0};
        value = Value::number(choices[rng.next_below(5)]);
      }
      twin.apply([&](ExplorationSession& s) { s.set_requirement(p->name, value); });
    } else if (action < 8 && !issues.empty()) {
      const Property* p = issues[rng.next_below(issues.size())];
      if (p->domain.kind() == ValueDomain::Kind::kOptions) {
        const auto options = twin.legacy.available_options(p->name);
        EXPECT_EQ(twin.columnar.available_options(p->name), options);
        if (options.empty()) continue;
        const std::string option = options[rng.next_below(options.size())];
        twin.apply([&](ExplorationSession& s) { s.decide(p->name, option); });
      } else {
        const double widths[] = {2, 4, 8, 16, 32, 64, 128};
        const double value = widths[rng.next_below(7)];
        twin.apply([&](ExplorationSession& s) { s.decide(p->name, Value::number(value)); });
      }
    } else if (action == 8) {
      twin.apply([](ExplorationSession& s) {
        const auto pending = s.pending_reassessment();
        if (!pending.empty()) s.reaffirm(pending.front());
      });
    } else if (!issues.empty()) {
      const Property* p = issues[rng.next_below(issues.size())];
      twin.apply([&](ExplorationSession& s) {
        if (s.value_of(p->name).has_value()) s.retract(p->name);
      });
    }
    twin.expect_candidates_agree();
    if (step % 10 == 0) {
      bool algorithm_visible = false;
      for (const Property* p : twin.legacy.current().visible_properties()) {
        algorithm_visible |= p->name == domains::kAlgorithm;
      }
      if (algorithm_visible) {
        twin.expect_ranges_agree(domains::kAlgorithm, domains::kMetricClockNs);
      }
    }
  }
  twin.expect_counters_agree();
  // Every crypto predicate constraint is declarative: the columnar engine
  // must never have taken the overlay fallback.
  EXPECT_EQ(twin.columnar.telemetry().count_of(telemetry::EventKind::kOverlayWrite), 0u);
}

INSTANTIATE_TEST_SUITE_P(Walks, ColumnarCryptoOracle, ::testing::Range(1u, 9u));

// ---------------------------------------------------------------------------
// Deterministic edge cases: kinds, gaps, session-only properties.
// ---------------------------------------------------------------------------

TEST(ColumnarOracle, MixedKindAndMissingBindingEdgeCases) {
  auto layer = std::make_unique<DesignSpaceLayer>("edges");
  Cdo& node = layer->space().add_root("Node");
  node.add_property(Property::requirement("W", ValueDomain::any(), "")
                        .with_compliance(Compliance::kCoreEquals));
  node.add_property(Property::requirement("MinScore", ValueDomain::real_range(0.0, 100.0), "")
                        .with_compliance(Compliance::kCoreAtLeast, "score"));
  node.add_property(Property::design_issue("Phantom", ValueDomain::options({"x"}), ""));
  ReuseLibrary& lib = layer->add_library("cores");
  Core number_core("number", "Node");
  number_core.bind("W", Value::number(16.0)).set_metric("score", 80.0);
  lib.add(std::move(number_core));
  Core text_core("text", "Node");  // same column, different kind -> kMixed
  text_core.bind("W", Value::text("16")).set_metric("score", 80.0);
  lib.add(std::move(text_core));
  Core gap_core("gap", "Node");  // no W binding, no score metric
  lib.add(std::move(gap_core));
  layer->index_cores();

  {
    Twin twin(*layer, "Node");  // W == number(16): only the number core
    twin.apply([](ExplorationSession& s) { s.set_requirement("W", Value::number(16.0)); });
    twin.expect_candidates_agree();
    ASSERT_EQ(twin.columnar.candidates().size(), 1u);
    EXPECT_EQ(twin.columnar.candidates()[0]->name(), "number");
  }
  {
    Twin twin(*layer, "Node");  // W == text("16"): only the text core
    twin.apply([](ExplorationSession& s) { s.set_requirement("W", Value::text("16")); });
    twin.expect_candidates_agree();
    ASSERT_EQ(twin.columnar.candidates().size(), 1u);
    EXPECT_EQ(twin.columnar.candidates()[0]->name(), "text");
  }
  {
    Twin twin(*layer, "Node");  // a text no core interned: empty, not a throw
    twin.apply([](ExplorationSession& s) {
      s.set_requirement("W", Value::text("never-bound-anywhere"));
    });
    twin.expect_candidates_agree();
    EXPECT_TRUE(twin.columnar.candidates().empty());
  }
  {
    Twin twin(*layer, "Node");  // missing metric fails kCoreAtLeast
    twin.apply([](ExplorationSession& s) { s.set_requirement("MinScore", 50.0); });
    twin.expect_candidates_agree();
    EXPECT_EQ(twin.columnar.candidates().size(), 2u);
  }
  {
    Twin twin(*layer, "Node");  // deciding a property no core binds: empty
    twin.apply([](ExplorationSession& s) { s.decide("Phantom", "x"); });
    twin.expect_candidates_agree();
    EXPECT_TRUE(twin.columnar.candidates().empty());
  }
}

TEST(ColumnarOracle, SessionOnlyIndependentResolvesAgainstBindings) {
  // D's independent (Mode) is a session requirement with no compliance and
  // no core binding: the compiled program must resolve it from the session
  // bindings, exactly like the legacy merged-bindings map.
  auto layer = std::make_unique<DesignSpaceLayer>("session-ref");
  Cdo& node = layer->space().add_root("Node");
  node.add_property(Property::requirement("Mode", ValueDomain::options({"strict", "lax"}), ""));
  node.add_property(Property::design_issue("Tech", ValueDomain::options({"new", "old"}), ""));
  layer->add_constraint(ConsistencyConstraint::inconsistent_when(
      "D", "strict mode forbids old tech", {PropertyPath::parse("Mode@Node")},
      {PropertyPath::parse("Tech@Node")},
      {PredicateAtom::equals("Mode", Value::text("strict")),
       PredicateAtom::equals("Tech", Value::text("old"))}));
  ReuseLibrary& lib = layer->add_library("cores");
  for (const char* tech : {"new", "old"}) {
    Core c(std::string("core_") + tech, "Node");
    c.bind("Tech", Value::text(tech));
    lib.add(std::move(c));
  }
  layer->index_cores();

  Twin relaxed(*layer, "Node");
  relaxed.apply([](ExplorationSession& s) { s.set_requirement("Mode", "lax"); });
  relaxed.expect_candidates_agree();
  EXPECT_EQ(relaxed.columnar.candidates().size(), 2u);

  Twin strict(*layer, "Node");
  strict.apply([](ExplorationSession& s) { s.set_requirement("Mode", "strict"); });
  strict.expect_candidates_agree();
  ASSERT_EQ(strict.columnar.candidates().size(), 1u);
  EXPECT_EQ(strict.columnar.candidates()[0]->name(), "core_new");
}

// ---------------------------------------------------------------------------
// Plan invalidation: the cached CoreFilterPlan must follow the layer.
// ---------------------------------------------------------------------------

TEST(ColumnarOracle, PlanRebuiltAfterReindexAndAddConstraint) {
  auto layer = oracle_layer(7, 200);
  Twin twin(*layer, "Node");
  twin.apply([](ExplorationSession& s) { s.set_requirement("MinScore", 40.0); });
  twin.expect_candidates_agree();
  const std::size_t before = twin.columnar.candidates().size();

  // A new always-compliant core enters the library; index_cores() must
  // invalidate the columnar plan so both engines see it.
  ReuseLibrary* lib = layer->library("cores");
  ASSERT_NE(lib, nullptr);
  Core fresh("fresh", "Node");
  fresh.bind("Tech", Value::text("t2")).bind("Width", Value::number(8.0));
  fresh.set_metric("score", 99.0).set_metric("cost", 1.0);
  lib->add(std::move(fresh));
  layer->index_cores();
  twin.apply([](ExplorationSession& s) { s.set_requirement("MaxCost", 90.0); });
  twin.expect_candidates_agree();
  bool found = false;
  for (const Core* core : twin.columnar.candidates()) found |= core->name() == "fresh";
  EXPECT_TRUE(found);
  EXPECT_GE(twin.columnar.candidates().size(), 1u);
  (void)before;

  // A constraint added later must recompile into the plan.
  layer->add_constraint(ConsistencyConstraint::inconsistent_when(
      "D3", "t2 banned outright", {PropertyPath::parse("Tech@Node")},
      {PropertyPath::parse("Tech@Node")}, {PredicateAtom::equals("Tech", Value::text("t2"))}));
  twin.apply([](ExplorationSession& s) { s.set_requirement("MinScore", 41.0); });
  twin.expect_candidates_agree();
  for (const Core* core : twin.columnar.candidates()) {
    EXPECT_NE(core->binding("Tech"), Value::text("t2")) << core->name();
  }
}

// ---------------------------------------------------------------------------
// Forced-kernel parity: the same walks must agree bit for bit whether the
// word kernels run scalar or on the widest ISA the CPU supports. Shapes are
// adversarial for 64-lane blocks: row counts 0/1/63/64/65, non-lane-multiple
// tails, NaN metric and binding values, sparse presence bitmaps, and
// mixed-kind columns.
// ---------------------------------------------------------------------------

namespace simd = support::simd;

/// Param: (0 = scalar, 1 = widest supported ISA) x fuzz seed.
class ForcedKernelOracle : public ::testing::TestWithParam<std::tuple<int, unsigned>> {
 protected:
  void SetUp() override {
    const int which = std::get<0>(GetParam());
    simd::set_kernel(which == 0 ? simd::Kernel::kScalar : simd::widest_supported());
  }
  void TearDown() override { simd::reset_kernel_choice(); }
};

TEST_P(ForcedKernelOracle, AdversarialRowCountsAgree) {
  const unsigned seed = std::get<1>(GetParam());
  // 0 rows (no sweep), 1 (single-lane word), 63/64/65 (word boundary), and
  // two non-lane-multiple tails.
  for (const std::size_t count : {0u, 1u, 63u, 64u, 65u, 130u, 257u}) {
    auto layer = oracle_layer(seed * 131 + static_cast<unsigned>(count), count);
    Twin twin(*layer, "Node");
    twin.columnar.reset_query_stats();
    twin.legacy.reset_query_stats();
    twin.apply([](ExplorationSession& s) { s.set_requirement("MinScore", 30.0); });
    twin.expect_candidates_agree();
    twin.apply([](ExplorationSession& s) { s.set_requirement("MaxCost", 80.0); });
    twin.expect_candidates_agree();
    twin.apply([](ExplorationSession& s) { s.set_requirement("Coding", "carry"); });
    twin.expect_candidates_agree();
    twin.apply([](ExplorationSession& s) { s.set_requirement("Mode", "strict"); });
    twin.apply([](ExplorationSession& s) { s.set_requirement("Cert", "gold"); });
    twin.expect_candidates_agree();
    twin.apply([](ExplorationSession& s) { s.decide("Width", Value::number(32.0)); });
    twin.expect_candidates_agree();
    twin.expect_counters_agree();
  }
}

TEST_P(ForcedKernelOracle, RandomWalkAgrees) {
  const unsigned seed = std::get<1>(GetParam());
  auto layer = oracle_layer(seed * 104729 + 17, 321);  // non-multiple-of-64 rows
  Twin twin(*layer, "Node");
  twin.columnar.reset_query_stats();
  twin.legacy.reset_query_stats();
  Rng rng(seed * 59 + 11);
  for (int step = 0; step < 25; ++step) {
    switch (rng.next_below(4)) {
      case 0: {
        const char* name = rng.next_bool() ? "MinScore" : "MaxCost";
        const double value = static_cast<double>(rng.next_below(101));
        twin.apply([&](ExplorationSession& s) { s.set_requirement(name, value); });
        break;
      }
      case 1: {
        const char* techs[] = {"t1", "t2", "t3"};
        const char* tech = techs[rng.next_below(3)];
        twin.apply([&](ExplorationSession& s) { s.decide("Tech", tech); });
        break;
      }
      case 2: {
        const double widths[] = {8, 16, 32, 64};
        const double width = widths[rng.next_below(4)];
        twin.apply([&](ExplorationSession& s) { s.decide("Width", Value::number(width)); });
        break;
      }
      default: {
        const char* names[] = {"MinScore", "MaxCost", "Tech", "Width"};
        const char* name = names[rng.next_below(4)];
        twin.apply([&](ExplorationSession& s) {
          if (s.value_of(name).has_value()) s.retract(name);
        });
        break;
      }
    }
    twin.expect_candidates_agree();
  }
  twin.expect_counters_agree();
}

/// NaN metrics / NaN numeric bindings / near-empty presence bitmaps: the
/// shapes where vectorized compares and the legacy operators could diverge.
std::unique_ptr<DesignSpaceLayer> nan_sparse_layer(std::size_t core_count) {
  auto layer = std::make_unique<DesignSpaceLayer>("nan-sparse");
  Cdo& node = layer->space().add_root("Node");
  node.add_property(Property::requirement("MinScore", ValueDomain::real_range(0.0, 100.0), "")
                        .with_compliance(Compliance::kCoreAtLeast, "score"));
  node.add_property(Property::requirement("MaxCost", ValueDomain::real_range(0.0, 100.0), "")
                        .with_compliance(Compliance::kCoreAtMost, "cost"));
  node.add_property(Property::design_issue("Tech", ValueDomain::options({"t1", "t2", "t3"}), ""));
  node.add_property(Property::design_issue("Width", ValueDomain::powers_of_two(), ""));
  layer->add_constraint(ConsistencyConstraint::inconsistent_when(
      "D1", "t3 cannot drive wide datapaths", {PropertyPath::parse("Tech@Node")},
      {PropertyPath::parse("Width@Node")},
      {PredicateAtom::equals("Tech", Value::text("t3")),
       PredicateAtom::compares("Width", Cmp::kGe, 32.0)}));
  ReuseLibrary& lib = layer->add_library("cores");
  const double nan = std::nan("");
  for (std::size_t i = 0; i < core_count; ++i) {
    Core c("c" + std::to_string(i), "Node");
    // Sparse presence: only every 9th core binds Tech, every 7th Width.
    if (i % 9 == 0) c.bind("Tech", Value::text(i % 2 == 0 ? "t3" : "t1"));
    if (i % 7 == 0) c.bind("Width", Value::number(i % 14 == 0 ? nan : 64.0));
    if (i % 5 != 0) c.set_metric("score", i % 11 == 1 ? nan : static_cast<double>(i % 100));
    if (i % 3 != 0) c.set_metric("cost", i % 13 == 2 ? nan : static_cast<double>(i % 90));
    lib.add(std::move(c));
  }
  layer->index_cores();
  return layer;
}

TEST_P(ForcedKernelOracle, NaNAndSparsePresenceAgree) {
  auto layer = nan_sparse_layer(450);
  Twin twin(*layer, "Node");
  twin.columnar.reset_query_stats();
  twin.legacy.reset_query_stats();
  // Legacy keeps NaN metrics through both bound directions (NaN compares
  // false); both engines must reproduce that, not "NaN fails the bound".
  twin.apply([](ExplorationSession& s) { s.set_requirement("MinScore", 50.0); });
  twin.expect_candidates_agree();
  bool nan_survivor = false;
  for (const Core* core : twin.columnar.candidates()) {
    const auto score = core->metric("score");
    nan_survivor |= score.has_value() && std::isnan(*score);
  }
  EXPECT_TRUE(nan_survivor) << "NaN metric rows must pass bounds like the legacy operators";
  twin.apply([](ExplorationSession& s) { s.set_requirement("MaxCost", 40.0); });
  twin.expect_candidates_agree();
  // NaN Width bindings flow into the compiled D1 program (NaN >= 32 never
  // holds => never violated).
  twin.apply([](ExplorationSession& s) { s.decide("Tech", "t3"); });
  twin.expect_candidates_agree();
  twin.expect_counters_agree();
}

INSTANTIATE_TEST_SUITE_P(Kernels, ForcedKernelOracle,
                         ::testing::Combine(::testing::Values(0, 1), ::testing::Range(1u, 4u)));

// ---------------------------------------------------------------------------
// Grouped custom-filter oracle: the columnar engine calls each custom filter
// once per distinct key of its declared reads among the alive rows; the
// legacy scan calls it once per row. Verdicts, survivors and counters must
// not notice the difference.
// ---------------------------------------------------------------------------

/// One row's key under `reads`, rendered independently of the engine's
/// column encoding: per read, absent or kind + exact payload.
std::string key_of(const Core& core, const std::vector<FilterRead>& reads) {
  std::string key;
  for (const FilterRead& read : reads) {
    if (read.source == FilterRead::Source::kMetric) {
      const auto metric = core.metric(read.name);
      key += metric.has_value() ? "m" + std::to_string(std::bit_cast<std::uint64_t>(*metric)) : "-";
    } else {
      const auto binding = core.binding(read.name);
      if (!binding.has_value()) {
        key += "-";
      } else if (binding->kind() == Value::Kind::kNumber) {
        key += "n" + std::to_string(std::bit_cast<std::uint64_t>(binding->as_number()));
      } else {
        key += "t" + binding->as_text();
      }
    }
    key += '|';
  }
  return key;
}

TEST_P(ForcedKernelOracle, GroupedFilterWalkAgrees) {
  const unsigned seed = std::get<1>(GetParam());
  auto layer = oracle_layer(seed * 7907 + 5, 333);
  Twin twin(*layer, "Node");
  twin.columnar.reset_query_stats();
  twin.legacy.reset_query_stats();
  Rng rng(seed * 43 + 1);
  for (int step = 0; step < 30; ++step) {
    switch (rng.next_below(5)) {
      case 0: {  // the high-cardinality (metric) key
        const char* cert = rng.next_bool() ? "gold" : "silver";
        twin.apply([&](ExplorationSession& s) { s.set_requirement("Cert", cert); });
        break;
      }
      case 1: {  // the low-cardinality (binding) key
        const char* fit = rng.next_bool() ? "narrow" : "wide";
        twin.apply([&](ExplorationSession& s) { s.set_requirement("Fit", fit); });
        break;
      }
      case 2: {
        const char* mode = rng.next_bool() ? "strict" : "lax";
        twin.apply([&](ExplorationSession& s) { s.set_requirement("Mode", mode); });
        break;
      }
      case 3: {
        const char* techs[] = {"t1", "t2", "t3"};
        const char* tech = techs[rng.next_below(3)];
        twin.apply([&](ExplorationSession& s) { s.decide("Tech", tech); });
        break;
      }
      default: {
        const char* names[] = {"Cert", "Fit", "Mode", "Tech"};
        const char* name = names[rng.next_below(4)];
        twin.apply([&](ExplorationSession& s) {
          if (s.value_of(name).has_value()) s.retract(name);
        });
        break;
      }
    }
    twin.expect_candidates_agree();
  }
  twin.expect_counters_agree();
}

TEST_P(ForcedKernelOracle, GroupedFilterChunkParallelAgrees) {
  // 5000 rows span three 2048-row chunks: with the threshold lowered, the
  // key hashing and checking run on the shared ChunkPool.
  struct ThresholdGuard {
    std::size_t saved = dsl::columnar_parallel_threshold();
    ~ThresholdGuard() { dsl::set_columnar_parallel_threshold(saved); }
  } guard;
  dsl::set_columnar_parallel_threshold(64);
  auto layer = oracle_layer(std::get<1>(GetParam()) * 389 + 4, 5000);
  Twin twin(*layer, "Node");
  twin.columnar.reset_query_stats();
  twin.legacy.reset_query_stats();
  twin.apply([](ExplorationSession& s) { s.set_requirement("Fit", "narrow"); });
  twin.expect_candidates_agree();
  twin.apply([](ExplorationSession& s) { s.set_requirement("Cert", "gold"); });
  twin.expect_candidates_agree();
  twin.apply([](ExplorationSession& s) { s.decide("Tech", "t2"); });
  twin.expect_candidates_agree();
  twin.expect_counters_agree();
}

TEST_P(ForcedKernelOracle, FilterCallsCountDistinctAliveKeys) {
  const unsigned seed = std::get<1>(GetParam());
  auto layer = oracle_layer(seed * 613 + 2, 300);
  const auto& cores = layer->cores_under(*layer->space().find("Node"));
  for (const char* requirement : {"Cert", "Fit"}) {
    const std::vector<FilterRead>& reads = layer->core_filter(requirement)->reads;
    for (const char* tech : {"", "t1", "t2"}) {
      // The decided Tech (if any) is the only step before the filter, so
      // the alive rows are the cores binding that Tech.
      std::set<std::string> keys;
      std::uint64_t alive = 0;
      for (const Core* core : cores) {
        if (*tech != '\0' && core->binding("Tech") != Value::text(tech)) continue;
        ++alive;
        keys.insert(key_of(*core, reads));
      }
      Twin twin(*layer, "Node");
      twin.apply([&](ExplorationSession& s) {
        if (*tech != '\0') s.decide("Tech", tech);
        s.set_requirement(requirement, requirement == std::string("Cert") ? "gold" : "narrow");
      });
      twin.columnar.reset_query_stats();
      twin.legacy.reset_query_stats();
      twin.expect_candidates_agree();
      const auto calls = [](const ExplorationSession& s) {
        return s.telemetry().count_of(telemetry::EventKind::kFilterCall);
      };
      EXPECT_EQ(calls(twin.columnar), keys.size()) << requirement << " tech=" << tech;
      EXPECT_EQ(calls(twin.legacy), alive) << requirement << " tech=" << tech;
      if (requirement == std::string("Fit")) {
        EXPECT_LT(keys.size(), alive) << "Fit keys repeat across rows";
      }
    }
  }
}

TEST_P(ForcedKernelOracle, HashCollidingKeysStayApart) {
  // Rows (a1, b1) and (a2, b2) have different keys but equal key hashes:
  // b2 is solved against the engine's key hash (key_hash and
  // kKeyHashSeed in core_table.cpp, folding cells with the present-number
  // tag 2). The columnar engine must notice the collision and fall back
  // to calling the filter on every alive row, keeping the verdicts apart.
  // If the hash changes, mirror it in `fold`, or this test stops forcing
  // a collision.
  const auto fold = [](std::uint64_t h, double value) {
    const std::uint64_t x = (h ^ std::bit_cast<std::uint64_t>(value)) * 0xff51afd7ed558ccdull + 2;
    return x ^ (x >> 29);
  };
  const std::uint64_t seed = 0x9e3779b97f4a7c15ull;
  const double a1 = 1.0;
  const double b1 = 2.0;
  double a2 = 3.0;
  double b2 = 0.0;
  for (;; a2 += 1.0) {  // b2 must be a plain number to be stored as one
    b2 = std::bit_cast<double>(fold(seed, a1) ^ std::bit_cast<std::uint64_t>(b1) ^ fold(seed, a2));
    if (std::isnormal(b2)) break;
  }
  ASSERT_EQ(fold(fold(seed, a1), b1), fold(fold(seed, a2), b2));

  auto layer = std::make_unique<DesignSpaceLayer>("collide");
  Cdo& node = layer->space().add_root("Node");
  node.add_property(Property::requirement("Pick", ValueDomain::options({"on"}), ""));
  layer->set_core_filter("Pick", {{FilterRead::binding("A"), FilterRead::binding("B")},
                                  [](const FilterView& core, const Bindings&) {
                                    return *core.binding("B") == Value::number(2.0);
                                  }});
  ReuseLibrary& lib = layer->add_library("cores");
  for (int i = 0; i < 6; ++i) {
    Core c("c" + std::to_string(i), "Node");
    c.bind("A", Value::number(i % 2 == 0 ? a1 : a2)).bind("B", Value::number(i % 2 == 0 ? b1 : b2));
    lib.add(std::move(c));
  }
  layer->index_cores();

  Twin twin(*layer, "Node");
  twin.apply([](ExplorationSession& s) { s.set_requirement("Pick", "on"); });
  twin.columnar.reset_query_stats();
  twin.expect_candidates_agree();
  ASSERT_EQ(twin.columnar.candidates().size(), 3u);
  for (const Core* core : twin.columnar.candidates()) {
    EXPECT_EQ(core->binding("A"), Value::number(a1));
  }
  EXPECT_EQ(twin.columnar.telemetry().count_of(telemetry::EventKind::kFilterCall), 6u);
}

TEST_P(ForcedKernelOracle, KeysSplitOnPresenceKindAndBitsInRowOrder) {
  // N is a number column: absent, 0.0, and -0.0 (equal to 0.0, other
  // bits). M is a mixed-kind column: the number 1 or the text "1". Each
  // combination is its own key, and the columnar engine calls the filter
  // in order of each key's first row.
  std::vector<std::string> seen;
  auto layer = std::make_unique<DesignSpaceLayer>("keys");
  Cdo& node = layer->space().add_root("Node");
  node.add_property(Property::requirement("Probe", ValueDomain::options({"on"}), ""));
  const auto show = [](const Value* v) {
    if (v == nullptr) return std::string("absent");
    if (v->kind() == Value::Kind::kText) return "text " + v->as_text();
    return (std::signbit(v->as_number()) ? "-" : "+") + v->to_string();
  };
  layer->set_core_filter(
      "Probe", {{FilterRead::binding("N"), FilterRead::binding("M")},
                [&](const FilterView& core, const Bindings&) {
                  const Value* n = core.binding("N");
                  const Value* m = core.binding("M");
                  seen.push_back(show(n) + "/" + show(m));
                  return n != nullptr && !std::signbit(n->as_number()) &&
                         m->kind() == Value::Kind::kNumber;
                }});
  const std::vector<Value> ns = {Value::number(0.0), Value{}, Value::number(-0.0),
                                 Value::number(0.0), Value::number(0.0), Value{},
                                 Value::number(-0.0)};
  ReuseLibrary& lib = layer->add_library("cores");
  for (std::size_t i = 0; i < ns.size(); ++i) {
    Core c("c" + std::to_string(i), "Node");
    if (!ns[i].empty()) c.bind("N", ns[i]);
    c.bind("M", i == 4 ? Value::text("1") : Value::number(1.0));
    lib.add(std::move(c));
  }
  layer->index_cores();

  ExplorationSession columnar(*layer, "Node");
  columnar.set_columnar(true);
  columnar.set_requirement("Probe", "on");
  ASSERT_EQ(columnar.candidates().size(), 2u);
  EXPECT_EQ(columnar.candidates()[0]->name(), "c0");
  EXPECT_EQ(columnar.candidates()[1]->name(), "c3");
  const Value one = Value::number(1.0);
  const Value text_one = Value::text("1");
  EXPECT_EQ(seen, (std::vector<std::string>{show(&ns[0]) + "/" + show(&one),
                                            "absent/" + show(&one),
                                            show(&ns[2]) + "/" + show(&one),
                                            show(&ns[4]) + "/" + show(&text_one)}));

  seen.clear();
  ExplorationSession legacy(*layer, "Node");
  legacy.set_columnar(false);
  legacy.set_requirement("Probe", "on");
  EXPECT_EQ(legacy.candidates(), columnar.candidates());
  EXPECT_EQ(seen.size(), ns.size());
}

/// A one-property layer whose "Peek" filter declares Tech but reads Width.
std::unique_ptr<DesignSpaceLayer> peek_layer() {
  auto layer = std::make_unique<DesignSpaceLayer>("peek");
  Cdo& node = layer->space().add_root("Node");
  node.add_property(Property::requirement("Peek", ValueDomain::options({"on"}), ""));
  layer->set_core_filter("Peek", {{FilterRead::binding("Tech")},
                                  [](const FilterView& core, const Bindings&) {
                                    return core.binding("Width") == nullptr;
                                  }});
  ReuseLibrary& lib = layer->add_library("cores");
  for (int i = 0; i < 70; ++i) {
    Core c("c" + std::to_string(i), "Node");
    c.bind("Tech", Value::text(i % 2 == 0 ? "t1" : "t2")).bind("Width", Value::number(8.0));
    lib.add(std::move(c));
  }
  layer->index_cores();
  return layer;
}

/// Runs candidates() on both engines; both must throw E with equal text.
template <typename E>
void expect_same_throw(Twin& twin) {
  std::string what[2];
  ExplorationSession* sessions[2] = {&twin.columnar, &twin.legacy};
  for (int i = 0; i < 2; ++i) {
    try {
      (void)sessions[i]->candidates();
      ADD_FAILURE() << (i == 0 ? "columnar" : "legacy") << " engine did not throw";
    } catch (const E& e) {
      what[i] = e.what();
    }
  }
  EXPECT_FALSE(what[0].empty());
  EXPECT_EQ(what[0], what[1]);
}

TEST_P(ForcedKernelOracle, UndeclaredReadFailsInBothEngines) {
  auto layer = peek_layer();
  Twin twin(*layer, "Node");
  twin.apply([](ExplorationSession& s) { s.set_requirement("Peek", "on"); });
  expect_same_throw<DefinitionError>(twin);
}

TEST_P(ForcedKernelOracle, ThrowingFilterGivesSameErrorInBothEngines) {
  // A hardware core without a Radix binding: the crypto latency filter
  // cannot rebuild its slice and must say which property is missing.
  auto layer = domains::build_crypto_layer();
  Core broken("broken_slice", domains::kPathOMM);
  broken.bind(domains::kImplStyle, Value::text("Hardware"))
      .bind(domains::kAlgorithm, Value::text("Montgomery"));
  layer->add_library("broken").add(std::move(broken));
  layer->index_cores();
  Twin twin(*layer, domains::kPathOMM);
  twin.apply([](ExplorationSession& s) {
    s.set_requirement(domains::kEOL, 768.0);
    s.set_requirement(domains::kLatencyBound, 8.0);
  });
  expect_same_throw<PreconditionError>(twin);
  try {
    (void)twin.columnar.candidates();
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("'Radix'"), std::string::npos) << e.what();
    EXPECT_EQ(std::string(e.what()).find("broken_slice"), std::string::npos) << e.what();
  }
}

// ---------------------------------------------------------------------------
// Row-range sweeps: every CDO's plan is a row range of the layer's one
// table, so a sub-CDO scope sweeps words that start and end mid-word,
// next to rows (and columns) that belong to other CDOs.
// ---------------------------------------------------------------------------

/// The oracle layer with Node specialized by a generalized Family issue
/// into Node.A and Node.B: `lead` cores stay at Node, `scoped` resolve to
/// Node.A and `tail` to Node.B, so Node.A's rows are [lead, lead + scoped)
/// of the table and Node.B's run to its end. Constraint D4 reads Heat, a
/// session requirement. With `outside_columns` the cores outside Node.A
/// also bind Heat (numbers), and the lead cores bind Width as text, which
/// makes the layer's Width column mixed-kind while Node.A's rows stay
/// numeric; the random draws, and so every core inside Node.A, are the
/// same either way.
std::unique_ptr<DesignSpaceLayer> scoped_oracle_layer(unsigned seed, std::size_t lead,
                                                      std::size_t scoped, std::size_t tail,
                                                      bool outside_columns) {
  auto layer = std::make_unique<DesignSpaceLayer>("scoped-oracle");
  Cdo& node = layer->space().add_root("Node");
  declare_oracle_space(*layer, node);
  node.add_property(Property::generalized_issue("Family", {"A", "B"}, ""));
  node.specialize("A");
  node.specialize("B");
  node.add_property(Property::requirement("Heat", ValueDomain::real_range(0.0, 100.0), ""));
  layer->add_constraint(ConsistencyConstraint::inconsistent_when(
      "D4", "hot parts cannot be t2", {PropertyPath::parse("Heat@Node")},
      {PropertyPath::parse("Tech@Node")},
      {PredicateAtom::equals("Tech", Value::text("t2")),
       PredicateAtom::compares("Heat", Cmp::kGe, 50.0)}));

  Rng rng(seed);
  ReuseLibrary& lib = layer->add_library("cores");
  std::size_t i = 0;
  const auto add = [&](std::size_t count, const char* family, bool text_width) {
    for (std::size_t n = 0; n < count; ++n, ++i) {
      Core c = random_oracle_core(rng, i, outside_columns && text_width);
      if (family != nullptr) c.bind("Family", Value::text(family));
      if (outside_columns && (family == nullptr || family[0] != 'A')) {
        c.bind("Heat", Value::number(static_cast<double>(i * 37 % 100)));
      }
      lib.add(std::move(c));
    }
  };
  // Added out of layout order: index_cores() lays them out in pre-order.
  add(scoped, "A", false);
  add(tail, "B", false);
  add(lead, nullptr, true);
  layer->index_cores();
  return layer;
}

/// A random walk over both engines at `scope`, checking candidates after
/// every step and the work counters at the end.
void scoped_walk(Twin& twin, unsigned seed) {
  twin.columnar.reset_query_stats();
  twin.legacy.reset_query_stats();
  Rng rng(seed);
  for (int step = 0; step < 20; ++step) {
    switch (rng.next_below(6)) {
      case 0: {
        const char* name = rng.next_bool() ? "MinScore" : "MaxCost";
        const double value = static_cast<double>(rng.next_below(101));
        twin.apply([&](ExplorationSession& s) { s.set_requirement(name, value); });
        break;
      }
      case 1: {
        const double heat = static_cast<double>(rng.next_below(101));
        twin.apply([&](ExplorationSession& s) { s.set_requirement("Heat", heat); });
        break;
      }
      case 2: {
        const char* requirement = rng.next_bool() ? "Cert" : "Mode";
        const char* value = requirement[0] == 'C' ? (rng.next_bool() ? "gold" : "silver")
                                                  : (rng.next_bool() ? "strict" : "lax");
        twin.apply([&](ExplorationSession& s) { s.set_requirement(requirement, value); });
        break;
      }
      case 3: {
        const char* techs[] = {"t1", "t2", "t3"};
        const char* tech = techs[rng.next_below(3)];
        twin.apply([&](ExplorationSession& s) { s.decide("Tech", tech); });
        break;
      }
      case 4: {
        const double widths[] = {8, 16, 32, 64};
        const double width = widths[rng.next_below(4)];
        twin.apply([&](ExplorationSession& s) { s.decide("Width", Value::number(width)); });
        break;
      }
      default: {
        const char* names[] = {"MinScore", "MaxCost", "Heat", "Cert", "Mode", "Tech", "Width"};
        const char* name = names[rng.next_below(7)];
        twin.apply([&](ExplorationSession& s) {
          if (s.value_of(name).has_value()) s.retract(name);
        });
        break;
      }
    }
    twin.expect_candidates_agree();
  }
  twin.expect_counters_agree();
}

/// Walks Node.A and Node.B for scopes of 0, 1, 63, 64, 65 and 130 rows
/// (plus `extra` sizes) behind a 37-core lead and before a 29-core tail,
/// so both ranges start mid-word and Node.A's ends mid-word too.
void walk_sub_cdo_ranges(unsigned seed, std::initializer_list<std::size_t> extra = {}) {
  std::vector<std::size_t> sizes = {0, 1, 63, 64, 65, 130};
  sizes.insert(sizes.end(), extra.begin(), extra.end());
  for (const std::size_t scoped : sizes) {
    auto layer = scoped_oracle_layer(seed * 977 + static_cast<unsigned>(scoped), 37, scoped, 29,
                                     /*outside_columns=*/true);
    const Cdo& a = *layer->space().find("Node.A");
    ASSERT_EQ(layer->filter_plan(a).begin, 37u);
    ASSERT_EQ(layer->filter_plan(a).rows(), scoped);
    for (const char* scope : {"Node.A", "Node.B"}) {
      SCOPED_TRACE(cat(scope, " with ", scoped, " scoped rows"));
      Twin twin(*layer, scope);
      scoped_walk(twin, seed * 31 + static_cast<unsigned>(scoped));
    }
  }
}

TEST_P(ForcedKernelOracle, SubCdoRangesAgree) { walk_sub_cdo_ranges(std::get<1>(GetParam())); }

TEST_P(ForcedKernelOracle, SubCdoRangesAgreeChunkParallel) {
  // Threshold 64: every range of 64+ rows takes the parallel path, and the
  // 5000-row scope spans three 2048-row chunks that start mid-word.
  struct ThresholdGuard {
    std::size_t saved = dsl::columnar_parallel_threshold();
    ~ThresholdGuard() { dsl::set_columnar_parallel_threshold(saved); }
  } guard;
  dsl::set_columnar_parallel_threshold(64);
  walk_sub_cdo_ranges(std::get<1>(GetParam()) + 100, {5000});
}

TEST(ColumnarOracle, ColumnBoundOnlyOutsideScopeChangesNothingInside) {
  // Heat is bound only by cores outside Node.A and Width is text there:
  // inside Node.A, D4 must still read Heat from the session and Width
  // from its own numeric rows, with the same survivors and counters as
  // over a layer where no core outside binds either.
  auto plain = scoped_oracle_layer(5, 37, 130, 29, /*outside_columns=*/false);
  auto bound = scoped_oracle_layer(5, 37, 130, 29, /*outside_columns=*/true);
  ExplorationSession inside_plain(*plain, "Node.A");
  Twin inside_bound(*bound, "Node.A");
  inside_plain.reset_query_stats();
  inside_bound.columnar.reset_query_stats();
  inside_bound.legacy.reset_query_stats();
  const auto names = [](const std::vector<const Core*>& cores) {
    std::vector<std::string> out;
    for (const Core* core : cores) out.push_back(core->name());
    return out;
  };
  const std::vector<std::function<void(ExplorationSession&)>> steps = {
      [](ExplorationSession& s) { s.set_requirement("Heat", 80.0); },
      [](ExplorationSession& s) { s.set_requirement("Fit", "narrow"); },
      [](ExplorationSession& s) { s.set_requirement("Heat", 20.0); },
      [](ExplorationSession& s) { s.decide("Tech", "t3"); },
      [](ExplorationSession& s) { s.decide("Width", Value::number(16.0)); },
  };
  for (const auto& step : steps) {
    step(inside_plain);
    inside_bound.apply(step);
    inside_bound.expect_candidates_agree();
    EXPECT_EQ(names(inside_bound.columnar.candidates()), names(inside_plain.candidates()));
  }
  EXPECT_FALSE(inside_plain.candidates().empty());
  const auto plain_stats = inside_plain.query_stats();
  const auto bound_stats = inside_bound.columnar.query_stats();
  EXPECT_EQ(bound_stats.compliance_checks, plain_stats.compliance_checks);
  EXPECT_EQ(bound_stats.constraint_evaluations, plain_stats.constraint_evaluations);
  inside_bound.expect_counters_agree();
}

TEST(ColumnarOracle, AddConstraintKeepsTableAndRecompilesPlans) {
  auto layer = scoped_oracle_layer(9, 37, 130, 29, /*outside_columns=*/true);
  const Cdo& a = *layer->space().find("Node.A");
  const dsl::CoreTable* table = &layer->filter_plan(a).table;
  const std::size_t predicates = layer->filter_plan(a).predicates.size();
  EXPECT_EQ(&layer->filter_plan(*layer->space().find("Node.B")).table, table);

  layer->add_constraint(ConsistencyConstraint::inconsistent_when(
      "D5", "t1 banned outright", {PropertyPath::parse("Tech@Node")},
      {PropertyPath::parse("Tech@Node")}, {PredicateAtom::equals("Tech", Value::text("t1"))}));
  // The table survives; the plan is recompiled against the new constraints.
  EXPECT_EQ(layer->peek_core_table(), table);
  EXPECT_EQ(&layer->filter_plan(a).table, table);
  EXPECT_EQ(layer->filter_plan(a).predicates.size(), predicates + 1);

  Twin twin(*layer, "Node.A");
  twin.apply([](ExplorationSession& s) { s.set_requirement("MinScore", 20.0); });
  twin.expect_candidates_agree();
  EXPECT_FALSE(twin.columnar.candidates().empty());
  for (const Core* core : twin.columnar.candidates()) {
    EXPECT_NE(core->binding("Tech"), Value::text("t1")) << core->name();
  }
  twin.expect_counters_agree();
}

}  // namespace
}  // namespace dslayer
