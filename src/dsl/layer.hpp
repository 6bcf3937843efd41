// The design space layer.
//
// Ties together everything Fig. 1 shows: the CDO hierarchy (the implicit
// design-space representation), any number of reuse libraries indexed
// through it, the consistency constraints governing exploration, the early
// estimation tools CCs may bind, and the domain-specific hooks (core
// compliance filters, estimation context construction).
//
// Core indexing (Section 4): a core enters at the CDO named by its class
// path and descends the generalization hierarchy as far as its bindings
// answer the generalized issues — ending at the most specific family of
// design alternatives it belongs to. Cores whose class path or option
// bindings do not resolve are reported, not silently dropped. Indexed cores
// are laid out in hierarchy pre-order, so every CDO's region is one row
// range of that array and of the one CoreTable over it.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dsl/cdo.hpp"
#include "dsl/constraint.hpp"
#include "dsl/core_library.hpp"
#include "dsl/core_table.hpp"
#include "dsl/query_stats.hpp"
#include "estimation/estimators.hpp"
#include "support/symbol.hpp"

namespace dslayer::dsl {

/// Per-CDO constraint adjacency, built once and reused by every query that
/// used to rescan the full constraint list: the constraints in scope, the
/// predicate subset (InconsistentOptions/DominanceElimination — the only
/// kinds candidates() evaluates), and property-name lookups for both sides
/// of the dependency relation.
struct ConstraintIndex {
  std::vector<const ConsistencyConstraint*> all;
  std::vector<const ConsistencyConstraint*> predicates;
  /// Adjacency keyed by interned property symbol (PropertyPath interns at
  /// construction, so building the index never touches the string table).
  std::map<support::Symbol, std::vector<const ConsistencyConstraint*>> by_dependent;
  std::map<support::Symbol, std::vector<const ConsistencyConstraint*>> by_independent;

  /// Constraints whose dependent set contains `property` (veto side).
  const std::vector<const ConsistencyConstraint*>& constraining(const std::string& property) const;
  const std::vector<const ConsistencyConstraint*>& constraining(support::Symbol property) const;

  /// Constraints whose independent set contains `property` (re-assessment
  /// side).
  const std::vector<const ConsistencyConstraint*>& depending_on(const std::string& property) const;
  const std::vector<const ConsistencyConstraint*>& depending_on(support::Symbol property) const;
};

class DesignSpaceLayer {
 public:
  /// Builds the estimation input for a behavioral description from the
  /// session bindings (maps option strings to technology models etc.).
  using ContextBuilder =
      std::function<estimation::EstimateInput(const Bindings&, const behavior::BehavioralDescription&)>;

  explicit DesignSpaceLayer(std::string name);

  const std::string& name() const { return name_; }

  DesignSpace& space() { return space_; }
  const DesignSpace& space() const { return space_; }

  // -- reuse libraries ------------------------------------------------------

  /// Creates and attaches a new (owned) reuse library.
  ReuseLibrary& add_library(std::string name);

  std::vector<const ReuseLibrary*> libraries() const;

  /// Mutable access to an attached library (IP-provider catalog updates:
  /// new cores are added and re-indexed without touching the hierarchy).
  /// nullptr if no library has that name.
  ReuseLibrary* library(const std::string& name);

  /// (Re)indexes every core of every library onto the CDO hierarchy and
  /// lays the indexed cores out in hierarchy pre-order (indexed_cores()).
  /// Returns the number of cores indexed; resolution problems are
  /// appended to index_warnings().
  std::size_t index_cores();

  /// Lays out (core, CDO) assignments in index_cores() visit order
  /// (libraries in attach order, cores in add order): index_cores() after
  /// resolving them, a snapshot load (src/storage/snapshot.cpp) from the
  /// recorded ones. Drops the core table (install_core_table() can
  /// restore it) and every filter plan.
  void restore_index(const std::vector<std::pair<const Core*, const Cdo*>>& assignments);

  /// Drops every reuse library and all core indexes; the hierarchy,
  /// constraints, estimators, and domain hooks (all code) survive. The
  /// `!restore` path reloads a snapshot into the emptied layer.
  void clear_catalog();

  /// Every indexed core in CDO-hierarchy pre-order: a CDO's own cores (in
  /// visit order), then each child's subtree. cores_at(), cores_under()
  /// and every filter plan are row ranges of it. Stable until re-index.
  std::span<const Core* const> indexed_cores() const { return order_; }

  /// Cores indexed exactly at this CDO.
  std::span<const Core* const> cores_at(const Cdo& cdo) const;

  /// Cores indexed at this CDO or any descendant (the design-space region
  /// the CDO represents), in indexed_cores() order. Empty for a CDO
  /// created after the last index_cores() (no core can resolve to it).
  std::span<const Core* const> cores_under(const Cdo& cdo) const;

  /// The CDO an indexed core resolved to (its most specific family);
  /// nullptr if the core was never indexed.
  const Cdo* indexed_cdo(const Core& core) const;

  const std::vector<std::string>& index_warnings() const { return index_warnings_; }

  // -- consistency constraints -----------------------------------------------

  void add_constraint(ConsistencyConstraint cc);
  const std::vector<ConsistencyConstraint>& constraints() const { return constraints_; }

  /// Constraints in scope at a CDO (the index's `all` list; the reference
  /// is stable until the next add_constraint()).
  const std::vector<const ConsistencyConstraint*>& constraints_at(const Cdo& cdo) const;

  /// Full constraint adjacency for a CDO — applicable constraints plus
  /// property-name lookups. Built lazily per CDO, invalidated by
  /// add_constraint(); new CDOs are indexed on first query.
  const ConstraintIndex& constraint_index(const Cdo& cdo) const;

  /// The columnar filter plan for a CDO: the cores_under(cdo) rows of the
  /// layer's one CoreTable plus compiled predicate programs (DESIGN.md
  /// §10). Built lazily; add_constraint() drops the plans but keeps the
  /// table, re-indexing drops both. SharedLayer primes every plan before
  /// publishing an epoch. Stable until the next invalidation.
  const CoreFilterPlan& filter_plan(const Cdo& cdo) const;

  /// The columnar table over indexed_cores(), or nullptr until the first
  /// filter_plan() builds it (or a snapshot installs it). Never builds —
  /// safe under the service's shared read lock (the snapshot writer runs
  /// there).
  const CoreTable* peek_core_table() const { return table_.get(); }

  /// Installs a snapshot-restored table over indexed_cores(): adopts its
  /// columns, whose payloads may alias the buffer `keepalive` pins.
  /// Drops every cached filter plan.
  void install_core_table(std::vector<CoreTable::Column> binding_columns,
                          std::vector<CoreTable::Column> metric_columns,
                          std::shared_ptr<const void> keepalive) const;

  // -- estimation --------------------------------------------------------------

  estimation::EstimatorRegistry& estimators() { return estimators_; }
  const estimation::EstimatorRegistry& estimators() const { return estimators_; }

  void set_context_builder(ContextBuilder builder);

  /// Builds the estimation input via the registered builder, or a generic
  /// default that reads EffectiveOperandLength / Radix / SliceWidth /
  /// FabricationTechnology / LayoutStyle bindings.
  estimation::EstimateInput build_context(const Bindings& bindings,
                                          const behavior::BehavioralDescription& bd) const;

  // -- behavioral decomposition (DI7) ---------------------------------------------

  /// Declares which CDO class implements operators of `kind` — the schema
  /// behind the paper's "FOR ALL Oper := OPERATORS(BD@*.Hardware)": during
  /// behavioral decomposition, each operator instance of a behavioral
  /// description recurses into the registered class (Section 5.1.6, the
  /// Adder/Multiplier CDOs of Fig. 10). Unregistered kinds are skipped.
  void set_operator_class(behavior::OpKind kind, std::string cdo_path);

  /// Registered class path for an operator kind; nullptr if none.
  const std::string* operator_class(behavior::OpKind kind) const;

  // -- requirement filters ------------------------------------------------------

  void set_core_filter(const std::string& requirement, CoreFilter filter);
  const CoreFilter* core_filter(const std::string& requirement) const;

  // -- integrity & documentation --------------------------------------------------

  /// Structural well-formedness checks: unspecialized generalized-issue
  /// options, constraint paths that match no CDO, estimator bindings to
  /// unknown tools. Returns human-readable findings (empty = clean).
  std::vector<std::string> validate() const;

  /// Renders the whole layer (hierarchy, properties, constraints,
  /// libraries) — the paper's "self-documented" claim made executable.
  std::string document() const;

  // -- observability ---------------------------------------------------------------

  /// Counters for the layer-side caches (constraint index, core table,
  /// filter plans): hits, misses, rebuilds. A view over the telemetry
  /// counters.
  QueryStats query_stats() const { return stats_view(telemetry_); }
  void reset_query_stats() const { telemetry_.reset_counters(); }

  /// The layer's telemetry hub. Layer-side events are counter-only (the
  /// plan/constraint caches are hot and shared across sessions).
  telemetry::Telemetry& telemetry() const { return telemetry_; }

 private:
  /// Where a CDO's cores sit in order_: [begin, own_end) are indexed at
  /// the CDO itself, [begin, end) under it.
  struct CoreRange {
    std::size_t begin = 0;
    std::size_t own_end = 0;
    std::size_t end = 0;
  };
  CoreRange range_of(const Cdo& cdo) const;

  std::string name_;
  DesignSpace space_;
  std::vector<std::unique_ptr<ReuseLibrary>> libraries_;
  std::vector<ConsistencyConstraint> constraints_;
  std::set<std::string> constraint_ids_;  // duplicate-id index
  estimation::EstimatorRegistry estimators_ = estimation::EstimatorRegistry::standard();
  std::vector<const Core*> order_;  // pre-order core array (indexed_cores())
  std::unordered_map<const Cdo*, CoreRange> ranges_;
  // The core -> CDO map behind indexed_cdo(). Hash map with an up-front
  // reserve: at catalog scale (1M cores) red-black nodes cost ~0.5 s to
  // build and a pointer chase per lookup.
  std::unordered_map<const Core*, const Cdo*> core_cdo_;
  std::vector<std::string> index_warnings_;
  std::map<std::string, CoreFilter> core_filters_;
  std::map<behavior::OpKind, std::string> operator_classes_;
  ContextBuilder context_builder_;

  // Lazily filled, invalidation-aware query indexes (mutable: queries are
  // logically const). constraint_index_ is cleared by add_constraint();
  // table_ (rows = order_) only by re-indexing; the plans, which point
  // into both the table and the constraints, by either. Declared after
  // order_ so each is destroyed before what it points into.
  mutable std::map<const Cdo*, ConstraintIndex> constraint_index_;
  mutable std::unique_ptr<CoreTable> table_;
  // unique_ptr: plans must stay address-stable while sessions hold the
  // reference across map growth.
  mutable std::map<const Cdo*, std::unique_ptr<CoreFilterPlan>> filter_plans_;
  mutable telemetry::Telemetry telemetry_;
};

}  // namespace dslayer::dsl
