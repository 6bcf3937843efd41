// Columnar core store + compiled constraint kernels (DESIGN.md §10, §14).
//
// The legacy candidate filter re-interprets every core on every cold
// query: string-keyed map lookups per decided issue, a freshly allocated
// merged-bindings map per core, and an opaque violated() call per
// (core, predicate). This file is the data-oriented replacement:
//
//  * CoreTable — a structure-of-arrays image of the layer's indexed cores
//    (DesignSpaceLayer::indexed_cores(), hierarchy pre-order), one per
//    layer. One contiguous column per bound property / metric (keyed by
//    interned Symbol), each with a presence bitmap (64 rows per word).
//    Columns are typed: all-number and all-text columns store raw
//    doubles / interned symbols; mixed-kind columns degrade to Values.
//    Payloads are padded to a whole number of 64-row words so the SIMD
//    kernels (support/simd.hpp) read full blocks branch-free; symbol
//    lookups go through sorted flat vectors, not std::map nodes.
//  * CompiledPredicate — a declarative ConsistencyConstraint (see
//    PredicateAtom) lowered once per index generation to column indexes
//    and comparison opcodes. Opaque lambda predicates stay uncompiled
//    and are evaluated row-wise through a BindingsOverlay.
//  * CoreFilterPlan — the CDO's row range of the table (its subtree is
//    one contiguous run of the pre-order) + one CompiledPredicate per
//    predicate constraint of the CDO's ConstraintIndex, built lazily by
//    DesignSpaceLayer::filter_plan() and primed by SharedLayer before
//    an epoch publishes.
//  * run_core_filter — evaluates a FilterQuery (the session's decided
//    issues, requirements, and bindings snapshot) over a plan's rows with
//    a survivor bitmask over the range's words (edge words masked to the
//    range), predicate by predicate. Hot predicate shapes
//    (numeric compare vs constant / column with optional factor, text
//    symbol equality) run through the runtime-selected SIMD kernel one
//    64-row word at a time; rows a word kernel cannot decide (absent
//    column value falling back to a session binding, mixed-kind cells)
//    are patched through the scalar interpreter, so survivors are
//    bit-identical to a scalar sweep. Per-sweep scratch (the survivor
//    mask, resolved terms, filter key tables) comes from the calling
//    thread's bump arena (support/arena.hpp) — a steady-state sweep
//    performs no heap allocation. Ranges larger than
//    columnar_parallel_threshold() split into 64-row-aligned chunks on
//    support::ChunkPool::shared(); chunks never share a mask word, so
//    workers write disjoint memory and results are deterministic.
//    Custom filters (CoreFilter) run once per distinct key of the
//    columns they declare, not once per row: rows sharing a key share
//    the verdict (counted as kFilterCall per invocation).
//
// The engine mirrors the legacy semantics exactly — same survivors, same
// ConstraintEvaluated / ComplianceCheck counter totals — which the
// tier-1 columnar oracle test enforces on randomized libraries, with
// kernels forced to scalar and to the widest supported ISA.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dsl/constraint.hpp"
#include "dsl/core_library.hpp"
#include "support/symbol.hpp"

namespace dslayer::telemetry {
class Telemetry;
}

namespace dslayer::dsl {

/// One core property a CoreFilter reads: a binding or a metric, by name.
/// The symbol is interned at construction, so the engines resolve the
/// table column without a string lookup.
struct FilterRead {
  enum class Source : std::uint8_t { kBinding, kMetric };
  Source source = Source::kBinding;
  std::string name;
  support::Symbol symbol = support::kNoSymbol;

  static FilterRead binding(std::string name);
  static FilterRead metric(std::string name);
};

/// What a CoreFilter sees of one core: the properties its registration
/// declares, and nothing else — no name, no other bindings, no views.
/// Reading an undeclared property throws DefinitionError, so a filter's
/// verdict provably depends only on its declared reads and the session
/// bindings; that is what lets the columnar engine share one verdict
/// among all rows with equal declared values.
class FilterView {
 public:
  FilterView(const Core& core, const std::vector<FilterRead>& reads)
      : core_(&core), reads_(&reads) {}

  /// The core's value of declared binding `name`; nullptr if unbound.
  const Value* binding(std::string_view name) const;
  /// The core's value of declared metric `name`; nullopt if unset.
  std::optional<double> metric(std::string_view name) const;

 private:
  support::Symbol declared(FilterRead::Source source, std::string_view name) const;

  const Core* core_;
  const std::vector<FilterRead>* reads_;
};

/// Compliance filter for one requirement, registered by domain layers
/// for rules too rich for the declarative Compliance enum (e.g. "latency
/// of a composed multiplier at the required EOL"): `accepts` decides
/// whether a core satisfies the requirement given the session bindings,
/// seeing the core only through a FilterView over `reads`. It must be a
/// pure function of those two inputs: the columnar engine calls it once
/// per distinct key of the declared reads rather than once per core.
struct CoreFilter {
  std::vector<FilterRead> reads;
  std::function<bool(const FilterView&, const Bindings&)> accepts;
};

/// One column payload: either owned (a vector, the build path) or aliasing
/// an external read-only buffer (an mmapped snapshot — the table's
/// keepalive pins the mapping). The subset of the vector interface the
/// engine uses; mutation is only valid on owned payloads, which is all the
/// build/degrade paths ever touch.
template <typename T>
class ColumnData {
 public:
  ColumnData() = default;
  ColumnData(ColumnData&& other) noexcept { *this = std::move(other); }
  ColumnData& operator=(ColumnData&& other) noexcept {
    if (this == &other) return *this;
    owned_ = std::move(other.owned_);
    size_ = other.size_;
    aliased_ = other.aliased_;
    data_ = aliased_ ? other.data_ : owned_.data();
    other.data_ = nullptr;
    other.size_ = 0;
    other.aliased_ = false;
    return *this;
  }
  /// Adopts an owned vector (degrade path).
  ColumnData& operator=(std::vector<T>&& v) {
    owned_ = std::move(v);
    data_ = owned_.data();
    size_ = owned_.size();
    aliased_ = false;
    return *this;
  }

  void assign(std::size_t n, const T& value) {
    owned_.assign(n, value);
    data_ = owned_.data();
    size_ = n;
    aliased_ = false;
  }
  /// Points at `n` external elements; the owner must outlive this table
  /// (CoreTable's keepalive).
  void alias(const T* external, std::size_t n) {
    owned_.clear();
    owned_.shrink_to_fit();
    data_ = const_cast<T*>(external);
    size_ = n;
    aliased_ = true;
  }
  void clear() {
    owned_.clear();
    owned_.shrink_to_fit();
    data_ = nullptr;
    size_ = 0;
    aliased_ = false;
  }

  const T* data() const { return data_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  std::size_t size() const { return size_; }
  /// Heap bytes held (0 when aliasing a file-backed buffer) — what
  /// memory_bytes() sums.
  std::size_t resident_bytes() const {
    return aliased_ ? 0 : owned_.capacity() * sizeof(T);
  }

 private:
  T* data_ = nullptr;
  std::size_t size_ = 0;
  bool aliased_ = false;
  std::vector<T> owned_;
};

class CoreTable {
 public:
  enum class ColumnKind : std::uint8_t {
    kNumber,  ///< every present value is a number -> raw doubles
    kText,    ///< every present value is text -> interned symbols
    kMixed,   ///< heterogeneous (or flag) -> boxed Values
  };

  struct Column {
    support::Symbol symbol = support::kNoSymbol;
    ColumnKind kind = ColumnKind::kNumber;
    ColumnData<std::uint64_t> present;       ///< presence bitmap, 64 rows/word
    ColumnData<double> numbers;              ///< kNumber payload (padded to words*64)
    ColumnData<support::Symbol> texts;       ///< kText payload (padded to words*64)
    std::vector<Value> values;               ///< kMixed payload (always owned)

    bool has(std::size_t row) const {
      return (present[row >> 6] >> (row & 63)) & 1u;
    }
  };

  /// Builds the columns of `cores`, one row per core in order (the
  /// candidates() output order). References `cores`, which must outlive
  /// the table. Text values are interned as they are stored. Column
  /// payloads are fully sized up front from the core count (padded to
  /// whole 64-row words for the SIMD kernels).
  explicit CoreTable(std::span<const Core* const> cores);

  /// Bulk-restore for snapshot load (src/storage/snapshot.cpp): adopts
  /// pre-built columns whose payloads may alias an external buffer pinned
  /// by `keepalive` (the mmapped snapshot). Rebuilds the symbol indexes;
  /// row/column semantics are the caller's responsibility — the snapshot
  /// format stores columns exactly as the building constructor lays them
  /// out.
  CoreTable(std::span<const Core* const> cores, std::vector<Column> binding_columns,
            std::vector<Column> metric_columns, std::shared_ptr<const void> keepalive);

  std::size_t rows() const { return cores_.size(); }
  std::span<const Core* const> cores() const { return cores_; }

  /// Binding / metric column for a symbol; nullptr if no indexed core
  /// binds it. References are stable for the table's lifetime. Lookup is
  /// a binary search over a sorted flat vector (symbols are dense u32).
  const Column* binding_column(support::Symbol symbol) const;
  const Column* metric_column(support::Symbol symbol) const;

  /// Column directories in slot order — the snapshot writer walks these.
  const std::vector<Column>& binding_columns() const { return binding_columns_; }
  const std::vector<Column>& metric_columns() const { return metric_columns_; }

  /// Approximate resident bytes of the table (payloads + bitmaps +
  /// indexes; the row array belongs to the layer). Deterministic for a
  /// given library, which is what lets the bench gate bytes_per_core like
  /// a counter.
  std::size_t memory_bytes() const;

 private:
  /// Sorted (symbol, column slot) pairs — the flat replacement for the
  /// former std::map indexes.
  using SymbolIndex = std::vector<std::pair<support::Symbol, std::uint32_t>>;

  Column& column_for(SymbolIndex& index, std::vector<Column>& columns, support::Symbol symbol,
                     ColumnKind kind);
  static const Column* lookup(const SymbolIndex& index, const std::vector<Column>& columns,
                              support::Symbol symbol);
  void store(Column& column, std::size_t row, const Value& value);
  void degrade_to_mixed(Column& column);

  std::span<const Core* const> cores_;
  std::size_t words_ = 0;
  std::size_t padded_rows_ = 0;  ///< words_ * 64
  std::vector<Column> binding_columns_;
  std::vector<Column> metric_columns_;
  SymbolIndex binding_index_;
  SymbolIndex metric_index_;
  std::shared_ptr<const void> keepalive_;  ///< pins aliased payload backing
};

/// One predicate constraint lowered against a plan's rows. `compiled` is
/// false for opaque lambda predicates (evaluated row-wise instead).
struct CompiledPredicate {
  /// A property reference or constant inside an atom, resolved against
  /// the plan: `column` is the binding column if it has a present row in
  /// the plan's range (else null: the term falls back to the session
  /// value); the constant payload covers literals (session fallbacks are
  /// resolved per query, not here).
  struct Term {
    support::Symbol symbol = support::kNoSymbol;  ///< kNoSymbol => pure constant
    const CoreTable::Column* column = nullptr;
    Value::Kind const_kind = Value::Kind::kEmpty;
    double number = 0.0;
    support::Symbol text = support::kNoSymbol;
    bool flag = false;
  };

  /// One atom: lhs [* factor] <cmp> rhs.
  struct Op {
    PredicateAtom::Cmp cmp = PredicateAtom::Cmp::kEq;
    Term lhs;
    Term factor;  ///< engaged iff has_factor
    Term rhs;
    bool has_factor = false;
  };

  const ConsistencyConstraint* constraint = nullptr;
  bool compiled = false;
  std::vector<Term> references;  ///< every referenced property (dedup'd)
  std::vector<Op> ops;
};

/// Everything candidates() needs for one CDO: the rows [begin, end) of
/// the layer's table that are cores_under(cdo), plus one
/// CompiledPredicate per ConstraintIndex predicate (same order). Compiled
/// once per constraint set; the table is shared by every plan.
struct CoreFilterPlan {
  const CoreTable& table;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::vector<CompiledPredicate> predicates;

  CoreFilterPlan(const CoreTable& table, std::size_t begin, std::size_t end,
                 const std::vector<const ConsistencyConstraint*>& predicate_constraints);

  std::size_t rows() const { return end - begin; }
};

/// The session side of a columnar filter run: the decided design issues,
/// the declarative / custom requirements, and the bindings snapshot that
/// backfills properties no core column answers.
struct FilterQuery {
  struct Equality {
    support::Symbol symbol = support::kNoSymbol;  ///< kNoSymbol: name never interned
    Value value;
  };
  struct MetricBound {
    support::Symbol symbol = support::kNoSymbol;
    bool at_most = false;  ///< kCoreAtMost; else kCoreAtLeast
    double bound = 0.0;
  };
  const Bindings* bound = nullptr;       ///< session bindings snapshot
  std::vector<Equality> decided;         ///< step 1: core-filtering decisions
  std::vector<Equality> require_equal;   ///< step 2: kCoreEquals requirements
  std::vector<MetricBound> require_metric;  ///< step 2: kCoreAtMost/AtLeast
  std::vector<const CoreFilter*> custom;    ///< step 2: registered filters
};

/// Runs the filter; returns surviving cores in table row order (the
/// legacy scan order). Counts kComplianceCheck once per row and
/// kConstraintEvaluated per (row, predicate) actually reached, exactly
/// like the legacy loop. Each custom filter is called once per distinct
/// key of its declared columns among the alive rows, in order of each
/// key's first alive row (so a throwing filter throws at the same row
/// as a per-row scan would); kFilterCall counts the calls.
std::vector<const Core*> run_core_filter(const CoreFilterPlan& plan, const FilterQuery& query,
                                         telemetry::Telemetry& telemetry);

/// Row count at and above which run_core_filter fans predicate sweeps
/// out over support::ChunkPool::shared(). Settable for tests/benches.
std::size_t columnar_parallel_threshold();
void set_columnar_parallel_threshold(std::size_t rows);

/// Applies one core's bindings on top of a session snapshot and undoes
/// them on revert() — the allocation-free replacement for the legacy
/// per-core `Bindings merged = bound` rebuild. apply() returns the
/// number of map writes performed (the kOverlayWrite telemetry count).
class BindingsOverlay {
 public:
  explicit BindingsOverlay(Bindings& base) : base_(&base) {}

  std::size_t apply(const Core& core);
  void revert();

 private:
  struct Undo {
    const std::string* key = nullptr;
    Value previous;  ///< empty => key was absent, revert erases it
  };
  Bindings* base_;
  std::vector<Undo> undo_;
};

}  // namespace dslayer::dsl
