#include "dsl/core_table.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <new>
#include <type_traits>

#include "support/arena.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/parallel.hpp"
#include "support/simd.hpp"
#include "support/strings.hpp"
#include "support/telemetry.hpp"
#include "support/trace.hpp"

namespace dslayer::dsl {

namespace simd = support::simd;

// The word kernels take the comparison opcode by value; keep the two
// enums numerically interchangeable so lowering is a static_cast.
static_assert(static_cast<int>(simd::Cmp::kEq) == static_cast<int>(PredicateAtom::Cmp::kEq) &&
              static_cast<int>(simd::Cmp::kNe) == static_cast<int>(PredicateAtom::Cmp::kNe) &&
              static_cast<int>(simd::Cmp::kLt) == static_cast<int>(PredicateAtom::Cmp::kLt) &&
              static_cast<int>(simd::Cmp::kLe) == static_cast<int>(PredicateAtom::Cmp::kLe) &&
              static_cast<int>(simd::Cmp::kGt) == static_cast<int>(PredicateAtom::Cmp::kGt) &&
              static_cast<int>(simd::Cmp::kGe) == static_cast<int>(PredicateAtom::Cmp::kGe));
static_assert(std::is_same_v<support::Symbol, std::uint32_t>,
              "eq_sym kernels read text columns as raw u32 streams");

namespace {

std::atomic<std::size_t> g_parallel_threshold{4096};

constexpr std::size_t kWordsPerChunk = 32;  // 2048 rows per parallel chunk

simd::Cmp to_simd(PredicateAtom::Cmp cmp) { return static_cast<simd::Cmp>(cmp); }

std::size_t popcount(const std::uint64_t* mask, std::size_t words) {
  std::size_t n = 0;
  for (std::size_t w = 0; w < words; ++w) n += static_cast<std::size_t>(std::popcount(mask[w]));
  return n;
}

void mark(ColumnData<std::uint64_t>& bits, std::size_t row) {
  bits[row >> 6] |= (std::uint64_t{1} << (row & 63));
}

/// The bits of table word `word` whose rows lie in [begin, end); the word
/// must overlap the range.
std::uint64_t range_bits(std::size_t word, std::size_t begin, std::size_t end) {
  const std::size_t lo = word << 6;
  std::uint64_t bits = ~std::uint64_t{0};
  if (begin > lo) bits &= bits << (begin - lo);
  if (end < lo + 64) bits &= ~std::uint64_t{0} >> (lo + 64 - end);
  return bits;
}

/// Whether any row in [begin, end) carries a value in `column`.
bool present_in(const CoreTable::Column& column, std::size_t begin, std::size_t end) {
  for (std::size_t w = begin >> 6; begin < end && w <= (end - 1) >> 6; ++w) {
    if ((column.present[w] & range_bits(w, begin, end)) != 0) return true;
  }
  return false;
}

}  // namespace

std::size_t columnar_parallel_threshold() {
  return g_parallel_threshold.load(std::memory_order_relaxed);
}

void set_columnar_parallel_threshold(std::size_t rows) {
  g_parallel_threshold.store(rows, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// CoreTable

CoreTable::CoreTable(std::span<const Core* const> cores) : cores_(cores) {
  words_ = (cores_.size() + 63) / 64;
  padded_rows_ = words_ * 64;
  if (!cores_.empty()) {
    // Reserve the column directories from the first core's shape (the
    // synthetic and real libraries are near-rectangular); growth past the
    // reservation is still correct, just a reallocation.
    const std::size_t binding_guess = cores_.front()->bindings().size() + 8;
    const std::size_t metric_guess = cores_.front()->metrics().size() + 8;
    binding_columns_.reserve(binding_guess);
    binding_index_.reserve(binding_guess);
    metric_columns_.reserve(metric_guess);
    metric_index_.reserve(metric_guess);
  }
  for (std::size_t row = 0; row < cores_.size(); ++row) {
    for (const CoreBinding& b : cores_[row]->bindings()) {
      const ColumnKind kind = b.value.kind() == Value::Kind::kNumber ? ColumnKind::kNumber
                              : b.value.kind() == Value::Kind::kText ? ColumnKind::kText
                                                                     : ColumnKind::kMixed;
      store(column_for(binding_index_, binding_columns_, b.symbol, kind), row, b.value);
    }
    for (const CoreMetric& m : cores_[row]->metrics()) {
      Column& column =
          column_for(metric_index_, metric_columns_, m.symbol, ColumnKind::kNumber);
      column.numbers[row] = m.value;
      mark(column.present, row);
    }
  }
}

CoreTable::CoreTable(std::span<const Core* const> cores, std::vector<Column> binding_columns,
                     std::vector<Column> metric_columns, std::shared_ptr<const void> keepalive)
    : cores_(cores),
      binding_columns_(std::move(binding_columns)),
      metric_columns_(std::move(metric_columns)),
      keepalive_(std::move(keepalive)) {
  words_ = (cores_.size() + 63) / 64;
  padded_rows_ = words_ * 64;
  const auto rebuild_index = [](SymbolIndex& index, const std::vector<Column>& columns) {
    index.clear();
    index.reserve(columns.size());
    for (std::uint32_t slot = 0; slot < columns.size(); ++slot) {
      index.emplace_back(columns[slot].symbol, slot);
    }
    std::sort(index.begin(), index.end());
  };
  rebuild_index(binding_index_, binding_columns_);
  rebuild_index(metric_index_, metric_columns_);
}

CoreTable::Column& CoreTable::column_for(SymbolIndex& index, std::vector<Column>& columns,
                                         support::Symbol symbol, ColumnKind kind) {
  const auto it = std::lower_bound(
      index.begin(), index.end(), symbol,
      [](const SymbolIndex::value_type& entry, support::Symbol s) { return entry.first < s; });
  if (it != index.end() && it->first == symbol) {
    Column& column = columns[it->second];
    if (column.kind != kind && column.kind != ColumnKind::kMixed) degrade_to_mixed(column);
    return column;
  }
  index.insert(it, {symbol, static_cast<std::uint32_t>(columns.size())});
  Column& column = columns.emplace_back();
  column.symbol = symbol;
  column.kind = kind;
  column.present.assign(words_, 0);
  // Payloads cover the padded row range so the word kernels can read a
  // whole 64-lane block without a tail branch.
  switch (kind) {
    case ColumnKind::kNumber: column.numbers.assign(padded_rows_, 0.0); break;
    case ColumnKind::kText: column.texts.assign(padded_rows_, support::kNoSymbol); break;
    case ColumnKind::kMixed:
      column.values.assign(padded_rows_, Value{});
      column.texts.assign(padded_rows_, support::kNoSymbol);
      break;
  }
  return column;
}

void CoreTable::degrade_to_mixed(Column& column) {
  std::vector<Value> values(padded_rows_);
  std::vector<support::Symbol> texts(padded_rows_, support::kNoSymbol);
  for (std::size_t row = 0; row < cores_.size(); ++row) {
    if (!column.has(row)) continue;
    if (column.kind == ColumnKind::kNumber) {
      values[row] = Value::number(column.numbers[row]);
    } else {
      values[row] = Value::text(support::symbol_name(column.texts[row]));
      texts[row] = column.texts[row];
    }
  }
  column.kind = ColumnKind::kMixed;
  column.numbers.clear();
  column.values = std::move(values);
  column.texts = std::move(texts);
}

void CoreTable::store(Column& column, std::size_t row, const Value& value) {
  switch (column.kind) {
    case ColumnKind::kNumber:
      column.numbers[row] = value.as_number();
      break;
    case ColumnKind::kText:
      column.texts[row] = support::intern_symbol(value.as_text());
      break;
    case ColumnKind::kMixed:
      column.values[row] = value;
      column.texts[row] = value.kind() == Value::Kind::kText
                              ? support::intern_symbol(value.as_text())
                              : support::kNoSymbol;
      break;
  }
  mark(column.present, row);
}

const CoreTable::Column* CoreTable::lookup(const SymbolIndex& index,
                                           const std::vector<Column>& columns,
                                           support::Symbol symbol) {
  const auto it = std::lower_bound(
      index.begin(), index.end(), symbol,
      [](const SymbolIndex::value_type& entry, support::Symbol s) { return entry.first < s; });
  return it != index.end() && it->first == symbol ? &columns[it->second] : nullptr;
}

const CoreTable::Column* CoreTable::binding_column(support::Symbol symbol) const {
  return lookup(binding_index_, binding_columns_, symbol);
}

const CoreTable::Column* CoreTable::metric_column(support::Symbol symbol) const {
  return lookup(metric_index_, metric_columns_, symbol);
}

std::size_t CoreTable::memory_bytes() const {
  const auto column_bytes = [](const Column& column) {
    return sizeof(Column) + column.present.resident_bytes() + column.numbers.resident_bytes() +
           column.texts.resident_bytes() + column.values.capacity() * sizeof(Value);
  };
  std::size_t total = sizeof(CoreTable);
  total += binding_index_.capacity() * sizeof(SymbolIndex::value_type);
  total += metric_index_.capacity() * sizeof(SymbolIndex::value_type);
  for (const Column& column : binding_columns_) total += column_bytes(column);
  for (const Column& column : metric_columns_) total += column_bytes(column);
  return total;
}

// ---------------------------------------------------------------------------
// CoreFilterPlan

CoreFilterPlan::CoreFilterPlan(
    const CoreTable& table, std::size_t begin, std::size_t end,
    const std::vector<const ConsistencyConstraint*>& predicate_constraints)
    : table(table), begin(begin), end(end) {
  // A column no row of the range carries counts as absent for this plan,
  // so its terms fall back to the session value and keep their kernel
  // mode.
  const auto column_of = [&](support::Symbol symbol) -> const CoreTable::Column* {
    const CoreTable::Column* column = table.binding_column(symbol);
    return column != nullptr && present_in(*column, begin, end) ? column : nullptr;
  };
  const auto property_term = [&](const std::string& name) {
    CompiledPredicate::Term term;
    term.symbol = support::intern_symbol(name);
    term.column = column_of(term.symbol);
    return term;
  };

  predicates.reserve(predicate_constraints.size());
  for (const ConsistencyConstraint* cc : predicate_constraints) {
    CompiledPredicate predicate;
    predicate.constraint = cc;
    const auto add_reference = [&](support::Symbol symbol) {
      for (const CompiledPredicate::Term& term : predicate.references) {
        if (term.symbol == symbol) return;
      }
      CompiledPredicate::Term term;
      term.symbol = symbol;
      term.column = column_of(symbol);
      predicate.references.push_back(term);
    };
    for (const PropertyPath& path : cc->independent()) add_reference(path.property_symbol());
    for (const PropertyPath& path : cc->dependent()) add_reference(path.property_symbol());

    if (cc->compilable()) {
      predicate.compiled = true;
      for (const PredicateAtom& atom : cc->atoms()) {
        CompiledPredicate::Op op;
        op.cmp = atom.cmp;
        op.lhs = property_term(atom.lhs);
        if (!atom.lhs_factor.empty()) {
          op.factor = property_term(atom.lhs_factor);
          op.has_factor = true;
        }
        if (!atom.rhs_property.empty()) {
          op.rhs = property_term(atom.rhs_property);
        } else {
          CompiledPredicate::Term term;  // pure constant
          term.const_kind = atom.rhs_const.kind();
          switch (atom.rhs_const.kind()) {
            case Value::Kind::kNumber: term.number = atom.rhs_const.as_number(); break;
            case Value::Kind::kText:
              term.text = support::intern_symbol(atom.rhs_const.as_text());
              break;
            case Value::Kind::kFlag: term.flag = atom.rhs_const.as_flag(); break;
            case Value::Kind::kEmpty: break;
          }
          op.rhs = term;
        }
        predicate.ops.push_back(std::move(op));
      }
    }
    predicates.push_back(std::move(predicate));
  }
}

// ---------------------------------------------------------------------------
// FilterRead / FilterView

FilterRead FilterRead::binding(std::string name) {
  FilterRead read;
  read.source = Source::kBinding;
  read.symbol = support::intern_symbol(name);
  read.name = std::move(name);
  return read;
}

FilterRead FilterRead::metric(std::string name) {
  FilterRead read = binding(std::move(name));
  read.source = Source::kMetric;
  return read;
}

support::Symbol FilterView::declared(FilterRead::Source source, std::string_view name) const {
  for (const FilterRead& read : *reads_) {
    if (read.source == source && read.name == name) return read.symbol;
  }
  throw DefinitionError(cat("core filter reads undeclared ",
                            source == FilterRead::Source::kBinding ? "binding" : "metric", " '",
                            name, "'"));
}

const Value* FilterView::binding(std::string_view name) const {
  return core_->binding(declared(FilterRead::Source::kBinding, name));
}

std::optional<double> FilterView::metric(std::string_view name) const {
  const support::Symbol symbol = declared(FilterRead::Source::kMetric, name);
  for (const CoreMetric& m : core_->metrics()) {
    if (m.symbol == symbol) return m.value;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// BindingsOverlay

std::size_t BindingsOverlay::apply(const Core& core) {
  std::size_t writes = 0;
  undo_.clear();
  for (const CoreBinding& b : core.bindings()) {
    const auto [it, inserted] = base_->try_emplace(*b.name, b.value);
    Undo undo;
    undo.key = b.name;
    if (!inserted) {
      if (it->second == b.value) continue;  // overlay is a no-op for this key
      undo.previous = it->second;
      it->second = b.value;
    }
    undo_.push_back(std::move(undo));
    ++writes;
  }
  return writes;
}

void BindingsOverlay::revert() {
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    if (it->previous.empty()) {
      base_->erase(*it->key);
    } else {
      (*base_)[*it->key] = std::move(it->previous);
    }
  }
  undo_.clear();
}

// ---------------------------------------------------------------------------
// run_core_filter

namespace {

using Column = CoreTable::Column;
using ColumnKind = CoreTable::ColumnKind;

/// A fetched scalar: what one term yields for one row.
struct Cell {
  Value::Kind kind = Value::Kind::kEmpty;
  double number = 0.0;
  support::Symbol text = support::kNoSymbol;  // always interned when kind==kText
  bool flag = false;
};

Cell cell_of_value(const Value& value) {
  Cell cell;
  cell.kind = value.kind();
  switch (value.kind()) {
    case Value::Kind::kNumber: cell.number = value.as_number(); break;
    case Value::Kind::kText: cell.text = support::intern_symbol(value.as_text()); break;
    case Value::Kind::kFlag: cell.flag = value.as_flag(); break;
    case Value::Kind::kEmpty: break;
  }
  return cell;
}

/// A term bound to this query: the table column (if any) plus the
/// constant the row falls back to (atom literal or session binding).
struct ResolvedTerm {
  const Column* column = nullptr;
  Cell fallback;
};

ResolvedTerm resolve_term(const CompiledPredicate::Term& term, const Bindings& bound) {
  ResolvedTerm resolved;
  if (term.symbol == support::kNoSymbol) {  // atom constant
    resolved.fallback.kind = term.const_kind;
    resolved.fallback.number = term.number;
    resolved.fallback.text = term.text;
    resolved.fallback.flag = term.flag;
    return resolved;
  }
  resolved.column = term.column;
  const auto it = bound.find(support::symbol_name(term.symbol));
  if (it != bound.end()) resolved.fallback = cell_of_value(it->second);
  return resolved;
}

Cell fetch(const ResolvedTerm& term, std::size_t row) {
  if (term.column != nullptr && term.column->has(row)) {
    Cell cell;
    switch (term.column->kind) {
      case ColumnKind::kNumber:
        cell.kind = Value::Kind::kNumber;
        cell.number = term.column->numbers[row];
        break;
      case ColumnKind::kText:
        cell.kind = Value::Kind::kText;
        cell.text = term.column->texts[row];
        break;
      case ColumnKind::kMixed: {
        const Value& value = term.column->values[row];
        cell.kind = value.kind();
        if (value.kind() == Value::Kind::kNumber) cell.number = value.as_number();
        if (value.kind() == Value::Kind::kText) cell.text = term.column->texts[row];
        if (value.kind() == Value::Kind::kFlag) cell.flag = value.as_flag();
        break;
      }
    }
    return cell;
  }
  return term.fallback;
}

/// Mirrors PredicateAtom::holds() over fetched cells.
bool cells_hold(const Cell& lhs, PredicateAtom::Cmp cmp, const Cell& rhs) {
  if (lhs.kind == Value::Kind::kNumber && rhs.kind == Value::Kind::kNumber) {
    return compare_numbers(lhs.number, cmp, rhs.number);
  }
  if (lhs.kind == Value::Kind::kText && rhs.kind == Value::Kind::kText) {
    if (cmp == PredicateAtom::Cmp::kEq) return lhs.text == rhs.text;
    if (cmp == PredicateAtom::Cmp::kNe) return lhs.text != rhs.text;
    return false;
  }
  if (lhs.kind == Value::Kind::kFlag && rhs.kind == Value::Kind::kFlag) {
    if (cmp == PredicateAtom::Cmp::kEq) return lhs.flag == rhs.flag;
    if (cmp == PredicateAtom::Cmp::kNe) return lhs.flag != rhs.flag;
    return false;
  }
  return false;
}

/// How one resolved op is evaluated per 64-row word.
enum class OpMode : std::uint8_t {
  kNum,     ///< cmp_num word kernel + scalar patch of column-absent rows
  kSym,     ///< eq_sym word kernel + scalar patch of column-absent rows
  kScalar,  ///< row-wise fetch/cells_hold for every row
};

struct ResolvedOp {
  PredicateAtom::Cmp cmp = PredicateAtom::Cmp::kEq;
  ResolvedTerm lhs;
  ResolvedTerm factor;
  ResolvedTerm rhs;
  bool has_factor = false;

  OpMode mode = OpMode::kScalar;
  // kNum operand streams (col pointers are the full padded payload;
  // callers add the word offset).
  simd::Lane lhs_lane;
  simd::Lane factor_lane;
  simd::Lane rhs_lane;
  // kSym operand streams.
  const std::uint32_t* sym_lhs = nullptr;
  const std::uint32_t* sym_rhs = nullptr;
  std::uint32_t sym_const = support::kNoSymbol;
  bool sym_negate = false;
  // Presence bitmaps of every column-backed operand: rows with any bit
  // clear fall back to session/constant values and are re-evaluated
  // through the scalar interpreter.
  const std::uint64_t* patch_present[3] = {nullptr, nullptr, nullptr};
  int patch_count = 0;
};

simd::Lane lane_at(const simd::Lane& lane, std::size_t word) {
  return lane.col != nullptr ? simd::Lane{lane.col + (word << 6), lane.broadcast} : lane;
}

/// Scalar (legacy-exact) evaluation of one op for one row.
bool op_holds_row(const ResolvedOp& op, std::size_t row) {
  const Cell lhs = fetch(op.lhs, row);
  const Cell rhs = fetch(op.rhs, row);
  if (op.has_factor) {
    const Cell factor = fetch(op.factor, row);
    return lhs.kind == Value::Kind::kNumber && factor.kind == Value::Kind::kNumber &&
           rhs.kind == Value::Kind::kNumber &&
           compare_numbers(lhs.number * factor.number, op.cmp, rhs.number);
  }
  return cells_hold(lhs, op.cmp, rhs);
}

/// Picks the word-kernel mode for `op`. A numeric op vectorizes when
/// every operand is a kNumber column or a numeric constant; a text op
/// when it is an ==/!= over kText columns / text constants with at
/// least one column side. Everything else (mixed columns, flag or
/// cross-kind constants) stays scalar — correctness never depends on
/// the mode, only throughput does. Operand streams start at table word
/// `first_word`, the sweep's mask word 0.
void classify_op(ResolvedOp& op, std::size_t first_word) {
  const auto reset = [&] {
    op.patch_count = 0;
    op.lhs_lane = op.factor_lane = op.rhs_lane = simd::Lane{};
    op.sym_lhs = op.sym_rhs = nullptr;
  };

  const auto num_lane = [&](const ResolvedTerm& term, simd::Lane& lane) {
    if (term.column != nullptr) {
      if (term.column->kind != ColumnKind::kNumber) return false;
      lane.col = term.column->numbers.data() + (first_word << 6);
      op.patch_present[op.patch_count++] = term.column->present.data() + first_word;
      return true;
    }
    if (term.fallback.kind != Value::Kind::kNumber) return false;
    lane.broadcast = term.fallback.number;
    return true;
  };
  reset();
  if (num_lane(op.lhs, op.lhs_lane) && num_lane(op.rhs, op.rhs_lane) &&
      (!op.has_factor || num_lane(op.factor, op.factor_lane))) {
    op.mode = OpMode::kNum;
    return;
  }

  const auto sym_source = [&](const ResolvedTerm& term, const std::uint32_t*& col,
                              std::uint32_t& constant) {
    if (term.column != nullptr) {
      if (term.column->kind != ColumnKind::kText) return false;
      col = term.column->texts.data() + (first_word << 6);
      op.patch_present[op.patch_count++] = term.column->present.data() + first_word;
      return true;
    }
    if (term.fallback.kind != Value::Kind::kText) return false;
    constant = term.fallback.text;
    return true;
  };
  reset();
  if (!op.has_factor &&
      (op.cmp == PredicateAtom::Cmp::kEq || op.cmp == PredicateAtom::Cmp::kNe)) {
    const std::uint32_t* lhs_col = nullptr;
    const std::uint32_t* rhs_col = nullptr;
    std::uint32_t lhs_const = support::kNoSymbol;
    std::uint32_t rhs_const = support::kNoSymbol;
    if (sym_source(op.lhs, lhs_col, lhs_const) && sym_source(op.rhs, rhs_col, rhs_const) &&
        (lhs_col != nullptr || rhs_col != nullptr)) {
      if (lhs_col == nullptr) {  // constant vs column: ==/!= are symmetric
        lhs_col = rhs_col;
        rhs_col = nullptr;
        rhs_const = lhs_const;
      }
      op.mode = OpMode::kSym;
      op.sym_lhs = lhs_col;
      op.sym_rhs = rhs_col;
      op.sym_const = rhs_const;
      op.sym_negate = op.cmp == PredicateAtom::Cmp::kNe;
      return;
    }
  }
  reset();
  op.mode = OpMode::kScalar;
}

/// Runs `fn(word)` over every mask word, chunk-parallel when asked.
/// Chunks never share a word, so workers write disjoint memory.
template <typename WordFn>
void for_each_word(std::size_t words, bool parallel, const WordFn& fn) {
  if (!parallel || words <= kWordsPerChunk) {
    for (std::size_t w = 0; w < words; ++w) fn(w);
    return;
  }
  const std::size_t chunks = (words + kWordsPerChunk - 1) / kWordsPerChunk;
  support::ChunkPool::shared().for_each_chunk(chunks, [&](std::size_t chunk) {
    const std::size_t end = std::min(words, (chunk + 1) * kWordsPerChunk);
    for (std::size_t w = chunk * kWordsPerChunk; w < end; ++w) fn(w);
  });
}

/// Sweeps the set bits of `mask`, clearing rows `keep` rejects.
template <typename Keep>
void sweep_rows(std::uint64_t* mask, std::size_t words, bool parallel, const Keep& keep) {
  for_each_word(words, parallel, [&](std::size_t w) {
    std::uint64_t bits = mask[w];
    std::uint64_t cleared = 0;
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      if (!keep((w << 6) + static_cast<std::size_t>(bit))) {
        cleared |= (std::uint64_t{1} << bit);
      }
      bits &= bits - 1;
    }
    mask[w] &= ~cleared;
  });
}

/// One cell of a custom filter's key: the exact payload bits (double
/// bits, interned symbol, or flag; 0 when absent) and a tag (0 = absent,
/// else 1 + Value::Kind). Rows with equal cells in every declared column
/// show a filter identical values.
struct KeyCell {
  std::uint64_t bits = 0;
  std::uint64_t tag = 0;

  bool operator==(const KeyCell&) const = default;
};

/// Calls `fn(cell_of)`, where `cell_of(row)` is the row's KeyCell in
/// `column`, specialized for the column's kind so that loops over rows
/// compile to straight loads and masks.
template <typename Fn>
void with_cell_reader(const Column& column, const Fn& fn) {
  const auto tag = [](Value::Kind kind) { return static_cast<std::uint64_t>(kind) + 1; };
  switch (column.kind) {
    case ColumnKind::kNumber:
      return fn([&](std::size_t row) {
        const std::uint64_t present = (column.present[row >> 6] >> (row & 63)) & 1u;
        return KeyCell{std::bit_cast<std::uint64_t>(column.numbers[row]) & (0 - present),
                       present * tag(Value::Kind::kNumber)};
      });
    case ColumnKind::kText:
      return fn([&](std::size_t row) {
        const std::uint64_t present = (column.present[row >> 6] >> (row & 63)) & 1u;
        return KeyCell{std::uint64_t{column.texts[row]} & (0 - present),
                       present * tag(Value::Kind::kText)};
      });
    case ColumnKind::kMixed:
      return fn([&](std::size_t row) {
        if (!column.has(row)) return KeyCell{};
        const Value& value = column.values[row];
        switch (value.kind()) {
          case Value::Kind::kNumber:
            return KeyCell{std::bit_cast<std::uint64_t>(value.as_number()), tag(value.kind())};
          case Value::Kind::kText: return KeyCell{column.texts[row], tag(value.kind())};
          case Value::Kind::kFlag: return KeyCell{value.as_flag() ? 1u : 0u, tag(value.kind())};
          case Value::Kind::kEmpty: break;
        }
        return KeyCell{0, tag(value.kind())};
      });
  }
}

/// Folds one key cell into a row's key hash.
constexpr std::uint64_t kKeyHashSeed = 0x9e3779b97f4a7c15ull;

std::uint64_t key_hash(std::uint64_t h, KeyCell cell) {
  const std::uint64_t x = (h ^ cell.bits) * 0xff51afd7ed558ccdull + cell.tag;
  return x ^ (x >> 29);
}

/// Step 2c for one filter: calls it once per distinct key of its declared
/// columns among the alive rows, at the key's first alive row and in row
/// order (so a throwing filter throws where a per-row scan would), and
/// applies that verdict to the key's other rows. Rows are hashed
/// word-parallel, grouped by hash on this thread, and then compared with
/// their group's first row word-parallel: the hash proposes groups, the
/// comparison proves them. After a collision (two keys, one hash) the
/// filter runs on every alive row instead, which costs speed, never a
/// verdict. Calls stay on this thread: registered filters make no
/// thread-safety promise.
void apply_custom_filter(const CoreTable& table, std::size_t first_word, std::size_t words,
                         const CoreFilter& filter, const Bindings& bound, std::uint64_t* mask,
                         bool parallel, support::Arena& arena, telemetry::Telemetry& telemetry) {
  const std::size_t base = first_word << 6;
  DSLAYER_REQUIRE(words * 64 < std::numeric_limits<std::uint32_t>::max(),
                  "filter groups index rows as u32");
  // Declared columns some alive row carries; a property absent from every
  // alive row cannot tell rows apart.
  const Column** columns = arena.alloc_array<const Column*>(filter.reads.size());
  std::size_t column_count = 0;
  for (const FilterRead& read : filter.reads) {
    const Column* column = read.source == FilterRead::Source::kBinding
                               ? table.binding_column(read.symbol)
                               : table.metric_column(read.symbol);
    if (column == nullptr) continue;
    std::uint64_t any = 0;
    for (std::size_t w = 0; w < words && any == 0; ++w) {
      any = column->present[first_word + w] & mask[w];
    }
    if (any != 0) columns[column_count++] = column;
  }
  const auto for_each_alive = [&](const auto& fn) {
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
        fn(w, (w << 6) + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  };

  std::uint64_t* hash = arena.alloc_array<std::uint64_t>(words * 64);
  for_each_word(words, parallel, [&](std::size_t w) {
    if (mask[w] == 0) return;
    std::uint64_t* h = hash + (w << 6);
    std::fill(h, h + 64, kKeyHashSeed);
    for (std::size_t c = 0; c < column_count; c += 2) {  // two columns per pass
      with_cell_reader(*columns[c], [&](const auto& a) {
        with_cell_reader(*columns[c + 1 < column_count ? c + 1 : c], [&](const auto& b) {
          for (std::size_t bit = 0; bit < 64; ++bit) {
            const std::size_t row = base + (w << 6) + bit;
            h[bit] = key_hash(key_hash(h[bit], a(row)), b(row));
          }
        });
      });
    }
  });

  // Group by hash. Open addressing at load <= 1/2; a slot holds a hash
  // and its group + 1 (0 = empty).
  struct Slot {
    std::uint64_t hash;
    std::uint32_t group1;
  };
  const auto empty_slots = [&](std::size_t n) {
    Slot* slots = arena.alloc_array<Slot>(n);
    std::fill(slots, slots + n, Slot{0, 0});
    return slots;
  };
  const auto find = [](const Slot* slots, std::size_t n, std::uint64_t h) {
    std::size_t i = h & (n - 1);
    while (slots[i].group1 != 0 && slots[i].hash != h) i = (i + 1) & (n - 1);
    return i;
  };
  std::uint32_t* group = arena.alloc_array<std::uint32_t>(words * 64);
  std::uint32_t* first_row = arena.alloc_array<std::uint32_t>(popcount(mask, words));
  std::uint32_t groups = 0;
  std::size_t capacity = 64;
  Slot* slots = empty_slots(capacity);
  for_each_alive([&](std::size_t, std::size_t row) {
    const std::size_t i = find(slots, capacity, hash[row]);
    if (slots[i].group1 != 0) {
      group[row] = slots[i].group1 - 1;
      return;
    }
    first_row[groups] = static_cast<std::uint32_t>(row);
    group[row] = groups;
    slots[i] = Slot{hash[row], ++groups};
    if (std::size_t{groups} * 2 <= capacity) return;
    Slot* grown = empty_slots(capacity * 2);
    for (std::size_t j = 0; j < capacity; ++j) {
      if (slots[j].group1 != 0) grown[find(grown, capacity * 2, slots[j].hash)] = slots[j];
    }
    slots = grown;
    capacity *= 2;
  });

  std::atomic<bool> collided{false};
  for_each_word(words, parallel, [&](std::size_t w) {
    for (std::size_t c = 0; c < column_count; c += 2) {
      with_cell_reader(*columns[c], [&](const auto& a) {
        with_cell_reader(*columns[c + 1 < column_count ? c + 1 : c], [&](const auto& b) {
          for (std::uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
            const std::size_t row = (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
            const std::size_t first = base + first_row[group[row]];
            if (!(a(base + row) == a(first)) || !(b(base + row) == b(first))) {
              collided.store(true, std::memory_order_relaxed);
            }
          }
        });
      });
    }
  });

  // Verdict per group: 0 = not called yet, 1 = keep, 2 = reject.
  const bool per_row = collided.load(std::memory_order_relaxed);
  std::uint8_t* verdict = arena.alloc_array<std::uint8_t>(groups);
  std::fill(verdict, verdict + groups, std::uint8_t{0});
  for_each_alive([&](std::size_t w, std::size_t row) {
    std::uint8_t& v = verdict[group[row]];
    if (v == 0 || per_row) {
      telemetry.count(telemetry::EventKind::kFilterCall);
      v = filter.accepts(FilterView(*table.cores()[base + row], filter.reads), bound) ? 1 : 2;
    }
    if (v == 2) mask[w] &= ~(std::uint64_t{1} << (row & 63));
  });
}

}  // namespace

std::vector<const Core*> run_core_filter(const CoreFilterPlan& plan, const FilterQuery& query,
                                         telemetry::Telemetry& telemetry) {
  using telemetry::EventKind;
  // Chaos/deadline hook + the sweep's cancellation point (on the calling
  // thread — ChunkPool workers carry no request deadline).
  DSLAYER_FAILPOINT("dsl.candidates.sweep");
  support::cancellation_checkpoint();
  const CoreTable& table = plan.table;
  const std::size_t rows = plan.rows();
  telemetry.count(EventKind::kComplianceCheck, rows);
  // Sweep span for sampled request traces (one thread-local load when
  // untraced); nests under the executor's execute span.
  trace::SpanTimer sweep_span(trace::TraceScope::current(), trace::SpanKind::kSweep,
                              trace::TraceScope::current() != nullptr
                                  ? cat("columnar rows=", rows)
                                  : std::string{});
  if (rows == 0) return {};

  const simd::KernelOps& kops = simd::kernels();
  // The sweep covers the table words the plan's range touches: mask word
  // w is table word first_word + w, holding rows base + 64 * w onwards.
  const std::size_t first_word = plan.begin >> 6;
  const std::size_t words = ((plan.end - 1) >> 6) + 1 - first_word;
  const std::size_t base = first_word << 6;

  // All per-sweep scratch (survivor mask, resolved terms, filter key
  // tables) lives in this thread's bump arena and is released, not
  // freed, when the sweep returns — steady state touches no allocator.
  support::Arena& arena = support::Arena::scratch();
  support::ArenaScope scratch_scope(arena);

  // Every row of the range starts alive; the edge words are clipped to it.
  std::uint64_t* mask = arena.alloc_array<std::uint64_t>(words);
  for (std::size_t w = 0; w < words; ++w) {
    mask[w] = range_bits(first_word + w, plan.begin, plan.end);
  }

  const bool parallel = rows >= columnar_parallel_threshold();
  const auto clear_all = [&] { std::fill(mask, mask + words, 0); };

  // Steps 1 + 2a: decided design issues and kCoreEquals requirements are
  // the same kernel — the core must bind the property to exactly the
  // session's value. A missing column means no core can match.
  const auto apply_equality = [&](const FilterQuery::Equality& eq) {
    const Column* column =
        eq.symbol == support::kNoSymbol ? nullptr : table.binding_column(eq.symbol);
    if (column == nullptr) {
      clear_all();
      return;
    }
    switch (column->kind) {
      case ColumnKind::kNumber: {
        if (eq.value.kind() != Value::Kind::kNumber) {
          clear_all();
          return;
        }
        const simd::Lane wanted{nullptr, eq.value.as_number()};
        const double* numbers = column->numbers.data() + base;
        const std::uint64_t* present = column->present.data() + first_word;
        for_each_word(words, parallel, [&](std::size_t w) {
          mask[w] &= present[w] & kops.cmp_num(simd::Lane{numbers + (w << 6)}, simd::Lane{},
                                               false, simd::Cmp::kEq, wanted);
        });
        return;
      }
      case ColumnKind::kText: {
        if (eq.value.kind() != Value::Kind::kText) {
          clear_all();
          return;
        }
        const auto wanted = support::lookup_symbol(eq.value.as_text());
        if (!wanted.has_value()) {  // never interned => no column text can equal it
          clear_all();
          return;
        }
        const support::Symbol symbol = *wanted;
        const std::uint32_t* texts = column->texts.data() + base;
        const std::uint64_t* present = column->present.data() + first_word;
        for_each_word(words, parallel, [&](std::size_t w) {
          mask[w] &= present[w] & kops.eq_sym(texts + (w << 6), nullptr, symbol, false);
        });
        return;
      }
      case ColumnKind::kMixed:
        sweep_rows(mask, words, parallel, [&](std::size_t row) {
          return column->has(base + row) && column->values[base + row] == eq.value;
        });
        return;
    }
  };
  for (const FilterQuery::Equality& eq : query.decided) apply_equality(eq);
  for (const FilterQuery::Equality& eq : query.require_equal) apply_equality(eq);

  // Step 2b: metric bounds. Lowered as the NEGATED legacy rejection
  // compare (`metric > bound` for at-most), so NaN metrics are kept by
  // the word kernel exactly as the legacy operators kept them.
  for (const FilterQuery::MetricBound& bound : query.require_metric) {
    const Column* column =
        bound.symbol == support::kNoSymbol ? nullptr : table.metric_column(bound.symbol);
    if (column == nullptr) {
      clear_all();
      continue;
    }
    const simd::Cmp reject = bound.at_most ? simd::Cmp::kGt : simd::Cmp::kLt;
    const simd::Lane limit{nullptr, bound.bound};
    const double* numbers = column->numbers.data() + base;
    const std::uint64_t* present = column->present.data() + first_word;
    for_each_word(words, parallel, [&](std::size_t w) {
      mask[w] &= present[w] & ~kops.cmp_num(simd::Lane{numbers + (w << 6)}, simd::Lane{},
                                            false, reject, limit);
    });
  }

  // Step 2c: custom filters, each called once per distinct key of the
  // columns it declares.
  for (const CoreFilter* filter : query.custom) {
    apply_custom_filter(table, first_word, words, *filter, *query.bound, mask, parallel, arena,
                        telemetry);
  }

  // Step 3: predicate constraints in index order. Evaluating each over
  // the surviving mask reproduces the legacy per-core early exit — a row
  // killed by predicate i is never examined by predicate i+1 — so the
  // ConstraintEvaluated totals match the legacy loop exactly.
  Bindings merged;       // lazily initialized scratch for opaque predicates
  bool merged_ready = false;
  for (const CompiledPredicate& predicate : plan.predicates) {
    const std::size_t examined = popcount(mask, words);
    if (examined == 0) break;
    telemetry.count(EventKind::kConstraintEvaluated, examined);
    if (predicate.compiled) {
      predicate.constraint->note_bulk_evaluations(examined);
      // Resolve terms and pick word-kernel modes on the calling thread;
      // ChunkPool workers only read the resolved program.
      const std::size_t ref_count = predicate.references.size();
      ResolvedTerm* references = arena.alloc_array<ResolvedTerm>(ref_count);
      for (std::size_t i = 0; i < ref_count; ++i) {
        ::new (static_cast<void*>(references + i))
            ResolvedTerm(resolve_term(predicate.references[i], *query.bound));
      }
      const std::size_t op_count = predicate.ops.size();
      ResolvedOp* ops = arena.alloc_array<ResolvedOp>(op_count);
      for (std::size_t i = 0; i < op_count; ++i) {
        const CompiledPredicate::Op& op = predicate.ops[i];
        ResolvedOp* resolved = ::new (static_cast<void*>(ops + i)) ResolvedOp();
        resolved->cmp = op.cmp;
        resolved->lhs = resolve_term(op.lhs, *query.bound);
        if (op.has_factor) {
          resolved->factor = resolve_term(op.factor, *query.bound);
          resolved->has_factor = true;
        }
        resolved->rhs = resolve_term(op.rhs, *query.bound);
        classify_op(*resolved, first_word);
      }
      for_each_word(words, parallel, [&](std::size_t w) {
        const std::uint64_t alive = mask[w];
        if (alive == 0) return;
        // violated() evaluates nothing unless every referenced property
        // has a value (core column or session fallback); unevaluable
        // rows are kept.
        std::uint64_t evaluable = ~std::uint64_t{0};
        for (std::size_t i = 0; i < ref_count && evaluable != 0; ++i) {
          const ResolvedTerm& reference = references[i];
          std::uint64_t avail =
              reference.fallback.kind != Value::Kind::kEmpty ? ~std::uint64_t{0} : 0;
          if (reference.column != nullptr) avail |= reference.column->present[first_word + w];
          evaluable &= avail;
        }
        std::uint64_t viol = alive & evaluable;  // violated iff every atom holds
        for (std::size_t i = 0; i < op_count && viol != 0; ++i) {
          const ResolvedOp& op = ops[i];
          std::uint64_t holds = 0;
          std::uint64_t patch = 0;
          switch (op.mode) {
            case OpMode::kNum:
              holds = kops.cmp_num(lane_at(op.lhs_lane, w), lane_at(op.factor_lane, w),
                                   op.has_factor, to_simd(op.cmp), lane_at(op.rhs_lane, w));
              for (int p = 0; p < op.patch_count; ++p) patch |= ~op.patch_present[p][w];
              break;
            case OpMode::kSym:
              holds = kops.eq_sym(op.sym_lhs + (w << 6),
                                  op.sym_rhs != nullptr ? op.sym_rhs + (w << 6) : nullptr,
                                  op.sym_const, op.sym_negate);
              for (int p = 0; p < op.patch_count; ++p) patch |= ~op.patch_present[p][w];
              break;
            case OpMode::kScalar:
              patch = ~std::uint64_t{0};
              break;
          }
          // Rows the word kernel could not see faithfully (a column
          // value absent, falling back to a session binding; or a
          // scalar-only op) re-run the exact legacy evaluation.
          std::uint64_t bits = patch & viol;
          while (bits != 0) {
            const int bit = std::countr_zero(bits);
            const std::uint64_t one = std::uint64_t{1} << bit;
            if (op_holds_row(op, base + (w << 6) + static_cast<std::size_t>(bit))) {
              holds |= one;
            } else {
              holds &= ~one;
            }
            bits &= bits - 1;
          }
          viol &= holds;
        }
        mask[w] = alive & ~viol;
      });
    } else {
      // Opaque lambda: row-wise through the overlay (sequential — the
      // scratch map is shared across rows).
      if (!merged_ready) {
        merged = *query.bound;
        merged_ready = true;
      }
      BindingsOverlay overlay(merged);
      std::uint64_t overlay_writes = 0;
      sweep_rows(mask, words, false, [&](std::size_t row) {
        overlay_writes += overlay.apply(*table.cores()[base + row]);
        const bool keep = !predicate.constraint->violated(merged);
        overlay.revert();
        return keep;
      });
      telemetry.count(EventKind::kOverlayWrite, overlay_writes);
    }
  }

  std::vector<const Core*> survivors;
  survivors.reserve(popcount(mask, words));
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = mask[w];
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      survivors.push_back(table.cores()[base + (w << 6) + static_cast<std::size_t>(bit)]);
      bits &= bits - 1;
    }
  }
  return survivors;
}

}  // namespace dslayer::dsl
