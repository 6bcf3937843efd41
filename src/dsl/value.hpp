// Property values and value domains.
//
// Every property in the design space layer — a requirement like
// "EffectiveOperandLength = 768", a design decision like
// "Algorithm = Montgomery" — carries a value drawn from the property's
// SetOfValues (the paper's term, Fig. 8/11): an enumerated option list, a
// real range, or a predicate-constrained integer set such as
// "{2^i : i in Z+}" (Req1) or "{i in Z+ : EOL mod i = 0}" (Number of
// Slices; the EOL-dependence of that domain is enforced by a consistency
// constraint, since domains themselves are context-free).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

namespace dslayer::dsl {

/// A property value: a number, an option/text, or a flag.
class Value {
 public:
  enum class Kind { kEmpty, kNumber, kText, kFlag };

  /// Empty (unset) value.
  Value() = default;

  static Value number(double v) { return Value(v); }
  static Value text(std::string v) { return Value(std::move(v)); }
  static Value flag(bool v) { return Value(v); }

  Kind kind() const { return static_cast<Kind>(data_.index()); }
  bool empty() const { return kind() == Kind::kEmpty; }

  /// Accessors throw PreconditionError on kind mismatch.
  double as_number() const;
  const std::string& as_text() const;
  bool as_flag() const;

  /// Readable rendering ("768", "Montgomery", "true", "<empty>").
  std::string to_string() const;

  friend bool operator==(const Value& a, const Value& b) = default;

 private:
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  explicit Value(bool v) : data_(v) {}

  std::variant<std::monostate, double, std::string, bool> data_;
};

/// The set of values a property may take.
class ValueDomain {
 public:
  enum class Kind { kAny, kOptions, kRealRange, kIntegerSet, kFlag };

  /// Unconstrained.
  static ValueDomain any();

  /// Enumerated options (design-issue option lists).
  static ValueDomain options(std::vector<std::string> options);

  /// Real interval [lo, hi]; use infinities for open ends.
  static ValueDomain real_range(double lo, double hi);

  /// Integers satisfying a predicate; `description` renders the set, e.g.
  /// "{ 2^i | i in Z+ }".
  static ValueDomain integer_set(std::function<bool(std::int64_t)> predicate,
                                 std::string description);

  /// Convenience: all positive integers.
  static ValueDomain positive_integers();

  /// Convenience: positive integers up to `max` (a modelled maximum, so
  /// downstream models never see values they cannot represent).
  static ValueDomain positive_integers(std::int64_t max);

  /// Convenience: positive powers of two (Req1's { 2^i }).
  static ValueDomain powers_of_two();

  /// Boolean.
  static ValueDomain flags();

  Kind kind() const { return kind_; }

  /// True if the value is a member of this domain.
  bool contains(const Value& v) const;

  /// Option list; throws PreconditionError unless kind() == kOptions.
  const std::vector<std::string>& option_list() const;

  /// Bounds of a real-range domain; throw unless kind() == kRealRange.
  double real_lo() const;
  double real_hi() const;

  /// The bound of a positive_integers(max) domain; 0 for any other.
  std::int64_t integer_max() const { return int_max_; }

  /// True if `option` is one of the enumerated options (case-sensitive).
  bool has_option(const std::string& option) const;

  /// Renders the SetOfValues for the self-documented layer, e.g.
  /// "{Hardware, Software}" or "[0, 8] R+".
  std::string describe() const;

 private:
  ValueDomain() = default;

  Kind kind_ = Kind::kAny;
  std::vector<std::string> options_;
  double lo_ = 0.0;
  double hi_ = 0.0;
  std::function<bool(std::int64_t)> predicate_;
  std::string description_;
  std::int64_t int_max_ = 0;
};

}  // namespace dslayer::dsl
