#include "dsl/value.hpp"

#include <cmath>
#include <limits>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace dslayer::dsl {

double Value::as_number() const {
  const double* v = std::get_if<double>(&data_);
  if (v == nullptr) throw PreconditionError(cat("value '", to_string(), "' is not a number"));
  return *v;
}

const std::string& Value::as_text() const {
  const std::string* v = std::get_if<std::string>(&data_);
  if (v == nullptr) throw PreconditionError(cat("value '", to_string(), "' is not text"));
  return *v;
}

bool Value::as_flag() const {
  const bool* v = std::get_if<bool>(&data_);
  if (v == nullptr) throw PreconditionError(cat("value '", to_string(), "' is not a flag"));
  return *v;
}

std::string Value::to_string() const {
  switch (kind()) {
    case Kind::kEmpty: return "<empty>";
    case Kind::kNumber: return format_double(std::get<double>(data_), 10);
    case Kind::kText: return std::get<std::string>(data_);
    case Kind::kFlag: return std::get<bool>(data_) ? "true" : "false";
  }
  return "?";
}

ValueDomain ValueDomain::any() {
  ValueDomain d;
  d.kind_ = Kind::kAny;
  return d;
}

ValueDomain ValueDomain::options(std::vector<std::string> options) {
  DSLAYER_REQUIRE(!options.empty(), "an option domain needs at least one option");
  ValueDomain d;
  d.kind_ = Kind::kOptions;
  d.options_ = std::move(options);
  return d;
}

ValueDomain ValueDomain::real_range(double lo, double hi) {
  DSLAYER_REQUIRE(lo <= hi, "empty real range");
  ValueDomain d;
  d.kind_ = Kind::kRealRange;
  d.lo_ = lo;
  d.hi_ = hi;
  return d;
}

ValueDomain ValueDomain::integer_set(std::function<bool(std::int64_t)> predicate,
                                     std::string description) {
  DSLAYER_REQUIRE(predicate != nullptr, "integer set needs a predicate");
  ValueDomain d;
  d.kind_ = Kind::kIntegerSet;
  d.predicate_ = std::move(predicate);
  d.description_ = std::move(description);
  return d;
}

ValueDomain ValueDomain::positive_integers() {
  return integer_set([](std::int64_t v) { return v >= 1; }, "{ i | i in Z+ }");
}

ValueDomain ValueDomain::positive_integers(std::int64_t max) {
  DSLAYER_REQUIRE(max >= 1, "empty positive-integer domain");
  ValueDomain d = integer_set([max](std::int64_t v) { return v >= 1 && v <= max; },
                              cat("{ i | i in Z+, i <= ", max, " }"));
  d.int_max_ = max;
  return d;
}

ValueDomain ValueDomain::powers_of_two() {
  return integer_set([](std::int64_t v) { return v >= 1 && (v & (v - 1)) == 0; },
                     "{ 2^i | i in Z, i >= 0 }");
}

ValueDomain ValueDomain::flags() {
  ValueDomain d;
  d.kind_ = Kind::kFlag;
  return d;
}

bool ValueDomain::contains(const Value& v) const {
  if (v.empty()) return false;
  switch (kind_) {
    case Kind::kAny:
      return true;
    case Kind::kOptions:
      return v.kind() == Value::Kind::kText && has_option(v.as_text());
    case Kind::kRealRange:
      return v.kind() == Value::Kind::kNumber && v.as_number() >= lo_ && v.as_number() <= hi_;
    case Kind::kIntegerSet: {
      if (v.kind() != Value::Kind::kNumber) return false;
      const double d = v.as_number();
      if (std::floor(d) != d || std::abs(d) > 9.0e15) return false;
      return predicate_(static_cast<std::int64_t>(d));
    }
    case Kind::kFlag:
      return v.kind() == Value::Kind::kFlag;
  }
  return false;
}

const std::vector<std::string>& ValueDomain::option_list() const {
  DSLAYER_REQUIRE(kind_ == Kind::kOptions, "not an option domain");
  return options_;
}

double ValueDomain::real_lo() const {
  DSLAYER_REQUIRE(kind_ == Kind::kRealRange, "not a real-range domain");
  return lo_;
}

double ValueDomain::real_hi() const {
  DSLAYER_REQUIRE(kind_ == Kind::kRealRange, "not a real-range domain");
  return hi_;
}

bool ValueDomain::has_option(const std::string& option) const {
  DSLAYER_REQUIRE(kind_ == Kind::kOptions, "not an option domain");
  for (const std::string& o : options_) {
    if (o == option) return true;
  }
  return false;
}

std::string ValueDomain::describe() const {
  switch (kind_) {
    case Kind::kAny: return "<any>";
    case Kind::kOptions: return cat("{", join(options_, ", "), "}");
    case Kind::kRealRange: {
      const bool open_lo = lo_ == -std::numeric_limits<double>::infinity();
      const bool open_hi = hi_ == std::numeric_limits<double>::infinity();
      return cat("[", open_lo ? "-inf" : format_double(lo_), ", ",
                 open_hi ? "+inf" : format_double(hi_), "]");
    }
    case Kind::kIntegerSet: return description_;
    case Kind::kFlag: return "{true, false}";
  }
  return "?";
}

}  // namespace dslayer::dsl
