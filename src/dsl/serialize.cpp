#include "dsl/serialize.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace dslayer::dsl {

namespace {

// ---------------------------------------------------------------------------
// Lexical helpers
// ---------------------------------------------------------------------------

/// Quotes a string: wraps in '"', escaping '"' and '\'.
std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

/// Full-precision double rendering for round-trips.
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Splits one line into tokens: bare words and quoted strings.
std::vector<std::string> lex(const std::string& line, std::size_t line_no) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    if (std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
      continue;
    }
    if (line[i] == '"') {
      std::string token;
      ++i;
      while (i < line.size() && line[i] != '"') {
        if (line[i] == '\\' && i + 1 < line.size()) ++i;
        token.push_back(line[i]);
        ++i;
      }
      if (i >= line.size()) {
        throw DefinitionError(cat("line ", line_no, ": unterminated string"));
      }
      ++i;  // closing quote
      tokens.push_back(std::move(token));
    } else {
      std::size_t start = i;
      while (i < line.size() && !std::isspace(static_cast<unsigned char>(line[i]))) ++i;
      tokens.push_back(line.substr(start, i - start));
    }
  }
  return tokens;
}

// ---------------------------------------------------------------------------
// Value / domain encoding
// ---------------------------------------------------------------------------

std::string encode_value(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kEmpty: return "empty";
    case Value::Kind::kNumber: return cat("number:", num(v.as_number()));
    case Value::Kind::kText: return cat("text:", v.as_text());
    case Value::Kind::kFlag: return cat("flag:", v.as_flag() ? "true" : "false");
  }
  return "empty";
}

Value decode_value(const std::string& s, std::size_t line_no) {
  if (s == "empty") return Value{};
  if (starts_with(s, "number:")) return Value::number(std::stod(s.substr(7)));
  if (starts_with(s, "text:")) return Value::text(s.substr(5));
  if (starts_with(s, "flag:")) return Value::flag(s.substr(5) == "true");
  throw DefinitionError(cat("line ", line_no, ": bad value encoding '", s, "'"));
}

// The well-known integer sets round-trip by describe() string.
const std::string kPositiveDesc = ValueDomain::positive_integers().describe();
const std::string kPow2Desc = ValueDomain::powers_of_two().describe();

std::string encode_domain(const ValueDomain& d) {
  switch (d.kind()) {
    case ValueDomain::Kind::kAny:
      return "any";
    case ValueDomain::Kind::kFlag:
      return "flag";
    case ValueDomain::Kind::kOptions: {
      for (const std::string& o : d.option_list()) {
        if (o.find('|') != std::string::npos) {
          throw DefinitionError(cat("option '", o, "' contains the reserved '|'"));
        }
      }
      return cat("options:", join(d.option_list(), "|"));
    }
    case ValueDomain::Kind::kRealRange: {
      const auto bound = [](double v) {
        if (v == std::numeric_limits<double>::infinity()) return std::string("inf");
        if (v == -std::numeric_limits<double>::infinity()) return std::string("-inf");
        return num(v);
      };
      return cat("real:", bound(d.real_lo()), ":", bound(d.real_hi()));
    }
    case ValueDomain::Kind::kIntegerSet: {
      if (d.integer_max() != 0) return cat("int:positive:", d.integer_max());
      if (d.describe() == kPositiveDesc) return "int:positive";
      if (d.describe() == kPow2Desc) return "int:pow2";
      return cat("int:custom:", d.describe());
    }
  }
  return "any";
}

ValueDomain decode_domain(const std::string& s, std::size_t line_no,
                          std::vector<std::string>& warnings) {
  if (s == "any") return ValueDomain::any();
  if (s == "flag") return ValueDomain::flags();
  if (starts_with(s, "options:")) return ValueDomain::options(split(s.substr(8), '|'));
  if (starts_with(s, "real:")) {
    const auto parts = split(s.substr(5), ':');
    if (parts.size() != 2) throw DefinitionError(cat("line ", line_no, ": bad real domain"));
    const auto bound = [](const std::string& t) {
      if (t == "inf") return std::numeric_limits<double>::infinity();
      if (t == "-inf") return -std::numeric_limits<double>::infinity();
      return std::stod(t);
    };
    return ValueDomain::real_range(bound(parts[0]), bound(parts[1]));
  }
  if (s == "int:positive") return ValueDomain::positive_integers();
  if (starts_with(s, "int:positive:")) {
    return ValueDomain::positive_integers(std::stoll(s.substr(13)));
  }
  if (s == "int:pow2") return ValueDomain::powers_of_two();
  if (starts_with(s, "int:custom:")) {
    warnings.push_back(cat("line ", line_no, ": custom integer domain '", s.substr(11),
                           "' widened to positive integers (predicates are code)"));
    return ValueDomain::positive_integers();
  }
  throw DefinitionError(cat("line ", line_no, ": bad domain encoding '", s, "'"));
}

const char* kind_tag(const Property& p) {
  if (p.kind == PropertyKind::kRequirement) return "req";
  if (p.kind == PropertyKind::kFigureOfMerit) return "fom";
  return p.generalized ? "gissue" : "issue";
}

std::string unit_tag(Unit u) { return u == Unit::kNone ? "-" : unit_suffix(u); }

Unit parse_unit(const std::string& tag) {
  if (tag == "-") return Unit::kNone;
  for (const Unit u : {Unit::kNanoseconds, Unit::kMicroseconds, Unit::kGates, Unit::kBits,
                       Unit::kMegahertz, Unit::kMilliwatts}) {
    if (unit_suffix(u) == tag) return u;
  }
  return Unit::kNone;
}

void export_cdo(const Cdo& cdo, std::ostringstream& os) {
  const std::string parent = cdo.parent() == nullptr ? "" : cdo.parent()->path();
  os << "cdo " << quote(cdo.path()) << " parent " << quote(parent) << " option "
     << quote(cdo.specializing_option()) << " doc " << quote(cdo.doc()) << "\n";
  for (const Property& p : cdo.local_properties()) {
    os << "prop " << quote(cdo.path()) << " " << kind_tag(p) << " " << quote(p.name)
       << " domain " << quote(encode_domain(p.domain)) << " unit " << unit_tag(p.unit);
    if (p.default_value.has_value()) os << " default " << quote(encode_value(*p.default_value));
    if (!p.filters_cores) os << " nofilter";
    if (p.compliance != Compliance::kNone) {
      const char* tag = p.compliance == Compliance::kCoreAtMost
                            ? "atmost"
                            : (p.compliance == Compliance::kCoreAtLeast ? "atleast" : "equals");
      os << " comply " << tag << " " << quote(p.compliance_key);
    }
    os << " doc " << quote(p.doc) << "\n";
  }
  for (const behavior::BehavioralDescription& bd : cdo.local_behaviors()) {
    os << "# behavior " << quote(bd.name()) << " at " << quote(cdo.path())
       << " (structural; re-attach programmatically)\n";
  }
  for (const Cdo* child : cdo.children()) export_cdo(*child, os);
}

}  // namespace

namespace {

void export_prefix(const DesignSpaceLayer& layer, std::ostringstream& os) {
  os << "dslayer-format 1\n";
  os << "layer " << quote(layer.name()) << "\n";

  for (const ConsistencyConstraint& cc : layer.constraints()) {
    os << "# constraint " << quote(cc.id()) << " " << quote(cc.doc())
       << " (relation is code; re-author on import)\n";
  }

  for (const Cdo* root : layer.space().roots()) export_cdo(*root, os);
}

}  // namespace

std::string export_hierarchy(const DesignSpaceLayer& layer) {
  std::ostringstream os;
  export_prefix(layer, os);
  return os.str();
}

std::string export_layer(const DesignSpaceLayer& layer) {
  std::ostringstream os;
  export_prefix(layer, os);

  for (const ReuseLibrary* lib : layer.libraries()) {
    os << "library " << quote(lib->name()) << "\n";
    for (const Core* core : lib->cores()) {
      os << "core " << quote(core->name()) << " class " << quote(core->class_path()) << "\n";
      for (const CoreBinding& b : core->bindings()) {
        os << "bind " << quote(*b.name) << " " << quote(encode_value(b.value)) << "\n";
      }
      for (const CoreMetric& m : core->metrics()) {
        os << "metric " << quote(*m.name) << " " << num(m.value) << "\n";
      }
      for (const CoreView& view : core->views()) {
        os << "view " << quote(view.level) << " " << quote(view.artifact) << "\n";
      }
    }
  }
  return os.str();
}

ImportResult import_layer(const std::string& text) {
  ImportResult result;
  ReuseLibrary* library = nullptr;
  Core* core = nullptr;
  // Cores are mutated after add(); collect pending ops via direct pointer —
  // ReuseLibrary::add returns a stable reference.

  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;
  bool saw_header = false;

  while (std::getline(is, line)) {
    ++line_no;
    const std::string_view trimmed = trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    const auto tokens = lex(line, line_no);
    const std::string& verb = tokens[0];
    const auto want = [&](std::size_t n) {
      if (tokens.size() < n) {
        throw DefinitionError(cat("line ", line_no, ": '", verb, "' needs ", n - 1, " operands"));
      }
    };

    if (verb == "dslayer-format") {
      want(2);
      if (tokens[1] != "1") {
        throw DefinitionError(cat("line ", line_no, ": unsupported format ", tokens[1]));
      }
      saw_header = true;
    } else if (verb == "layer") {
      want(2);
      if (!saw_header) throw DefinitionError("missing dslayer-format header");
      result.layer = std::make_unique<DesignSpaceLayer>(tokens[1]);
    } else if (result.layer == nullptr) {
      throw DefinitionError(cat("line ", line_no, ": '", verb, "' before 'layer'"));
    } else if (verb == "cdo") {
      // cdo <path> parent <path> option <opt> doc <doc>
      want(8);
      const std::string& path = tokens[1];
      const std::string& parent = tokens[3];
      const std::string& option = tokens[5];
      const std::string& doc = tokens[7];
      const std::string name = split(path, '.').back();
      if (parent.empty()) {
        result.layer->space().add_root(name, doc);
      } else {
        Cdo* parent_cdo = result.layer->space().find(parent);
        if (parent_cdo == nullptr) {
          throw DefinitionError(cat("line ", line_no, ": unknown parent '", parent, "'"));
        }
        parent_cdo->specialize(option, name, doc);
      }
    } else if (verb == "prop") {
      // prop <cdo> <kind> <name> domain <d> unit <u> [default <v>] [nofilter]
      //      [comply <tag> <key>] doc <doc>
      want(9);
      Cdo* cdo = result.layer->space().find(tokens[1]);
      if (cdo == nullptr) {
        throw DefinitionError(cat("line ", line_no, ": unknown CDO '", tokens[1], "'"));
      }
      Property p;
      p.name = tokens[3];
      const std::string& kind = tokens[2];
      p.kind = kind == "req"
                   ? PropertyKind::kRequirement
                   : (kind == "fom" ? PropertyKind::kFigureOfMerit : PropertyKind::kDesignIssue);
      p.generalized = kind == "gissue";
      p.domain = decode_domain(tokens[5], line_no, result.warnings);
      p.unit = parse_unit(tokens[7]);
      std::size_t i = 8;
      while (i < tokens.size()) {
        if (tokens[i] == "default") {
          want(i + 2);
          p.default_value = decode_value(tokens[i + 1], line_no);
          i += 2;
        } else if (tokens[i] == "nofilter") {
          p.filters_cores = false;
          i += 1;
        } else if (tokens[i] == "comply") {
          want(i + 3);
          p.compliance = tokens[i + 1] == "atmost"
                             ? Compliance::kCoreAtMost
                             : (tokens[i + 1] == "atleast" ? Compliance::kCoreAtLeast
                                                           : Compliance::kCoreEquals);
          p.compliance_key = tokens[i + 2];
          i += 3;
        } else if (tokens[i] == "doc") {
          want(i + 2);
          p.doc = tokens[i + 1];
          i += 2;
        } else {
          throw DefinitionError(cat("line ", line_no, ": unknown attribute '", tokens[i], "'"));
        }
      }
      cdo->add_property(std::move(p));
    } else if (verb == "library") {
      want(2);
      library = &result.layer->add_library(tokens[1]);
      core = nullptr;
    } else if (verb == "core") {
      want(4);
      if (library == nullptr) {
        throw DefinitionError(cat("line ", line_no, ": 'core' before 'library'"));
      }
      core = &library->add(Core(tokens[1], tokens[3]));
    } else if (verb == "bind" || verb == "metric" || verb == "view") {
      want(3);
      if (core == nullptr) {
        throw DefinitionError(cat("line ", line_no, ": '", verb, "' before 'core'"));
      }
      if (verb == "bind") {
        core->bind(tokens[1], decode_value(tokens[2], line_no));
      } else if (verb == "metric") {
        core->set_metric(tokens[1], std::stod(tokens[2]));
      } else {
        core->add_view(tokens[1], tokens[2]);
      }
    } else {
      throw DefinitionError(cat("line ", line_no, ": unknown directive '", verb, "'"));
    }
  }

  if (result.layer == nullptr) throw DefinitionError("input contains no 'layer' directive");
  result.layer->index_cores();
  return result;
}

}  // namespace dslayer::dsl
