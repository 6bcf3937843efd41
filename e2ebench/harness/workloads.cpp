#include "workloads.hpp"

#include <algorithm>
#include <cmath>

#include "common.hpp"
#include "support/strings.hpp"

namespace e2e {

using dslayer::cat;

namespace {

constexpr const char* kOmm = "Operator.Modular.Multiplier";

/// Parameters of one Fig. 8/11 walk variant.
struct WalkParams {
  const char* name;
  int eol;
  int radix;
  int slice_width;
  int slices;
  const char* fab;
  double latency_bound_us;  ///< Req5; ignored unless the walk sets it
};

/// The variants share one operand length and radix, and differ only in
/// the last decisions (slice width, fabrication technology): a run holds
/// only a handful of walks, so their cost must not depend on the draw.
constexpr WalkParams kWalks[] = {
    {"w32f35", 768, 4, 32, 24, "0.35um", 8.0},
    {"w64f70", 768, 4, 64, 12, "0.70um", 8.0},
    {"w32f70", 768, 4, 32, 24, "0.70um", 8.0},
    {"w64f35", 768, 4, 64, 12, "0.35um", 8.0},
};

/// The paper walk: open the OMM CDO, set Req1-4, then after each step read
/// the ranges of area, clock and latency over the surviving cores (Fig. 8),
/// read options, decide DI1-DI6 with one retract-and-retry each of
/// Algorithm and Radix,
/// and finish with pending, candidates and stats. `with_req5` sets Req5
/// right after the first decision, so every later sweep runs the opaque
/// latency filter on each row of the (500k-core and narrower) scope.
///
/// The read mix is chosen so that a walk's median read is a range over a
/// 250k-core scope: six cheap reads and four ranges over narrow scopes sit
/// below the six 250k-core ranges, nine larger aggregations above them.
/// Likewise the median write is a decision at the Montgomery scope.
Script walk(const WalkParams& p, bool with_req5) {
  Script s;
  s.name = p.name;
  auto& c = s.commands;
  const auto ranges = [&c](bool all) {
    c.push_back("range area");
    if (all) c.push_back("range clock_ns");
    c.push_back("range latency_ns");
  };
  c.push_back(cat("open ", kOmm));
  c.push_back(cat("req EffectiveOperandLength ", p.eol));
  c.push_back("req OperandCoding 2's complement");
  c.push_back("req ResultCoding 2's complement");
  c.push_back("req ModuloIsOdd Guaranteed");
  ranges(true);
  c.push_back("options ImplementationStyle");
  c.push_back("decide ImplementationStyle Hardware");
  if (with_req5) c.push_back(cat("req LatencySingleOperation ", p.latency_bound_us));
  ranges(true);
  c.push_back("options Algorithm");
  c.push_back("ranges Algorithm area");
  c.push_back("ranges Algorithm clock_ns");
  c.push_back("decide Algorithm Brickell");
  ranges(true);
  c.push_back("retract Algorithm");
  c.push_back("decide Algorithm Montgomery");
  ranges(true);
  c.push_back(cat("decide Radix ", 6 - p.radix));
  c.push_back("retract Radix");
  c.push_back(cat("decide Radix ", p.radix));
  c.push_back("options LoopAdder");
  c.push_back(cat("decide SliceWidth ", p.slice_width));
  c.push_back(cat("decide NumberOfSlices ", p.slices));
  ranges(false);
  c.push_back("decide LayoutStyle std-cell");
  c.push_back("options FabricationTechnology");
  c.push_back(cat("decide FabricationTechnology ", p.fab));
  c.push_back("pending");
  c.push_back("derived LatencyCycles");
  ranges(false);
  c.push_back("candidates");
  c.push_back("stats");
  c.push_back("quit");
  return s;
}

/// Stream sessions stop one decision short of the narrowest scope; their
/// writes cycle that last issue through decide, revise and retract. Two
/// decides to a retract keep the median write inside the decides, clear
/// of the much cheaper retracts (which do not sweep).
std::vector<std::string> narrow_prefix() {
  return {cat("open ", kOmm),
          "req EffectiveOperandLength 768",
          "req OperandCoding 2's complement",
          "req ResultCoding 2's complement",
          "req ModuloIsOdd Guaranteed",
          "decide ImplementationStyle Hardware",
          "decide Algorithm Montgomery",
          "decide Radix 4",
          "decide SliceWidth 32",
          "decide NumberOfSlices 24",
          "decide LayoutStyle std-cell"};
}

std::vector<std::string> cheap_reads() {
  return {"options FabricationTechnology", "options LoopAdder", "pending",
          "derived LatencyCycles"};
}

std::vector<WorkloadSpec> make_workloads() {
  std::vector<WorkloadSpec> specs;

  WorkloadSpec explore;
  explore.name = "explore";
  explore.walks = true;
  for (const WalkParams& p : kWalks) explore.variants.push_back(walk(p, false));
  // The think time exceeds the slowest read (about 180 ms), so a walk does
  // not queue behind itself; one walk every 4 s keeps designers from
  // queueing behind each other's aggregations on the 2 workers. The server
  // sustains about 1.1 walks/s on a shared 4-core machine; the ladder's
  // 3 s windows trail the arrival rate, so it runs from 1.15 to 2.1 walks/s.
  explore.think_ms = 300.0;
  explore.nominal_rate = 0.25;
  explore.ladder = {4.6, 5.0, 5.4, 5.8, 6.2, 6.7, 7.2, 7.8, 8.4};
  explore.step_seconds = 3.0;
  explore.read_limit_ms = 600.0;
  explore.write_limit_ms = 600.0;
  explore.max_outstanding = 200;
  specs.push_back(explore);

  WorkloadSpec latency = explore;
  latency.name = "latency_spec";
  latency.variants.clear();
  for (const WalkParams& p : kWalks) latency.variants.push_back(walk(p, true));
  latency.think_ms = 200.0;
  latency.nominal_rate = 0.2;
  latency.ladder = {1.5, 2.5};
  latency.step_seconds = 5.0;
  latency.read_limit_ms = 10000.0;
  latency.write_limit_ms = 10000.0;
  latency.max_outstanding = 100;
  specs.push_back(latency);

  WorkloadSpec hot;
  hot.name = "hot_reads";
  hot.prefix = narrow_prefix();
  hot.reads = cheap_reads();
  hot.cycle = {"decide FabricationTechnology 0.35um", "decide FabricationTechnology 0.70um",
               "retract FabricationTechnology"};
  hot.write_every = 50;
  hot.sessions = 32;
  hot.nominal_rate = 5000.0;
  hot.ladder = {1.5, 2.0, 3.0, 4.0};
  hot.step_seconds = 1.5;
  hot.read_limit_ms = 25.0;
  hot.write_limit_ms = 25.0;
  hot.max_outstanding = 1000;
  specs.push_back(hot);

  WorkloadSpec durable = hot;
  durable.name = "durable_history";
  durable.durable = true;
  durable.write_every = 10;
  durable.sessions = 16;
  durable.seeded_writes = 1998;
  durable.nominal_rate = 100.0;
  // The server sustains 300-700 req/s on a shared 4-core machine,
  // depending on the load of its other tenants; ×20 and ×50 need a
  // persist path that is O(change). A nominal rate of a fifth of that keeps
  // queueing from amplifying the other tenants' stalls into the read p50.
  durable.ladder = {2.4, 2.8, 3.2, 3.6, 4.0, 4.5, 5.0, 5.6, 6.4, 7.2, 8.0, 10.0, 20.0, 50.0};
  durable.step_seconds = 1.5;
  durable.read_limit_ms = 250.0;
  durable.write_limit_ms = 250.0;
  durable.max_outstanding = 1000;
  specs.push_back(durable);
  return specs;
}

}  // namespace

std::string verb_of(const std::string& command) {
  return command.substr(0, command.find(' '));
}

VerbClass classify(const std::string& verb) {
  static const char* reads[] = {"range", "ranges", "options", "pending", "derived", "candidates"};
  static const char* writes[] = {"open", "req", "decide", "retract", "reaffirm"};
  for (const char* r : reads) {
    if (verb == r) return VerbClass::kRead;
  }
  for (const char* w : writes) {
    if (verb == w) return VerbClass::kWrite;
  }
  return VerbClass::kOther;
}

const std::vector<std::string>& verb_names() {
  static const std::vector<std::string> names = {
      "open",    "req",     "decide",  "retract",    "reaffirm", "range", "ranges",
      "options", "pending", "derived", "candidates", "stats",    "quit",  "other"};
  return names;
}

std::uint16_t verb_index(const std::string& verb) {
  const auto& names = verb_names();
  const auto it = std::find(names.begin(), names.end(), verb);
  return static_cast<std::uint16_t>(it == names.end() ? names.size() - 1 : it - names.begin());
}

const std::vector<WorkloadSpec>& all_workloads() {
  static const std::vector<WorkloadSpec> specs = make_workloads();
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : all_workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::string WorkloadSpec::session_name(unsigned index) const {
  const char prefix = walks ? 'w' : name[0];
  std::string digits = std::to_string(index);
  if (digits.size() < 3) digits.insert(0, 3 - digits.size(), '0');
  return prefix + digits;
}

double WorkloadSpec::requests_per_arrival() const {
  if (!walks) return 1.0;
  double commands = 0.0;
  for (const Script& variant : variants) commands += static_cast<double>(variant.commands.size());
  return commands / static_cast<double>(variants.size());
}

std::string walk_key(const WorkloadSpec& spec, const Script& variant, std::size_t index) {
  return cat(spec.name, "/", variant.name, "/", index);
}

std::string stream_key(const WorkloadSpec& spec, std::size_t position, const std::string& command) {
  return cat(spec.name, "/", position, "/", command);
}

Scheduler::Scheduler(const WorkloadSpec& spec, std::uint64_t seed)
    : spec_(spec), rng_(seed ^ fnv1a(spec.name)), position_(spec.sessions, 0) {}

void Scheduler::push(std::vector<Planned>& out, Planned planned) {
  const std::string verb = verb_of(planned.command);
  planned.cls = classify(verb);
  planned.verb = verb_index(verb);
  hash_ = fnv1a(cat(planned.at_ns, " ", planned.session, " ", planned.command, "\n"), hash_);
  out.push_back(std::move(planned));
}

std::size_t Scheduler::plan(std::uint16_t phase, double rate, std::int64_t start_ns,
                            double seconds, std::vector<Planned>& out) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const std::size_t before = out.size();
  const auto count = static_cast<std::size_t>(std::llround(seconds * rate));
  const double period_ns = 1e9 / rate;
  if (spec_.walks) {
    // Walks arrive one per period from a seeded phase offset, so every
    // phase holds the same number of walks and the same command mix.
    // Variants rotate from a seeded start, so a phase of n walks holds
    // each variant n/variants times (one more for the first n%variants).
    const double offset = unit(rng_) * period_ns;
    const std::size_t first_variant = rng_() % spec_.variants.size();
    for (std::size_t w = 0; w < count; ++w) {
      const Script& variant = spec_.variants[(first_variant + w) % spec_.variants.size()];
      const std::string session = spec_.session_name(next_walk_++);
      const double walk_start = static_cast<double>(start_ns) + offset + period_ns * static_cast<double>(w);
      for (std::size_t i = 0; i < variant.commands.size(); ++i) {
        Planned p;
        p.at_ns = static_cast<std::int64_t>(walk_start + spec_.think_ms * 1e6 * static_cast<double>(i));
        p.session = session;
        p.command = variant.commands[i];
        p.expect = walk_key(spec_, variant, i);
        p.phase = phase;
        push(out, std::move(p));
      }
    }
    // Interleave the walks' commands into one send order.
    std::stable_sort(out.begin() + static_cast<std::ptrdiff_t>(before), out.end(),
                     [](const Planned& a, const Planned& b) { return a.at_ns < b.at_ns; });
  } else {
    // One request per slot of 1/rate, at a seeded point inside its slot.
    for (std::size_t i = 0; i < count; ++i) {
      const unsigned s = static_cast<unsigned>(rng_() % spec_.sessions);
      Planned p;
      p.at_ns = start_ns + static_cast<std::int64_t>(period_ns * (static_cast<double>(i) + unit(rng_)));
      p.session = spec_.session_name(s);
      const std::size_t at = position_[s];
      if (rng_() % spec_.write_every == 0) {
        p.command = spec_.cycle[at];
        position_[s] = (at + 1) % spec_.cycle.size();
      } else {
        p.command = spec_.reads[rng_() % spec_.reads.size()];
      }
      p.expect = stream_key(spec_, at, p.command);
      p.phase = phase;
      push(out, std::move(p));
    }
  }
  return out.size() - before;
}

void Scheduler::plan_one(std::uint16_t phase, std::int64_t at_ns, bool write,
                         std::vector<Planned>& out) {
  const unsigned s = next_session_++ % spec_.sessions;
  const std::size_t at = position_[s];
  Planned p;
  p.at_ns = at_ns;
  p.session = spec_.session_name(s);
  if (write) {
    p.command = spec_.cycle[at];
    position_[s] = (at + 1) % spec_.cycle.size();
  } else {
    p.command = spec_.reads[s % spec_.reads.size()];
  }
  p.expect = stream_key(spec_, at, p.command);
  p.phase = phase;
  push(out, std::move(p));
}

}  // namespace e2e
