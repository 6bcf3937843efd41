// End-to-end benchmark of the exploration service (see ../README.md).
//
//   e2e fixture --dir DIR [--cores N]
//       Generates the synthetic catalog snapshot, the durable data
//       directory with seeded session journals, and every scripted
//       command's expected output.
//
//   e2e run --fixture DIR --work DIR --workload NAME --seed N --seconds S
//           --trace 0|1 [--inject-wrong]
//       Boots the catalog from the fixture snapshot through the same public
//       classes `dslshell --listen` wires, drives one open-loop workload
//       over loopback TCP, checks every response, and prints the metrics.
//       The last stdout line is one JSON object: {"correct", "attempted",
//       "failed", "metrics"}. Exit status 1 when any output check failed.

#include <sys/socket.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <thread>

#include "common.hpp"
#include "domains/crypto.hpp"
#include "fixture.hpp"
#include "loadgen.hpp"
#include "net/server.hpp"
#include "service/request_executor.hpp"
#include "service/session_manager.hpp"
#include "service/shared_layer.hpp"
#include "stats.hpp"
#include "storage/counters.hpp"
#include "storage/durable_catalog.hpp"
#include "storage/file_io.hpp"
#include "storage/session_store.hpp"
#include "storage/snapshot.hpp"
#include "support/simd.hpp"
#include "support/strings.hpp"
#include "support/trace.hpp"
#include "workloads.hpp"

using namespace dslayer;
using namespace e2e;

namespace {

constexpr std::size_t kConnections = 4;
constexpr int kBoots = 3;            ///< set-ups per run; setup_s is their median
constexpr double kWarmupSeconds = 2.0;
/// A phase whose generator lag tail exceeds this share of the workload's
/// read latency limit measured the generator, not the server: it is
/// flagged INVALID, and an invalid ladder step does not count as sustained.
constexpr double kMaxLagShare = 0.5;

struct Args {
  std::string mode;
  std::string fixture;
  std::string work;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool inject_wrong = false;
  std::size_t cores = 1'000'000;
};

bool parse_args(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  args.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--dir" || arg == "--fixture") {
      args.fixture = value();
    } else if (arg == "--work") {
      args.work = value();
    } else if (arg == "--workload") {
      args.workload = value();
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      args.trace = std::atoi(value().c_str());
    } else if (arg == "--cores") {
      args.cores = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--inject-wrong") {
      args.inject_wrong = true;
    } else {
      return false;
    }
  }
  return !args.fixture.empty() && args.seconds > 0;
}

ExpectedTable load_expected(const std::string& path) {
  ExpectedTable table;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t a = line.find('\t');
    const std::size_t b = line.find('\t', a + 1);
    if (a == std::string::npos || b == std::string::npos) continue;
    Expected e;
    const std::string hash = line.substr(a + 1, b - a - 1);
    e.format_only = hash == "stats";
    if (!e.format_only) e.hash = std::strtoull(hash.c_str(), nullptr, 16);
    e.bytes = std::strtoull(line.c_str() + b + 1, nullptr, 10);
    table[line.substr(0, a)] = e;
  }
  table["stats"] = Expected{0, 0, true};
  return table;
}

std::map<std::string, double> read_proc(const std::string& path) {
  std::map<std::string, double> values;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t colon = line.find_first_of(": ");
    if (colon == std::string::npos) continue;
    const char* rest = line.c_str() + colon + 1;
    char* end = nullptr;
    const double value = std::strtod(rest, &end);
    if (end != rest) values[line.substr(0, colon)] = value;
  }
  return values;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) return std::string(trim(line.substr(line.find(':') + 1)));
  }
  return "unknown";
}

/// The serving stack of `dslshell --listen`, built in the same order.
struct Stack {
  std::unique_ptr<dsl::DesignSpaceLayer> layer;
  std::unique_ptr<storage::DurableCatalog> durable;
  std::unique_ptr<storage::SessionStore> store;
  std::unique_ptr<service::SharedLayer> shared;
  std::unique_ptr<service::SessionManager> manager;
  std::unique_ptr<service::RequestExecutor> executor;
  std::unique_ptr<net::NetServer> server;

  storage::SnapshotLoadReport load;
  double load_ms = 0.0;   ///< load_snapshot / DurableCatalog construction
  double prime_ms = 0.0;  ///< SharedLayer construction
  double start_ms = 0.0;  ///< SessionManager + RequestExecutor + NetServer::start
  double setup_s = 0.0;   ///< boot start to the first answered request

  ~Stack() {
    if (server) server->stop();
    if (executor) executor->shutdown();
  }
};

/// One `quit` over a fresh connection; true once it is answered.
bool first_answer(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  bool ok = fd >= 0 && ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
  const std::string line = "boot quit\n";
  ok = ok && ::send(fd, line.data(), line.size(), MSG_NOSIGNAL) == static_cast<ssize_t>(line.size());
  std::string got;
  char buffer[256];
  while (ok && got.find("closed\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n <= 0) ok = false;
    else got.append(buffer, static_cast<std::size_t>(n));
  }
  if (fd >= 0) ::close(fd);
  return ok && got.rfind("== 1 boot ok", 0) == 0;
}

std::unique_ptr<Stack> boot(const std::string& fixture, const std::string& data_dir) {
  auto stack = std::make_unique<Stack>();
  const Clock::time_point start = Clock::now();
  stack->layer = domains::build_crypto_layer();
  if (!data_dir.empty()) {
    storage::DurableOptions options;
    options.dir = data_dir;
    stack->durable = std::make_unique<storage::DurableCatalog>(*stack->layer, options);
    stack->store = std::make_unique<storage::SessionStore>(stack->durable->sessions_dir());
    stack->load = stack->durable->boot_report().snapshot;
  } else {
    stack->load = storage::load_snapshot(*stack->layer, fixture + "/catalog.snap");
  }
  const Clock::time_point loaded = Clock::now();
  stack->shared = std::make_unique<service::SharedLayer>(*stack->layer,
                                                         service::SharedLayer::Reindex::kPreserve);
  const Clock::time_point primed = Clock::now();
  service::SessionManager::Options sessions;
  sessions.store = stack->store.get();
  stack->manager = std::make_unique<service::SessionManager>(*stack->shared, sessions);
  stack->executor = std::make_unique<service::RequestExecutor>(*stack->manager);
  stack->server = std::make_unique<net::NetServer>(*stack->manager, *stack->executor,
                                                   net::NetServer::Options{});
  std::string error;
  if (!stack->server->start(&error)) throw Error("cannot listen: " + error);
  const Clock::time_point started = Clock::now();
  if (!first_answer(stack->server->port())) throw Error("first request was not answered");
  stack->load_ms = ms_between(start, loaded);
  stack->prime_ms = ms_between(loaded, primed);
  stack->start_ms = ms_between(primed, started);
  stack->setup_s = ms_since(start) / 1000.0;
  return stack;
}

/// A fresh durable data directory: the fixture snapshot (hard link) plus
/// a copy of every seeded session journal.
std::string fresh_data_dir(const std::string& fixture, const std::string& work) {
  const std::string data = work + "/data";
  const std::string sessions = data + "/sessions";
  if (storage::path_exists(sessions)) {
    for (const std::string& name : storage::list_directory(sessions)) {
      storage::remove_file(sessions + "/" + name);
    }
  }
  for (const char* name : {"catalog.wal", "catalog.snap"}) storage::remove_file(data + "/" + name);
  storage::ensure_directory(work);
  storage::ensure_directory(data);
  storage::ensure_directory(sessions);
  const std::string snap = fixture + "/data/catalog.snap";
  if (::link(snap.c_str(), (data + "/catalog.snap").c_str()) != 0) {
    std::ifstream in(snap, std::ios::binary);
    std::ofstream out(data + "/catalog.snap", std::ios::binary);
    out << in.rdbuf();
  }
  for (const std::string& name : storage::list_directory(fixture + "/data/sessions")) {
    std::ofstream out(sessions + "/" + name, std::ios::binary);
    out << storage::read_file(fixture + "/data/sessions/" + name);
  }
  return data;
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count / percentile, printed beside the value
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = {}) {
    metrics_.push_back({name, value, unit, note});
  }
  void add_summary(const std::string& name, const Summary& s, double scale = 1.0) {
    add(name + ".p50", s.p50 * scale, "ms", cat("n=", s.n));
    add(name + ".tail", s.tail * scale, "ms", cat("p", format_double(s.tail_pct, 3), " n=", s.n));
  }
  void print_text(std::ostream& out) const {
    for (const Metric& m : metrics_) {
      out << "  " << m.name << " = " << format_double(m.value, 6) << " " << m.unit;
      if (!m.note.empty()) out << "  (" << m.note << ")";
      out << "\n";
    }
  }
  std::string json() const {
    std::string out = "{";
    char number[64];
    const char* separator = "";
    for (const Metric& m : metrics_) {
      std::snprintf(number, sizeof number, "%.12g", m.value);
      out += cat(separator, "\"", m.name, "\": {\"value\": ", number, ", \"unit\": \"",
                 m.unit, "\"}");
      separator = ", ";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

/// One contiguous run of phases: its plan and what happened to it.
struct Run {
  std::vector<Planned> plan;
  std::vector<Outcome> outcomes;
  LoadClient::RunResult result;
  Clock::time_point origin;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> failures;  ///< by status, for the report

  void add(const Run& run) {
    for (std::size_t i = 0; i < run.plan.size(); ++i) {
      const Outcome& o = run.outcomes[i];
      if (!o.was_sent) continue;
      ++attempted;
      if (o.answered && o.ok) continue;
      ++failed;
      ++failures[o.answered ? o.status : "unanswered"];
    }
    failed += run.result.desync_lines;
    if (run.result.desync_lines > 0) failures["desync"] += run.result.desync_lines;
  }
};

/// Latency (from the scheduled send time) of one phase's answered
/// requests, pooled over the whole phase.
struct PhaseLatency {
  Summary read;
  Summary write;
  Summary lag;
  std::size_t requests = 0;
  std::size_t failed = 0;
};

PhaseLatency phase_latency(const Run& run, std::uint16_t phase) {
  std::vector<double> reads, writes, lag;
  PhaseLatency out;
  for (std::size_t i = 0; i < run.plan.size(); ++i) {
    const Planned& p = run.plan[i];
    const Outcome& o = run.outcomes[i];
    if (p.phase != phase || !o.was_sent) continue;
    ++out.requests;
    const Clock::time_point due = run.origin + std::chrono::nanoseconds(p.at_ns);
    lag.push_back(ms_between(due, o.sent));
    if (!o.answered || !o.ok) {
      ++out.failed;
      continue;
    }
    const double latency = ms_between(due, o.done);
    if (p.cls == VerbClass::kRead) reads.push_back(latency);
    if (p.cls == VerbClass::kWrite) writes.push_back(latency);
  }
  out.read = summarize(std::move(reads));
  out.write = summarize(std::move(writes));
  out.lag = summarize(std::move(lag));
  return out;
}

void print_phase(const std::string& name, const PhaseLatency& p, bool valid) {
  std::cout << "phase " << name << ": requests=" << p.requests << " failed=" << p.failed
            << " read_p50=" << format_double(p.read.p50, 4) << "ms read_p"
            << format_double(p.read.tail_pct, 3) << "=" << format_double(p.read.tail, 4)
            << "ms (n=" << p.read.n << ") write_p50=" << format_double(p.write.p50, 4)
            << "ms write_p" << format_double(p.write.tail_pct, 3) << "="
            << format_double(p.write.tail, 4) << "ms (n=" << p.write.n
            << ") gen.lag_ms p" << format_double(p.lag.tail_pct, 3) << "="
            << format_double(p.lag.tail, 4) << " max=" << format_double(p.lag.max, 4)
            << (valid ? "" : " INVALID (generator lag)") << "\n";
}

/// Per-request span breakdown of one traced request.
struct Breakdown {
  double ingress = 0, parse = 0, queue_wait = 0, execute = 0, execute_self = 0, sweep = 0,
         respond = 0, total = 0;
  unsigned sweeps = 0;
};

Breakdown breakdown(const trace::Trace& t) {
  Breakdown b;
  const std::vector<trace::Span> spans = t.spans();
  for (const trace::Span& s : spans) {
    const double ms = static_cast<double>(s.duration_ns) / 1e6;
    switch (s.kind) {
      case trace::SpanKind::kIngress: b.ingress += ms; break;
      case trace::SpanKind::kParse: b.parse += ms; break;
      case trace::SpanKind::kQueueWait: b.queue_wait += ms; break;
      case trace::SpanKind::kExecute: b.execute += ms; break;
      case trace::SpanKind::kSweep:
        // Only sweeps directly under execute count: nested sweep spans
        // would be double-counted.
        if (s.parent != trace::kNoParent && spans[s.parent].kind == trace::SpanKind::kExecute) {
          b.sweep += ms;
          ++b.sweeps;
        }
        break;
      case trace::SpanKind::kRespond: b.respond += ms; break;
    }
  }
  b.execute_self = b.execute - b.sweep;
  b.total = t.total_ms();
  return b;
}

}  // namespace

int run_benchmark(const Args& args) {
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  ExpectedTable expected = load_expected(args.fixture + "/expected.tsv");
  if (expected.size() < 2) {
    std::cerr << "no expected outputs under " << args.fixture << " (run e2e fixture first)\n";
    return 2;
  }
  const auto fixture_info = read_proc(args.fixture + "/fixture.txt");
  const double cores = fixture_info.count("cores") ? fixture_info.at("cores") : 0.0;

  std::cout << "workload " << spec->name << " seed " << args.seed << " seconds " << args.seconds
            << " trace " << args.trace << "\n";
  std::cout << "provenance: nproc=" << std::thread::hardware_concurrency() << " cpu=\""
            << cpu_model() << "\" build=" << DSLAYER_BUILD_TYPE
            << " simd=" << support::simd::to_string(support::simd::active_kernel()) << " catalog_cores="
            << static_cast<std::uint64_t>(cores) << " seed=" << args.seed << "\n";

  // Tracing is off for the end-to-end phases; the traced phase turns it on.
  trace::TracerConfig off;
  off.sample_every = 0;
  trace::Tracer::instance().configure(off);

  // --- Set-up, several times; the last stack serves the workload. ---
  std::vector<double> setup_s, load_ms, prime_ms, start_ms, phase_open, phase_symbols,
      phase_cores, phase_index, phase_tables;
  std::unique_ptr<Stack> stack;
  for (int b = 0; b < kBoots; ++b) {
    stack.reset();
    const std::string data = spec->durable ? fresh_data_dir(args.fixture, args.work) : "";
    stack = boot(args.fixture, data);
    setup_s.push_back(stack->setup_s);
    load_ms.push_back(stack->load_ms);
    prime_ms.push_back(stack->prime_ms);
    start_ms.push_back(stack->start_ms);
    phase_open.push_back(stack->load.phases.open_ms);
    phase_symbols.push_back(stack->load.phases.symbols_ms);
    phase_cores.push_back(stack->load.phases.cores_ms);
    phase_index.push_back(stack->load.phases.index_ms);
    phase_tables.push_back(stack->load.phases.tables_ms);
    std::cout << "boot " << b << ": setup " << format_double(stack->setup_s, 5) << " s (load "
              << format_double(stack->load_ms, 5) << " ms, prime "
              << format_double(stack->prime_ms, 4) << " ms, start "
              << format_double(stack->start_ms, 4) << " ms), " << stack->load.cores
              << " cores\n";
  }

  LoadClient client(stack->server->port(), kConnections, expected);
  std::string error;
  if (!client.connect(&error)) {
    std::cerr << "cannot connect: " << error << "\n";
    return 2;
  }
  Scheduler scheduler(*spec, args.seed);
  Tally tally;
  const auto execute = [&](Run& run, unsigned max_outstanding) {
    std::stable_sort(run.plan.begin(), run.plan.end(),
                     [](const Planned& a, const Planned& b) { return a.at_ns < b.at_ns; });
    run.origin = Clock::now() + std::chrono::milliseconds(20);
    run.result = client.run(run.plan, run.origin, max_outstanding, run.outcomes);
    tally.add(run);
  };

  // Stream workloads walk their sessions to the narrow scope first,
  // outside the timed phases (durable sessions restore from their seeded
  // journals on first use instead).
  if (!spec->walks && !spec->durable) {
    Run prefix;
    for (unsigned s = 0; s < spec->sessions; ++s) {
      for (const std::string& command : spec->prefix) {
        Planned p;
        p.session = spec->session_name(s);
        p.command = command;
        p.cls = classify(verb_of(command));
        prefix.plan.push_back(p);
      }
    }
    execute(prefix, 0);
  }
  if (args.inject_wrong) {
    // Self-check hook: corrupt one expected answer of this workload (the
    // first key in order); the run must fail.
    std::string victim;
    for (const auto& [key, e] : expected) {
      if (!e.format_only && key.rfind(spec->name + "/", 0) == 0 && (victim.empty() || key < victim)) {
        victim = key;
      }
    }
    expected[victim].hash ^= 1;
  }

  // --- Warm-up + nominal phase, one continuous schedule. ---
  enum : std::uint16_t { kWarm, kNominal, kTracedWarm, kTraced, kProbe, kLadder };
  // Walk workloads hold few walks per second, so their measured phases
  // run four times as long: eight walks, two of each variant.
  const double nominal_s = spec->walks ? 4 * args.seconds : args.seconds;
  Run nominal;
  scheduler.plan(kWarm, spec->nominal_rate, 0, kWarmupSeconds, nominal.plan);
  scheduler.plan(kNominal, spec->nominal_rate, static_cast<std::int64_t>(kWarmupSeconds * 1e9),
                 nominal_s, nominal.plan);
  execute(nominal, 0);
  const PhaseLatency warm = phase_latency(nominal, kWarm);
  const PhaseLatency nom = phase_latency(nominal, kNominal);
  const double lag_limit = kMaxLagShare * spec->read_limit_ms;
  const bool nominal_valid = nom.lag.tail <= lag_limit;
  print_phase("warmup", warm, warm.lag.tail <= lag_limit);
  print_phase("nominal", nom, nominal_valid);

  Report report;

  if (args.trace == 0) {
    // --- Ladder of higher rates for sustained_rps. ---
    Run ladder;
    const auto step_ns = static_cast<std::int64_t>(spec->step_seconds * 1e9);
    for (std::size_t k = 0; k < spec->ladder.size(); ++k) {
      scheduler.plan(static_cast<std::uint16_t>(kLadder + k), spec->nominal_rate * spec->ladder[k],
                     static_cast<std::int64_t>(k) * step_ns, spec->step_seconds, ladder.plan);
    }
    // A step is judged on the requests scheduled in its window, so walks
    // that arrived in lower steps load it too. The commands the last walks
    // would send after the ladder ends are not sent: nothing is judged on
    // them, and the run ends after the ladder.
    const std::int64_t ladder_ns = static_cast<std::int64_t>(spec->ladder.size()) * step_ns;
    std::erase_if(ladder.plan, [ladder_ns](const Planned& p) { return p.at_ns >= ladder_ns; });
    for (Planned& p : ladder.plan) p.phase = static_cast<std::uint16_t>(kLadder + p.at_ns / step_ns);
    execute(ladder, spec->max_outstanding);
    double sustained_multiplier = 1.0;
    for (std::size_t k = 0; k < spec->ladder.size(); ++k) {
      const auto phase = static_cast<std::uint16_t>(kLadder + k);
      const PhaseLatency step = phase_latency(ladder, phase);
      std::size_t planned = 0;
      for (const Planned& p : ladder.plan) planned += p.phase == phase;
      const bool valid = step.lag.tail <= lag_limit;
      const bool pass = valid && step.requests == planned && step.failed == 0 &&
                        step.read.tail <= spec->read_limit_ms &&
                        step.write.tail <= spec->write_limit_ms;
      print_phase(cat("ladder x", format_double(spec->ladder[k], 3), pass ? " sustained" : " not sustained"),
                  step, valid);
      // A failed step between sustained ones (a stall of the machine) does
      // not end the ladder: past capacity the backlog fails every step.
      if (pass) sustained_multiplier = spec->ladder[k];
    }
    std::cout << "sustained: x" << format_double(sustained_multiplier, 3) << " of nominal\n";

    report.add("setup_s", median(setup_s), "s", cat("median of ", kBoots, " boots"));
    report.add("read_p50_ms", nom.read.p50, "ms", cat("n=", nom.read.n));
    // The offered request rate of the highest sustained step (the nominal
    // rate if none is): a property of the schedule the server kept up with,
    // independent of think time and of how long the last walks ran.
    report.add("sustained_rps",
               spec->nominal_rate * sustained_multiplier * spec->requests_per_arrival(), "1/s",
               cat("x", format_double(sustained_multiplier, 3), " of nominal"));
    report.add("peak_rss_mb", read_proc("/proc/self/status")["VmHWM"] / 1024.0, "MB");
  } else {
    // --- Traced phase: every request traced and retained. ---
    trace::TracerConfig on;
    on.sample_every = 1;
    on.ring_capacity = 1u << 22;
    trace::Tracer::instance().reset();
    trace::Tracer::instance().configure(on);
    Run traced;
    scheduler.plan(kTracedWarm, spec->nominal_rate, 0, kWarmupSeconds, traced.plan);
    scheduler.plan(kTraced, spec->nominal_rate, static_cast<std::int64_t>(kWarmupSeconds * 1e9),
                   nominal_s, traced.plan);
    const auto io_start = read_proc("/proc/self/io");
    execute(traced, 0);
    const auto io_end = read_proc("/proc/self/io");
    const auto traces = trace::Tracer::instance().recent();
    trace::Tracer::instance().configure(off);
    const PhaseLatency tr = phase_latency(traced, kTraced);
    print_phase("traced", tr, tr.lag.tail <= lag_limit);

    std::map<std::string, std::size_t> by_wire;  // session#wire_id -> plan index
    for (std::size_t i = 0; i < traced.plan.size(); ++i) {
      if (traced.outcomes[i].was_sent) {
        by_wire[cat(traced.plan[i].session, "#", traced.outcomes[i].wire_id)] = i;
      }
    }
    const std::size_t verbs = verb_names().size();
    std::vector<double> ingress, parse, queue_wait, respond, outside, self_read, self_write;
    std::vector<std::vector<double>> self_by_verb(verbs), sweep_by_verb(verbs);
    std::vector<double> bytes_by_verb(verbs, 0.0), count_by_verb(verbs, 0.0);
    double write_sweep = 0, write_execute = 0, write_sweeps = 0, writes = 0;
    double range_self_us = 0, range_kcores = 0;
    std::size_t matched = 0;
    for (const auto& t : traces) {
      const auto it = by_wire.find(cat(t->session(), "#", t->request_id()));
      if (it == by_wire.end()) continue;
      const Planned& p = traced.plan[it->second];
      const Outcome& o = traced.outcomes[it->second];
      if (p.phase != kTraced || !o.answered) continue;
      ++matched;
      const Breakdown b = breakdown(*t);
      ingress.push_back(b.ingress);
      parse.push_back(b.parse);
      queue_wait.push_back(b.queue_wait);
      respond.push_back(b.respond);
      outside.push_back(ms_between(o.sent, o.done) - b.total);
      self_by_verb[p.verb].push_back(b.execute_self);
      sweep_by_verb[p.verb].push_back(b.sweep);
      bytes_by_verb[p.verb] += o.bytes;
      count_by_verb[p.verb] += 1;
      if (p.cls == VerbClass::kRead) self_read.push_back(b.execute_self);
      if (p.cls == VerbClass::kWrite) {
        self_write.push_back(b.execute_self);
        write_sweep += b.sweep;
        write_execute += b.execute;
        write_sweeps += b.sweeps;
        writes += 1;
      }
      if (o.over_cores > 0) {
        range_self_us += b.execute_self * 1000.0;
        range_kcores += o.over_cores / 1000.0;
      }
    }
    std::cout << "traced requests matched to spans: " << matched << " of " << tr.requests
              << " (" << traces.size() << " traces retained)\n";

    // dsl counters from the `stats` answers (walk workloads end with one;
    // stream workloads ask every session once after the traced phase).
    Run probe;
    if (!spec->walks) {
      for (unsigned s = 0; s < spec->sessions; ++s) {
        Planned p;
        p.session = spec->session_name(s);
        p.command = "stats";
        p.expect = "stats";
        p.cls = VerbClass::kOther;
        p.at_ns = static_cast<std::int64_t>(s) * 1'000'000;
        probe.plan.push_back(p);
      }
      execute(probe, 0);
    }
    double compliance = 0, evaluations = 0, hits = 0, misses = 0, stats_answers = 0;
    const auto scan_stats = [&](const Run& run, bool traced_only) {
      for (std::size_t i = 0; i < run.plan.size(); ++i) {
        const Outcome& o = run.outcomes[i];
        if (o.text.empty() || (traced_only && run.plan[i].phase != kTraced)) continue;
        const std::size_t at = o.text.find("session: ");
        if (at == std::string::npos) continue;
        const auto number = [&](const char* label) {
          const std::size_t pos = o.text.find(label, at);
          return pos == std::string::npos ? 0.0 : std::strtod(o.text.c_str() + pos + std::strlen(label), nullptr);
        };
        evaluations += number("constraint evaluations: ");
        compliance += number("compliance checks: ");
        hits += number("cache hits: ");
        misses += number("cache misses: ");
        stats_answers += 1;
      }
    };
    scan_stats(traced, true);
    scan_stats(probe, false);

    // Session-journal flushes per read and per write: a quiet sequential
    // probe of reads only, then of cycle writes only.
    double flushes_per_read = 0, flushes_per_write = 0;
    if (spec->durable) {
      for (const bool write : {false, true}) {
        Run quiet;
        for (unsigned i = 0; i < 2 * spec->sessions; ++i) {
          scheduler.plan_one(kProbe, static_cast<std::int64_t>(i) * 20'000'000, write, quiet.plan);
        }
        const std::uint64_t before = storage::counters().session_flushes.get();
        execute(quiet, 0);
        const double per = static_cast<double>(storage::counters().session_flushes.get() - before) /
                           static_cast<double>(quiet.plan.size());
        (write ? flushes_per_write : flushes_per_read) = per;
      }
    }

    const auto executor_stats = stack->executor->stats();
    const auto manager_stats = stack->manager->stats();
    const double commands = std::max<double>(1.0, static_cast<double>(tr.requests));
    const auto pct_over = [](double traced_value, double base) {
      return base > 0 ? (traced_value - base) / base * 100.0 : 0.0;
    };

    report.add_summary("net.ingress_ms", summarize(ingress));
    report.add_summary("net.parse_ms", summarize(parse));
    report.add_summary("net.respond_ms", summarize(respond));
    report.add_summary("net.outside_ms", summarize(outside));
    // Per-verb metrics read 0 on the workloads that do not send the verb.
    for (const char* verb : {"options", "pending", "derived", "range", "ranges", "candidates"}) {
      const std::uint16_t v = verb_index(verb);
      report.add(cat("net.response_bytes.", verb),
                 count_by_verb[v] > 0 ? bytes_by_verb[v] / count_by_verb[v] : 0.0, "bytes",
                 cat("mean, n=", count_by_verb[v]));
    }
    report.add_summary("service.queue_wait_ms", summarize(queue_wait));
    report.add("service.peak_queue_depth", static_cast<double>(executor_stats.peak_queue_depth), "count");
    report.add("service.rejected", static_cast<double>(executor_stats.rejected), "count");
    report.add("service.shed", static_cast<double>(executor_stats.shed), "count");
    const Summary sr = summarize(self_read), sw = summarize(self_write);
    report.add("service.execute_self_ms.read", sr.p50, "ms", cat("p50 n=", sr.n));
    report.add("service.execute_self_ms.write", sw.p50, "ms", cat("p50 n=", sw.n));
    for (const char* verb : {"decide", "retract", "options", "pending", "derived", "open", "req",
                             "range", "ranges", "candidates"}) {
      const Summary s = summarize(self_by_verb[verb_index(verb)]);
      report.add(cat("service.execute_self_ms.", verb), s.p50, "ms", cat("p50 n=", s.n));
    }
    report.add("service.restored", static_cast<double>(manager_stats.restored), "count");
    report.add("service.migrations", static_cast<double>(manager_stats.migrations), "count");
    report.add("service.evicted", static_cast<double>(manager_stats.evicted), "count");
    report.add("dsl.sweep_ms.write", writes > 0 ? write_sweep / writes : 0.0, "ms",
               cat("mean n=", writes));
    for (const char* verb : {"decide", "open", "req", "retract"}) {
      const Summary s = summarize(sweep_by_verb[verb_index(verb)]);
      report.add(cat("dsl.sweep_ms.", verb), s.mean, "ms", cat("mean n=", s.n));
    }
    report.add("dsl.sweep_share_of_write_pct", write_execute > 0 ? write_sweep / write_execute * 100.0 : 0.0, "%");
    report.add("dsl.sweeps_per_write", writes > 0 ? write_sweeps / writes : 0.0, "count");
    const double per_stats = std::max(1.0, stats_answers);
    report.add("dsl.compliance_checks", compliance / per_stats, "count", cat("per session, n=", stats_answers));
    report.add("dsl.constraint_evaluations", evaluations / per_stats, "count", cat("per session, n=", stats_answers));
    report.add("dsl.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    // Only the walk workloads read ranges.
    report.add("dsl.range_us_per_kcore", range_kcores > 0 ? range_self_us / range_kcores : 0.0,
               "us/kcore", cat("over ", format_double(range_kcores, 6), " kcores"));
    report.add("storage.boot_ms.open", median(phase_open), "ms");
    report.add("storage.boot_ms.symbols", median(phase_symbols), "ms");
    report.add("storage.boot_ms.cores", median(phase_cores), "ms");
    report.add("storage.boot_ms.index", median(phase_index), "ms");
    report.add("storage.boot_ms.tables", median(phase_tables), "ms");
    report.add("storage.load_ms", median(load_ms), "ms");
    report.add("storage.prime_ms", median(prime_ms), "ms");
    report.add("storage.aliased_bytes", static_cast<double>(stack->load.aliased_bytes), "bytes");
    report.add("storage.session_flushes_per_read", flushes_per_read, "count");
    report.add("storage.session_flushes_per_write", flushes_per_write, "count");
    report.add("storage.bytes_written_per_cmd",
               (io_end.at("write_bytes") - io_start.at("write_bytes")) / commands, "bytes");
    report.add("storage.write_syscalls_per_cmd", (io_end.at("syscw") - io_start.at("syscw")) / commands, "count");
    report.add("net.start_ms", median(start_ms), "ms");
    report.add("trace.overhead_pct", pct_over(tr.read.p50, nom.read.p50), "%",
               cat("traced read_p50 ", format_double(tr.read.p50, 4), " ms vs untraced ",
                   format_double(nom.read.p50, 4), " ms"));
    report.add("gen.lag_ms", std::max(nom.lag.tail, tr.lag.tail), "ms", cat("tail, n=", nom.lag.n + tr.lag.n));
    report.add("gen.backlog", static_cast<double>(std::max(nominal.result.peak_generator_backlog,
                                                           traced.result.peak_generator_backlog)),
               "count");
    // The nominal write p50, the tails and fail_ratio are per-layer
    // metrics; the untraced report prints them on its phase and summary lines.
    report.add("write_p50_ms", nom.write.p50, "ms", cat("n=", nom.write.n));
    for (const auto& [name, s] : {std::pair{"read_tail_ms", nom.read}, std::pair{"write_tail_ms", nom.write}}) {
      report.add(name, s.tail, "ms", cat("p", format_double(s.tail_pct, 3), " n=", s.n));
    }
    report.add("fail_ratio", tally.attempted > 0 ? static_cast<double>(tally.failed) / static_cast<double>(tally.attempted) : 0.0, "ratio");
  }

  const bool correct = tally.failed == 0 && tally.attempted > 0;
  std::cout << "stream hash " << hex64(scheduler.stream_hash()) << " (seed " << args.seed << ")\n";
  std::cout << "attempted " << tally.attempted << " failed " << tally.failed;
  for (const auto& [status, count] : tally.failures) std::cout << " " << status << "=" << count;
  std::cout << " fail_ratio "
            << (tally.attempted > 0 ? static_cast<double>(tally.failed) / static_cast<double>(tally.attempted) : 0.0)
            << "\n";
  std::cout << "metrics:\n";
  report.print_text(std::cout);
  std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
            << tally.attempted << ", \"failed\": " << tally.failed
            << ", \"metrics\": " << report.json() << "}" << std::endl;
  // Stop every service thread, then exit without freeing the
  // million-core catalog.
  stack->server->stop();
  stack->executor->shutdown();
  std::fflush(nullptr);
  std::_Exit(correct ? 0 : 1);
}

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args) || (args.mode != "fixture" && args.mode != "run")) {
    std::cerr << "usage: e2e fixture --dir DIR [--cores N]\n"
                 "       e2e run --fixture DIR --work DIR --workload NAME --seed N --seconds S"
                 " --trace 0|1 [--inject-wrong]\n";
    return 2;
  }
  try {
    if (args.mode == "fixture") return make_fixture(args.fixture, args.cores);
    return run_benchmark(args);
  } catch (const std::exception& e) {
    std::cerr << "e2e: " << e.what() << "\n";
    return 2;
  }
}
