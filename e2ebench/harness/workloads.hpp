// The four workloads: scripted designer sessions, the open-loop arrival
// schedule that drives them, and the keys under which the fixture stores
// each command's expected output.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace e2e {

enum class VerbClass : std::uint8_t { kRead, kWrite, kOther };

/// First word of a shell command ("range", "decide", ...).
std::string verb_of(const std::string& command);
/// range/ranges/options/pending/derived/candidates are reads; open/req/
/// decide/retract/reaffirm are writes; everything else (stats, quit) is other.
VerbClass classify(const std::string& verb);

/// One scripted designer walk (a script variant).
struct Script {
  std::string name;
  std::vector<std::string> commands;
};

struct WorkloadSpec {
  std::string name;
  bool durable = false;  ///< --data mode over a copy of the fixture data directory
  bool walks = false;    ///< whole designer walks (explore, latency_spec) vs a read stream
  /// Walk workloads: the variants a session's script is drawn from, the
  /// arrival rate in walks/s and the think time between a walk's commands.
  std::vector<Script> variants;
  double think_ms = 0.0;
  /// Stream workloads: every session is walked through `prefix` first (in
  /// setup for hot_reads; as the seeded durable journal for
  /// durable_history), then requests pick a session and either one of
  /// `reads` or, one time in `write_every`, the session's next write of
  /// the `cycle`.
  std::vector<std::string> prefix;
  std::vector<std::string> reads;
  std::vector<std::string> cycle;
  unsigned write_every = 0;
  unsigned sessions = 0;
  unsigned seeded_writes = 0;  ///< cycle writes in each seeded journal (a multiple of the cycle)
  /// Nominal arrival rate: walks/s for walk workloads, requests/s otherwise.
  double nominal_rate = 0.0;
  /// Ladder of rate multipliers over nominal_rate for sustained_rps; it
  /// reaches past the capacity measured on the reference machine.
  std::vector<double> ladder;
  double step_seconds = 0.0;
  /// Latency limits (ms) on the read and write tails; a ladder step over
  /// either is not sustained.
  double read_limit_ms = 0.0;
  double write_limit_ms = 0.0;
  /// Ladder steps stop sending once this many requests are outstanding.
  unsigned max_outstanding = 0;

  std::string session_name(unsigned index) const;
  /// Requests per arrival: the mean walk length, or 1 for a stream.
  double requests_per_arrival() const;
};

const std::vector<WorkloadSpec>& all_workloads();
const WorkloadSpec* find_workload(const std::string& name);

/// Expected-output keys: walks key by variant and command index, streams
/// by the session's position in the write cycle and the command.
std::string walk_key(const WorkloadSpec& spec, const Script& variant, std::size_t index);
std::string stream_key(const WorkloadSpec& spec, std::size_t position, const std::string& command);

/// One request of the open-loop schedule.
struct Planned {
  std::int64_t at_ns = 0;  ///< scheduled send time, relative to the run origin
  std::string session;
  std::string command;
  std::string expect;      ///< expected-output key
  VerbClass cls = VerbClass::kOther;
  std::uint16_t verb = 0;  ///< index into verb_names()
  std::uint16_t phase = 0;
};

const std::vector<std::string>& verb_names();
std::uint16_t verb_index(const std::string& verb);

/// Generates the schedule phase by phase. Stream workloads carry each
/// session's position in the write cycle from one phase to the next.
class Scheduler {
 public:
  Scheduler(const WorkloadSpec& spec, std::uint64_t seed);

  /// Appends to `out` the requests of one phase at `rate` (the spec's unit)
  /// scheduled in [start_ns, start_ns + seconds). Walk workloads append
  /// every command of each walk that arrives in the window, even those
  /// scheduled after it. Returns the phase's request count.
  std::size_t plan(std::uint16_t phase, double rate, std::int64_t start_ns, double seconds,
                   std::vector<Planned>& out);

  /// Appends one stream request at `at_ns`, on the next session in turn:
  /// a read, or (`write`) that session's next cycle write.
  void plan_one(std::uint16_t phase, std::int64_t at_ns, bool write, std::vector<Planned>& out);

  /// FNV-1a over every planned request so far: equal seeds give equal hashes.
  std::uint64_t stream_hash() const { return hash_; }

 private:
  void push(std::vector<Planned>& out, Planned planned);

  const WorkloadSpec& spec_;
  std::mt19937_64 rng_;
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
  unsigned next_walk_ = 0;
  unsigned next_session_ = 0;  ///< plan_one's round robin
  std::vector<std::size_t> position_;  ///< stream sessions' place in the write cycle
};

}  // namespace e2e
