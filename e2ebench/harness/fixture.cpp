#include "fixture.hpp"

#include <unistd.h>

#include <fstream>
#include <iostream>
#include <sstream>

#include "common.hpp"
#include "domains/crypto.hpp"
#include "dsl/shell.hpp"
#include "service/shared_layer.hpp"
#include "storage/file_io.hpp"
#include "storage/session_store.hpp"
#include "storage/snapshot.hpp"
#include "support/strings.hpp"
#include "synthetic_library.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace dslayer;

namespace {

/// Runs one command in `engine`, appends its expected-output record under
/// `key`, and fails loudly if a scripted command does not succeed.
bool record(dsl::ShellEngine& engine, const std::string& key, const std::string& command,
            std::ostream& expected) {
  std::ostringstream out;
  const dsl::ShellEngine::Status status = engine.execute(command, out);
  std::string text = out.str();
  if (status == dsl::ShellEngine::Status::kQuit) {
    text = "closed\n";  // the session manager's answer to quit
  } else if (status != dsl::ShellEngine::Status::kOk) {
    std::cerr << "fixture: '" << command << "' failed for " << key << ": " << text;
    return false;
  }
  if (verb_of(command) == "stats") {
    // Layer-wide counters depend on every other session: format-checked only.
    expected << key << "\tstats\t0\n";
  } else {
    expected << key << "\t" << hex64(fnv1a(text)) << "\t" << text.size() << "\n";
  }
  return true;
}

bool run_plain(dsl::ShellEngine& engine, const std::string& command) {
  std::ostringstream out;
  if (engine.execute(command, out) == dsl::ShellEngine::Status::kOk) return true;
  std::cerr << "fixture: '" << command << "' failed: " << out.str();
  return false;
}

void link_or_copy(const std::string& from, const std::string& to) {
  storage::remove_file(to);
  if (::link(from.c_str(), to.c_str()) == 0) return;
  std::ifstream in(from, std::ios::binary);
  std::ofstream out(to, std::ios::binary);
  out << in.rdbuf();
}

}  // namespace

int make_fixture(const std::string& dir, std::size_t cores) {
  storage::ensure_directory(dir);
  const std::string snap = dir + "/catalog.snap";
  const Clock::time_point start = Clock::now();
  {
    // The catalog as a serving process holds it: indexed and primed.
    auto layer = domains::build_crypto_layer();
    bench::populate_synthetic_library(layer->add_library("syn-hardcores"), cores);
    service::SharedLayer primed(*layer);
    storage::write_snapshot(*layer, snap);
  }
  const double generate_ms = ms_since(start);

  // Expected outputs come from a layer booted from that same snapshot.
  auto layer = domains::build_crypto_layer();
  storage::load_snapshot(*layer, snap);
  service::SharedLayer shared(*layer, service::SharedLayer::Reindex::kPreserve);
  const auto reader = shared.read_lock();

  storage::ensure_directory(dir + "/data");
  link_or_copy(snap, dir + "/data/catalog.snap");
  storage::SessionStore store(dir + "/data/sessions");

  std::ofstream expected(dir + "/expected.tsv.tmp");
  for (const WorkloadSpec& spec : all_workloads()) {
    if (spec.walks) {
      for (const Script& variant : spec.variants) {
        dsl::ShellEngine engine(*layer);
        for (std::size_t i = 0; i < variant.commands.size(); ++i) {
          if (!record(engine, walk_key(spec, variant, i), variant.commands[i], expected)) return 1;
        }
      }
      continue;
    }
    dsl::ShellEngine engine(*layer);
    for (const std::string& command : spec.prefix) {
      if (!run_plain(engine, command)) return 1;
    }
    for (unsigned i = 0; i < spec.seeded_writes; ++i) {
      if (!run_plain(engine, spec.cycle[i % spec.cycle.size()])) return 1;
    }
    if (spec.durable) {
      const std::string journal = engine.journal_jsonl();
      for (unsigned s = 0; s < spec.sessions; ++s) store.save(spec.session_name(s), journal);
    }
    for (std::size_t at = 0; at < spec.cycle.size(); ++at) {
      for (const std::string& command : spec.reads) {
        if (!record(engine, stream_key(spec, at, command), command, expected)) return 1;
      }
      if (!record(engine, stream_key(spec, at, spec.cycle[at]), spec.cycle[at], expected)) return 1;
    }
  }
  expected.close();
  storage::rename_into_place(dir + "/expected.tsv.tmp", dir + "/expected.tsv");

  std::ofstream info(dir + "/fixture.txt");
  info << "cores " << cores << "\ngenerate_ms " << generate_ms << "\ntotal_ms " << ms_since(start)
       << "\n";
  std::cout << "fixture: " << cores << " cores in " << format_double(ms_since(start) / 1000.0, 4)
            << " s\n";
  return 0;
}

}  // namespace e2e
