// A scriptable command shell over a design space layer.
//
// Conceptual design is an interactive activity — the paper's designer
// enters requirements, inspects ranges, makes and revises decisions. This
// shell exposes the full ExplorationSession surface as line commands so a
// layer can be driven interactively (tools/dslshell) or from scripts and
// tests. One command per line; `help` lists them; errors are reported and
// never terminate the shell.
//
// The command grammar is factored into ShellEngine so the same commands
// serve two front ends: the interactive loop below (run_shell) and the
// concurrent exploration service (src/service), whose request protocol is
// exactly one shell command per request.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "dsl/exploration.hpp"
#include "dsl/layer.hpp"

namespace dslayer::dsl {

/// One shell instance: a layer to explore plus the (at most one) session
/// the commands operate on. Executes one command line at a time; not
/// thread-safe by itself (the service serializes per engine).
class ShellEngine {
 public:
  enum class Status {
    kEmpty,  ///< blank line or comment — nothing happened
    kOk,     ///< command executed
    kError,  ///< command failed; an "error: ..." line was written to out
    kQuit,   ///< the command asked to leave the shell / close the session
  };

  explicit ShellEngine(const DesignSpaceLayer& layer) : layer_(&layer) {}

  /// Executes one command line, writing its output (or "error: ...") to
  /// `out`. Never throws for command-level failures.
  Status execute(const std::string& line, std::ostream& out);

  const DesignSpaceLayer& layer() const { return *layer_; }

  /// The open exploration session; nullptr before `open` (or `trace
  /// replay`) succeeds.
  ExplorationSession* session() { return session_.get(); }
  const ExplorationSession* session() const { return session_.get(); }

  /// The open session's replay journal as JSONL; empty string when no
  /// session is open. This is the service's migration substrate: a
  /// session crossing a layer epoch is rebuilt from exactly this text.
  /// Valid until the session is replaced or closed; between those, it
  /// only ever grows by appended lines.
  const std::string& journal_jsonl() const;

  /// Identifies the open session's journal: bumped every time the session
  /// is replaced or closed (`open`, `trace replay`, restore_from_journal,
  /// close_session), never 0 once a session has been opened. While it is
  /// unchanged, journal_jsonl() only grows, so a durable copy written at
  /// this number can be extended by appending the new suffix.
  std::uint64_t session_number() const { return session_number_; }

  /// Replaces the session with one replayed from a JSONL journal. Throws
  /// ExplorationError on malformed journals or if the journaled actions
  /// are no longer valid against the (possibly updated) layer; the
  /// current session is then left untouched. `jsonl` may be the current
  /// session's own journal_jsonl().
  void restore_from_journal(const std::string& jsonl);

  void close_session() {
    session_.reset();
    ++session_number_;
  }

 private:
  Status dispatch(const std::vector<std::string>& words, std::ostream& out);
  ExplorationSession& need_session();

  const DesignSpaceLayer* layer_;
  std::unique_ptr<ExplorationSession> session_;
  std::uint64_t session_number_ = 0;
};

/// Runs the command loop: reads commands from `in` until EOF or `quit`,
/// writing results to `out`. Returns the number of commands that failed
/// (so scripted runs can assert clean execution).
int run_shell(const DesignSpaceLayer& layer, std::istream& in, std::ostream& out);

}  // namespace dslayer::dsl
