// Durable session journals: named exploration sessions survive a restart.
//
// The shell engine already records every state-changing command as a
// JSONL journal (dsl/shell.hpp journal_jsonl / restore_from_journal) —
// the same mechanism session migration replays across catalog epochs.
// This store persists that journal per session, one file per session
// under <data-dir>/sessions/, so a rebooted service can rebuild each
// named session by replay against the recovered catalog.
//
// File names: the session name with every byte outside [A-Za-z0-9_-]
// percent-encoded ("%2F" for '/'), plus ".jsonl" — collision-free,
// reversible, and safe on any filesystem.
//
// Write discipline: save() rewrites atomically (tmp + fsync + rename) when
// the session was replaced (re-open, trace replay, a replay that did not
// reproduce the file); append() extends the existing file for the common
// one-command delta (SessionManager tells the two apart by the engine's
// session number). Either way the record boundary is the newline: load()
// drops an unterminated last line (and cuts it off the file), so a crash
// mid-write costs at most the final un-acknowledged command.
//
// Failpoint sites: storage.session.flush (before any write),
// storage.session.rename (before the atomic rename).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dslayer::storage {

class SessionStore {
 public:
  /// Creates `dir` (mkdir -p) on construction.
  explicit SessionStore(std::string dir);

  const std::string& dir() const { return dir_; }

  /// Atomically replaces the session's journal with `jsonl`.
  void save(const std::string& session, std::string_view jsonl);

  /// Appends `jsonl_suffix` (which must be newline-terminated complete
  /// lines) to the session's journal, creating it if missing, and fsyncs.
  void append(const std::string& session, std::string_view jsonl_suffix);

  /// The persisted journal, or nullopt if the session has none. A torn
  /// (newline-less) final line is dropped, not returned, and truncated
  /// off the file, which then holds exactly the returned text.
  std::optional<std::string> load(const std::string& session) const;

  /// Deletes the session's journal (missing is fine: `!close` after a
  /// crash that lost the file must still succeed).
  void remove(const std::string& session);

  /// Names of every persisted session, sorted.
  std::vector<std::string> list() const;

  static std::string encode_name(const std::string& session);
  static std::string decode_name(const std::string& file_stem);

 private:
  std::string file_path(const std::string& session) const;

  std::string dir_;
};

}  // namespace dslayer::storage
