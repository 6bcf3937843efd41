// Named, concurrent exploration sessions over one SharedLayer.
//
// Each session is a ShellEngine (one open ExplorationSession plus the
// command grammar) with a lock, the SharedLayer epoch its state was built
// at, and an LRU timestamp. The manager owns the name -> session registry
// and the lifecycle the service promises:
//
//   create    — sessions appear on first use of a name (bounded count;
//               at capacity the least-recently-used idle session is
//               evicted to make room);
//   execute   — one shell-grammar command under the session lock and the
//               shared reader lock; per-session ordering is the
//               executor's strand guarantee, the lock makes even
//               unordered direct calls safe;
//   migrate   — a session built at an older epoch is rebuilt from its
//               replay journal against the updated layer before its next
//               command (coherent cache invalidation: every memoized
//               per-session query is recomputed against the new layer);
//   close     — explicit (`quit` command or close()) or by eviction.
//
// Lock order: a session lock may be held when the registry lock is taken
// (the quit-path close); registry-side code never blocks on a session
// lock, so that nesting cannot deadlock. The shared reader lock is
// innermost. Writers (SharedLayer::write) take no manager locks, so
// catalog updates cannot deadlock against exploration.
//
// Eviction safety: acquire() pins the session (while still holding the
// registry lock) and execute() unpins it once the command is done, so a
// session handed to a caller cannot be evicted in the window between the
// registry lookup and the caller taking the session lock. Eviction only
// considers sessions with a zero pin count — every session-lock holder
// pins first, so an unpinned session is guaranteed idle.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "dsl/shell.hpp"
#include "service/shared_layer.hpp"
#include "storage/session_store.hpp"
#include "support/relaxed_counter.hpp"

namespace dslayer::service {

class SessionManager {
 public:
  struct Options {
    /// Hard bound on live sessions; creating past it evicts the LRU idle
    /// session, or fails with SessionsBusyError (retryable) if every
    /// session is busy.
    std::size_t max_sessions = 64;
    /// Degraded-mode threshold: execute() waits at most this long for the
    /// shared reader lock, then fails fast with UnavailableError
    /// (retryable) instead of queueing behind a stalled catalog writer.
    /// 0 = wait forever (the pre-degradation behavior).
    double degraded_after_ms = 0.0;
    /// Durable session journals (not owned; may be null = volatile
    /// sessions). With a store: a session created for a name with a
    /// persisted journal is rebuilt from it by replay before its first
    /// command; every state-changing command re-persists the journal
    /// (append for the common one-command delta, atomic rewrite when the
    /// command replaced the session); `quit` and close() delete it; LRU
    /// eviction keeps it — an evicted name resumes from disk on next use.
    /// Persistence failures never fail the command: they are counted in
    /// storage::counters().session_flush_failures (and restore_failures
    /// in Stats).
    storage::SessionStore* store = nullptr;
  };

  /// Counter snapshot (see stats()).
  struct Stats {
    std::uint64_t created = 0;
    std::uint64_t closed = 0;    ///< explicit close / quit
    std::uint64_t evicted = 0;   ///< LRU-evicted at capacity or by evict_idle()
    std::uint64_t commands = 0;  ///< execute() calls that reached an engine
    std::uint64_t migrations = 0;
    std::uint64_t migration_failures = 0;
    std::uint64_t restored = 0;          ///< sessions rebuilt from a durable journal
    std::uint64_t restore_failures = 0;  ///< durable journals that no longer replay
  };

  explicit SessionManager(SharedLayer& shared);
  SessionManager(SharedLayer& shared, Options options);

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Executes one shell-grammar command line against the named session,
  /// creating the session on first use. Migrates the session first if a
  /// writer epoch has passed. `quit`/`exit` close the session. Writes the
  /// command's output (or "error: ...") to `out`. Thread-safe. Command
  /// failures return kError; manager-level failures throw typed errors
  /// the executor maps to wire codes: SessionsBusyError (session limit,
  /// nothing evictable), UnavailableError (degraded_after_ms exceeded
  /// behind a stalled writer), DeadlineExceeded (the caller's deadline
  /// expired at a sweep checkpoint — session state is untouched because
  /// checkpoints only run in derived-query computation).
  ///
  /// Failpoints: "service.session.execute" fires before the command,
  /// "service.session.migrate" inside journal replay (an error there is
  /// a forced migration failure), "service.session.evict" before an LRU
  /// eviction.
  dsl::ShellEngine::Status execute(const std::string& session, const std::string& line,
                                   std::ostream& out);

  /// Closes a session by name; false if it does not exist.
  bool close(const std::string& session);

  /// Evicts every session whose last touch is older than the newest
  /// `keep_recent` touches and that is not pinned by an in-flight
  /// execute(). Returns evicted count.
  std::size_t evict_idle(std::size_t keep_recent);

  std::vector<std::string> session_names() const;
  std::size_t session_count() const;
  Stats stats() const;

  SharedLayer& shared() { return *shared_; }

 private:
  struct Session {
    explicit Session(const dsl::DesignSpaceLayer& layer) : engine(layer) {}
    std::mutex lock;
    dsl::ShellEngine engine;
    std::uint64_t epoch = 0;       ///< SharedLayer epoch the state is valid for
    std::uint64_t last_touch = 0;  ///< manager touch counter (LRU)
    std::atomic<int> pins{0};      ///< in-flight execute() holds; guards eviction
    /// Durable journal found at create, replayed under the locks before
    /// the first command (needs the shared reader lock acquire() cannot
    /// take).
    std::optional<std::string> pending_restore;
    /// The engine session_number() the durable file was last written
    /// against (or adopted by a restore/migration replay that rebuilt its
    /// text exactly), and how many journal bytes it holds. While the
    /// engine's number matches, its journal extends the file and persist
    /// appends the suffix; 0 (after a failed write, or a file replay did
    /// not reproduce) forces an atomic whole rewrite.
    std::uint64_t persisted_session = 0;
    std::size_t persisted_bytes = 0;
  };

  /// Looks up or creates the named session; bumps its LRU stamp and pins
  /// the session against eviction. The caller must unpin when done.
  std::shared_ptr<Session> acquire(const std::string& name);

  /// Erases the registry entry for `name` only if it still points at
  /// `expected` — the quit path runs on a session object that may have
  /// been closed and its name reclaimed by a newer session meanwhile.
  bool close_if_current(const std::string& name, const std::shared_ptr<Session>& expected);

  /// Rebuilds a stale session from its journal. Caller holds the session
  /// lock and the shared reader lock. Returns false (with an "error: ..."
  /// line on `out`) when the journal no longer replays cleanly — the
  /// session is then left freshly closed at the new epoch.
  bool migrate(Session& session, const std::string& name, std::ostream& out);

  /// Replays a durable journal into a freshly created session. Caller
  /// holds the session lock and the shared reader lock. Mirrors migrate():
  /// false leaves the session freshly closed with an "error: ..." line.
  bool restore(Session& session, const std::string& name, std::ostream& out);

  /// After a replay rebuilt the session from `journal`, the durable file's
  /// text: adopts the file as written against the new session when the
  /// rebuilt journal is identical, so the next persist appends (or does
  /// nothing) instead of rewriting the file.
  static void adopt_file(Session& session, const std::string& journal);

  /// Persists the session's journal after a state-changing command; never
  /// throws (failures land in storage counters).
  void persist(Session& session, const std::string& name);

  /// Deletes the durable journal (quit / explicit close); never throws.
  void discard_persisted(const std::string& name);

  SharedLayer* shared_;
  Options options_;

  mutable std::mutex registry_lock_;
  std::map<std::string, std::shared_ptr<Session>> sessions_;
  std::uint64_t touch_counter_ = 0;  // guarded by registry_lock_

  RelaxedCounter created_;
  RelaxedCounter closed_;
  RelaxedCounter evicted_;
  RelaxedCounter commands_;
  RelaxedCounter migrations_;
  RelaxedCounter migration_failures_;
  RelaxedCounter restored_;
  RelaxedCounter restore_failures_;
};

}  // namespace dslayer::service
