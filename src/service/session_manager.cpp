#include "service/session_manager.hpp"

#include <algorithm>
#include <ostream>

#include "storage/counters.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/strings.hpp"

namespace dslayer::service {

SessionManager::SessionManager(SharedLayer& shared) : SessionManager(shared, Options{}) {}

SessionManager::SessionManager(SharedLayer& shared, Options options)
    : shared_(&shared), options_(options) {
  DSLAYER_REQUIRE(options_.max_sessions > 0, "session manager needs capacity for one session");
}

std::shared_ptr<SessionManager::Session> SessionManager::acquire(const std::string& name) {
  DSLAYER_REQUIRE(!name.empty(), "session name must not be empty");
  std::lock_guard<std::mutex> registry(registry_lock_);
  const std::uint64_t now = ++touch_counter_;
  if (const auto it = sessions_.find(name); it != sessions_.end()) {
    it->second->last_touch = now;
    it->second->pins.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  if (sessions_.size() >= options_.max_sessions) {
    // Evict the least-recently-used unpinned session (a pin means a
    // command is in flight or about to take the session lock — never
    // yank state from under it). Eviction is the idle-session policy, so
    // a later request for an evicted name simply starts a fresh session.
    auto victim = sessions_.end();
    for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
      if (victim != sessions_.end() && it->second->last_touch >= victim->second->last_touch) {
        continue;
      }
      if (it->second->pins.load(std::memory_order_relaxed) == 0) victim = it;
    }
    if (victim == sessions_.end()) {
      throw SessionsBusyError(cat("session limit (", options_.max_sessions,
                                  ") reached and every session is busy"));
    }
    // Chaos hook: an error here aborts the acquire before any state
    // changes (the victim survives, the new session is never created).
    DSLAYER_FAILPOINT("service.session.evict");
    sessions_.erase(victim);
    evicted_.add(1);
  }
  auto session = std::make_shared<Session>(shared_->layer());
  session->epoch = shared_->epoch();
  session->last_touch = now;
  session->pins.store(1, std::memory_order_relaxed);
  if (options_.store != nullptr) {
    // A durable journal under this name (pre-restart, or LRU-evicted)
    // resumes the session. Loaded here (one small-file read under the
    // registry lock) but replayed later, under the shared reader lock
    // acquire() must not take.
    try {
      session->pending_restore = options_.store->load(name);
    } catch (const Error&) {
      restore_failures_.add(1);  // unreadable journal: start fresh
    }
  }
  sessions_.emplace(name, session);
  created_.add(1);
  return session;
}

bool SessionManager::migrate(Session& session, const std::string& name, std::ostream& out) {
  migrations_.add(1);
  session.epoch = shared_->epoch();
  if (session.engine.journal_jsonl().empty()) return true;  // nothing to carry across
  // A copy: the replay replaces the session that owns the journal.
  const std::string journal = session.engine.journal_jsonl();
  const bool file_holds_journal = session.persisted_session == session.engine.session_number() &&
                                  session.persisted_bytes == journal.size();
  try {
    // Replay must run to completion or not at all: a request deadline
    // expiring mid-replay would otherwise leave a half-rebuilt session.
    // Installing an unset deadline suppresses the caller's for the scope.
    const support::DeadlineScope no_deadline{support::Deadline{}};
    DSLAYER_FAILPOINT("service.session.migrate");
    session.engine.restore_from_journal(journal);
    if (file_holds_journal) adopt_file(session, journal);
    return true;
  } catch (const Error& e) {
    // The updated layer rejects part of the journaled history (e.g. a
    // new constraint now vetoes an old decision). The session stays
    // open-able but empty; the designer re-decides against the new space.
    session.engine.close_session();
    migration_failures_.add(1);
    out << "error: session '" << name << "' could not be migrated to layer epoch "
        << session.epoch << ": " << e.what() << "\n";
    return false;
  }
}

bool SessionManager::restore(Session& session, const std::string& name, std::ostream& out) {
  const std::string journal = std::move(*session.pending_restore);
  session.pending_restore.reset();
  if (journal.empty()) return true;
  try {
    // Same all-or-nothing rule as migrate(): the caller's deadline must
    // not expire mid-replay and leave a half-rebuilt session.
    const support::DeadlineScope no_deadline{support::Deadline{}};
    session.engine.restore_from_journal(journal);
    adopt_file(session, journal);
    restored_.add(1);
    return true;
  } catch (const Error& e) {
    // The recovered catalog rejects part of the journaled history (the
    // same shape as a migration failure). The session starts fresh; its
    // next state-changing command overwrites the stale journal.
    restore_failures_.add(1);
    session.engine.close_session();
    out << "error: session '" << name << "' could not be restored from its durable journal: "
        << e.what() << "\n";
    return false;
  }
}

void SessionManager::adopt_file(Session& session, const std::string& journal) {
  // Journal lines are numbered by their ordinal, so a replay reproduces a
  // journal this code wrote byte for byte; a file that does not replay to
  // itself (another writer's numbering) is rewritten whole once.
  if (session.engine.journal_jsonl() != journal) return;
  session.persisted_session = session.engine.session_number();
  session.persisted_bytes = journal.size();
}

void SessionManager::persist(Session& session, const std::string& name) {
  const std::string& journal = session.engine.journal_jsonl();
  const std::uint64_t number = session.engine.session_number();
  const bool extends_file = session.persisted_session == number;
  if (extends_file && journal.size() == session.persisted_bytes) return;  // nothing appended
  try {
    if (extends_file) {
      options_.store->append(name,
                             std::string_view(journal).substr(session.persisted_bytes));
    } else {
      // A replaced, replayed or closed session, or a file not written
      // against this session: atomic whole-file rewrite.
      options_.store->save(name, journal);
    }
    session.persisted_session = number;
    session.persisted_bytes = journal.size();
  } catch (const Error&) {
    // Durability degraded, the command itself succeeded — surfacing this
    // as a command error would make designers re-issue decisions that DID
    // apply. Counted for alerting; the next persist rewrites whole.
    storage::counters().session_flush_failures.add();
    session.persisted_session = 0;
  }
}

void SessionManager::discard_persisted(const std::string& name) {
  if (options_.store == nullptr) return;
  try {
    options_.store->remove(name);
  } catch (const Error&) {
    storage::counters().session_flush_failures.add();
  }
}

dsl::ShellEngine::Status SessionManager::execute(const std::string& session_name,
                                                 const std::string& line, std::ostream& out) {
  const std::shared_ptr<Session> session = acquire(session_name);
  // acquire() pinned the session, so eviction cannot erase it before the
  // session lock below is taken; unpin on every exit path.
  struct Unpin {
    Session* session;
    ~Unpin() { session->pins.fetch_sub(1, std::memory_order_relaxed); }
  } unpin{session.get()};
  std::lock_guard<std::mutex> guard(session->lock);
  const auto reader = options_.degraded_after_ms > 0.0
                          ? shared_->read_lock_or_unavailable(options_.degraded_after_ms)
                          : shared_->read_lock();
  DSLAYER_FAILPOINT("service.session.execute");
  commands_.add(1);
  if (session->epoch != shared_->epoch() && !migrate(*session, session_name, out)) {
    return dsl::ShellEngine::Status::kError;
  }
  if (session->pending_restore.has_value() && !restore(*session, session_name, out)) {
    return dsl::ShellEngine::Status::kError;
  }
  const dsl::ShellEngine::Status status = session->engine.execute(line, out);
  if (status == dsl::ShellEngine::Status::kQuit) {
    session->engine.close_session();
    close_if_current(session_name, session);
    discard_persisted(session_name);
    out << "closed\n";
  } else if (options_.store != nullptr && status == dsl::ShellEngine::Status::kOk) {
    persist(*session, session_name);
  }
  return status;
}

bool SessionManager::close_if_current(const std::string& name,
                                      const std::shared_ptr<Session>& expected) {
  std::lock_guard<std::mutex> registry(registry_lock_);
  const auto it = sessions_.find(name);
  if (it == sessions_.end() || it->second != expected) return false;
  sessions_.erase(it);
  closed_.add(1);
  return true;
}

bool SessionManager::close(const std::string& session) {
  bool erased;
  {
    std::lock_guard<std::mutex> registry(registry_lock_);
    erased = sessions_.erase(session) > 0;
    if (erased) closed_.add(1);
  }
  // Explicit close is "forget this session", eviction is not: an evicted
  // name resumes from its journal, a closed one starts fresh. Also drops
  // journals orphaned by a pre-close crash (erased false, file present).
  discard_persisted(session);
  return erased;
}

std::size_t SessionManager::evict_idle(std::size_t keep_recent) {
  std::lock_guard<std::mutex> registry(registry_lock_);
  if (sessions_.size() <= keep_recent) return 0;
  std::vector<std::uint64_t> touches;
  touches.reserve(sessions_.size());
  for (const auto& [name, session] : sessions_) touches.push_back(session->last_touch);
  std::sort(touches.begin(), touches.end(), std::greater<>());
  const std::uint64_t cutoff = keep_recent == 0 ? touch_counter_ + 1 : touches[keep_recent - 1];
  std::size_t evicted = 0;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->second->last_touch < cutoff &&
        it->second->pins.load(std::memory_order_relaxed) == 0) {
      it = sessions_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  evicted_.add(evicted);
  return evicted;
}

std::vector<std::string> SessionManager::session_names() const {
  std::lock_guard<std::mutex> registry(registry_lock_);
  std::vector<std::string> names;
  names.reserve(sessions_.size());
  for (const auto& [name, session] : sessions_) names.push_back(name);
  return names;
}

std::size_t SessionManager::session_count() const {
  std::lock_guard<std::mutex> registry(registry_lock_);
  return sessions_.size();
}

SessionManager::Stats SessionManager::stats() const {
  Stats stats;
  stats.created = created_.get();
  stats.closed = closed_.get();
  stats.evicted = evicted_.get();
  stats.commands = commands_.get();
  stats.migrations = migrations_.get();
  stats.migration_failures = migration_failures_.get();
  stats.restored = restored_.get();
  stats.restore_failures = restore_failures_.get();
  return stats;
}

}  // namespace dslayer::service
