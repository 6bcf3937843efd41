#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <algorithm>
#include <cstdlib>
#include <cstring>

namespace e2e {

namespace {

bool send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

LoadClient::LoadClient(std::uint16_t port, std::size_t connections, const ExpectedTable& expected)
    : port_(port), expected_(expected), conns_(connections) {}

LoadClient::~LoadClient() {
  stop_.store(true);
  if (receiver_.joinable()) receiver_.join();
  for (Connection& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

bool LoadClient::connect(std::string* error) {
  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) {
    *error = std::strerror(errno);
    return false;
  }
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      *error = std::strerror(errno);
      if (fd >= 0) ::close(fd);
      return false;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    conns_[i].fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }
  receiver_ = std::thread([this] { receive_loop(); });
  return true;
}

LoadClient::RunResult LoadClient::run(const std::vector<Planned>& plan, Clock::time_point origin,
                                      unsigned max_outstanding, std::vector<Outcome>& outcomes) {
  outcomes.assign(plan.size(), Outcome{});
  {
    std::lock_guard<std::mutex> lock(mutex_);
    plan_ = &plan;
    outcomes_ = &outcomes;
  }
  RunResult result;
  std::vector<std::string> batches(conns_.size());
  std::size_t next = 0;
  while (next < plan.size()) {
    const Clock::time_point due = origin + std::chrono::nanoseconds(plan[next].at_ns);
    if (Clock::now() < due) std::this_thread::sleep_until(due);
    const Clock::time_point now = Clock::now();
    std::size_t end = next;
    while (end < plan.size() && origin + std::chrono::nanoseconds(plan[end].at_ns) <= now) ++end;
    result.peak_generator_backlog = std::max(result.peak_generator_backlog, end - next);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (max_outstanding > 0 && outstanding_ >= max_outstanding) break;
      for (std::size_t i = next; i < end; ++i) {
        const Planned& p = plan[i];
        const auto c = static_cast<std::uint16_t>(fnv1a(p.session) % conns_.size());
        Outcome& o = outcomes[i];
        o.wire_id = ++conns_[c].next_wire_id;
        o.sent = now;
        o.was_sent = true;
        pending_[p.session].push_back(i);
        ++outstanding_;
        batches[c] += p.session;
        batches[c] += ' ';
        batches[c] += p.command;
        batches[c] += '\n';
      }
    }
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      if (batches[c].empty()) continue;
      send_all(conns_[c].fd, batches[c]);
      batches[c].clear();
    }
    next = end;
  }
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (outstanding_ == 0 || Clock::now() >= deadline) {
        result.desync_lines = desync_lines_;
        desync_lines_ = 0;
        outstanding_ = 0;
        pending_.clear();
        plan_ = nullptr;
        outcomes_ = nullptr;
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return result;
}

void LoadClient::receive_loop() {
  epoll_event events[8];
  char buffer[1 << 16];
  while (!stop_.load()) {
    const int n = ::epoll_wait(epoll_fd_, events, 8, 50);
    for (int e = 0; e < n; ++e) {
      Connection& conn = conns_[events[e].data.u64];
      for (;;) {
        const ssize_t got = ::recv(conn.fd, buffer, sizeof buffer, MSG_DONTWAIT);
        if (got <= 0) break;
        conn.in.append(buffer, static_cast<std::size_t>(got));
        if (static_cast<std::size_t>(got) < sizeof buffer) break;
      }
      parse(conn, Clock::now());
    }
  }
}

void LoadClient::parse(Connection& conn, Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (;;) {
    if (conn.current >= 0) {
      // A body runs to the next header. The last body in the buffer is
      // complete once it holds exactly the expected byte count.
      const std::size_t next_header = conn.in.find("\n== ", std::max(conn.scan_from, conn.body_start - 1));
      if (next_header != std::string::npos) {
        finish(conn, next_header + 1, now);
        continue;
      }
      conn.scan_from = std::max(conn.body_start - 1, conn.in.size() >= 3 ? conn.in.size() - 3 : 0);
      const Planned& p = (*plan_)[static_cast<std::size_t>(conn.current)];
      const auto it = expected_.find(p.expect);
      const std::size_t want = it != expected_.end() && !it->second.format_only ? it->second.bytes : 0;
      const std::size_t have = conn.in.size() - conn.body_start;
      const bool shape_known = it != expected_.end() && !it->second.format_only;
      if (shape_known && have == want && (want == 0 || conn.in.back() == '\n')) {
        finish(conn, conn.in.size(), now);
        continue;
      }
      if (!shape_known && have > 0 && conn.in.back() == '\n' &&
          (verb_of(p.command) != "stats" || conn.in.find("session:", conn.body_start) != std::string::npos)) {
        finish(conn, conn.in.size(), now);
        continue;
      }
      break;
    }
    const std::size_t nl = conn.in.find('\n', conn.pos);
    if (nl == std::string::npos) break;
    const std::string_view line(conn.in.data() + conn.pos, nl - conn.pos);
    conn.pos = nl + 1;
    if (line.substr(0, 3) != "== ") {
      ++desync_lines_;
      continue;
    }
    // "== <id> <session> <status>[ code=...]"
    const std::size_t id_end = line.find(' ', 3);
    const std::size_t session_end = line.find(' ', id_end + 1);
    const std::string session(line.substr(id_end + 1, session_end - id_end - 1));
    const std::string status(line.substr(session_end + 1, line.find(' ', session_end + 1) - session_end - 1));
    const auto queue = pending_.find(session);
    if (plan_ == nullptr || queue == pending_.end() || queue->second.empty()) {
      ++desync_lines_;
      continue;
    }
    const std::size_t index = queue->second.front();
    queue->second.pop_front();
    Outcome& o = (*outcomes_)[index];
    o.status = status;
    if (std::to_string(o.wire_id) != line.substr(3, id_end - 3)) o.status = "mismatched-id";
    conn.current = static_cast<long>(index);
    conn.body_start = conn.pos;
    conn.scan_from = 0;
  }
  if (conn.current < 0 && conn.pos == conn.in.size()) {
    conn.in.clear();
    conn.pos = 0;
  } else if (conn.pos > (1u << 20) && conn.current < 0) {
    conn.in.erase(0, conn.pos);
    conn.pos = 0;
  }
}

void LoadClient::finish(Connection& conn, std::size_t body_end, Clock::time_point now) {
  const auto index = static_cast<std::size_t>(conn.current);
  const Planned& p = (*plan_)[index];
  Outcome& o = (*outcomes_)[index];
  const std::string_view body(conn.in.data() + conn.body_start, body_end - conn.body_start);
  o.done = now;
  o.answered = true;
  o.bytes = static_cast<std::uint32_t>(body.size());
  bool matches = true;
  if (!p.expect.empty()) {
    const auto it = expected_.find(p.expect);
    if (it == expected_.end()) {
      matches = false;
    } else if (it->second.format_only) {
      matches = body.substr(0, 7) == "layer: " && body.find("\nsession: ") != std::string_view::npos;
    } else {
      matches = body.size() == it->second.bytes && fnv1a(body) == it->second.hash;
    }
  }
  o.ok = o.status == "ok" && matches;
  const std::string verb = verb_of(p.command);
  if (verb == "stats") o.text = std::string(body);
  if (verb == "range" || verb == "ranges") {
    for (std::size_t at = body.find(" over "); at != std::string_view::npos;
         at = body.find(" over ", at + 6)) {
      o.over_cores += std::strtod(std::string(body.substr(at + 6, 24)).c_str(), nullptr);
    }
  }
  if (o.status == "ok" && !matches) o.status = "wrong-output";
  if (outstanding_ > 0) --outstanding_;
  conn.current = -1;
  conn.pos = body_end;
  conn.body_start = 0;
}

}  // namespace e2e
