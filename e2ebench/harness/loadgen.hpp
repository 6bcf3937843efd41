// Open-loop load generator over loopback TCP.
//
// One sending thread (the caller of run()) and one receiving thread share
// a fixed set of connections. Each session is pinned to one connection,
// so its requests reach the server in schedule order; responses are
// matched by the session token of the `== <id> <session> <status>` header
// against a per-session FIFO of outstanding requests. A request is sent at
// its scheduled time whether or not earlier replies have arrived, and its
// latency is taken from that scheduled time (coordinated-omission
// correction); how late the generator itself ran is kept per request.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace e2e {

struct Expected {
  std::uint64_t hash = 0;
  std::size_t bytes = 0;
  bool format_only = false;  ///< `stats`: layer-wide counters, checked for shape only
};
using ExpectedTable = std::unordered_map<std::string, Expected>;

/// What happened to one planned request.
struct Outcome {
  Clock::time_point sent{};
  Clock::time_point done{};
  std::uint32_t bytes = 0;  ///< response body bytes
  std::uint64_t wire_id = 0;
  bool was_sent = false;
  bool answered = false;
  bool ok = false;  ///< status ok and output as expected
  std::string status;
  std::string text;         ///< body of `stats` responses (the dsl counters)
  double over_cores = 0.0;  ///< range/ranges: the "over N cores" counts, summed
};

class LoadClient {
 public:
  LoadClient(std::uint16_t port, std::size_t connections, const ExpectedTable& expected);
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  bool connect(std::string* error);

  struct RunResult {
    std::uint64_t desync_lines = 0;  ///< response lines that matched no request
    std::size_t peak_generator_backlog = 0;  ///< most requests due at once but unsent
  };
  /// Sends plan[i] at origin + plan[i].at_ns (plan sorted by at_ns) and
  /// waits, up to a minute, for every sent request to be answered.
  /// `outcomes` is resized to the plan. Sending stops (the rest of the plan
  /// is not attempted) once `max_outstanding` requests are unanswered;
  /// 0 = never. Blocks the calling thread, which is the sender.
  RunResult run(const std::vector<Planned>& plan, Clock::time_point origin,
                unsigned max_outstanding, std::vector<Outcome>& outcomes);

 private:
  struct Connection {
    int fd = -1;
    std::uint64_t next_wire_id = 0;  ///< sender side: ids the server will assign
    std::string in;                  ///< receiver side: unparsed bytes
    std::size_t pos = 0;
    long current = -1;               ///< plan index whose body is being read
    std::size_t body_start = 0;
    std::size_t scan_from = 0;       ///< where the next-header search resumes
  };
  void receive_loop();
  void parse(Connection& conn, Clock::time_point now);
  void finish(Connection& conn, std::size_t body_end, Clock::time_point now);

  std::uint16_t port_;
  const ExpectedTable& expected_;
  std::vector<Connection> conns_;
  int epoll_fd_ = -1;

  std::mutex mutex_;  ///< guards pending_, plan_, outcomes_ and the counters below
  std::unordered_map<std::string, std::deque<std::size_t>> pending_;
  const std::vector<Planned>* plan_ = nullptr;
  std::vector<Outcome>* outcomes_ = nullptr;
  std::size_t outstanding_ = 0;
  std::uint64_t desync_lines_ = 0;

  std::atomic<bool> stop_{false};
  std::thread receiver_;
};

}  // namespace e2e
