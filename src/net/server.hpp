// Concurrent GDPNET01 socket server over a DisclosureService.
//
// The shape is rippled's RPCServer/JobQueue pipeline (ROADMAP's "millions of
// users" item) applied to the shared-immutable-artifact serving model, with
// the reader layer collapsed into ONE epoll-driven I/O thread so the thread
// count is O(1) in the connection count:
//
//   epoll I/O thread ──▶ nonblocking accept / recv / send for EVERY conn
//          │ per-conn input buffer + frame decode (wire.hpp) + admission
//          ▼
//      bounded JobQueue ──▶ worker pool ──▶ DisclosureService
//          │                                      │ direct nonblocking send;
//          └── full? ──▶ typed Overloaded          │ EAGAIN → per-conn outbox,
//                        (never a dropped conn)    ▼ EPOLLOUT re-arms flush
//
// ADMISSION happens on the I/O thread, before anything is queued:
//   1. the tenant must exist (TenantBroker::Profile; unknown → typed Error),
//   2. the tenant's in-flight cap (TenantProfile::max_in_flight) must have
//      room — one tenant must not occupy the whole queue,
//   3. the job queue must have room (queue-depth backpressure).
// A request failing 2 or 3 is SHED with a typed Overloaded response; the
// connection stays open and later requests on it are served normally.  Under
// any overload the server's behavior is "slower, with typed refusals" —
// never a dropped connection, never a crash (pinned by net_server_test).
//
// SLOW CLIENTS never block a worker: responses are sent nonblocking; a
// partial write parks the remainder in the connection's outbox and the I/O
// thread finishes it under EPOLLOUT.  Slow READERS (a partial magic/frame
// outwaiting read_timeout_ms) are closed by a timerfd sweep; idle
// connections between complete requests are never on the clock, which is
// what lets thousands of mostly-idle connections sit on one thread.
//
// DETERMINISM: the I/O thread numbers request frames (Serve, Sweep,
// Drilldown, Answer — Stats excluded) in the order it reads them, 0-based
// across all connections, refused ones included, and request n draws its
// noise from serve::RequestStream(seed, n).  Workers therefore draw with no
// global lock, and a request's result is a pure function of (seed, its
// number, the service state it meets).  A sequential client's n-th request
// is request n, exactly as the batch driver's n-th line is, so the two
// produce bit-identical results at the same seed
// (tests/net_parity_test.cpp); two servers fed the same sequential stream
// reply with identical bytes (tests/net_epoll_test.cpp).
//
// SHUTDOWN drains in phases: the accept gate closes FIRST (no connection can
// register mid-stop — the I/O thread is the only registrar and it checks the
// gate), then reads stop (no new jobs), then every accepted job runs to
// completion (responses flushed, WAL consistent — an admitted charge always
// reaches both the log and its client), then outboxes are flushed and the
// fds close.  Idempotent; the destructor calls it.
//
// Stats requests are answered inline on the I/O thread — observability must
// keep working while the queue is saturated.  Hot-path counters that every
// request touches are sharded (common/sharded_counter.hpp) so accounting
// does not bounce one cache line across the worker pool.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/sharded_counter.hpp"
#include "net/job_queue.hpp"
#include "net/wire.hpp"
#include "serve/service.hpp"

namespace gdp::net {

struct ServerConfig {
  // TCP port on 127.0.0.1; 0 asks the kernel for an ephemeral port (read it
  // back from port() — tests and the CLI's --port-file use this).
  std::uint16_t port{0};
  std::size_t num_workers{2};
  std::size_t queue_capacity{64};
  // How long a peer may sit on a partially received frame (or the connection
  // magic) before the slow-loris sweep closes it.  Idle connections between
  // complete requests are not subject to it.
  int read_timeout_ms{5000};
  // Seed of the per-request noise streams; must match the batch driver's
  // seed for socket-vs-batch parity.
  std::uint64_t seed{42};
};

class Server {
 public:
  // Binds and starts accepting immediately.  `service` must outlive the
  // server.  Throws gdp::common::IoError when the socket cannot be bound.
  Server(gdp::serve::DisclosureService& service, const ServerConfig& config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // The bound port (the kernel's choice when config.port was 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  // Drain-and-stop; see the shutdown contract above.  Idempotent.
  void Stop();

  // The full observability surface the Stats RPC serves.
  [[nodiscard]] wire::StatsResponse GetStats() const;

  // Monotone count of requests fully processed (response written or the
  // connection found dead).  The CLI's --max-requests watches this.
  [[nodiscard]] std::uint64_t requests_completed() const noexcept {
    return requests_completed_.Total();
  }

  // Reader-side thread count — a compile-time property of the epoll design,
  // exposed so tests can pin "O(1) threads regardless of connection count".
  [[nodiscard]] static constexpr std::size_t io_threads() noexcept {
    return 1;
  }

  // Test seam: freeze/thaw the worker pool to build deterministic overload
  // (net_server_test fills the queue while paused and counts the sheds).
  [[nodiscard]] JobQueue& queue() noexcept { return queue_; }

 private:
  // One live client connection.  Reader-side state (inbox, got_magic,
  // deadline) is touched ONLY by the I/O thread; writer-side state (fd use,
  // outbox, close_after_flush) is shared between workers and the I/O thread
  // under write_mutex.  Only the I/O thread closes the fd or talks to epoll.
  struct Connection {
    int fd{-1};
    std::atomic<bool> alive{true};

    std::mutex write_mutex;
    std::string outbox;            // bytes awaiting an EPOLLOUT flush
    bool close_after_flush{false};  // protocol violation: error frame, close

    // I/O-thread-private reader state.
    std::string inbox;
    bool got_magic{false};
    bool on_clock{false};  // owes us bytes (partial magic/frame)
    std::chrono::steady_clock::time_point deadline{};

  };

  void IoLoop();
  void AcceptReady();
  void ReadReady(const std::shared_ptr<Connection>& conn);
  void WriteReady(const std::shared_ptr<Connection>& conn);
  void SweepClocks();
  void ArmClockTimer();
  // epoll_ctl MOD helper: EPOLLIN always, EPOLLOUT iff the outbox has bytes.
  void UpdateInterest(const std::shared_ptr<Connection>& conn,
                      bool want_write);
  // I/O-thread-side close: deregister, close the fd, drop from conns_.
  void CloseFromIo(const std::shared_ptr<Connection>& conn);
  // Wake the I/O thread (worker parked bytes / Stop requested).
  void WakeIo();
  // Bounded final flush of every outbox after the job drain, then close all.
  void DrainAndCloseAll();

  // Dispatch one CRC-valid payload: Stats inline, requests through
  // admission + queue.  Returns false when the connection must close
  // (framing-level violation).
  [[nodiscard]] bool HandlePayload(const std::shared_ptr<Connection>& conn,
                                   const std::string& payload);
  // Serve one request on a worker, drawing from RequestStream(seed,
  // sequence).
  void RunJob(const std::shared_ptr<Connection>& conn,
              const std::string& payload, std::uint64_t sequence);
  // Frame + send a payload: header and payload go out as two iovecs of one
  // nonblocking sendmsg under write_mutex (no framed copy); a partial write
  // parks the remainder in the outbox and re-arms EPOLLOUT.
  void Send(const std::shared_ptr<Connection>& conn,
            const std::string& payload);
  void SendError(const std::shared_ptr<Connection>& conn, wire::ErrorCode code,
                 const std::string& message);
  // Ask the I/O thread to arm EPOLLOUT for conn (callable from any thread).
  void RequestWrite(const std::shared_ptr<Connection>& conn);

  // In-flight accounting for the per-tenant cap.  Returns false (and sheds)
  // when the tenant is at its cap; on true the caller owes ReleaseTenant.
  [[nodiscard]] bool TryAcquireTenant(const std::string& tenant,
                                      int max_in_flight);
  void ReleaseTenant(const std::string& tenant);

  gdp::serve::DisclosureService& service_;
  ServerConfig config_;
  JobQueue queue_;
  int listen_fd_{-1};
  int epoll_fd_{-1};
  int wake_fd_{-1};   // eventfd: workers parked bytes / Stop requested
  int timer_fd_{-1};  // timerfd: slow-loris deadline sweep
  std::uint16_t port_{0};
  std::thread io_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> drain_requested_{false};
  std::mutex stop_mutex_;
  bool stopped_{false};  // guarded by stop_mutex_

  // I/O-thread-private shutdown/clock state.
  bool gate_closed_{false};  // accept gate closed, reads disabled
  bool timer_armed_{false};
  std::chrono::steady_clock::time_point timer_next_{};

  // The connection table is I/O-thread-private: only the I/O thread inserts
  // (accept) and erases (close), so Stop() cannot race a registration — the
  // accept gate is checked on the same thread that registers.
  std::unordered_map<int, std::shared_ptr<Connection>> conns_;
  // I/O-thread-private request numbering: keys each request's noise stream.
  std::uint64_t next_request_seq_{0};

  // Connections whose outbox gained bytes from a worker; the I/O thread
  // drains this (under the same mutex) and arms EPOLLOUT.
  std::mutex pending_mutex_;
  std::vector<std::shared_ptr<Connection>> pending_writes_;

  std::mutex inflight_mutex_;
  std::map<std::string, int> inflight_;

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_open_{0};
  std::atomic<std::uint64_t> requests_enqueued_{0};
  // Every request increments this from whichever worker ran it — the one
  // counter hot enough to shard.
  gdp::common::ShardedCounter requests_completed_;
  std::atomic<std::uint64_t> shed_queue_full_{0};
  std::atomic<std::uint64_t> shed_tenant_inflight_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> partial_writes_{0};
};

}  // namespace gdp::net
