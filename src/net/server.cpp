#include "net/server.hpp"

#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <array>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"

namespace gdp::net {
namespace {

using gdp::common::NetProtocolError;
using std::chrono::steady_clock;

// I/O-side receive chunk; frames reassemble across chunks.
constexpr std::size_t kRecvChunk = 64 * 1024;
constexpr int kMaxEvents = 128;

// Close an fd, preserving errno (close paths run inside errno-sensitive
// loops).
void CloseFd(int fd) noexcept {
  const int saved = errno;
  ::close(fd);
  errno = saved;
}

}  // namespace

Server::Server(gdp::serve::DisclosureService& service,
               const ServerConfig& config)
    : service_(service),
      config_(config),
      queue_(config.num_workers, config.queue_capacity) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) {
    throw gdp::common::IoError(std::string("net::Server: socket(): ") +
                               std::strerror(errno));
  }
  const int reuse = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  // Loopback only: the server speaks an unauthenticated protocol; exposing
  // it beyond the host is a deployment decision a proxy should make, not a
  // default this constructor takes.
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    const std::string err = std::strerror(errno);
    CloseFd(listen_fd_);
    listen_fd_ = -1;
    throw gdp::common::IoError("net::Server: bind(port=" +
                               std::to_string(config.port) + "): " + err);
  }
  if (::listen(listen_fd_, 1024) < 0) {
    const std::string err = std::strerror(errno);
    CloseFd(listen_fd_);
    listen_fd_ = -1;
    throw gdp::common::IoError(std::string("net::Server: listen(): ") + err);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0 || timer_fd_ < 0) {
    const std::string err = std::strerror(errno);
    for (int* fd : {&listen_fd_, &epoll_fd_, &wake_fd_, &timer_fd_}) {
      if (*fd >= 0) {
        CloseFd(*fd);
        *fd = -1;
      }
    }
    throw gdp::common::IoError("net::Server: epoll/eventfd/timerfd: " + err);
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  ev.data.fd = timer_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev);
  io_thread_ = std::thread([this] { IoLoop(); });
}

Server::~Server() { Stop(); }

void Server::Stop() {
  {
    const std::lock_guard<std::mutex> lock(stop_mutex_);
    if (stopped_) {
      return;
    }
    stopped_ = true;
  }
  // 1. Close the accept gate and stop reading frames.  The I/O thread is
  //    the only registrar of connections and it checks this flag before
  //    registering, so nothing can join the table mid-stop.
  stopping_.store(true, std::memory_order_release);
  WakeIo();
  // 2. Drain: every job accepted before this point runs to completion.  The
  //    I/O thread is still live, flushing any response that parks in an
  //    outbox — the WAL-consistency half of the contract (an admitted charge
  //    is both durable and answered).
  queue_.Shutdown();
  // 3. Final outbox flush + close everything: the I/O thread sees
  //    drain_requested_, pushes remaining bytes (bounded), closes every fd,
  //    and exits.
  drain_requested_.store(true, std::memory_order_release);
  WakeIo();
  if (io_thread_.joinable()) {
    io_thread_.join();
  }
  // 4. The loop fds are no longer observed by anyone.
  for (int* fd : {&epoll_fd_, &wake_fd_, &timer_fd_}) {
    if (*fd >= 0) {
      CloseFd(*fd);
      *fd = -1;
    }
  }
}

void Server::WakeIo() {
  if (wake_fd_ >= 0) {
    const std::uint64_t one = 1;
    // A full eventfd counter still wakes the loop; ignore short writes.
    [[maybe_unused]] const ssize_t n =
        ::write(wake_fd_, &one, sizeof(one));
  }
}

void Server::IoLoop() {
  epoll_event events[kMaxEvents];
  for (;;) {
    int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // epoll fd died: nothing left to serve
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drained = 0;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (fd == timer_fd_) {
        std::uint64_t expirations = 0;
        while (::read(timer_fd_, &expirations, sizeof(expirations)) > 0) {
        }
        SweepClocks();
        continue;
      }
      if (fd == listen_fd_) {
        AcceptReady();
        continue;
      }
      const auto it = conns_.find(fd);
      if (it == conns_.end()) {
        continue;  // closed earlier in this same event batch
      }
      const std::shared_ptr<Connection> conn = it->second;
      if (gate_closed_ &&
          (events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        // Reads are disabled during the drain, so a hung-up/reset peer
        // would otherwise re-fire level-triggered forever.  It is gone:
        // its undeliverable responses are dropped with it.
        CloseFromIo(conn);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        WriteReady(conn);
      }
      if (conns_.count(fd) != 0 &&
          (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
        ReadReady(conn);
      }
    }
    // Workers parked response bytes: arm EPOLLOUT for their connections.
    std::vector<std::shared_ptr<Connection>> pending;
    {
      const std::lock_guard<std::mutex> lock(pending_mutex_);
      pending.swap(pending_writes_);
    }
    for (const auto& conn : pending) {
      if (conn->fd < 0 || conns_.count(conn->fd) == 0) {
        continue;
      }
      bool want_write = false;
      {
        const std::lock_guard<std::mutex> lock(conn->write_mutex);
        want_write = !conn->outbox.empty();
      }
      UpdateInterest(conn, want_write);
    }
    if (stopping_.load(std::memory_order_acquire) && !gate_closed_) {
      // Phase 1 of the drain: close the accept gate FIRST, then disable
      // reads on every connection (write sides stay open — queued jobs
      // still owe their peers responses).
      gate_closed_ = true;
      if (listen_fd_ >= 0) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        CloseFd(listen_fd_);
        listen_fd_ = -1;
      }
      for (const auto& [fd, conn] : conns_) {
        bool want_write = false;
        {
          const std::lock_guard<std::mutex> lock(conn->write_mutex);
          want_write = !conn->outbox.empty();
        }
        UpdateInterest(conn, want_write);
      }
    }
    if (drain_requested_.load(std::memory_order_acquire)) {
      DrainAndCloseAll();
      return;
    }
  }
}

void Server::AcceptReady() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) {
        continue;
      }
      return;  // EAGAIN (drained the backlog) or a dead listener
    }
    if (stopping_.load(std::memory_order_acquire)) {
      // Tolerated, never registered: the gate decides on the SAME thread
      // that registers, so the table cannot grow mid-stop.
      CloseFd(fd);
      continue;
    }
    assert(!gate_closed_ && "connection registration after the accept gate");
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    connections_open_.fetch_add(1, std::memory_order_relaxed);
    conns_.emplace(fd, conn);
    // A fresh peer owes us the magic: it is on the clock until the first
    // complete message (same contract the per-connection readers enforced).
    conn->on_clock = true;
    conn->deadline =
        steady_clock::now() + std::chrono::milliseconds(config_.read_timeout_ms);
    if (!timer_armed_ || conn->deadline < timer_next_) {
      timer_next_ = conn->deadline;
      timer_armed_ = true;
      ArmClockTimer();
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

void Server::ArmClockTimer() {
  itimerspec spec{};
  if (timer_armed_) {
    auto delta = timer_next_ - steady_clock::now();
    if (delta < std::chrono::milliseconds(1)) {
      delta = std::chrono::milliseconds(1);
    }
    const auto secs = std::chrono::duration_cast<std::chrono::seconds>(delta);
    const auto nanos =
        std::chrono::duration_cast<std::chrono::nanoseconds>(delta - secs);
    spec.it_value.tv_sec = static_cast<time_t>(secs.count());
    spec.it_value.tv_nsec = static_cast<long>(nanos.count());
  }
  // An all-zero spec disarms.
  ::timerfd_settime(timer_fd_, 0, &spec, nullptr);
}

void Server::SweepClocks() {
  const steady_clock::time_point now = steady_clock::now();
  std::vector<std::shared_ptr<Connection>> expired;
  for (const auto& [fd, conn] : conns_) {
    if (conn->on_clock && conn->deadline <= now) {
      expired.push_back(conn);
    }
  }
  for (const auto& conn : expired) {
    // Slow-loris: a partial magic/frame outwaited the read timeout.  Close
    // without a frame (the peer is not keeping up with what it already
    // owes us).
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    CloseFromIo(conn);
  }
  // Re-arm to the nearest remaining deadline (the armed deadline may have
  // belonged to a connection that finished its frame and left the clock).
  timer_armed_ = false;
  for (const auto& [fd, conn] : conns_) {
    if (conn->on_clock && (!timer_armed_ || conn->deadline < timer_next_)) {
      timer_next_ = conn->deadline;
      timer_armed_ = true;
    }
  }
  ArmClockTimer();
}

void Server::UpdateInterest(const std::shared_ptr<Connection>& conn,
                            bool want_write) {
  if (conn->fd < 0) {
    return;
  }
  epoll_event ev{};
  ev.events = 0;
  if (!gate_closed_ && !conn->close_after_flush) {
    ev.events |= EPOLLIN;
  }
  if (want_write) {
    ev.events |= EPOLLOUT;
  }
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void Server::CloseFromIo(const std::shared_ptr<Connection>& conn) {
  conn->alive.store(false, std::memory_order_release);
  const int fd = conn->fd;
  if (fd < 0) {
    return;
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  {
    // Workers check fd/alive under write_mutex before touching the socket,
    // so closing under the same lock cannot race a worker onto a reused fd.
    const std::lock_guard<std::mutex> lock(conn->write_mutex);
    CloseFd(conn->fd);
    conn->fd = -1;
  }
  conns_.erase(fd);
  connections_open_.fetch_sub(1, std::memory_order_relaxed);
}

void Server::ReadReady(const std::shared_ptr<Connection>& conn) {
  if (gate_closed_ || conn->close_after_flush) {
    return;
  }
  char chunk[kRecvChunk];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;  // drained what the kernel had
      }
      CloseFromIo(conn);  // hard socket error
      return;
    }
    if (n == 0) {
      // Peer closed.  In-flight jobs for this peer see alive=false and drop
      // their responses (same as the per-connection readers did).
      CloseFromIo(conn);
      return;
    }
    conn->inbox.append(chunk, static_cast<std::size_t>(n));
    if (!conn->got_magic) {
      if (conn->inbox.size() >= wire::kMagicSize) {
        if (std::memcmp(conn->inbox.data(), wire::kMagic, wire::kMagicSize) !=
            0) {
          // Not our protocol; close without a frame (the peer would not
          // parse one anyway).
          protocol_errors_.fetch_add(1, std::memory_order_relaxed);
          CloseFromIo(conn);
          return;
        }
        conn->inbox.erase(0, wire::kMagicSize);
        conn->got_magic = true;
      }
    }
    if (conn->got_magic) {
      try {
        for (;;) {
          std::optional<std::string> payload = wire::TryDeframe(conn->inbox);
          if (!payload.has_value()) {
            break;
          }
          if (!HandlePayload(conn, *payload)) {
            CloseFromIo(conn);
            return;
          }
          if (conn->fd < 0) {
            return;  // closed underneath us
          }
        }
      } catch (const NetProtocolError& e) {
        // Framing-level violation (bad declared length, CRC mismatch): the
        // stream is unsynchronized — answer typed, then close once the
        // error frame has fully left the outbox.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        SendError(conn, wire::ErrorCode::kBadRequest, e.what());
        bool flushed = false;
        {
          const std::lock_guard<std::mutex> lock(conn->write_mutex);
          conn->close_after_flush = true;
          flushed = conn->outbox.empty();
        }
        if (flushed) {
          CloseFromIo(conn);
        } else {
          UpdateInterest(conn, true);
        }
        return;
      }
    }
  }
  // A peer is only on the clock while it owes us bytes: before the magic,
  // or with a frame started but incomplete.  An idle connection between
  // requests may sit forever.  Each delivery of bytes resets the deadline
  // (the clock bounds SILENCE mid-message, not total message time).
  const bool mid_message = !conn->got_magic || !conn->inbox.empty();
  if (mid_message) {
    conn->on_clock = true;
    conn->deadline =
        steady_clock::now() + std::chrono::milliseconds(config_.read_timeout_ms);
    if (!timer_armed_ || conn->deadline < timer_next_) {
      timer_next_ = conn->deadline;
      timer_armed_ = true;
      ArmClockTimer();
    }
  } else {
    conn->on_clock = false;  // a stale armed timer sweeps and finds nothing
  }
}

void Server::WriteReady(const std::shared_ptr<Connection>& conn) {
  bool close_now = false;
  {
    const std::lock_guard<std::mutex> lock(conn->write_mutex);
    if (conn->fd < 0) {
      return;
    }
    while (!conn->outbox.empty()) {
      const ssize_t n = ::send(conn->fd, conn->outbox.data(),
                               conn->outbox.size(),
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          return;  // still full; EPOLLOUT stays armed
        }
        conn->alive.store(false, std::memory_order_release);
        close_now = true;
        break;
      }
      conn->outbox.erase(0, static_cast<std::size_t>(n));
    }
    if (!close_now && conn->close_after_flush) {
      close_now = true;  // typed error delivered; the close it promised
    }
  }
  if (close_now) {
    CloseFromIo(conn);
    return;
  }
  UpdateInterest(conn, false);
}

bool Server::HandlePayload(const std::shared_ptr<Connection>& conn,
                           const std::string& payload) {
  wire::MsgKind kind{};
  try {
    kind = wire::PeekKind(payload);
  } catch (const NetProtocolError& e) {
    // Unknown kind inside a CRC-valid frame: the stream is still
    // synchronized, so answer typed and keep the connection.
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    SendError(conn, wire::ErrorCode::kBadRequest, e.what());
    return true;
  }
  switch (kind) {
    case wire::MsgKind::kStatsRequest:
      // Inline on the I/O thread: observability must survive a saturated
      // queue (that is when you need it).
      try {
        wire::DecodeStatsRequest(payload);
        Send(conn, wire::Encode(GetStats()));
      } catch (const NetProtocolError& e) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        SendError(conn, wire::ErrorCode::kBadRequest, e.what());
      }
      return true;
    case wire::MsgKind::kServeRequest:
    case wire::MsgKind::kSweepRequest:
    case wire::MsgKind::kDrilldownRequest:
    case wire::MsgKind::kAnswerRequest:
      break;
    default:
      // A response kind sent by a client: structurally valid, semantically
      // backwards.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      SendError(conn, wire::ErrorCode::kBadRequest,
                std::string("unexpected message kind ") +
                    wire::MsgKindName(kind));
      return true;
  }

  // Number the request before anything can refuse it, so the n-th request
  // frame read is request n whatever happens to the ones before it — the
  // same numbering the batch driver's line index gives.
  const std::uint64_t sequence = next_request_seq_++;

  // Admission.  Decode just far enough for the tenant id — the full decode
  // (and any expensive work) belongs to the worker; a malformed body is
  // caught there and answered typed.
  std::string tenant;
  try {
    switch (kind) {
      case wire::MsgKind::kServeRequest:
        tenant = wire::DecodeServeRequest(payload).tenant;
        break;
      case wire::MsgKind::kSweepRequest:
        tenant = wire::DecodeSweepRequest(payload).tenant;
        break;
      case wire::MsgKind::kDrilldownRequest:
        tenant = wire::DecodeDrilldownRequest(payload).tenant;
        break;
      default:
        tenant = wire::DecodeAnswerRequest(payload).tenant;
        break;
    }
  } catch (const NetProtocolError& e) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    SendError(conn, wire::ErrorCode::kBadRequest, e.what());
    return true;
  }
  int max_in_flight = 0;
  try {
    max_in_flight = service_.broker().Profile(tenant).max_in_flight;
  } catch (const gdp::common::NotFoundError& e) {
    SendError(conn, wire::ErrorCode::kNotFound, e.what());
    return true;
  }
  if (!TryAcquireTenant(tenant, max_in_flight)) {
    shed_tenant_inflight_.fetch_add(1, std::memory_order_relaxed);
    Send(conn, wire::Encode(wire::OverloadedResponse{
                   "tenant '" + tenant + "' is at its in-flight cap (" +
                   std::to_string(max_in_flight) + "); retry later"}));
    return true;
  }
  std::string job_payload = payload;
  const bool accepted = queue_.TrySubmit([this, conn, tenant, sequence,
                                          job_payload = std::move(
                                              job_payload)]() {
    RunJob(conn, job_payload, sequence);
    ReleaseTenant(tenant);
  });
  if (!accepted) {
    ReleaseTenant(tenant);
    shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
    Send(conn, wire::Encode(wire::OverloadedResponse{
                   "job queue is full (" +
                   std::to_string(config_.queue_capacity) +
                   " pending); retry later"}));
    return true;
  }
  requests_enqueued_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void Server::RunJob(const std::shared_ptr<Connection>& conn,
                    const std::string& payload, std::uint64_t sequence) {
  // This request's own stream: no lock, no state shared with any other
  // request (the determinism contract in the header).
  gdp::common::Rng rng = gdp::serve::RequestStream(config_.seed, sequence);
  std::string response;
  try {
    switch (wire::PeekKind(payload)) {
      case wire::MsgKind::kServeRequest: {
        const wire::ServeRequest req = wire::DecodeServeRequest(payload);
        response = wire::Encode(wire::ServeOutcome::FromResult(service_.Serve(
            req.tenant, req.dataset, req.budget.ToBudgetSpec(), rng)));
        break;
      }
      case wire::MsgKind::kSweepRequest: {
        const wire::SweepRequest req = wire::DecodeSweepRequest(payload);
        std::vector<gdp::core::BudgetSpec> budgets;
        budgets.reserve(req.budgets.size());
        for (const wire::WireBudget& b : req.budgets) {
          budgets.push_back(b.ToBudgetSpec());
        }
        std::vector<gdp::serve::ServeResult> results =
            service_.ServeSweep(req.tenant, req.dataset, budgets, rng);
        wire::SweepResponse out;
        out.outcomes.reserve(results.size());
        for (gdp::serve::ServeResult& r : results) {
          out.outcomes.push_back(wire::ServeOutcome::FromResult(std::move(r)));
        }
        response = wire::Encode(out);
        break;
      }
      case wire::MsgKind::kDrilldownRequest: {
        const wire::DrilldownRequest req =
            wire::DecodeDrilldownRequest(payload);
        gdp::serve::DrilldownResult result = service_.ServeDrilldown(
            req.tenant, req.dataset, req.budget.ToBudgetSpec(),
            static_cast<gdp::graph::Side>(req.side), req.node, rng);
        wire::DrilldownResponse out;
        out.outcome = wire::ServeOutcome::FromResult(std::move(result.serve));
        out.chain.reserve(result.chain.size());
        for (const gdp::core::DrillDownEntry& e : result.chain) {
          out.chain.push_back({e.level, e.group, e.group_size, e.noisy_count,
                               e.true_count});
        }
        response = wire::Encode(out);
        break;
      }
      case wire::MsgKind::kAnswerRequest: {
        const wire::AnswerRequest req = wire::DecodeAnswerRequest(payload);
        std::vector<gdp::serve::QuerySpec> queries;
        queries.reserve(req.queries.size());
        for (const wire::WireQuery& q : req.queries) {
          gdp::serve::QuerySpec spec;
          if (q.kind >
              static_cast<std::uint8_t>(
                  gdp::serve::QuerySpec::Kind::kDegreeHistogram)) {
            throw NetProtocolError("GDPNET01 decode: unknown query kind");
          }
          spec.kind = static_cast<gdp::serve::QuerySpec::Kind>(q.kind);
          spec.side = static_cast<gdp::graph::Side>(q.side);
          spec.max_degree = q.param;
          queries.push_back(spec);
        }
        gdp::serve::AnswerResult result = service_.ServeAnswer(
            req.tenant, req.dataset, req.budget.ToBudgetSpec(), queries, rng);
        wire::AnswerResponse out;
        out.outcome = wire::ServeOutcome::FromResult(std::move(result.serve));
        out.results.reserve(result.results.size());
        for (gdp::query::QueryRunResult& r : result.results) {
          out.results.push_back({std::move(r.query_name), r.sensitivity,
                                 r.noise_stddev, std::move(r.truth),
                                 std::move(r.noisy), r.mean_rer, r.mae,
                                 r.rmse});
        }
        response = wire::Encode(out);
        break;
      }
      default:
        // HandlePayload admits only the four request kinds above.
        response = wire::Encode(wire::ErrorResponse{
            wire::ErrorCode::kInternal, "unroutable message kind"});
        break;
    }
  } catch (const NetProtocolError& e) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    response =
        wire::Encode(wire::ErrorResponse{wire::ErrorCode::kBadRequest,
                                         e.what()});
  } catch (const gdp::common::NotFoundError& e) {
    response =
        wire::Encode(wire::ErrorResponse{wire::ErrorCode::kNotFound, e.what()});
  } catch (const gdp::common::AccessPolicyError& e) {
    response = wire::Encode(
        wire::ErrorResponse{wire::ErrorCode::kAccessPolicy, e.what()});
  } catch (const gdp::common::DurabilityError& e) {
    response = wire::Encode(
        wire::ErrorResponse{wire::ErrorCode::kDurability, e.what()});
  } catch (const std::invalid_argument& e) {
    // InvalidBudgetError and other request-shape rejections.
    response = wire::Encode(
        wire::ErrorResponse{wire::ErrorCode::kBadRequest, e.what()});
  } catch (const std::out_of_range& e) {
    // Out-of-range drilldown node/level.
    response = wire::Encode(
        wire::ErrorResponse{wire::ErrorCode::kBadRequest, e.what()});
  } catch (const std::exception& e) {
    response = wire::Encode(
        wire::ErrorResponse{wire::ErrorCode::kInternal, e.what()});
  }
  Send(conn, response);
  requests_completed_.Add();
}

void Server::Send(const std::shared_ptr<Connection>& conn,
                  const std::string& payload) {
  std::array<char, wire::kFrameHeaderSize> header{};
  std::string substitute;
  std::string_view body = payload;
  try {
    header = wire::FrameHeader(body);
  } catch (const NetProtocolError&) {
    // A response too large to frame: substitute a typed error (the client
    // must see SOMETHING for its request).
    substitute = wire::Encode(wire::ErrorResponse{
        wire::ErrorCode::kInternal, "response exceeds the frame cap"});
    body = substitute;
    header = wire::FrameHeader(body);
  }
  const std::size_t total = header.size() + body.size();
  bool park = false;
  {
    const std::lock_guard<std::mutex> lock(conn->write_mutex);
    if (conn->fd < 0 || !conn->alive.load(std::memory_order_acquire)) {
      return;
    }
    std::size_t sent = 0;
    if (conn->outbox.empty()) {
      while (sent < total) {
        // Header and payload as two iovecs: the payload is never copied
        // into a framed buffer on the path that does not park.
        iovec iov[2];
        int iovcnt = 0;
        if (sent < header.size()) {
          iov[iovcnt++] = {header.data() + sent, header.size() - sent};
          iov[iovcnt++] = {const_cast<char*>(body.data()), body.size()};
        } else {
          const std::size_t off = sent - header.size();
          iov[iovcnt++] = {const_cast<char*>(body.data()) + off,
                           body.size() - off};
        }
        msghdr msg{};
        msg.msg_iov = iov;
        msg.msg_iovlen = static_cast<decltype(msg.msg_iovlen)>(iovcnt);
        const ssize_t n =
            ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n < 0) {
          if (errno == EINTR) {
            continue;
          }
          if (errno == EAGAIN || errno == EWOULDBLOCK) {
            // Slow client: park the remainder and let EPOLLOUT finish the
            // frame — this worker moves on to the next job immediately.
            partial_writes_.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          // Hard error (peer reset): the I/O thread observes EPOLLHUP/ERR
          // and closes; nobody writes here again.
          conn->alive.store(false, std::memory_order_release);
          return;
        }
        sent += static_cast<std::size_t>(n);
      }
    }
    if (sent < total) {
      // Earlier bytes still queued (append preserves response order on the
      // connection) or a partial write: the unsent tail goes to the outbox.
      park = true;
      if (sent < header.size()) {
        conn->outbox.append(header.data() + sent, header.size() - sent);
        conn->outbox.append(body);
      } else {
        conn->outbox.append(body.substr(sent - header.size()));
      }
    }
  }
  if (park) {
    RequestWrite(conn);
  }
}

void Server::RequestWrite(const std::shared_ptr<Connection>& conn) {
  {
    const std::lock_guard<std::mutex> lock(pending_mutex_);
    pending_writes_.push_back(conn);
  }
  WakeIo();
}

void Server::DrainAndCloseAll() {
  // Bounded final flush: every response a drained job parked must reach its
  // socket before the fd closes, but a peer that stopped reading cannot
  // hold shutdown hostage — it gets the same read-timeout budget a
  // slow-loris gets.
  const steady_clock::time_point deadline =
      steady_clock::now() +
      std::chrono::milliseconds(config_.read_timeout_ms > 0
                                    ? config_.read_timeout_ms
                                    : 100);
  for (;;) {
    bool outstanding = false;
    for (const auto& [fd, conn] : conns_) {
      const std::lock_guard<std::mutex> lock(conn->write_mutex);
      if (conn->fd < 0 || !conn->alive.load(std::memory_order_acquire)) {
        continue;
      }
      while (!conn->outbox.empty()) {
        const ssize_t n = ::send(conn->fd, conn->outbox.data(),
                                 conn->outbox.size(),
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n < 0) {
          if (errno == EINTR) {
            continue;
          }
          if (errno == EAGAIN || errno == EWOULDBLOCK) {
            outstanding = true;
          } else {
            conn->alive.store(false, std::memory_order_release);
          }
          break;
        }
        conn->outbox.erase(0, static_cast<std::size_t>(n));
      }
    }
    if (!outstanding || steady_clock::now() >= deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (const auto& [fd, conn] : conns_) {
    conn->alive.store(false, std::memory_order_release);
    const std::lock_guard<std::mutex> lock(conn->write_mutex);
    if (conn->fd >= 0) {
      ::shutdown(conn->fd, SHUT_RDWR);
      CloseFd(conn->fd);
      conn->fd = -1;
      connections_open_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  conns_.clear();
  if (listen_fd_ >= 0) {
    CloseFd(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::SendError(const std::shared_ptr<Connection>& conn,
                       wire::ErrorCode code, const std::string& message) {
  Send(conn, wire::Encode(wire::ErrorResponse{code, message}));
}

bool Server::TryAcquireTenant(const std::string& tenant, int max_in_flight) {
  const std::lock_guard<std::mutex> lock(inflight_mutex_);
  int& count = inflight_[tenant];
  if (max_in_flight > 0 && count >= max_in_flight) {
    return false;
  }
  ++count;
  return true;
}

void Server::ReleaseTenant(const std::string& tenant) {
  const std::lock_guard<std::mutex> lock(inflight_mutex_);
  const auto it = inflight_.find(tenant);
  if (it != inflight_.end() && --it->second <= 0) {
    inflight_.erase(it);
  }
}

wire::StatsResponse Server::GetStats() const {
  wire::StatsResponse s;
  const gdp::serve::SessionRegistry::Stats reg = service_.registry().stats();
  s.registry_hits = reg.hits;
  s.registry_misses = reg.misses;
  s.registry_evictions = reg.evictions;
  s.registry_snapshot_adoptions = reg.snapshot_adoptions;
  s.registry_size = service_.registry().size();
  s.registry_capacity = service_.registry().capacity();
  s.catalog_datasets = service_.catalog().size();
  s.broker_tenants = service_.broker().size();
  s.wal_enabled = service_.wal_enabled() ? 1 : 0;
  s.failed_closed = service_.failed_closed() ? 1 : 0;
  const gdp::serve::DurabilityStats dur = service_.durability_stats();
  s.wal_appends = dur.wal_appends;
  s.wal_failures = dur.wal_failures;
  s.fail_closed_rejections = dur.fail_closed_rejections;
  s.dataset_denials = dur.dataset_denials;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.connections_open = connections_open_.load(std::memory_order_relaxed);
  s.requests_enqueued = requests_enqueued_.load(std::memory_order_relaxed);
  s.requests_completed = requests_completed_.Total();
  s.shed_queue_full = shed_queue_full_.load(std::memory_order_relaxed);
  s.shed_tenant_inflight =
      shed_tenant_inflight_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  const JobQueue::Stats q = queue_.GetStats();
  s.queue_depth = q.depth;
  s.queue_capacity = q.capacity;
  s.queue_high_watermark = q.high_watermark;
  s.workers = q.workers;
  s.io_threads = io_threads();
  // noise_streams and rng_mutex_acquisitions stay 0: one stream per
  // request, no noise lock.
  s.partial_writes = partial_writes_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace gdp::net
