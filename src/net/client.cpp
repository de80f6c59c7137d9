#include "net/client.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <string_view>

#include "common/crc32.hpp"
#include "common/error.hpp"

namespace gdp::net {
namespace {

using gdp::common::IoError;
using gdp::common::NetProtocolError;

// Dispatch the three response shapes every RPC shares: the expected kind, a
// typed Overloaded, or a typed Error.  Anything else is a protocol
// violation from the server's side.
template <typename T, typename DecodeFn>
Reply<T> ParseReply(std::string_view payload, wire::MsgKind expected,
                    DecodeFn&& decode) {
  Reply<T> reply;
  const wire::MsgKind kind = wire::PeekKind(payload);
  if (kind == expected) {
    reply.value = decode(payload);
    return reply;
  }
  if (kind == wire::MsgKind::kOverloaded) {
    reply.status = ReplyStatus::kOverloaded;
    reply.message = wire::DecodeOverloaded(payload).reason;
    return reply;
  }
  if (kind == wire::MsgKind::kError) {
    const wire::ErrorResponse err = wire::DecodeError(payload);
    reply.status = ReplyStatus::kError;
    reply.error_code = err.code;
    reply.message = err.message;
    return reply;
  }
  throw NetProtocolError(std::string("net::Client: expected ") +
                         wire::MsgKindName(expected) + " but the server sent " +
                         wire::MsgKindName(kind));
}

int ConnectTo(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc =
      ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &res);
  if (rc != 0 || res == nullptr) {
    throw IoError("net::Client: cannot resolve '" + host +
                  "': " + ::gai_strerror(rc));
  }
  int fd = -1;
  std::string err = "no addresses";
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      err = std::strerror(errno);
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      break;
    }
    if (errno == EINTR) {
      // A signal interrupted connect(); POSIX says the handshake continues
      // asynchronously and a second connect() would fail.  Wait for the
      // socket to become writable, then read the real outcome — retrying
      // or surfacing a spurious IoError here would drop a good connection.
      pollfd pfd{fd, POLLOUT, 0};
      int ready;
      do {
        ready = ::poll(&pfd, 1, -1);
      } while (ready < 0 && errno == EINTR);
      int so_error = ready < 0 ? errno : 0;
      if (ready > 0) {
        socklen_t len = sizeof(so_error);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) < 0) {
          so_error = errno;
        }
      }
      if (so_error == 0) {
        break;  // the interrupted connect completed
      }
      err = std::strerror(so_error);
      ::close(fd);
      fd = -1;
      continue;
    }
    err = std::strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    throw IoError("net::Client: connect " + host + ":" +
                  std::to_string(port) + ": " + err);
  }
  return fd;
}

void SendAll(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw IoError(std::string("net::Client: send(): ") +
                    std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

// Frame header and payload as two iovecs of one sendmsg (no framed copy,
// and no header-only segment for Nagle to hold back).
void SendFrame(int fd, std::string_view payload) {
  const std::array<char, wire::kFrameHeaderSize> header =
      wire::FrameHeader(payload);
  const std::size_t total = header.size() + payload.size();
  std::size_t sent = 0;
  while (sent < header.size()) {
    iovec iov[2] = {
        {const_cast<char*>(header.data()) + sent, header.size() - sent},
        {const_cast<char*>(payload.data()), payload.size()}};
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = 2;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw IoError(std::string("net::Client: sendmsg(): ") +
                    std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
  if (sent < total) {
    const std::size_t off = sent - header.size();
    SendAll(fd, payload.data() + off, payload.size() - off);
  }
}

// Fill `size` bytes at `data` from the socket.  A close before the last
// byte is an IoError: the server went away mid-response.
void RecvExact(int fd, char* data, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n == 0) {
      throw IoError(
          "net::Client: server closed the connection mid-response (a framing "
          "violation on our side, a server shutdown, or a read timeout)");
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw IoError(std::string("net::Client: recv(): ") +
                    std::strerror(errno));
    }
    got += static_cast<std::size_t>(n);
  }
}

}  // namespace

Client::Client(std::uint16_t port) : Client("127.0.0.1", port) {}

Client::Client(const std::string& host, std::uint16_t port)
    : fd_(ConnectTo(host, port)) {
  SendAll(fd_, wire::kMagic, wire::kMagicSize);
}

Client::~Client() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

std::string_view Client::RoundTrip(const std::string& payload) {
  SendFrame(fd_, payload);
  // The header's declared length is checked against kMaxPayload before it
  // sizes anything; the payload then lands straight in a buffer of exactly
  // that size and is CRC-checked in place.
  std::array<char, wire::kFrameHeaderSize> header{};
  RecvExact(fd_, header.data(), header.size());
  const std::uint32_t len = wire::CheckedPayloadLength(header);
  response_.resize(len);
  RecvExact(fd_, response_.data(), response_.size());
  if (gdp::common::Crc32(response_) != wire::DeclaredCrc(header)) {
    throw NetProtocolError("GDPNET01 frame: payload CRC mismatch");
  }
  return response_;
}

Reply<wire::ServeOutcome> Client::Serve(const wire::ServeRequest& req) {
  return ParseReply<wire::ServeOutcome>(RoundTrip(wire::Encode(req)),
                                        wire::MsgKind::kServeResponse,
                                        wire::DecodeServeResponse);
}

Reply<wire::SweepResponse> Client::Sweep(const wire::SweepRequest& req) {
  return ParseReply<wire::SweepResponse>(RoundTrip(wire::Encode(req)),
                                         wire::MsgKind::kSweepResponse,
                                         wire::DecodeSweepResponse);
}

Reply<wire::DrilldownResponse> Client::Drilldown(
    const wire::DrilldownRequest& req) {
  return ParseReply<wire::DrilldownResponse>(RoundTrip(wire::Encode(req)),
                                             wire::MsgKind::kDrilldownResponse,
                                             wire::DecodeDrilldownResponse);
}

Reply<wire::AnswerResponse> Client::Answer(const wire::AnswerRequest& req) {
  return ParseReply<wire::AnswerResponse>(RoundTrip(wire::Encode(req)),
                                          wire::MsgKind::kAnswerResponse,
                                          wire::DecodeAnswerResponse);
}

Reply<wire::StatsResponse> Client::Stats() {
  return ParseReply<wire::StatsResponse>(RoundTrip(wire::EncodeStatsRequest()),
                                         wire::MsgKind::kStatsResponse,
                                         wire::DecodeStatsResponse);
}

}  // namespace gdp::net
