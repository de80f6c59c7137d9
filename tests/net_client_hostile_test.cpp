// net::Client against a hostile server: the response frame is as untrusted
// as any request frame.  A scripted one-connection server answers the
// client's first request with hand-made bytes:
//   - a declared length of 0, or one above kMaxPayload, raises
//     NetProtocolError at once — the client never waits for (or sizes a
//     buffer from) a payload of that length; the server holds the
//     connection open afterwards, so a client that did wait would block
//     until the hold ends and then fail with IoError instead;
//   - a payload whose CRC does not match the header raises
//     NetProtocolError;
//   - a close mid-header or mid-payload raises IoError;
//   - a well-formed frame still round-trips.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "net/client.hpp"
#include "net/wire.hpp"

namespace gdp::net {
namespace {

using gdp::common::IoError;
using gdp::common::NetProtocolError;

// How long the scripted server keeps the connection open after its reply.
constexpr int kHoldMs = 5000;

std::string Header(std::uint32_t len, std::uint32_t crc) {
  std::string out(wire::kFrameHeaderSize, '\0');
  for (int i = 0; i < 4; ++i) {
    out[static_cast<std::size_t>(i)] = static_cast<char>((len >> (8 * i)) & 0xFF);
    out[static_cast<std::size_t>(4 + i)] =
        static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  return out;
}

// Accepts one connection, reads the magic and one request frame, writes
// `reply`, then either closes or holds the connection until the peer
// closes (at most kHoldMs).
class ScriptedServer {
 public:
  ScriptedServer(std::string reply, bool close_after_reply)
      : reply_(std::move(reply)), close_after_reply_(close_after_reply) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 1), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                            &len),
              0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Run(); });
  }

  ~ScriptedServer() {
    thread_.join();
    ::close(listen_fd_);
  }

  ScriptedServer(const ScriptedServer&) = delete;
  ScriptedServer& operator=(const ScriptedServer&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
  void Run() {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      return;
    }
    // Magic + one request frame: read until the declared payload is in.
    std::string in;
    char chunk[4096];
    for (;;) {
      const std::size_t want = wire::kMagicSize + wire::kFrameHeaderSize;
      if (in.size() >= want) {
        std::uint32_t len = 0;
        for (int i = 0; i < 4; ++i) {
          len |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(
                     in[wire::kMagicSize + static_cast<std::size_t>(i)]))
                 << (8 * i);
        }
        if (in.size() >= want + len) {
          break;
        }
      }
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        ::close(fd);
        return;
      }
      in.append(chunk, static_cast<std::size_t>(n));
    }
    std::size_t sent = 0;
    while (sent < reply_.size()) {
      const ssize_t n = ::send(fd, reply_.data() + sent, reply_.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) {
        break;
      }
      sent += static_cast<std::size_t>(n);
    }
    if (!close_after_reply_) {
      // Hold: wait for the client to hang up (or give up after kHoldMs).
      pollfd pfd{fd, POLLIN, 0};
      while (::poll(&pfd, 1, kHoldMs) > 0 &&
             ::recv(fd, chunk, sizeof(chunk), 0) > 0) {
      }
    }
    ::close(fd);
  }

  std::string reply_;
  bool close_after_reply_;
  int listen_fd_{-1};
  std::uint16_t port_{0};
  std::thread thread_;
};

TEST(NetClientHostileTest, DeclaredLengthZeroIsAProtocolError) {
  ScriptedServer server(Header(0, 0), /*close_after_reply=*/false);
  Client client(server.port());
  EXPECT_THROW((void)client.Stats(), NetProtocolError);
}

TEST(NetClientHostileTest, DeclaredLengthAboveTheCapFailsBeforeAnyPayload) {
  for (const std::uint32_t len : {wire::kMaxPayload + 1, 0xFFFFFFFFu}) {
    ScriptedServer server(Header(len, 0), /*close_after_reply=*/false);
    Client client(server.port());
    // No payload byte ever comes, and the connection stays open: only a
    // client that rejects the length from the header alone gets
    // NetProtocolError (one that waited would see IoError after the hold).
    EXPECT_THROW((void)client.Stats(), NetProtocolError) << "len " << len;
  }
}

TEST(NetClientHostileTest, CrcMismatchIsAProtocolError) {
  const std::string payload = wire::Encode(wire::OverloadedResponse{"busy"});
  const std::uint32_t crc = gdp::common::Crc32(payload) ^ 1u;
  ScriptedServer server(
      Header(static_cast<std::uint32_t>(payload.size()), crc) + payload,
      /*close_after_reply=*/true);
  Client client(server.port());
  EXPECT_THROW((void)client.Stats(), NetProtocolError);
}

TEST(NetClientHostileTest, CloseMidPayloadIsAnIoError) {
  const std::string payload = wire::Encode(wire::OverloadedResponse{
      "a reason long enough to be cut in the middle"});
  ScriptedServer server(
      Header(static_cast<std::uint32_t>(payload.size()),
             gdp::common::Crc32(payload)) +
          payload.substr(0, payload.size() / 2),
      /*close_after_reply=*/true);
  Client client(server.port());
  EXPECT_THROW((void)client.Stats(), IoError);
}

TEST(NetClientHostileTest, CloseMidHeaderIsAnIoError) {
  ScriptedServer server(Header(16, 0).substr(0, 3), /*close_after_reply=*/true);
  Client client(server.port());
  EXPECT_THROW((void)client.Stats(), IoError);
}

TEST(NetClientHostileTest, WellFormedFrameStillRoundTrips) {
  const std::string payload = wire::Encode(wire::OverloadedResponse{"busy"});
  ScriptedServer server(wire::Frame(payload), /*close_after_reply=*/true);
  Client client(server.port());
  const Reply<wire::StatsResponse> reply = client.Stats();
  EXPECT_EQ(reply.status, ReplyStatus::kOverloaded);
  EXPECT_EQ(reply.message, "busy");
}

}  // namespace
}  // namespace gdp::net
