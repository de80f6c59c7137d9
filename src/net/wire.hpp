// GDPNET01 wire format: typed, CRC-framed messages for the network serving
// front end (spec in docs/FORMATS.md, serving semantics in docs/SERVING.md).
//
// A connection opens with an 8-byte magic ("GDPNET01") from the client; every
// message after that — in either direction — is one frame:
//
//   [u32 payload_len][u32 payload_crc][payload]        (little-endian)
//
// with the CRC-32 from common/crc32.hpp (the same polynomial and the same
// known-answer tests that cover GDPWAL01 and GDPSNAP01 — one checksum
// implementation for every byte that leaves the process).  The payload is
// [u8 message kind][body]; request kinds are Serve / Sweep / Drilldown /
// Answer / Stats, response kinds mirror them plus the two service outcomes a
// loaded server may substitute for any request: Overloaded (typed
// backpressure, the connection stays open) and Error (typed failure).
//
// HOSTILE-INPUT DISCIPLINE: every length and count in a frame is treated as
// attacker-controlled, exactly like a snapshot header.  Decoders verify a
// declared size against the bytes actually remaining BEFORE allocating or
// advancing, and throw gdp::common::NetProtocolError on any violation —
// truncated frames, oversized declared lengths, CRC mismatches, unknown
// message kinds, counts that do not fit the payload.  tests/net_wire_test.cpp
// pins this with hand-corrupted frames (mirroring the snapshot hostile-header
// suite); tests/net_server_test.cpp replays the same bytes over a real
// socket.
//
// This header is transport-agnostic: encode/decode operate on std::string
// buffers, so the same code is exercised in-process by unit tests and over
// sockets by Server/Client.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/compiled_disclosure.hpp"
#include "core/drilldown.hpp"
#include "core/release.hpp"
#include "dp/privacy_accountant.hpp"
#include "graph/bipartite_graph.hpp"
#include "query/workload.hpp"
#include "serve/service.hpp"

namespace gdp::net::wire {

// The connection-opening magic; carries the major version like GDPWAL01 /
// GDPSNAP01.  Incompatible evolution bumps the digits.
inline constexpr char kMagic[8] = {'G', 'D', 'P', 'N', 'E', 'T', '0', '1'};
inline constexpr std::size_t kMagicSize = 8;

// Frame header: payload length + payload CRC, both u32 little-endian.
inline constexpr std::size_t kFrameHeaderSize = 8;

// Upper bound on one frame's payload.  A level-0 view of a large graph
// carries two f64 columns with one entry per group, so the cap is generous —
// but it exists, and a declared length past it is rejected BEFORE any
// allocation (a 4 GiB "length" must cost the attacker a closed connection,
// not the server an allocation).
inline constexpr std::uint32_t kMaxPayload = 32u << 20;

enum class MsgKind : std::uint8_t {
  // Requests (client -> server).
  kServeRequest = 1,
  kSweepRequest = 2,
  kDrilldownRequest = 3,
  kAnswerRequest = 4,
  kStatsRequest = 5,
  // Responses (server -> client).
  kServeResponse = 16,
  kSweepResponse = 17,
  kDrilldownResponse = 18,
  kAnswerResponse = 19,
  kStatsResponse = 20,
  kOverloaded = 21,
  kError = 22,
};

[[nodiscard]] const char* MsgKindName(MsgKind kind) noexcept;

// Typed failure taxonomy carried by an Error response — the wire projection
// of the library's exception types (docs/SERVING.md maps them).
enum class ErrorCode : std::uint8_t {
  kBadRequest = 1,   // malformed frame/message, invalid budget, bad level
  kNotFound = 2,     // unknown tenant or dataset
  kAccessPolicy = 3, // tier the dataset's policy cannot map
  kDurability = 4,   // service failed closed (WAL append lost)
  kInternal = 5,     // anything else; the message says what
};

[[nodiscard]] const char* ErrorCodeName(ErrorCode code) noexcept;

// --- request bodies --------------------------------------------------------

// BudgetSpec projection: what a remote tenant may choose per request.
struct WireBudget {
  double epsilon_g{0.999};
  double delta{1e-5};
  double phase1_fraction{0.1};
  std::uint8_t noise{0};  // core::NoiseKind, validated range on decode

  [[nodiscard]] gdp::core::BudgetSpec ToBudgetSpec() const;
  [[nodiscard]] static WireBudget FromBudgetSpec(const gdp::core::BudgetSpec& b);
};

struct ServeRequest {
  std::string tenant;
  std::string dataset;
  WireBudget budget;
};

struct SweepRequest {
  std::string tenant;
  std::string dataset;
  std::vector<WireBudget> budgets;
};

struct DrilldownRequest {
  std::string tenant;
  std::string dataset;
  WireBudget budget;
  std::uint8_t side{0};  // graph::Side
  std::uint32_t node{0};
};

// One query descriptor for the Answer RPC; the server instantiates the
// workload at the tenant's entitled level (serve::QuerySpec).
struct WireQuery {
  std::uint8_t kind{0};  // serve::QuerySpec::Kind, validated on decode
  std::uint8_t side{0};  // degree-histogram side
  std::uint32_t param{0};  // degree-histogram max_degree
};

struct AnswerRequest {
  std::string tenant;
  std::string dataset;
  WireBudget budget;
  std::vector<WireQuery> queries;
};

// --- response bodies -------------------------------------------------------

// serve::ServeResult on the wire (LevelRelease view included when granted).
struct ServeOutcome {
  bool granted{false};
  std::string denial_reason;
  std::int32_t privilege{0};
  std::int32_t level{0};
  double epsilon_spent{0.0};
  double epsilon_remaining{0.0};
  std::uint8_t accounting{0};  // dp::AccountingPolicy
  double accounted_epsilon{0.0};
  double accounted_delta{0.0};
  gdp::core::LevelRelease view;  // empty unless granted

  [[nodiscard]] static ServeOutcome FromResult(
      const gdp::serve::ServeResult& result);
  // Same, moving the view's vectors out of a result that is about to die.
  [[nodiscard]] static ServeOutcome FromResult(
      gdp::serve::ServeResult&& result);
};

struct SweepResponse {
  std::vector<ServeOutcome> outcomes;
};

struct WireDrillEntry {
  std::int32_t level{0};
  std::uint32_t group{0};
  std::uint32_t group_size{0};
  double noisy_count{0.0};
  double true_count{0.0};
};

struct DrilldownResponse {
  ServeOutcome outcome;
  std::vector<WireDrillEntry> chain;
};

struct WireQueryResult {
  std::string query_name;
  double sensitivity{0.0};
  double noise_stddev{0.0};
  std::vector<double> truth;
  std::vector<double> noisy;
  double mean_rer{0.0};
  double mae{0.0};
  double rmse{0.0};
};

struct AnswerResponse {
  ServeOutcome outcome;  // view stays empty: Answer returns query results
  std::vector<WireQueryResult> results;
};

// The observability surface (satellite: Stats RPC).  Monotone counters
// unless noted; see docs/SERVING.md for field semantics.
struct StatsResponse {
  // SessionRegistry.
  std::uint64_t registry_hits{0};
  std::uint64_t registry_misses{0};
  std::uint64_t registry_evictions{0};
  std::uint64_t registry_snapshot_adoptions{0};
  std::uint64_t registry_size{0};      // current
  std::uint64_t registry_capacity{0};
  // Catalog / broker.
  std::uint64_t catalog_datasets{0};
  std::uint64_t broker_tenants{0};
  // Durability spine.
  std::uint8_t wal_enabled{0};
  std::uint8_t failed_closed{0};
  std::uint64_t wal_appends{0};
  std::uint64_t wal_failures{0};
  std::uint64_t fail_closed_rejections{0};
  std::uint64_t dataset_denials{0};
  // Server pipeline.
  std::uint64_t connections_accepted{0};
  std::uint64_t connections_open{0};   // current
  std::uint64_t requests_enqueued{0};
  std::uint64_t requests_completed{0};
  std::uint64_t shed_queue_full{0};
  std::uint64_t shed_tenant_inflight{0};
  std::uint64_t protocol_errors{0};
  std::uint64_t queue_depth{0};        // current
  std::uint64_t queue_capacity{0};
  std::uint64_t queue_high_watermark{0};
  std::uint64_t workers{0};
  // I/O layer (epoll front end).  io_threads is the reader-thread count —
  // O(1), independent of connections_open (the scalability contract).
  std::uint64_t io_threads{0};
  // Noise-stream model.  Always 0: every request draws from its own
  // per-request-sequence stream (the field keeps the GDPNET01 layout).
  std::uint8_t noise_streams{0};
  // Global noise-lock acquisitions on the request hot path.  Always 0 —
  // there is no such lock; kept in the layout for clients that read it.
  std::uint64_t rng_mutex_acquisitions{0};
  // Responses that hit EAGAIN mid-frame and finished via EPOLLOUT re-arm.
  std::uint64_t partial_writes{0};
};

struct OverloadedResponse {
  std::string reason;
};

struct ErrorResponse {
  ErrorCode code{ErrorCode::kInternal};
  std::string message;
};

// --- framing ---------------------------------------------------------------

// The frame header (length + CRC) for an already-encoded payload
// ([kind][body]).  Throws NetProtocolError when the payload is empty or
// exceeds kMaxPayload (a response too large to frame must fail typed, not
// truncated).  A sender can write header and payload as two buffers
// without copying the payload.
[[nodiscard]] std::array<char, kFrameHeaderSize> FrameHeader(
    std::string_view payload);

// FrameHeader(payload) followed by the payload, as one string.
[[nodiscard]] std::string Frame(std::string_view payload);

// Split one frame off `buffer` at offset `pos`.  Returns the payload and
// advances `pos` past the frame, or nullopt (pos unchanged) when the bytes
// from `pos` on do not yet hold a full frame (read more).  Throws
// NetProtocolError on a declared length of zero or beyond kMaxPayload —
// checked as soon as the header is in, before waiting for the payload — and
// on a CRC mismatch.  Framing-level violations desynchronize the stream, so
// the caller must close the connection.  A reader that buffers many frames
// advances `pos` through them and compacts the buffer once.
[[nodiscard]] std::optional<std::string> TryDeframe(std::string_view buffer,
                                                    std::size_t& pos);

// The same at offset 0, erasing the consumed frame from `buffer`.
[[nodiscard]] std::optional<std::string> TryDeframe(std::string& buffer);

// The payload length a frame header declares, validated: throws
// NetProtocolError when it is zero or beyond kMaxPayload.  A receiver may
// size its payload buffer from the result.
[[nodiscard]] std::uint32_t CheckedPayloadLength(
    const std::array<char, kFrameHeaderSize>& header);

// The CRC a frame header declares for its payload.
[[nodiscard]] std::uint32_t DeclaredCrc(
    const std::array<char, kFrameHeaderSize>& header);

// The kind byte of a decoded payload (validated member of MsgKind).
[[nodiscard]] MsgKind PeekKind(std::string_view payload);

// --- encode (each returns the full payload: [kind][body]) ------------------

[[nodiscard]] std::string Encode(const ServeRequest& msg);
[[nodiscard]] std::string Encode(const SweepRequest& msg);
[[nodiscard]] std::string Encode(const DrilldownRequest& msg);
[[nodiscard]] std::string Encode(const AnswerRequest& msg);
[[nodiscard]] std::string EncodeStatsRequest();
[[nodiscard]] std::string Encode(const ServeOutcome& msg);  // kServeResponse
[[nodiscard]] std::string Encode(const SweepResponse& msg);
[[nodiscard]] std::string Encode(const DrilldownResponse& msg);
[[nodiscard]] std::string Encode(const AnswerResponse& msg);
[[nodiscard]] std::string Encode(const StatsResponse& msg);
[[nodiscard]] std::string Encode(const OverloadedResponse& msg);
[[nodiscard]] std::string Encode(const ErrorResponse& msg);

// --- encoded sizes: exactly Encode(msg).size(), computed without encoding.
// Encode reserves this much up front, so a payload is allocated once.

[[nodiscard]] std::size_t EncodedSize(const ServeRequest& msg);
[[nodiscard]] std::size_t EncodedSize(const SweepRequest& msg);
[[nodiscard]] std::size_t EncodedSize(const DrilldownRequest& msg);
[[nodiscard]] std::size_t EncodedSize(const AnswerRequest& msg);
[[nodiscard]] std::size_t EncodedSize(const ServeOutcome& msg);
[[nodiscard]] std::size_t EncodedSize(const SweepResponse& msg);
[[nodiscard]] std::size_t EncodedSize(const DrilldownResponse& msg);
[[nodiscard]] std::size_t EncodedSize(const AnswerResponse& msg);
[[nodiscard]] std::size_t EncodedSize(const StatsResponse& msg);
[[nodiscard]] std::size_t EncodedSize(const OverloadedResponse& msg);
[[nodiscard]] std::size_t EncodedSize(const ErrorResponse& msg);

// --- decode (payload = [kind][body]; kind must match; throws
// NetProtocolError on any structural violation) ------------------------------

[[nodiscard]] ServeRequest DecodeServeRequest(std::string_view payload);
[[nodiscard]] SweepRequest DecodeSweepRequest(std::string_view payload);
[[nodiscard]] DrilldownRequest DecodeDrilldownRequest(std::string_view payload);
[[nodiscard]] AnswerRequest DecodeAnswerRequest(std::string_view payload);
void DecodeStatsRequest(std::string_view payload);  // body must be empty
[[nodiscard]] ServeOutcome DecodeServeResponse(std::string_view payload);
[[nodiscard]] SweepResponse DecodeSweepResponse(std::string_view payload);
[[nodiscard]] DrilldownResponse DecodeDrilldownResponse(
    std::string_view payload);
[[nodiscard]] AnswerResponse DecodeAnswerResponse(std::string_view payload);
[[nodiscard]] StatsResponse DecodeStatsResponse(std::string_view payload);
[[nodiscard]] OverloadedResponse DecodeOverloaded(std::string_view payload);
[[nodiscard]] ErrorResponse DecodeError(std::string_view payload);

}  // namespace gdp::net::wire
