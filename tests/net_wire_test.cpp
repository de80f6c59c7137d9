// GDPNET01 wire format: encode/decode round trips for every message kind,
// framing (CRC, length bounds, partial buffers), and the hostile-input
// discipline — every decoder must throw NetProtocolError on truncated,
// oversized, or corrupted bytes, never read past the buffer or allocate from
// an attacker-declared count.  Mirrors the snapshot hostile-header suite;
// net_server_test replays the same attacks over a real socket.
#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/error.hpp"

namespace gdp::net::wire {
namespace {

using gdp::common::NetProtocolError;

ServeRequest SampleServeRequest() {
  ServeRequest req;
  req.tenant = "alice";
  req.dataset = "dblp";
  req.budget.epsilon_g = 0.75;
  req.budget.delta = 1e-6;
  req.budget.phase1_fraction = 0.2;
  req.budget.noise = 2;  // Laplace
  return req;
}

ServeOutcome SampleOutcome() {
  ServeOutcome outcome;
  outcome.granted = true;
  outcome.privilege = 3;
  outcome.level = 2;
  outcome.epsilon_spent = 0.825;
  outcome.epsilon_remaining = 1.175;
  outcome.accounting = 2;  // rdp
  outcome.accounted_epsilon = 0.41;
  outcome.accounted_delta = 2e-6;
  outcome.view.level = 2;
  outcome.view.sensitivity = 17.0;
  outcome.view.noise_stddev = 123.5;
  outcome.view.group_noise_stddev = 98.7;
  outcome.view.true_total = 2500.0;
  outcome.view.noisy_total = 2481.25;
  outcome.view.true_group_counts = {10.0, 20.0, 30.0};
  outcome.view.noisy_group_counts = {9.5, 21.25, 28.75};
  return outcome;
}

// ---------- framing ----------

TEST(NetFramingTest, FrameRoundTripsThroughTryDeframe) {
  const std::string payload = Encode(SampleServeRequest());
  std::string buffer = Frame(payload);
  EXPECT_EQ(buffer.size(), kFrameHeaderSize + payload.size());
  const std::optional<std::string> got = TryDeframe(buffer);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  EXPECT_TRUE(buffer.empty());
}

TEST(NetFramingTest, PartialFrameAsksForMoreBytes) {
  const std::string framed = Frame(EncodeStatsRequest());
  for (std::size_t keep = 0; keep + 1 < framed.size(); ++keep) {
    std::string buffer = framed.substr(0, keep);
    EXPECT_FALSE(TryDeframe(buffer).has_value()) << "at " << keep << " bytes";
    EXPECT_EQ(buffer.size(), keep) << "partial bytes must stay buffered";
  }
}

TEST(NetFramingTest, TwoFramesDeframeInOrder) {
  const std::string first = Encode(SampleServeRequest());
  const std::string second = EncodeStatsRequest();
  std::string buffer = Frame(first) + Frame(second);
  EXPECT_EQ(TryDeframe(buffer), first);
  EXPECT_EQ(TryDeframe(buffer), second);
  EXPECT_TRUE(buffer.empty());
}

TEST(NetFramingTest, CorruptedCrcThrows) {
  std::string buffer = Frame(EncodeStatsRequest());
  buffer.back() ^= 0x01;  // flip a payload bit; the header CRC now mismatches
  EXPECT_THROW((void)TryDeframe(buffer), NetProtocolError);
}

TEST(NetFramingTest, CorruptedHeaderCrcThrows) {
  std::string buffer = Frame(EncodeStatsRequest());
  buffer[4] ^= 0xFF;  // the CRC field itself
  EXPECT_THROW((void)TryDeframe(buffer), NetProtocolError);
}

TEST(NetFramingTest, ZeroDeclaredLengthThrows) {
  std::string buffer(kFrameHeaderSize, '\0');
  EXPECT_THROW((void)TryDeframe(buffer), NetProtocolError);
}

// The oversized declared length must be rejected from the HEADER alone —
// before the decoder waits for (or allocates) 4 GiB that will never come.
TEST(NetFramingTest, OversizedDeclaredLengthThrowsImmediately) {
  std::string buffer = Frame(EncodeStatsRequest());
  const std::uint32_t huge = kMaxPayload + 1;
  std::memcpy(buffer.data(), &huge, sizeof(huge));
  EXPECT_THROW((void)TryDeframe(buffer), NetProtocolError);
}

TEST(NetFramingTest, FrameRejectsEmptyAndOversizedPayloads) {
  EXPECT_THROW((void)Frame(""), NetProtocolError);
  EXPECT_THROW((void)Frame(std::string(kMaxPayload + 1, 'x')),
               NetProtocolError);
}

// ---------- request round trips ----------

TEST(NetWireTest, ServeRequestRoundTrips) {
  const ServeRequest req = SampleServeRequest();
  const ServeRequest got = DecodeServeRequest(Encode(req));
  EXPECT_EQ(got.tenant, req.tenant);
  EXPECT_EQ(got.dataset, req.dataset);
  EXPECT_DOUBLE_EQ(got.budget.epsilon_g, req.budget.epsilon_g);
  EXPECT_DOUBLE_EQ(got.budget.delta, req.budget.delta);
  EXPECT_DOUBLE_EQ(got.budget.phase1_fraction, req.budget.phase1_fraction);
  EXPECT_EQ(got.budget.noise, req.budget.noise);
}

TEST(NetWireTest, SweepRequestRoundTrips) {
  SweepRequest req;
  req.tenant = "bob";
  req.dataset = "imdb";
  for (double eps : {0.25, 0.5, 0.999}) {
    WireBudget budget;
    budget.epsilon_g = eps;
    req.budgets.push_back(budget);
  }
  const SweepRequest got = DecodeSweepRequest(Encode(req));
  ASSERT_EQ(got.budgets.size(), 3u);
  EXPECT_DOUBLE_EQ(got.budgets[2].epsilon_g, 0.999);
}

TEST(NetWireTest, DrilldownRequestRoundTrips) {
  DrilldownRequest req;
  req.tenant = "carol";
  req.dataset = "dblp";
  req.side = 1;
  req.node = 4242;
  const DrilldownRequest got = DecodeDrilldownRequest(Encode(req));
  EXPECT_EQ(got.side, 1);
  EXPECT_EQ(got.node, 4242u);
}

TEST(NetWireTest, AnswerRequestRoundTrips) {
  AnswerRequest req;
  req.tenant = "dave";
  req.dataset = "dblp";
  req.queries.push_back(WireQuery{0, 0, 0});
  req.queries.push_back(WireQuery{2, 1, 16});
  const AnswerRequest got = DecodeAnswerRequest(Encode(req));
  ASSERT_EQ(got.queries.size(), 2u);
  EXPECT_EQ(got.queries[1].kind, 2);
  EXPECT_EQ(got.queries[1].side, 1);
  EXPECT_EQ(got.queries[1].param, 16u);
}

TEST(NetWireTest, StatsRequestHasEmptyBody) {
  const std::string payload = EncodeStatsRequest();
  EXPECT_EQ(payload.size(), 1u);
  EXPECT_NO_THROW(DecodeStatsRequest(payload));
}

// ---------- response round trips ----------

TEST(NetWireTest, ServeResponseRoundTripsWithView) {
  const ServeOutcome outcome = SampleOutcome();
  const ServeOutcome got = DecodeServeResponse(Encode(outcome));
  EXPECT_TRUE(got.granted);
  EXPECT_EQ(got.privilege, 3);
  EXPECT_EQ(got.level, 2);
  EXPECT_DOUBLE_EQ(got.epsilon_spent, 0.825);
  EXPECT_DOUBLE_EQ(got.accounted_delta, 2e-6);
  EXPECT_EQ(got.view.noisy_group_counts, outcome.view.noisy_group_counts);
  EXPECT_EQ(got.view.true_group_counts, outcome.view.true_group_counts);
  EXPECT_DOUBLE_EQ(got.view.noisy_total, outcome.view.noisy_total);
}

TEST(NetWireTest, DeniedOutcomeRoundTripsReason) {
  ServeOutcome outcome;
  outcome.granted = false;
  outcome.denial_reason = "session budget exhausted";
  const ServeOutcome got = DecodeServeResponse(Encode(outcome));
  EXPECT_FALSE(got.granted);
  EXPECT_EQ(got.denial_reason, "session budget exhausted");
  EXPECT_TRUE(got.view.noisy_group_counts.empty());
}

TEST(NetWireTest, SweepResponseRoundTrips) {
  SweepResponse resp;
  resp.outcomes.push_back(SampleOutcome());
  ServeOutcome denied;
  denied.denial_reason = "no";
  resp.outcomes.push_back(denied);
  const SweepResponse got = DecodeSweepResponse(Encode(resp));
  ASSERT_EQ(got.outcomes.size(), 2u);
  EXPECT_TRUE(got.outcomes[0].granted);
  EXPECT_FALSE(got.outcomes[1].granted);
}

TEST(NetWireTest, DrilldownResponseRoundTrips) {
  DrilldownResponse resp;
  resp.outcome = SampleOutcome();
  resp.chain.push_back(WireDrillEntry{4, 7, 120, 55.5, 52.0});
  resp.chain.push_back(WireDrillEntry{3, 1, 30, 12.25, 13.0});
  const DrilldownResponse got = DecodeDrilldownResponse(Encode(resp));
  ASSERT_EQ(got.chain.size(), 2u);
  EXPECT_EQ(got.chain[0].level, 4);
  EXPECT_EQ(got.chain[1].group_size, 30u);
  EXPECT_DOUBLE_EQ(got.chain[1].noisy_count, 12.25);
}

TEST(NetWireTest, AnswerResponseRoundTrips) {
  AnswerResponse resp;
  resp.outcome = SampleOutcome();
  WireQueryResult result;
  result.query_name = "association_count";
  result.sensitivity = 2500.0;
  result.noise_stddev = 812.5;
  result.truth = {2500.0};
  result.noisy = {2481.5};
  result.mean_rer = 0.0074;
  result.mae = 18.5;
  result.rmse = 18.5;
  resp.results.push_back(result);
  const AnswerResponse got = DecodeAnswerResponse(Encode(resp));
  ASSERT_EQ(got.results.size(), 1u);
  EXPECT_EQ(got.results[0].query_name, "association_count");
  EXPECT_EQ(got.results[0].truth, result.truth);
  EXPECT_DOUBLE_EQ(got.results[0].rmse, 18.5);
}

TEST(NetWireTest, StatsResponseRoundTripsEveryField) {
  StatsResponse stats;
  stats.registry_hits = 1;
  stats.registry_misses = 2;
  stats.registry_evictions = 3;
  stats.registry_snapshot_adoptions = 4;
  stats.registry_size = 5;
  stats.registry_capacity = 6;
  stats.catalog_datasets = 7;
  stats.broker_tenants = 8;
  stats.wal_enabled = 1;
  stats.failed_closed = 1;
  stats.wal_appends = 9;
  stats.wal_failures = 10;
  stats.fail_closed_rejections = 11;
  stats.dataset_denials = 12;
  stats.connections_accepted = 13;
  stats.connections_open = 14;
  stats.requests_enqueued = 15;
  stats.requests_completed = 16;
  stats.shed_queue_full = 17;
  stats.shed_tenant_inflight = 18;
  stats.protocol_errors = 19;
  stats.queue_depth = 20;
  stats.queue_capacity = 21;
  stats.queue_high_watermark = 22;
  stats.workers = 23;
  stats.io_threads = 24;
  stats.noise_streams = 1;
  stats.rng_mutex_acquisitions = 25;
  stats.partial_writes = 26;
  const StatsResponse got = DecodeStatsResponse(Encode(stats));
  EXPECT_EQ(got.registry_hits, 1u);
  EXPECT_EQ(got.registry_capacity, 6u);
  EXPECT_EQ(got.broker_tenants, 8u);
  EXPECT_EQ(got.wal_enabled, 1);
  EXPECT_EQ(got.fail_closed_rejections, 11u);
  EXPECT_EQ(got.shed_tenant_inflight, 18u);
  EXPECT_EQ(got.queue_high_watermark, 22u);
  EXPECT_EQ(got.workers, 23u);
  EXPECT_EQ(got.io_threads, 24u);
  EXPECT_EQ(got.noise_streams, 1);
  EXPECT_EQ(got.rng_mutex_acquisitions, 25u);
  EXPECT_EQ(got.partial_writes, 26u);
}

TEST(NetWireTest, OverloadedAndErrorRoundTrip) {
  const OverloadedResponse over = DecodeOverloaded(
      Encode(OverloadedResponse{"job queue full (depth 64)"}));
  EXPECT_EQ(over.reason, "job queue full (depth 64)");
  const ErrorResponse err = DecodeError(
      Encode(ErrorResponse{ErrorCode::kNotFound, "unknown tenant 'x'"}));
  EXPECT_EQ(err.code, ErrorCode::kNotFound);
  EXPECT_EQ(err.message, "unknown tenant 'x'");
}

// ---------- hostile decode ----------

// ---------- golden bytes: the GDPNET01 layout does not move ----------

std::string FromHex(std::string_view hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    out.push_back(kDigits[static_cast<unsigned char>(c) >> 4]);
    out.push_back(kDigits[static_cast<unsigned char>(c) & 0xF]);
  }
  return out;
}

// Frames recorded from the byte-at-a-time encoder this layout was defined
// with; the bulk encoder must reproduce them exactly.
TEST(NetGoldenTest, ServeAndDrilldownFramesMatchRecordedBytes) {
  ServeOutcome o;
  o.granted = true;
  o.privilege = 3;
  o.level = 2;
  o.epsilon_spent = 1.25;
  o.epsilon_remaining = 8.75;
  o.accounting = 2;
  o.accounted_epsilon = 0.5;
  o.accounted_delta = 0.125;
  o.view.level = 2;
  o.view.sensitivity = 17.0;
  o.view.noise_stddev = 3.5;
  o.view.group_noise_stddev = 4.75;
  o.view.true_total = 1200.0;
  o.view.noisy_total = 1201.5;
  o.view.true_group_counts = {10.0, 20.0};
  o.view.noisy_group_counts = {9.5, -0.25};
  const std::string serve_golden = FromHex(
      "83000000ba5d78411001000000000300000002000000000000000000f43f0000"
      "00000080214002000000000000e03f000000000000c03f020000000000000000"
      "0031400000000000000c4000000000000013400000000000c092400000000000"
      "c692400200000000000000000024400000000000003440020000000000000000"
      "002340000000000000d0bf");
  EXPECT_EQ(Hex(Frame(Encode(o))), Hex(serve_golden));
  // Header + payload sent as two buffers equals the one-string frame.
  const std::string payload = Encode(o);
  const auto header = FrameHeader(payload);
  EXPECT_EQ(std::string(header.data(), header.size()) + payload, serve_golden);

  DrilldownResponse d;
  d.outcome.denial_reason = "no";
  d.chain = {{3, 1, 5, 9.5, 10.0}};
  const std::string drill_golden = FromHex(
      "85000000025cd1a71200020000006e6f00000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000001000000030000000100000005000000000000"
      "00000023400000000000002440");
  EXPECT_EQ(Hex(Frame(Encode(d))), Hex(drill_golden));
}

TEST(NetGoldenTest, FromResultMovesTheViewWithoutChangingBytes) {
  gdp::serve::ServeResult result;
  result.granted = true;
  result.level = 1;
  result.view.level = 1;
  result.view.noisy_group_counts = {1.5, 2.5, 3.5};
  result.view.true_group_counts = {1.0, 2.0, 3.0};
  const std::string copied = Encode(ServeOutcome::FromResult(result));
  const ServeOutcome moved = ServeOutcome::FromResult(std::move(result));
  EXPECT_EQ(Encode(moved), copied);
}

TEST(NetHostileTest, EmptyPayloadAndUnknownKindThrow) {
  EXPECT_THROW((void)PeekKind(""), NetProtocolError);
  EXPECT_THROW((void)PeekKind(std::string(1, '\x63')), NetProtocolError);
  EXPECT_THROW((void)PeekKind(std::string(1, '\0')), NetProtocolError);
}

TEST(NetHostileTest, WrongKindForDecoderThrows) {
  const std::string serve = Encode(SampleServeRequest());
  EXPECT_THROW((void)DecodeSweepRequest(serve), NetProtocolError);
  EXPECT_THROW((void)DecodeServeResponse(serve), NetProtocolError);
  EXPECT_THROW(DecodeStatsRequest(serve), NetProtocolError);
}

// Every proper prefix of a valid message is a truncation attack; the decoder
// must throw, not read out of bounds (ASan-clean by CI construction).
TEST(NetHostileTest, EveryTruncationOfEveryMessageThrows) {
  const std::string payloads[] = {
      Encode(SampleServeRequest()),
      Encode(SampleOutcome()),
      Encode(DrilldownResponse{SampleOutcome(),
                               {WireDrillEntry{1, 2, 3, 4.0, 5.0}}}),
      Encode(ErrorResponse{ErrorCode::kInternal, "boom"}),
  };
  const auto decode_any = [](const std::string& payload) {
    switch (PeekKind(payload)) {
      case MsgKind::kServeRequest:
        (void)DecodeServeRequest(payload);
        break;
      case MsgKind::kServeResponse:
        (void)DecodeServeResponse(payload);
        break;
      case MsgKind::kDrilldownResponse:
        (void)DecodeDrilldownResponse(payload);
        break;
      case MsgKind::kError:
        (void)DecodeError(payload);
        break;
      default:
        break;
    }
  };
  for (const std::string& payload : payloads) {
    for (std::size_t keep = 1; keep < payload.size(); ++keep) {
      EXPECT_THROW(decode_any(payload.substr(0, keep)), NetProtocolError)
          << "kind " << static_cast<int>(payload[0]) << " truncated to "
          << keep << " of " << payload.size() << " bytes";
    }
  }
}

TEST(NetHostileTest, TrailingGarbageThrows) {
  std::string payload = Encode(SampleServeRequest());
  payload.push_back('\0');
  EXPECT_THROW((void)DecodeServeRequest(payload), NetProtocolError);
}

// A count field claiming more elements than the remaining bytes could hold
// must be rejected BEFORE the reserve — the allocation-bomb defense.
TEST(NetHostileTest, InflatedCountIsRejectedBeforeAllocation) {
  SweepRequest req;
  req.tenant = "a";
  req.dataset = "b";
  req.budgets.push_back(WireBudget{});
  std::string payload = Encode(req);
  // The budget count is the u32 right before the 25-byte budget body.
  const std::size_t count_at = payload.size() - 25 - 4;
  const std::uint32_t huge = 0x40000000u;
  std::memcpy(payload.data() + count_at, &huge, sizeof(huge));
  EXPECT_THROW((void)DecodeSweepRequest(payload), NetProtocolError);
}

TEST(NetHostileTest, InflatedStringLengthThrows) {
  ServeRequest req = SampleServeRequest();
  std::string payload = Encode(req);
  // The tenant length is the first u32 after the kind byte.
  const std::uint32_t huge = 0x7fffffffu;
  std::memcpy(payload.data() + 1, &huge, sizeof(huge));
  EXPECT_THROW((void)DecodeServeRequest(payload), NetProtocolError);
}

TEST(NetHostileTest, OutOfRangeEnumsThrow) {
  ServeRequest req = SampleServeRequest();
  req.budget.noise = 200;  // past kGeometric
  EXPECT_THROW((void)DecodeServeRequest(Encode(req)), NetProtocolError);

  DrilldownRequest drill;
  drill.tenant = "a";
  drill.dataset = "b";
  drill.side = 2;  // not a graph::Side
  EXPECT_THROW((void)DecodeDrilldownRequest(Encode(drill)), NetProtocolError);

  ServeOutcome outcome = SampleOutcome();
  outcome.accounting = 99;  // not an AccountingPolicy
  EXPECT_THROW((void)DecodeServeResponse(Encode(outcome)), NetProtocolError);
}

TEST(NetHostileTest, NonBooleanGrantedByteThrows) {
  std::string payload = Encode(SampleOutcome());
  payload[1] = '\x02';  // granted must be 0 or 1
  EXPECT_THROW((void)DecodeServeResponse(payload), NetProtocolError);
}

TEST(NetHostileTest, ErrorCodeRangeIsValidated) {
  std::string payload = Encode(ErrorResponse{ErrorCode::kInternal, "x"});
  payload[1] = '\x00';  // 0 is not a valid ErrorCode
  EXPECT_THROW((void)DecodeError(payload), NetProtocolError);
}

}  // namespace
}  // namespace gdp::net::wire
