#include "net/wire.hpp"

#include <bit>
#include <cstring>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "core/group_dp_engine.hpp"

namespace gdp::net::wire {
namespace {

using gdp::common::NetProtocolError;

// Append-only little-endian serializer.  Strings and vectors are prefixed
// with a u32 count; doubles travel by IEEE-754 bit pattern.  Fixed-width
// values and f64 vectors are appended in bulk (one resize + copy).
class Writer {
 public:
  explicit Writer(MsgKind kind) { U8(static_cast<std::uint8_t>(kind)); }

  void U8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(std::uint32_t v) { Le(v); }
  void U64(std::uint64_t v) { Le(v); }
  void I32(std::int32_t v) { U32(std::bit_cast<std::uint32_t>(v)); }
  void F64(double v) { U64(std::bit_cast<std::uint64_t>(v)); }
  void Str(std::string_view s) {
    if (s.size() > kMaxPayload) {
      throw NetProtocolError("GDPNET01 encode: string exceeds frame cap");
    }
    U32(static_cast<std::uint32_t>(s.size()));
    out_.append(s.data(), s.size());
  }
  void F64Vec(const std::vector<double>& v) {
    U32(static_cast<std::uint32_t>(v.size()));
    if constexpr (std::endian::native == std::endian::little) {
      const std::size_t at = out_.size();
      out_.resize(at + v.size() * sizeof(double));
      if (!v.empty()) {
        std::memcpy(out_.data() + at, v.data(), v.size() * sizeof(double));
      }
    } else {
      for (const double d : v) {
        F64(d);
      }
    }
  }

  [[nodiscard]] std::string Take() && { return std::move(out_); }

 private:
  template <typename T>
  void Le(T v) {
    const std::size_t at = out_.size();
    out_.resize(at + sizeof(T));
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out_.data() + at, &v, sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        out_[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
      }
    }
  }

  std::string out_;
};

// Bounds-checked little-endian reader over one payload.  Every accessor
// verifies the remaining byte count BEFORE reading, and every count-prefixed
// aggregate verifies the declared count against a per-element lower bound on
// the remaining bytes BEFORE reserving memory — a hostile u32 must never
// size an allocation.
class Reader {
 public:
  explicit Reader(std::string_view payload) : data_(payload) {}

  [[nodiscard]] std::uint8_t U8() {
    Need(1, "u8");
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  [[nodiscard]] std::uint32_t U32() {
    Need(4, "u32");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  [[nodiscard]] std::uint64_t U64() {
    Need(8, "u64");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  [[nodiscard]] std::int32_t I32() { return std::bit_cast<std::int32_t>(U32()); }
  [[nodiscard]] double F64() { return std::bit_cast<double>(U64()); }
  [[nodiscard]] std::string Str() {
    const std::uint32_t len = U32();
    Need(len, "string body");
    std::string s(data_.substr(pos_, len));
    pos_ += len;
    return s;
  }
  [[nodiscard]] std::vector<double> F64Vec() {
    const std::uint32_t count = Count(8, "f64 vector");
    std::vector<double> v(count);
    if constexpr (std::endian::native == std::endian::little) {
      if (count > 0) {
        std::memcpy(v.data(), data_.data() + pos_, count * sizeof(double));
        pos_ += count * sizeof(double);
      }
    } else {
      for (double& d : v) {
        d = F64();
      }
    }
    return v;
  }
  // A declared element count, already proved to fit the remaining bytes at
  // `min_elem_size` bytes per element.
  [[nodiscard]] std::uint32_t Count(std::size_t min_elem_size,
                                    const char* what) {
    const std::uint32_t count = U32();
    if (static_cast<std::uint64_t>(count) * min_elem_size > Remaining()) {
      throw NetProtocolError(
          std::string("GDPNET01 decode: declared ") + what +
          " count does not fit the remaining payload");
    }
    return count;
  }
  [[nodiscard]] std::size_t Remaining() const { return data_.size() - pos_; }
  void ExpectEnd(const char* what) const {
    if (pos_ != data_.size()) {
      throw NetProtocolError(std::string("GDPNET01 decode: trailing bytes after ") +
                             what);
    }
  }

 private:
  void Need(std::size_t n, const char* what) const {
    if (Remaining() < n) {
      throw NetProtocolError(std::string("GDPNET01 decode: truncated ") + what);
    }
  }

  std::string_view data_;
  std::size_t pos_{0};
};

constexpr std::uint8_t kMaxNoiseKind =
    static_cast<std::uint8_t>(gdp::core::NoiseKind::kGeometric);
constexpr std::uint8_t kMaxAccounting =
    static_cast<std::uint8_t>(gdp::dp::AccountingPolicy::kRdp);

Reader Open(std::string_view payload, MsgKind expected) {
  Reader r(payload);
  const std::uint8_t kind = r.U8();
  if (kind != static_cast<std::uint8_t>(expected)) {
    throw NetProtocolError(std::string("GDPNET01 decode: expected ") +
                           MsgKindName(expected) + " payload");
  }
  return r;
}

void PutBudget(Writer& w, const WireBudget& b) {
  w.F64(b.epsilon_g);
  w.F64(b.delta);
  w.F64(b.phase1_fraction);
  w.U8(b.noise);
}

WireBudget GetBudget(Reader& r) {
  WireBudget b;
  b.epsilon_g = r.F64();
  b.delta = r.F64();
  b.phase1_fraction = r.F64();
  b.noise = r.U8();
  if (b.noise > kMaxNoiseKind) {
    throw NetProtocolError("GDPNET01 decode: unknown noise kind");
  }
  return b;
}

void PutOutcome(Writer& w, const ServeOutcome& o) {
  w.U8(o.granted ? 1 : 0);
  w.Str(o.denial_reason);
  w.I32(o.privilege);
  w.I32(o.level);
  w.F64(o.epsilon_spent);
  w.F64(o.epsilon_remaining);
  w.U8(o.accounting);
  w.F64(o.accounted_epsilon);
  w.F64(o.accounted_delta);
  const gdp::core::LevelRelease& v = o.view;
  w.I32(v.level);
  w.F64(v.sensitivity);
  w.F64(v.noise_stddev);
  w.F64(v.group_noise_stddev);
  w.F64(v.true_total);
  w.F64(v.noisy_total);
  w.F64Vec(v.true_group_counts);
  w.F64Vec(v.noisy_group_counts);
}

ServeOutcome GetOutcome(Reader& r) {
  ServeOutcome o;
  const std::uint8_t granted = r.U8();
  if (granted > 1) {
    throw NetProtocolError("GDPNET01 decode: granted flag must be 0 or 1");
  }
  o.granted = granted != 0;
  o.denial_reason = r.Str();
  o.privilege = r.I32();
  o.level = r.I32();
  o.epsilon_spent = r.F64();
  o.epsilon_remaining = r.F64();
  o.accounting = r.U8();
  if (o.accounting > kMaxAccounting) {
    throw NetProtocolError("GDPNET01 decode: unknown accounting policy");
  }
  o.accounted_epsilon = r.F64();
  o.accounted_delta = r.F64();
  o.view.level = r.I32();
  o.view.sensitivity = r.F64();
  o.view.noise_stddev = r.F64();
  o.view.group_noise_stddev = r.F64();
  o.view.true_total = r.F64();
  o.view.noisy_total = r.F64();
  o.view.true_group_counts = r.F64Vec();
  o.view.noisy_group_counts = r.F64Vec();
  return o;
}

}  // namespace

const char* MsgKindName(MsgKind kind) noexcept {
  switch (kind) {
    case MsgKind::kServeRequest:
      return "ServeRequest";
    case MsgKind::kSweepRequest:
      return "SweepRequest";
    case MsgKind::kDrilldownRequest:
      return "DrilldownRequest";
    case MsgKind::kAnswerRequest:
      return "AnswerRequest";
    case MsgKind::kStatsRequest:
      return "StatsRequest";
    case MsgKind::kServeResponse:
      return "ServeResponse";
    case MsgKind::kSweepResponse:
      return "SweepResponse";
    case MsgKind::kDrilldownResponse:
      return "DrilldownResponse";
    case MsgKind::kAnswerResponse:
      return "AnswerResponse";
    case MsgKind::kStatsResponse:
      return "StatsResponse";
    case MsgKind::kOverloaded:
      return "Overloaded";
    case MsgKind::kError:
      return "Error";
  }
  return "unknown";
}

const char* ErrorCodeName(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kBadRequest:
      return "bad-request";
    case ErrorCode::kNotFound:
      return "not-found";
    case ErrorCode::kAccessPolicy:
      return "access-policy";
    case ErrorCode::kDurability:
      return "durability";
    case ErrorCode::kInternal:
      return "internal";
  }
  return "unknown";
}

gdp::core::BudgetSpec WireBudget::ToBudgetSpec() const {
  gdp::core::BudgetSpec b;
  b.epsilon_g = epsilon_g;
  b.delta = delta;
  b.phase1_fraction = phase1_fraction;
  b.noise = static_cast<gdp::core::NoiseKind>(noise);
  return b;
}

WireBudget WireBudget::FromBudgetSpec(const gdp::core::BudgetSpec& b) {
  WireBudget w;
  w.epsilon_g = b.epsilon_g;
  w.delta = b.delta;
  w.phase1_fraction = b.phase1_fraction;
  w.noise = static_cast<std::uint8_t>(b.noise);
  return w;
}

ServeOutcome ServeOutcome::FromResult(const gdp::serve::ServeResult& result) {
  return FromResult(gdp::serve::ServeResult(result));
}

ServeOutcome ServeOutcome::FromResult(gdp::serve::ServeResult&& result) {
  ServeOutcome o;
  o.granted = result.granted;
  o.denial_reason = std::move(result.denial_reason);
  o.privilege = result.privilege;
  o.level = result.level;
  o.epsilon_spent = result.epsilon_spent;
  o.epsilon_remaining = result.epsilon_remaining;
  o.accounting = static_cast<std::uint8_t>(result.accounting);
  o.accounted_epsilon = result.accounted_epsilon;
  o.accounted_delta = result.accounted_delta;
  o.view = std::move(result.view);
  return o;
}

std::array<char, kFrameHeaderSize> FrameHeader(std::string_view payload) {
  if (payload.empty() || payload.size() > kMaxPayload) {
    throw NetProtocolError("GDPNET01 frame: payload size out of range");
  }
  const auto len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = gdp::common::Crc32(payload);
  std::array<char, kFrameHeaderSize> header{};
  for (int i = 0; i < 4; ++i) {
    header[static_cast<std::size_t>(i)] =
        static_cast<char>((len >> (8 * i)) & 0xFF);
    header[static_cast<std::size_t>(4 + i)] =
        static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  return header;
}

std::string Frame(std::string_view payload) {
  const std::array<char, kFrameHeaderSize> header = FrameHeader(payload);
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  out.append(header.data(), header.size());
  out.append(payload);
  return out;
}

std::optional<std::string> TryDeframe(std::string& buffer) {
  if (buffer.size() < kFrameHeaderSize) {
    return std::nullopt;
  }
  auto u32_at = [&buffer](std::size_t off) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(buffer[off + i]))
           << (8 * i);
    }
    return v;
  };
  const std::uint32_t len = u32_at(0);
  // Length is validated BEFORE waiting for `len` more bytes: an attacker
  // declaring 4 GiB gets rejected now, not buffered toward the cap.
  if (len == 0 || len > kMaxPayload) {
    throw NetProtocolError("GDPNET01 frame: declared payload length " +
                           std::to_string(len) + " outside (0, 32 MiB]");
  }
  if (buffer.size() < kFrameHeaderSize + len) {
    return std::nullopt;
  }
  const std::uint32_t declared_crc = u32_at(4);
  std::string payload = buffer.substr(kFrameHeaderSize, len);
  if (gdp::common::Crc32(payload) != declared_crc) {
    throw NetProtocolError("GDPNET01 frame: payload CRC mismatch");
  }
  buffer.erase(0, kFrameHeaderSize + len);
  return payload;
}

MsgKind PeekKind(std::string_view payload) {
  if (payload.empty()) {
    throw NetProtocolError("GDPNET01 decode: empty payload");
  }
  const auto kind = static_cast<std::uint8_t>(payload[0]);
  const bool request = kind >= static_cast<std::uint8_t>(MsgKind::kServeRequest) &&
                       kind <= static_cast<std::uint8_t>(MsgKind::kStatsRequest);
  const bool response = kind >= static_cast<std::uint8_t>(MsgKind::kServeResponse) &&
                        kind <= static_cast<std::uint8_t>(MsgKind::kError);
  if (!request && !response) {
    throw NetProtocolError("GDPNET01 decode: unknown message kind " +
                           std::to_string(kind));
  }
  return static_cast<MsgKind>(kind);
}

std::string Encode(const ServeRequest& msg) {
  Writer w(MsgKind::kServeRequest);
  w.Str(msg.tenant);
  w.Str(msg.dataset);
  PutBudget(w, msg.budget);
  return std::move(w).Take();
}

std::string Encode(const SweepRequest& msg) {
  Writer w(MsgKind::kSweepRequest);
  w.Str(msg.tenant);
  w.Str(msg.dataset);
  w.U32(static_cast<std::uint32_t>(msg.budgets.size()));
  for (const WireBudget& b : msg.budgets) {
    PutBudget(w, b);
  }
  return std::move(w).Take();
}

std::string Encode(const DrilldownRequest& msg) {
  Writer w(MsgKind::kDrilldownRequest);
  w.Str(msg.tenant);
  w.Str(msg.dataset);
  PutBudget(w, msg.budget);
  w.U8(msg.side);
  w.U32(msg.node);
  return std::move(w).Take();
}

std::string Encode(const AnswerRequest& msg) {
  Writer w(MsgKind::kAnswerRequest);
  w.Str(msg.tenant);
  w.Str(msg.dataset);
  PutBudget(w, msg.budget);
  w.U32(static_cast<std::uint32_t>(msg.queries.size()));
  for (const WireQuery& q : msg.queries) {
    w.U8(q.kind);
    w.U8(q.side);
    w.U32(q.param);
  }
  return std::move(w).Take();
}

std::string EncodeStatsRequest() {
  Writer w(MsgKind::kStatsRequest);
  return std::move(w).Take();
}

std::string Encode(const ServeOutcome& msg) {
  Writer w(MsgKind::kServeResponse);
  PutOutcome(w, msg);
  return std::move(w).Take();
}

std::string Encode(const SweepResponse& msg) {
  Writer w(MsgKind::kSweepResponse);
  w.U32(static_cast<std::uint32_t>(msg.outcomes.size()));
  for (const ServeOutcome& o : msg.outcomes) {
    PutOutcome(w, o);
  }
  return std::move(w).Take();
}

std::string Encode(const DrilldownResponse& msg) {
  Writer w(MsgKind::kDrilldownResponse);
  PutOutcome(w, msg.outcome);
  w.U32(static_cast<std::uint32_t>(msg.chain.size()));
  for (const WireDrillEntry& e : msg.chain) {
    w.I32(e.level);
    w.U32(e.group);
    w.U32(e.group_size);
    w.F64(e.noisy_count);
    w.F64(e.true_count);
  }
  return std::move(w).Take();
}

std::string Encode(const AnswerResponse& msg) {
  Writer w(MsgKind::kAnswerResponse);
  PutOutcome(w, msg.outcome);
  w.U32(static_cast<std::uint32_t>(msg.results.size()));
  for (const WireQueryResult& r : msg.results) {
    w.Str(r.query_name);
    w.F64(r.sensitivity);
    w.F64(r.noise_stddev);
    w.F64Vec(r.truth);
    w.F64Vec(r.noisy);
    w.F64(r.mean_rer);
    w.F64(r.mae);
    w.F64(r.rmse);
  }
  return std::move(w).Take();
}

std::string Encode(const StatsResponse& msg) {
  Writer w(MsgKind::kStatsResponse);
  w.U64(msg.registry_hits);
  w.U64(msg.registry_misses);
  w.U64(msg.registry_evictions);
  w.U64(msg.registry_snapshot_adoptions);
  w.U64(msg.registry_size);
  w.U64(msg.registry_capacity);
  w.U64(msg.catalog_datasets);
  w.U64(msg.broker_tenants);
  w.U8(msg.wal_enabled);
  w.U8(msg.failed_closed);
  w.U64(msg.wal_appends);
  w.U64(msg.wal_failures);
  w.U64(msg.fail_closed_rejections);
  w.U64(msg.dataset_denials);
  w.U64(msg.connections_accepted);
  w.U64(msg.connections_open);
  w.U64(msg.requests_enqueued);
  w.U64(msg.requests_completed);
  w.U64(msg.shed_queue_full);
  w.U64(msg.shed_tenant_inflight);
  w.U64(msg.protocol_errors);
  w.U64(msg.queue_depth);
  w.U64(msg.queue_capacity);
  w.U64(msg.queue_high_watermark);
  w.U64(msg.workers);
  w.U64(msg.io_threads);
  w.U8(msg.noise_streams);
  w.U64(msg.rng_mutex_acquisitions);
  w.U64(msg.partial_writes);
  return std::move(w).Take();
}

std::string Encode(const OverloadedResponse& msg) {
  Writer w(MsgKind::kOverloaded);
  w.Str(msg.reason);
  return std::move(w).Take();
}

std::string Encode(const ErrorResponse& msg) {
  Writer w(MsgKind::kError);
  w.U8(static_cast<std::uint8_t>(msg.code));
  w.Str(msg.message);
  return std::move(w).Take();
}

ServeRequest DecodeServeRequest(std::string_view payload) {
  Reader r = Open(payload, MsgKind::kServeRequest);
  ServeRequest msg;
  msg.tenant = r.Str();
  msg.dataset = r.Str();
  msg.budget = GetBudget(r);
  r.ExpectEnd("ServeRequest");
  return msg;
}

SweepRequest DecodeSweepRequest(std::string_view payload) {
  Reader r = Open(payload, MsgKind::kSweepRequest);
  SweepRequest msg;
  msg.tenant = r.Str();
  msg.dataset = r.Str();
  const std::uint32_t count = r.Count(25, "sweep budget");  // 3xf64 + u8
  msg.budgets.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    msg.budgets.push_back(GetBudget(r));
  }
  r.ExpectEnd("SweepRequest");
  return msg;
}

DrilldownRequest DecodeDrilldownRequest(std::string_view payload) {
  Reader r = Open(payload, MsgKind::kDrilldownRequest);
  DrilldownRequest msg;
  msg.tenant = r.Str();
  msg.dataset = r.Str();
  msg.budget = GetBudget(r);
  msg.side = r.U8();
  if (msg.side > 1) {
    throw NetProtocolError("GDPNET01 decode: drilldown side must be 0 or 1");
  }
  msg.node = r.U32();
  r.ExpectEnd("DrilldownRequest");
  return msg;
}

AnswerRequest DecodeAnswerRequest(std::string_view payload) {
  Reader r = Open(payload, MsgKind::kAnswerRequest);
  AnswerRequest msg;
  msg.tenant = r.Str();
  msg.dataset = r.Str();
  msg.budget = GetBudget(r);
  const std::uint32_t count = r.Count(6, "answer query");  // u8 + u8 + u32
  msg.queries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    WireQuery q;
    q.kind = r.U8();
    q.side = r.U8();
    if (q.side > 1) {
      throw NetProtocolError("GDPNET01 decode: query side must be 0 or 1");
    }
    q.param = r.U32();
    msg.queries.push_back(q);
  }
  r.ExpectEnd("AnswerRequest");
  return msg;
}

void DecodeStatsRequest(std::string_view payload) {
  Reader r = Open(payload, MsgKind::kStatsRequest);
  r.ExpectEnd("StatsRequest");
}

ServeOutcome DecodeServeResponse(std::string_view payload) {
  Reader r = Open(payload, MsgKind::kServeResponse);
  ServeOutcome o = GetOutcome(r);
  r.ExpectEnd("ServeResponse");
  return o;
}

SweepResponse DecodeSweepResponse(std::string_view payload) {
  Reader r = Open(payload, MsgKind::kSweepResponse);
  SweepResponse msg;
  // Outcome floor: flag + 4 empty strings/vecs would still be > 60 bytes;
  // use the fixed-field floor (granted + reason len + 2xi32 + 5xf64 + u8 +
  // view fixed part) as the per-element bound.
  const std::uint32_t count = r.Count(90, "sweep outcome");
  msg.outcomes.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    msg.outcomes.push_back(GetOutcome(r));
  }
  r.ExpectEnd("SweepResponse");
  return msg;
}

DrilldownResponse DecodeDrilldownResponse(std::string_view payload) {
  Reader r = Open(payload, MsgKind::kDrilldownResponse);
  DrilldownResponse msg;
  msg.outcome = GetOutcome(r);
  const std::uint32_t count = r.Count(28, "drilldown entry");
  msg.chain.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    WireDrillEntry e;
    e.level = r.I32();
    e.group = r.U32();
    e.group_size = r.U32();
    e.noisy_count = r.F64();
    e.true_count = r.F64();
    msg.chain.push_back(e);
  }
  r.ExpectEnd("DrilldownResponse");
  return msg;
}

AnswerResponse DecodeAnswerResponse(std::string_view payload) {
  Reader r = Open(payload, MsgKind::kAnswerResponse);
  AnswerResponse msg;
  msg.outcome = GetOutcome(r);
  // Per-result floor: name len + 5xf64 + 2 vector counts.
  const std::uint32_t count = r.Count(52, "answer result");
  msg.results.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    WireQueryResult res;
    res.query_name = r.Str();
    res.sensitivity = r.F64();
    res.noise_stddev = r.F64();
    res.truth = r.F64Vec();
    res.noisy = r.F64Vec();
    res.mean_rer = r.F64();
    res.mae = r.F64();
    res.rmse = r.F64();
    msg.results.push_back(std::move(res));
  }
  r.ExpectEnd("AnswerResponse");
  return msg;
}

StatsResponse DecodeStatsResponse(std::string_view payload) {
  Reader r = Open(payload, MsgKind::kStatsResponse);
  StatsResponse msg;
  msg.registry_hits = r.U64();
  msg.registry_misses = r.U64();
  msg.registry_evictions = r.U64();
  msg.registry_snapshot_adoptions = r.U64();
  msg.registry_size = r.U64();
  msg.registry_capacity = r.U64();
  msg.catalog_datasets = r.U64();
  msg.broker_tenants = r.U64();
  msg.wal_enabled = r.U8();
  msg.failed_closed = r.U8();
  msg.wal_appends = r.U64();
  msg.wal_failures = r.U64();
  msg.fail_closed_rejections = r.U64();
  msg.dataset_denials = r.U64();
  msg.connections_accepted = r.U64();
  msg.connections_open = r.U64();
  msg.requests_enqueued = r.U64();
  msg.requests_completed = r.U64();
  msg.shed_queue_full = r.U64();
  msg.shed_tenant_inflight = r.U64();
  msg.protocol_errors = r.U64();
  msg.queue_depth = r.U64();
  msg.queue_capacity = r.U64();
  msg.queue_high_watermark = r.U64();
  msg.workers = r.U64();
  msg.io_threads = r.U64();
  msg.noise_streams = r.U8();
  msg.rng_mutex_acquisitions = r.U64();
  msg.partial_writes = r.U64();
  r.ExpectEnd("StatsResponse");
  return msg;
}

OverloadedResponse DecodeOverloaded(std::string_view payload) {
  Reader r = Open(payload, MsgKind::kOverloaded);
  OverloadedResponse msg;
  msg.reason = r.Str();
  r.ExpectEnd("Overloaded");
  return msg;
}

ErrorResponse DecodeError(std::string_view payload) {
  Reader r = Open(payload, MsgKind::kError);
  ErrorResponse msg;
  const std::uint8_t code = r.U8();
  if (code < static_cast<std::uint8_t>(ErrorCode::kBadRequest) ||
      code > static_cast<std::uint8_t>(ErrorCode::kInternal)) {
    throw NetProtocolError("GDPNET01 decode: unknown error code");
  }
  msg.code = static_cast<ErrorCode>(code);
  msg.message = r.Str();
  r.ExpectEnd("Error");
  return msg;
}

}  // namespace gdp::net::wire
