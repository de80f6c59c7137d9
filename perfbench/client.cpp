// gdp_perfbench: the client and probe side of the end-to-end benchmark.
//
//   warmup       open every tenant once against a running server (setup)
//   first-serve  wait for a cold server's port file, send one top-tier Serve,
//                save the reply for checking
//   load         closed-loop load over N connections against a running
//                `gdp_tool serve --listen`; every reply is checked against an
//                in-process compile of the same (graph, spec, seed)
//   probe        per-layer timings from direct calls into each module's
//                public functions, with the same inputs as the server
//
// perfbench/run.py runs these subcommands; perfbench/README.md explains
// the workloads and metrics.  Every subcommand writes one JSON object to the
// file named by --out.  Spans (--trace FILE) are kept in memory and written
// when the subcommand ends.
#include <fcntl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/access_policy.hpp"
#include "core/compiled_disclosure.hpp"
#include "core/group_dp_engine.hpp"
#include "core/pipeline.hpp"
#include "core/release_plan.hpp"
#include "dp/distributions.hpp"
#include "graph/io.hpp"
#include "hier/specialization.hpp"
#include "net/client.hpp"
#include "net/wire.hpp"
#include "serve/audit_wal.hpp"
#include "serve/service.hpp"
#include "serve/session_registry.hpp"
#include "storage/snapshot.hpp"

namespace {

namespace wire = gdp::net::wire;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Small helpers.

std::int64_t MonoNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
        throw std::invalid_argument("expected --flag value pairs, got '" +
                                    key + "'");
      }
      values_[key.substr(2)] = argv[++i];
    }
  }
  [[nodiscard]] std::string Str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      throw std::invalid_argument("missing --" + key);
    }
    return it->second;
  }
  [[nodiscard]] std::string StrOr(const std::string& key,
                                  const std::string& def) const {
    const auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }
  [[nodiscard]] long long Int(const std::string& key) const {
    return std::stoll(Str(key));
  }
  [[nodiscard]] long long IntOr(const std::string& key, long long def) const {
    return values_.count(key) ? Int(key) : def;
  }

 private:
  std::map<std::string, std::string> values_;
};

// A JSON object written field by field (numbers, strings, flat arrays).
class Json {
 public:
  Json& Num(const std::string& key, double v) {
    Key(key);
    if (std::isfinite(v)) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      os_ << buf;
    } else {
      os_ << "null";
    }
    return *this;
  }
  Json& Str(const std::string& key, const std::string& v) {
    Key(key);
    Quote(v);
    return *this;
  }
  Json& Nums(const std::string& key, const std::vector<double>& vs) {
    Key(key);
    os_ << '[';
    for (std::size_t i = 0; i < vs.size(); ++i) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", vs[i]);
      os_ << (i ? "," : "") << buf;
    }
    os_ << ']';
    return *this;
  }
  Json& Strs(const std::string& key, const std::vector<std::string>& vs) {
    Key(key);
    os_ << '[';
    for (std::size_t i = 0; i < vs.size(); ++i) {
      os_ << (i ? "," : "");
      Quote(vs[i]);
    }
    os_ << ']';
    return *this;
  }
  [[nodiscard]] std::string Done() const { return os_.str() + "}"; }

 private:
  void Key(const std::string& key) {
    os_ << (first_ ? "{" : ",");
    first_ = false;
    Quote(key);
    os_ << ':';
  }
  void Quote(const std::string& s) {
    os_ << '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        os_ << '\\' << c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        os_ << ' ';
      } else {
        os_ << c;
      }
    }
    os_ << '"';
  }
  std::ostringstream os_;
  bool first_{true};
};

void WriteFile(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary);
  out << body;
  if (!out) {
    throw std::runtime_error("cannot write '" + path + "'");
  }
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

double Mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) {
    s += x;
  }
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent, request id.  Off unless --trace is given;
// kept in memory and written as JSON lines when the subcommand ends.

class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns{0};
    std::int64_t end_ns{0};
    std::uint64_t id{0};
    std::uint64_t parent{0};
    std::uint64_t request{0};
  };

  void Enable(std::string path) { path_ = std::move(path); }
  [[nodiscard]] bool on() const noexcept { return !path_.empty(); }
  [[nodiscard]] std::uint64_t NextId() noexcept { return ++next_id_; }

  void Record(Span span) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
  }

  void Flush() {
    if (!on()) {
      return;
    }
    std::ofstream out(path_);
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const Span& s : spans_) {
      out << Json()
                 .Str("name", s.name)
                 .Num("start_ns", static_cast<double>(s.start_ns))
                 .Num("end_ns", static_cast<double>(s.end_ns))
                 .Num("id", static_cast<double>(s.id))
                 .Num("parent", static_cast<double>(s.parent))
                 .Num("request", static_cast<double>(s.request))
                 .Done()
          << '\n';
    }
  }

 private:
  std::string path_;
  std::atomic<std::uint64_t> next_id_{0};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

Tracer g_tracer;

// One span around a scope; a no-op when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::uint64_t parent = 0,
             std::uint64_t request = 0)
      : on_(g_tracer.on()) {
    if (on_) {
      span_.name = name;
      span_.id = g_tracer.NextId();
      span_.parent = parent;
      span_.request = request;
      span_.start_ns = MonoNs();
    }
  }
  ~ScopedSpan() {
    if (on_) {
      span_.end_ns = MonoNs();
      g_tracer.Record(std::move(span_));
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }

 private:
  bool on_;
  Tracer::Span span_;
};

// ---------------------------------------------------------------------------
// Inputs shared with the server: the tenants file and the request schedule
// written by run.py, and the publication spec the server derives from its
// flags.

struct Tenant {
  std::string id;
  int tier{0};
};

std::vector<Tenant> ReadTenants(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open tenants file '" + path + "'");
  }
  std::vector<Tenant> tenants;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream ss(line);
    Tenant t;
    double eps_cap = 0.0;
    double delta_cap = 0.0;
    if (!(ss >> t.id >> eps_cap >> delta_cap >> t.tier)) {
      throw std::runtime_error("bad tenants line '" + line + "'");
    }
    tenants.push_back(t);
  }
  return tenants;
}

enum class Kind : int { kServe = 0, kDrilldown = 1, kAnswer = 2 };

struct Request {
  std::string tenant;
  int tier{0};
  Kind kind{Kind::kServe};
  std::uint8_t side{0};
  std::uint32_t node{0};
};

// Schedule lines: "connection tenant kind side node".
std::vector<std::vector<Request>> ReadSchedule(
    const std::string& path, const std::vector<Tenant>& tenants) {
  std::map<std::string, int> tier_of;
  for (const Tenant& t : tenants) {
    tier_of[t.id] = t.tier;
  }
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open schedule '" + path + "'");
  }
  std::vector<std::vector<Request>> per_conn;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream ss(line);
    std::size_t conn = 0;
    std::string kind;
    int side = 0;
    Request r;
    if (!(ss >> conn >> r.tenant >> kind >> side >> r.node) ||
        !tier_of.count(r.tenant)) {
      throw std::runtime_error("bad schedule line '" + line + "'");
    }
    r.tier = tier_of[r.tenant];
    r.side = static_cast<std::uint8_t>(side);
    r.kind = kind == "serve"       ? Kind::kServe
             : kind == "drilldown" ? Kind::kDrilldown
             : kind == "answer"    ? Kind::kAnswer
                                   : throw std::runtime_error(
                                         "bad kind '" + kind + "'");
    if (per_conn.size() <= conn) {
      per_conn.resize(conn + 1);
    }
    per_conn[conn].push_back(r);
  }
  return per_conn;
}

// The spec `gdp_tool serve|pack --depth D --threads T` compiles under.
gdp::core::SessionSpec ServerSpec(int depth, int threads) {
  gdp::core::DisclosureConfig config;
  config.depth = depth;
  config.num_threads = threads;
  return config.ToSessionSpec();
}

wire::ServeRequest ServeReq(const Request& r) {
  wire::ServeRequest req;
  req.tenant = r.tenant;
  req.dataset = "default";
  return req;
}

wire::DrilldownRequest DrillReq(const Request& r) {
  wire::DrilldownRequest req;
  req.tenant = r.tenant;
  req.dataset = "default";
  req.side = r.side;
  req.node = r.node;
  return req;
}

wire::AnswerRequest AnswerReq(const Request& r) {
  wire::AnswerRequest req;
  req.tenant = r.tenant;
  req.dataset = "default";
  req.queries = {
      {static_cast<std::uint8_t>(
           gdp::serve::QuerySpec::Kind::kAssociationCount),
       0, 0},
      {static_cast<std::uint8_t>(gdp::serve::QuerySpec::Kind::kGroupCount), 0,
       0}};
  return req;
}

// ---------------------------------------------------------------------------
// Output checks.  Expected values come from the benchmark's own compile of
// the same (graph, spec, seed) — never from the wire.

class Reference {
 public:
  Reference(const std::string& graph_path, int depth, int threads,
            std::uint64_t seed)
      : graph_(gdp::graph::ReadEdgeListFile(graph_path)) {
    gdp::common::Rng rng(seed);
    compiled_ = gdp::core::CompiledDisclosure::Compile(
        graph_, ServerSpec(depth, threads), rng);
    // σ depends only on (budget, Δℓ): read it off one reference release
    // under the budget every benchmark request carries.
    gdp::common::Rng draw(seed ^ 0x5eedULL);
    const gdp::core::MultiLevelRelease release =
        compiled_->Release(wire::WireBudget{}.ToBudgetSpec(), draw);
    for (const gdp::core::LevelRelease& l : release.levels()) {
      sigma_total_.push_back(l.noise_stddev);
      sigma_group_.push_back(l.group_noise_stddev);
    }
    policy_ = std::make_unique<gdp::core::AccessPolicy>(
        gdp::core::AccessPolicy::Uniform(compiled_->hierarchy().num_levels()));
  }

  [[nodiscard]] const gdp::core::CompiledDisclosure& compiled() const {
    return *compiled_;
  }
  [[nodiscard]] int LevelFor(int tier) const {
    return policy_->LevelForPrivilege(tier);
  }

  // Check a granted outcome's view; "" when it passes.  Accumulates the
  // standardized total residual for the run-level σ check.
  std::string CheckOutcome(const wire::ServeOutcome& o, int tier,
                           bool expect_view) {
    if (!o.granted) {
      return "unexpected denial: " + o.denial_reason;
    }
    const int level = LevelFor(tier);
    if (o.privilege != tier || o.level != level) {
      return "tier " + std::to_string(tier) + " served level " +
             std::to_string(o.level) + ", entitled level is " +
             std::to_string(level);
    }
    if (!expect_view) {
      return o.view.noisy_group_counts.empty() ? ""
                                               : "answer carried a view";
    }
    const gdp::core::LevelRelease& v = o.view;
    const auto truth = compiled_->plan().GroupDegreeSums(level);
    if (v.level != level) {
      return "view level " + std::to_string(v.level) + " != " +
             std::to_string(level);
    }
    if (v.noisy_group_counts.size() != truth.size()) {
      return "level " + std::to_string(level) + " view has " +
             std::to_string(v.noisy_group_counts.size()) + " groups, expected " +
             std::to_string(truth.size());
    }
    const double edges = static_cast<double>(graph_.num_edges());
    if (!std::isfinite(v.noisy_total) || v.noisy_total == edges) {
      return "noisy_total equals the true total";
    }
    bool differs = false;
    double zz = 0.0;
    const double sg = sigma_group_[static_cast<std::size_t>(level)];
    for (std::size_t g = 0; g < truth.size(); ++g) {
      const double d = v.noisy_group_counts[g] - static_cast<double>(truth[g]);
      differs = differs || d != 0.0;
      zz += (d / sg) * (d / sg);
    }
    if (!differs) {
      return "group counts equal the truth";
    }
    // Per-view group residuals: Σz² over G groups is χ²(G) for calibrated
    // noise.  Laurent–Massart bounds at x = 40 put a correct server outside
    // [G - 2√(Gx), G + 2√(Gx) + 2x] with probability below 2e-17.
    const double groups = static_cast<double>(truth.size());
    const double spread = 2.0 * std::sqrt(groups * 40.0);
    if (zz > groups + spread + 80.0 || zz < groups - spread) {
      return "group residuals inconsistent with sigma " + std::to_string(sg) +
             " (sum z^2 " + std::to_string(zz) + " over " +
             std::to_string(truth.size()) + " groups)";
    }
    const double z = (v.noisy_total - edges) /
                     sigma_total_[static_cast<std::size_t>(level)];
    if (std::abs(z) > 7.0) {
      return "noisy_total residual " + std::to_string(z) + " sigma";
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    z2_sum_ += z * z;
    ++z_count_;
    return "";
  }

  std::string CheckDrilldown(const wire::DrilldownResponse& r,
                             const Request& req) {
    std::string err = CheckOutcome(r.outcome, req.tier, true);
    if (!err.empty()) {
      return err;
    }
    const int entitled = LevelFor(req.tier);
    const int coarsest = compiled_->hierarchy().num_levels() - 1;
    if (r.chain.size() != static_cast<std::size_t>(coarsest - entitled + 1)) {
      return "drilldown chain has " + std::to_string(r.chain.size()) +
             " entries";
    }
    const auto side = static_cast<gdp::graph::Side>(req.side);
    for (std::size_t i = 0; i < r.chain.size(); ++i) {
      const wire::WireDrillEntry& e = r.chain[i];
      const int level = coarsest - static_cast<int>(i);
      const gdp::hier::Partition& p = compiled_->hierarchy().level(level);
      const auto group = p.GroupOf(side, req.node);
      if (e.level != level || e.group != group ||
          e.group_size != p.group(group).size) {
        return "drilldown entry " + std::to_string(i) + " does not match the " +
               "node's group chain";
      }
    }
    const wire::WireDrillEntry& last = r.chain.back();
    if (last.noisy_count != r.outcome.view.noisy_group_counts[last.group]) {
      return "drilldown count differs from the served view";
    }
    return "";
  }

  std::string CheckAnswer(const wire::AnswerResponse& r, const Request& req) {
    std::string err = CheckOutcome(r.outcome, req.tier, false);
    if (!err.empty()) {
      return err;
    }
    const int level = LevelFor(req.tier);
    const std::size_t groups = compiled_->plan().GroupDegreeSums(level).size();
    if (r.results.size() != 2 || r.results[0].noisy.size() != 1 ||
        r.results[1].noisy.size() != groups) {
      return "answer shape does not match the two queries at level " +
             std::to_string(level);
    }
    if (r.results[0].noisy[0] == static_cast<double>(graph_.num_edges()) ||
        !std::isfinite(r.results[0].noisy[0])) {
      return "answer association count equals the truth";
    }
    return "";
  }

  // Run-level check: mean z² of the total residuals is 1 for calibrated
  // noise (standard error sqrt(2/n)).
  std::string CheckSigma(double& mean_z2, std::uint64_t& n) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    n = z_count_;
    mean_z2 = n ? z2_sum_ / static_cast<double>(n) : 1.0;
    if (n >= 20 &&
        std::abs(mean_z2 - 1.0) > 6.0 * std::sqrt(2.0 / static_cast<double>(n))) {
      return "noisy_total residuals inconsistent with the declared sigma "
             "(mean z^2 " + std::to_string(mean_z2) + " over " +
             std::to_string(n) + " views)";
    }
    return "";
  }

 private:
  gdp::graph::BipartiteGraph graph_;
  std::shared_ptr<const gdp::core::CompiledDisclosure> compiled_;
  std::unique_ptr<gdp::core::AccessPolicy> policy_;
  std::vector<double> sigma_total_;
  std::vector<double> sigma_group_;
  mutable std::mutex mutex_;
  double z2_sum_{0.0};
  std::uint64_t z_count_{0};
};

// ---------------------------------------------------------------------------
// One RPC with its outcome class.

enum class Outcome { kGranted, kDenied, kOverloaded, kError, kTransport,
                     kCheck };
constexpr const char* kOutcomeNames[] = {"granted",  "denied", "overloaded",
                                         "error",    "transport", "check"};

struct RpcResult {
  Outcome outcome{Outcome::kGranted};
  bool server_granted{false};  // the server charged and served it
  double latency_us{0.0};
  std::size_t response_bytes{0};
  std::string message;
};

template <typename T>
Outcome Refused(const gdp::net::Reply<T>& reply, std::string& message) {
  message = reply.message;
  return reply.status == gdp::net::ReplyStatus::kOverloaded
             ? Outcome::kOverloaded
             : Outcome::kError;
}

RpcResult Call(gdp::net::Client& client, const Request& r, Reference* ref,
               bool measure_bytes, std::uint64_t request_id) {
  RpcResult res;
  ScopedSpan rpc(r.kind == Kind::kServe       ? "net.serve_rpc"
                 : r.kind == Kind::kDrilldown ? "net.drilldown_rpc"
                                              : "net.answer_rpc",
                 0, request_id);
  std::string err;
  const auto t0 = Clock::now();
  const auto finish = [&] {
    res.latency_us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  };
  const auto check = [&](auto&& fn) {
    ScopedSpan span("check", rpc.id(), request_id);
    err = fn();
  };
  switch (r.kind) {
    case Kind::kServe: {
      const auto reply = client.Serve(ServeReq(r));
      finish();
      if (!reply.ok()) {
        res.outcome = Refused(reply, res.message);
        return res;
      }
      res.server_granted = reply.value.granted;
      if (measure_bytes) {
        res.response_bytes = wire::Encode(reply.value).size();
      }
      check([&] { return ref->CheckOutcome(reply.value, r.tier, true); });
      break;
    }
    case Kind::kDrilldown: {
      const auto reply = client.Drilldown(DrillReq(r));
      finish();
      if (!reply.ok()) {
        res.outcome = Refused(reply, res.message);
        return res;
      }
      res.server_granted = reply.value.outcome.granted;
      if (measure_bytes) {
        res.response_bytes = wire::Encode(reply.value).size();
      }
      check([&] { return ref->CheckDrilldown(reply.value, r); });
      break;
    }
    case Kind::kAnswer: {
      const auto reply = client.Answer(AnswerReq(r));
      finish();
      if (!reply.ok()) {
        res.outcome = Refused(reply, res.message);
        return res;
      }
      res.server_granted = reply.value.outcome.granted;
      if (measure_bytes) {
        res.response_bytes = wire::Encode(reply.value).size();
      }
      check([&] { return ref->CheckAnswer(reply.value, r); });
      break;
    }
  }
  if (!err.empty()) {
    res.outcome = err.rfind("unexpected denial", 0) == 0 ? Outcome::kDenied
                                                         : Outcome::kCheck;
    res.message = err;
  }
  return res;
}

// /proc counters of the server process.
double ProcCpuSeconds(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  std::getline(in, stat);
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) {
    throw std::runtime_error("cannot read /proc stat of pid " +
                             std::to_string(pid));
  }
  std::istringstream ss(stat.substr(close + 2));
  std::string field;
  double utime = 0.0;
  double stime = 0.0;
  // Fields after the command: state is field 3; utime/stime are 14/15.
  for (int i = 3; i <= 15 && ss >> field; ++i) {
    if (i == 14) {
      utime = std::stod(field);
    } else if (i == 15) {
      stime = std::stod(field);
    }
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ProcHwmKb(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6));
    }
  }
  throw std::runtime_error("no VmHWM for pid " + std::to_string(pid));
}

std::uint16_t WaitForPort(const std::string& port_file, double timeout_s) {
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(timeout_s);
  while (Clock::now() < deadline) {
    std::ifstream in(port_file);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (!text.empty() && text.back() == '\n') {
      return static_cast<std::uint16_t>(std::stoi(text));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  throw std::runtime_error("server wrote no port file within " +
                           std::to_string(timeout_s) + " s");
}

// ---------------------------------------------------------------------------
// Subcommands.

int RunWarmup(const Args& args) {
  const auto tenants = ReadTenants(args.Str("tenants"));
  const std::uint16_t port = WaitForPort(args.Str("port-file"), 120.0);
  gdp::net::Client client(port);
  std::size_t granted = 0;
  std::vector<std::string> failures;
  for (const Tenant& t : tenants) {
    const auto reply = client.Serve(ServeReq(Request{t.id, t.tier}));
    if (reply.ok() && reply.value.granted) {
      ++granted;
    } else {
      failures.push_back(t.id + ": " + (reply.ok() ? reply.value.denial_reason
                                                   : reply.message));
    }
  }
  WriteFile(args.Str("out"), Json()
                                 .Num("granted", static_cast<double>(granted))
                                 .Strs("failures", failures)
                                 .Done());
  return 0;
}

int RunFirstServe(const Args& args) {
  const std::string tenant = args.Str("tenant");
  std::cout << "ready" << std::endl;
  const std::uint16_t port = WaitForPort(args.Str("port-file"), 120.0);
  std::unique_ptr<gdp::net::Client> client;
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (!client) {
    try {
      client = std::make_unique<gdp::net::Client>(port);
    } catch (const std::exception&) {
      if (Clock::now() > deadline) {
        throw;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  const auto t0 = Clock::now();
  const auto reply = client->Serve(ServeReq(Request{tenant, 0}));
  const std::int64_t reply_ns = MonoNs();
  const double rpc_ms = Seconds(t0, Clock::now()) * 1e3;
  const auto stats = client->Stats();
  Json out;
  out.Num("reply_mono_ns", static_cast<double>(reply_ns))
      .Num("rpc_ms", rpc_ms)
      .Num("ok", reply.ok() ? 1 : 0)
      .Str("message", reply.message)
      .Num("adoptions", stats.ok() ? static_cast<double>(
                                         stats.value.registry_snapshot_adoptions)
                                   : -1.0);
  if (reply.ok()) {
    WriteFile(args.Str("reply"), wire::Encode(reply.value));
  }
  WriteFile(args.Str("out"), out.Done());
  return 0;
}

// Commands on stdin, one per line, each answered with "done" on stdout:
//   check PATH                  check a saved first-serve reply (top tier)
//   window PORT PID SECONDS     one closed-loop window against the server
//                               listening on PORT (process PID)
//   finish                      sequential phase (--sequential N), Stats,
//                               run-level checks; writes --out and exits
// Between windows the caller publishes; connections move to a new server
// when PORT changes.
int RunLoad(const Args& args) {
  if (args.StrOr("trace", "") != "") {
    g_tracer.Enable(args.Str("trace"));
  }
  const auto tenants = ReadTenants(args.Str("tenants"));
  const auto schedule = ReadSchedule(args.Str("schedule"), tenants);
  const auto connections = static_cast<std::size_t>(args.Int("connections"));
  if (schedule.size() < connections) {
    throw std::runtime_error("schedule has fewer connections than --connections");
  }
  const int depth = static_cast<int>(args.Int("depth"));
  const int threads = static_cast<int>(args.Int("threads"));
  Reference ref(args.Str("graph"), depth, threads,
                static_cast<std::uint64_t>(args.Int("seed")));
  int top_tier = 0;
  for (const Tenant& t : tenants) {
    top_tier = std::max(top_tier, t.tier);
  }

  std::vector<std::string> failures;
  std::uint64_t counts[6] = {};
  const auto note = [&](Outcome o, const std::string& msg) {
    ++counts[static_cast<int>(o)];
    if (o != Outcome::kGranted && failures.size() < 20) {
      failures.push_back(std::string(kOutcomeNames[static_cast<int>(o)]) +
                         ": " + msg);
    }
  };

  std::ofstream sample_out(args.Str("samples"));
  std::vector<std::unique_ptr<gdp::net::Client>> clients;
  std::uint16_t port = 0;
  long server_pid = 0;
  std::atomic<std::uint64_t> next_request{0};
  std::uint64_t server_granted = 0;
  std::vector<double> win_s, win_cpu_s, win_hwm_kb, win_granted, win_attempted;
  std::vector<std::size_t> next_entry(connections, 0);
  Json out;

  std::cout << "ready" << std::endl;
  for (std::string line; std::getline(std::cin, line);) {
    std::istringstream cmd(line);
    std::string verb;
    cmd >> verb;
    if (verb == "check") {
      std::string path;
      cmd >> path;
      std::ifstream in(path, std::ios::binary);
      const std::string payload((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
      std::string err;
      try {
        err = ref.CheckOutcome(wire::DecodeServeResponse(payload), top_tier,
                               true);
      } catch (const std::exception& e) {
        err = e.what();
      }
      note(err.empty() ? Outcome::kGranted : Outcome::kCheck,
           "first serve " + path + ": " + err);
    } else if (verb == "window") {
      int new_port = 0;
      double seconds = 0.0;
      cmd >> new_port >> server_pid >> seconds;
      if (new_port != port) {
        port = static_cast<std::uint16_t>(new_port);
        clients.clear();
        for (std::size_t c = 0; c < connections; ++c) {
          clients.push_back(std::make_unique<gdp::net::Client>(port));
        }
      }
      // Closed loop: each connection sends its next scheduled request only
      // after the previous reply arrived and was checked.
      struct Sample {
        int kind;
        Outcome outcome;
        bool server_granted;
        double latency_us;
      };
      std::vector<std::vector<Sample>> samples(connections);
      std::vector<std::vector<std::pair<Outcome, std::string>>> notes(
          connections);
      const double cpu0 = ProcCpuSeconds(server_pid);
      const auto start = Clock::now();
      const auto deadline = start + std::chrono::duration<double>(seconds);
      {
        ScopedSpan window_span("load.window");
        std::vector<std::thread> workers;
        for (std::size_t c = 0; c < connections; ++c) {
          workers.emplace_back([&, c] {
            const auto& mine = schedule[c];
            while (Clock::now() < deadline) {
              const Request& r = mine[next_entry[c]++ % mine.size()];
              RpcResult res;
              try {
                res = Call(*clients[c], r, &ref, false, ++next_request);
              } catch (const std::exception& e) {
                res.outcome = Outcome::kTransport;
                res.message = e.what();
                try {
                  clients[c] = std::make_unique<gdp::net::Client>(port);
                } catch (const std::exception&) {
                  notes[c].emplace_back(res.outcome, res.message);
                  return;
                }
              }
              samples[c].push_back({static_cast<int>(r.kind), res.outcome,
                                    res.server_granted, res.latency_us});
              if (res.outcome != Outcome::kGranted) {
                notes[c].emplace_back(res.outcome, res.message);
              }
            }
          });
        }
        for (std::thread& t : workers) {
          t.join();
        }
      }
      win_s.push_back(Seconds(start, Clock::now()));
      win_cpu_s.push_back(ProcCpuSeconds(server_pid) - cpu0);
      win_hwm_kb.push_back(ProcHwmKb(server_pid));
      double granted = 0.0;
      double attempted = 0.0;
      for (std::size_t c = 0; c < connections; ++c) {
        for (const Sample& smp : samples[c]) {
          ++attempted;
          server_granted += smp.server_granted ? 1 : 0;
          if (smp.outcome == Outcome::kGranted) {
            ++granted;
            ++counts[0];
          }
          sample_out << win_s.size() - 1 << '\t' << smp.kind << '\t'
                     << static_cast<int>(smp.outcome) << '\t'
                     << smp.latency_us << '\n';
        }
        for (const auto& [o, msg] : notes[c]) {
          note(o, msg);
        }
      }
      win_granted.push_back(granted);
      win_attempted.push_back(attempted);
    } else if (verb == "finish") {
      break;
    } else {
      throw std::runtime_error("unknown command '" + line + "'");
    }
    std::cout << "done" << std::endl;
  }
  sample_out.close();
  if (clients.empty()) {
    throw std::runtime_error("finish before any window");
  }

  // Sequential single-connection phase (traced runs): the first requests of
  // connection 0's schedule, then at least `per_kind` of each RPC kind.
  std::uint64_t seq_granted = 0;
  const auto sequential = static_cast<std::size_t>(args.IntOr("sequential", 0));
  if (sequential > 0) {
    std::vector<double> mix_us;
    std::vector<double> kind_us[3];
    std::vector<double> bytes;
    const auto run_one = [&](const Request& r, bool in_mix) {
      RpcResult res;
      try {
        res = Call(*clients[0], r, &ref, true, ++next_request);
      } catch (const std::exception& e) {
        res.outcome = Outcome::kTransport;
        res.message = e.what();
        clients[0] = std::make_unique<gdp::net::Client>(port);
      }
      note(res.outcome, res.message);
      seq_granted += res.server_granted ? 1 : 0;
      if (res.outcome != Outcome::kGranted) {
        return;
      }
      kind_us[static_cast<int>(r.kind)].push_back(res.latency_us);
      if (in_mix) {
        mix_us.push_back(res.latency_us);
        bytes.push_back(static_cast<double>(res.response_bytes));
      }
    };
    const auto& mix = schedule[0];
    for (std::size_t i = 0; i < sequential; ++i) {
      run_one(mix[i % mix.size()], true);
    }
    const std::size_t per_kind = 20;
    for (int k = 0; k < 3; ++k) {
      for (std::size_t i = 0; kind_us[k].size() < per_kind && i < 10 * per_kind;
           ++i) {
        Request r = mix[i % mix.size()];
        r.kind = static_cast<Kind>(k);
        run_one(r, false);
      }
    }
    out.Nums("seq_mix_us", mix_us)
        .Nums("seq_serve_us", kind_us[0])
        .Nums("seq_drilldown_us", kind_us[1])
        .Nums("seq_answer_us", kind_us[2])
        .Num("response_bytes_mean", Mean(bytes));
  }

  const auto stats = clients[0]->Stats();
  if (!stats.ok()) {
    note(Outcome::kError, "stats: " + stats.message);
  }
  const wire::StatsResponse s = stats.ok() ? stats.value : wire::StatsResponse{};
  double mean_z2 = 1.0;
  std::uint64_t z_count = 0;
  const std::string sigma_err = ref.CheckSigma(mean_z2, z_count);
  note(sigma_err.empty() ? Outcome::kGranted : Outcome::kCheck, sigma_err);
  clients.clear();

  std::uint64_t failed = 0;
  for (int o = 1; o < 6; ++o) {
    failed += counts[o];
  }
  out.Nums("win_s", win_s)
      .Nums("win_cpu_s", win_cpu_s)
      .Nums("win_hwm_kb", win_hwm_kb)
      .Nums("win_granted", win_granted)
      .Nums("win_attempted", win_attempted)
      .Num("server_granted_total",
           static_cast<double>(server_granted + seq_granted))
      .Num("checks", static_cast<double>(counts[0]))
      .Num("failed", static_cast<double>(failed))
      .Num("mean_z2", mean_z2)
      .Num("z_count", static_cast<double>(z_count))
      .Num("stats_requests_completed",
           static_cast<double>(s.requests_completed))
      .Num("stats_rng_mutex", static_cast<double>(s.rng_mutex_acquisitions))
      .Num("stats_queue_high_watermark",
           static_cast<double>(s.queue_high_watermark))
      .Num("stats_shed",
           static_cast<double>(s.shed_queue_full + s.shed_tenant_inflight))
      .Strs("failures", failures);
  WriteFile(args.Str("out"), out.Done());
  g_tracer.Flush();
  return 0;
}

// Time `fn` `reps` times; returns the per-call durations in seconds.
template <typename Fn>
std::vector<double> Repeat(int reps, const char* span, Fn&& fn) {
  std::vector<double> out;
  for (int i = 0; i < reps; ++i) {
    ScopedSpan s(span);
    const auto t0 = Clock::now();
    fn();
    out.push_back(Seconds(t0, Clock::now()));
  }
  return out;
}

int RunProbe(const Args& args) {
  if (args.StrOr("trace", "") != "") {
    g_tracer.Enable(args.Str("trace"));
  }
  const std::string graph_path = args.Str("graph");
  const std::string workdir = args.Str("workdir");
  const int depth = static_cast<int>(args.Int("depth"));
  const int threads = static_cast<int>(args.Int("threads"));
  const auto seed = static_cast<std::uint64_t>(args.Int("seed"));
  const int reps = static_cast<int>(args.Int("reps"));
  const auto tenants = ReadTenants(args.Str("tenants"));
  const auto schedule = ReadSchedule(args.Str("schedule"), tenants);
  const auto requests = static_cast<std::size_t>(args.Int("requests"));
  const gdp::core::SessionSpec spec = ServerSpec(depth, threads);
  Json out;

  // graph: parse the edge list.
  std::optional<gdp::graph::BipartiteGraph> graph;
  out.Num("graph.read_s",
          Percentile(Repeat(reps, "graph.read",
                            [&] {
                              graph.emplace(
                                  gdp::graph::ReadEdgeListFile(graph_path));
                            }),
                     0.5));

  // hier + core compile stages, exactly as CompiledDisclosure::Compile runs
  // them (same EM config, same pool policy, same rng consumption).
  std::unique_ptr<gdp::common::ThreadPool> pool;
  if (spec.exec.num_threads != 1) {
    pool = std::make_unique<gdp::common::ThreadPool>(spec.exec.num_threads);
  }
  gdp::hier::SpecializationConfig em;
  em.depth = spec.hierarchy.depth;
  em.arity = spec.hierarchy.arity;
  em.epsilon_per_level = spec.budget.phase1_epsilon() /
                         static_cast<double>(std::max(1, depth - 1));
  em.quality = spec.hierarchy.split_quality;
  em.max_cut_candidates = spec.hierarchy.max_cut_candidates;
  em.validate_hierarchy = spec.hierarchy.validate_hierarchy;
  const gdp::hier::Specializer specializer(em);
  std::optional<gdp::hier::SpecializationResult> built;
  out.Num("hier.phase1_s",
          Percentile(Repeat(reps, "hier.phase1",
                            [&] {
                              gdp::common::Rng rng(seed);
                              built.emplace(
                                  pool ? specializer.BuildHierarchy(*graph, rng,
                                                                    *pool)
                                       : specializer.BuildHierarchy(*graph,
                                                                    rng));
                            }),
                     0.5));
  std::optional<gdp::core::ReleasePlan> plan;
  out.Num("core.plan_build_s",
          Percentile(Repeat(reps, "core.plan_build",
                            [&] {
                              plan.emplace(
                                  pool ? gdp::core::ReleasePlan::Build(
                                             *graph, built->hierarchy, *pool)
                                       : gdp::core::ReleasePlan::Build(
                                             *graph, built->hierarchy));
                            }),
                     0.5));
  const auto compiled = gdp::core::CompiledDisclosure::FromPrecompiled(
      *graph, spec, std::move(built->hierarchy), std::move(*plan),
      built->epsilon_spent);

  // core: one full multi-level release vs. only the entitled level, over the
  // tiers of the schedule's first requests.
  const gdp::core::BudgetSpec budget = wire::WireBudget{}.ToBudgetSpec();
  const auto policy =
      gdp::core::AccessPolicy::Uniform(compiled->hierarchy().num_levels());
  gdp::common::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const int release_reps = static_cast<int>(
      std::max<std::size_t>(5, std::min<std::size_t>(requests, 200)));
  const std::vector<double> all_s = Repeat(
      release_reps, "core.release_all", [&] { (void)compiled->Release(budget, rng); });
  gdp::core::ReleaseConfig rel;
  rel.epsilon_g = budget.phase2_epsilon();
  rel.delta = budget.delta;
  rel.noise = budget.noise;
  rel.include_group_counts = spec.exec.include_group_counts;
  rel.noise_chunk_grain = spec.exec.noise_chunk_grain;
  const gdp::core::GroupDpEngine engine(rel);
  const auto& mix = schedule[0];
  std::vector<double> entitled_s;
  for (int i = 0; i < release_reps; ++i) {
    const int level = policy.LevelForPrivilege(
        mix[static_cast<std::size_t>(i) % mix.size()].tier);
    ScopedSpan s("core.release_entitled");
    const auto t0 = Clock::now();
    (void)engine.ReleaseLevelFromPlan(compiled->plan(), level,
                                      rel.epsilon_g, rng, pool.get());
    entitled_s.push_back(Seconds(t0, Clock::now()));
  }
  const double release_all_ms = Percentile(all_s, 0.5) * 1e3;
  out.Num("core.release_all_ms", release_all_ms)
      .Num("core.release_entitled_ms", Mean(entitled_s) * 1e3)
      .Num("core.entitled_share", Mean(entitled_s) / Mean(all_s));

  // dp: one Gaussian draw.
  {
    const double sigma = 10.0;
    double sink = 0.0;
    const std::size_t draws = 1 << 20;
    std::vector<double> per_draw;
    for (int i = 0; i < 5; ++i) {
      ScopedSpan s("dp.gaussian_sample");
      const auto t0 = Clock::now();
      for (std::size_t j = 0; j < draws; ++j) {
        sink += gdp::dp::SampleGaussian(rng, sigma);
      }
      per_draw.push_back(Seconds(t0, Clock::now()) * 1e9 /
                         static_cast<double>(draws));
    }
    out.Num("dp.gaussian_sample_ns", Percentile(per_draw, 0.5))
        .Num("dp.sink", sink);
  }

  // serve: the in-process service over the same schedule, single caller,
  // with a write-ahead log on this filesystem when the workload's server
  // has one.
  {
    const auto configure = [&](gdp::serve::DisclosureService& svc) {
      svc.catalog().Register(
          "default", gdp::serve::Dataset{*graph, spec, seed, {}, {}});
      for (const Tenant& t : tenants) {
        gdp::serve::TenantProfile profile;
        profile.epsilon_cap = 1e9;
        profile.delta_cap = 0.5;
        profile.privilege = t.tier;
        svc.broker().Register(t.id, profile);
      }
    };
    std::unique_ptr<gdp::serve::DisclosureService> owned;
    if (args.Int("wal") != 0) {
      const std::string service_wal = workdir + "/probe_service.wal";
      std::filesystem::remove(service_wal);
      owned = gdp::serve::DisclosureService::Open(configure, service_wal, 2);
    } else {
      owned = std::make_unique<gdp::serve::DisclosureService>(2);
      configure(*owned);
    }
    gdp::serve::DisclosureService& service = *owned;
    gdp::common::Rng req_rng = gdp::common::Rng(seed).Fork(1);
    // Warm-up opens every tenant (compile + attach), as the server's setup.
    for (const Tenant& t : tenants) {
      (void)service.Serve(t.id, "default", budget, req_rng);
    }
    std::vector<double> service_us;
    std::vector<double> admit_us;
    const std::vector<gdp::serve::QuerySpec> queries = {
        {gdp::serve::QuerySpec::Kind::kAssociationCount},
        {gdp::serve::QuerySpec::Kind::kGroupCount}};
    for (std::size_t i = 0; i < requests; ++i) {
      const Request& r = mix[i % mix.size()];
      const auto t0 = Clock::now();
      {
        ScopedSpan s("serve.service", 0, i + 1);
        switch (r.kind) {
          case Kind::kServe:
            (void)service.Serve(r.tenant, "default", budget, req_rng);
            break;
          case Kind::kDrilldown:
            (void)service.ServeDrilldown(r.tenant, "default", budget,
                                         static_cast<gdp::graph::Side>(r.side),
                                         r.node, req_rng);
            break;
          case Kind::kAnswer:
            (void)service.ServeAnswer(r.tenant, "default", budget, queries,
                                      req_rng);
            break;
        }
      }
      const auto t1 = Clock::now();
      service_us.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
      if (r.kind == Kind::kServe) {
        // Admission is what a Serve costs beyond its release: pair each
        // Serve with one release right after it, under the same conditions.
        ScopedSpan s("core.release_all", 0, i + 1);
        const auto t2 = Clock::now();
        (void)compiled->Release(budget, rng);
        admit_us.push_back(
            std::chrono::duration<double, std::micro>((t1 - t0) -
                                                      (Clock::now() - t2))
                .count());
      }
    }
    out.Num("serve.service_ms", Percentile(service_us, 0.5) / 1e3)
        .Num("serve.admit_ms", Percentile(admit_us, 0.5) / 1e3);
  }

  // serve: write-ahead appends on a FileStorage, and a raw fsync probe on
  // the same filesystem.
  {
    const std::string wal_path = workdir + "/probe.wal";
    std::filesystem::remove(wal_path);
    gdp::serve::AuditWal wal(
        std::make_unique<gdp::serve::FileStorage>(wal_path));
    std::vector<double> append_us;
    for (int i = 0; i < 2000; ++i) {
      gdp::serve::WalRecord rec;
      rec.kind = gdp::serve::WalRecordKind::kCharge;
      rec.tenant = mix[static_cast<std::size_t>(i) % mix.size()].tenant;
      rec.dataset = "default";
      rec.event = gdp::dp::MechanismEvent::Gaussian(budget.phase2_epsilon(),
                                                    budget.delta, 1.0);
      rec.accounted_epsilon = budget.phase2_epsilon() * (i + 1);
      rec.accounted_delta = budget.delta * (i + 1);
      ScopedSpan s("serve.wal_append");
      const auto t0 = Clock::now();
      (void)wal.Append(std::move(rec));
      append_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count());
    }
    out.Num("serve.wal_append_us", Percentile(append_us, 0.5))
        .Num("serve.wal_append_p99_us", Percentile(append_us, 0.99));

    const std::string probe_path = workdir + "/fsync.probe";
    const int fd = ::open(probe_path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644);
    if (fd < 0) {
      throw std::runtime_error("cannot open fsync probe file");
    }
    const std::string record(137, 'x');
    std::vector<double> fsync_us;
    for (int i = 0; i < 1000; ++i) {
      ScopedSpan s("serve.fsync");
      const auto t0 = Clock::now();
      if (::write(fd, record.data(), record.size()) !=
              static_cast<ssize_t>(record.size()) ||
          ::fsync(fd) != 0) {
        ::close(fd);
        throw std::runtime_error("fsync probe write failed");
      }
      fsync_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count());
    }
    ::close(fd);
    out.Num("serve.fsync_us", Percentile(fsync_us, 0.5));
  }

  // storage: write, verify (load + column comparison, as pack --verify) and
  // the cold-start load (map + hierarchy + plan adoption).
  {
    const std::string snap_path = workdir + "/probe.gdps";
    gdp::storage::SnapshotContents contents;
    contents.graph = &*graph;
    contents.hierarchy = &compiled->hierarchy();
    contents.plan = &compiled->plan();
    contents.phase1_epsilon_spent = compiled->phase1_epsilon_spent();
    contents.fingerprint = gdp::serve::SessionRegistry::Fingerprint(spec, seed);
    out.Num("storage.snapshot_write_s",
            Percentile(Repeat(reps, "storage.snapshot_write",
                              [&] {
                                gdp::storage::WriteSnapshotFile(snap_path,
                                                                contents);
                              }),
                       0.5));
    bool same = true;
    out.Num("storage.snapshot_verify_s",
            Percentile(
                Repeat(reps, "storage.snapshot_verify",
                       [&] {
                         const auto snap =
                             gdp::storage::Snapshot::Load(snap_path);
                         const auto eq = [](auto a, auto b) {
                           return std::equal(a.begin(), a.end(), b.begin(),
                                             b.end());
                         };
                         using gdp::graph::Side;
                         const auto& g = snap->graph();
                         same = same &&
                                eq(g.offsets(Side::kLeft),
                                   graph->offsets(Side::kLeft)) &&
                                eq(g.adjacency(Side::kLeft),
                                   graph->adjacency(Side::kLeft)) &&
                                eq(g.offsets(Side::kRight),
                                   graph->offsets(Side::kRight)) &&
                                eq(g.adjacency(Side::kRight),
                                   graph->adjacency(Side::kRight)) &&
                                eq(snap->plan().FlatSums(),
                                   compiled->plan().FlatSums());
                       }),
                0.5));
    out.Num("storage.verify_ok", same ? 1 : 0);
    out.Num("storage.snapshot_load_ms",
            Percentile(Repeat(reps, "storage.snapshot_load",
                              [&] {
                                const auto snap =
                                    gdp::storage::Snapshot::Load(snap_path);
                                (void)gdp::core::CompiledDisclosure::
                                    FromPrecompiled(snap->graph(), spec,
                                                    snap->BuildHierarchy(),
                                                    snap->plan(),
                                                    snap->phase1_epsilon_spent());
                              }),
                       0.5) *
                1e3);
  }
  WriteFile(args.Str("out"), out.Done());
  g_tracer.Flush();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: gdp_perfbench warmup|first-serve|load|probe "
                 "--flag value ...\n";
    return 2;
  }
  try {
    const std::string command = argv[1];
    const Args args(argc, argv, 2);
    if (command == "warmup") {
      return RunWarmup(args);
    }
    if (command == "first-serve") {
      return RunFirstServe(args);
    }
    if (command == "load") {
      return RunLoad(args);
    }
    if (command == "probe") {
      return RunProbe(args);
    }
    std::cerr << "gdp_perfbench: unknown command '" << command << "'\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "gdp_perfbench: " << e.what() << '\n';
    return 1;
  }
}
