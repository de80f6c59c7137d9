// DisclosureService: the paper's Fig.-1 deployment as one object.
//
// One published dataset serves many users at different privilege tiers,
// each receiving a differently-protected level view.  The service composes
// the three serving pieces around the CompiledDisclosure seam:
//
//   DatasetCatalog   — what is published (graph + publication spec + seed),
//   SessionRegistry  — compile once per (dataset, spec, seed), LRU-bounded,
//   TenantBroker     — who may ask, under what grant, at which tier,
//
// plus the live per-tenant state: one DisclosureSession handle per
// (tenant, artifact), holding that tenant's ledger.  Serve(tenant, dataset,
// budget, rng) charges a full multi-level release against the tenant's grant
// but draws and returns ONLY the level view the tenant's tier is entitled
// to (bit-identical to that level of the full release).
//
// NOISE STREAMS: every serving entry point takes exactly one value off the
// Rng it is handed and draws from a child forked from it.  Request n of a
// server seeded s therefore draws from RequestStream(s, n) — the same
// stream the n-th call sees when one Rng(s).Fork(1) is threaded through n
// sequential calls — so the socket server, the batch driver and an
// in-process caller agree bit for bit without sharing a stream or a lock.
//
// Two accounting spines run under Serve:
//
//   * the per-dataset, cross-tenant DatasetOdometer — the collusion bound
//     per-tenant ledgers deliberately do not track.  A dataset given a
//     budget (odometer().SetBudget) is RETIRED by the first charge that
//     would exceed it, and every later release of it is refused (filter
//     semantics; the denial is an expected outcome, granted == false).
//   * optionally, a durable AuditWal (Open(...)): every admitted charge is
//     fsync'd BEFORE the ledger commits and any noise is drawn, so at every
//     crash point the log claims at least as much spend as was disclosed.
//     On restart, Open replays the log — truncating any torn tail — and
//     rebuilds tenant ledgers and the odometer; a retired dataset stays
//     retired.  If an append fails past retries the service FAILS CLOSED:
//     Serve throws DurabilityError from then on (read-only audit queries
//     keep working), because releasing noise that is not durably accounted
//     would silently void the audit guarantee.
//
// Failure taxonomy: unknown names throw NotFoundError and a tier the policy
// cannot map throws AccessPolicyError (configuration errors); an exhausted
// grant or a retired dataset is an EXPECTED outcome and comes back as
// granted == false with the ledger and rng untouched; a lost WAL is
// DurabilityError (the one failure that latches).
//
// Thread-safe: catalog, registry, broker, odometer, and WAL have their own
// locks; each tenant session is guarded by a per-entry mutex, so distinct
// tenants are served concurrently (sharing the artifact's internally
// synchronized caches) while requests from ONE tenant serialise on that
// tenant's ledger.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/sharded_counter.hpp"
#include "core/session.hpp"
#include "graph/bipartite_graph.hpp"
#include "query/workload.hpp"
#include "serve/audit_wal.hpp"
#include "serve/dataset_catalog.hpp"
#include "serve/dataset_odometer.hpp"
#include "serve/session_registry.hpp"
#include "serve/tenant_broker.hpp"

namespace gdp::serve {

// The noise stream of request `sequence` (0-based) under server seed `seed`:
// position `sequence` of the batch stream Rng(seed).Fork(1), reached by
// jump-ahead in O(log sequence).  The one definition the socket server (its
// I/O thread numbers requests as it reads them) and the batch driver (the
// request's line index) share; see docs/SERVING.md.
[[nodiscard]] gdp::common::Rng RequestStream(std::uint64_t seed,
                                             std::uint64_t sequence);

struct ServeResult {
  // False iff the request was denied without a throw: the tenant's grant
  // could not cover it, or the dataset's cross-tenant odometer refused it;
  // denial_reason says which, view is empty.
  bool granted{false};
  std::string denial_reason;
  // The tier the tenant was served at and the hierarchy level of its view.
  int privilege{0};
  int level{0};
  // The entitled level view of the drawn release (true_* fields included;
  // callers publishing externally strip them).
  gdp::core::LevelRelease view;
  // Tenant ledger state after the call (audit convenience): the NAIVE
  // sequential totals (Σε over charges), always reported.
  double epsilon_spent{0.0};
  double epsilon_remaining{0.0};
  // The accountant-tightened cumulative guarantee at the tenant's δ cap —
  // what admission actually binds.  Under kSequential these equal the naive
  // totals; under kRdp a tenant composing many Gaussian releases sees
  // accounted_epsilon well below epsilon_spent (which is why it is granted
  // more releases from the same caps).
  gdp::dp::AccountingPolicy accounting{gdp::dp::AccountingPolicy::kSequential};
  double accounted_epsilon{0.0};
  double accounted_delta{0.0};
};

// One query descriptor for the Answer serving path: the serving layer
// instantiates the concrete query objects at the tenant's ENTITLED level
// (remote callers name query shapes, never hierarchy levels — the level is
// an access-control decision, not a request parameter).
struct QuerySpec {
  enum class Kind : std::uint8_t {
    kAssociationCount = 0,
    kGroupCount = 1,       // per-group counts at the entitled level
    kDegreeHistogram = 2,  // side + max_degree below
  };
  Kind kind{Kind::kAssociationCount};
  gdp::graph::Side side{gdp::graph::Side::kLeft};
  std::size_t max_degree{8};
};

// ServeDrilldown's outcome: the Serve outcome (charged identically to a
// plain Serve) plus, when granted, the node's enclosing-group chain over the
// drawn release, restricted to levels the tenant's tier may see.
struct DrilldownResult {
  ServeResult serve;
  std::vector<gdp::core::DrillDownEntry> chain;
};

// ServeAnswer's outcome: the admission outcome (view stays empty — the
// product is query results, not a level view) plus the per-query runs.
struct AnswerResult {
  ServeResult serve;
  std::vector<gdp::query::QueryRunResult> results;
};

// What Open recovered from the write-ahead log.
struct RecoveryReport {
  std::uint64_t records_replayed{0};
  std::uint64_t truncated_bytes{0};  // torn tail repaired on open
  bool sequence_gap{false};
  std::size_t tenants_restored{0};
  std::size_t datasets_retired{0};
};

// Counters for the durability spine (monotone; snapshot via
// durability_stats()).
struct DurabilityStats {
  std::uint64_t wal_appends{0};
  std::uint64_t wal_failures{0};
  std::uint64_t fail_closed_rejections{0};
  std::uint64_t dataset_denials{0};
};

class DisclosureService {
 public:
  // `registry_capacity` bounds the number of live compiled artifacts the
  // registry retains (LRU beyond that).  A service built this way has no
  // WAL: the odometer still enforces, but nothing survives the process.
  explicit DisclosureService(std::size_t registry_capacity = 8);

  // Build a durable service over `wal_storage` (or a FileStorage at
  // `wal_path`).  `configure` runs FIRST — register datasets, tenants, and
  // odometer budgets there — because replay needs the catalog to re-attach
  // recovered tenants lazily and the odometer budgets to re-enforce caps.
  // Then the WAL is adopted: existing records are replayed (torn tail
  // truncated, IoError on a non-WAL file), tenant charge histories and the
  // odometer are rebuilt, retired datasets stay retired, and subsequent
  // serves append write-ahead.  `configure` may be null when there is
  // nothing to register.
  [[nodiscard]] static std::unique_ptr<DisclosureService> Open(
      const std::function<void(DisclosureService&)>& configure,
      std::unique_ptr<Storage> wal_storage, std::size_t registry_capacity = 8);
  [[nodiscard]] static std::unique_ptr<DisclosureService> Open(
      const std::function<void(DisclosureService&)>& configure,
      const std::string& wal_path, std::size_t registry_capacity = 8);

  [[nodiscard]] DatasetCatalog& catalog() noexcept { return catalog_; }
  [[nodiscard]] const DatasetCatalog& catalog() const noexcept {
    return catalog_;
  }
  [[nodiscard]] TenantBroker& broker() noexcept { return broker_; }
  [[nodiscard]] const TenantBroker& broker() const noexcept { return broker_; }
  [[nodiscard]] SessionRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] const SessionRegistry& registry() const noexcept {
    return registry_;
  }
  [[nodiscard]] DatasetOdometer& odometer() noexcept { return odometer_; }
  [[nodiscard]] const DatasetOdometer& odometer() const noexcept {
    return odometer_;
  }

  [[nodiscard]] bool wal_enabled() const noexcept { return wal_ != nullptr; }
  // True once a WAL append has failed: every further Serve throws
  // DurabilityError until a new service is Opened over the log.
  [[nodiscard]] bool failed_closed() const noexcept {
    return wal_failed_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const RecoveryReport& recovery() const noexcept {
    return recovery_;
  }
  [[nodiscard]] DurabilityStats durability_stats() const noexcept;

  // Serve tenant `tenant` its entitled view of `dataset` under `budget`,
  // drawing noise from a child of `rng` (one value taken; see NOISE STREAMS
  // above).  Only the entitled level is drawn; the charge is the full
  // release's.  Compiles the artifact on first touch of the dataset
  // (registry miss) and attaches the tenant's session (charging the Phase-1
  // spend to its ledger) on first touch by this tenant; both are cached
  // thereafter.  Deterministic: the view is bit-identical to the entitled
  // level of a fresh DisclosureSession's Release from rng.Fork(0) at the
  // same seeds (serve_test pins this), and the WAL adds no randomness — a
  // durable run releases bit-identical values to a WAL-less run.
  [[nodiscard]] ServeResult Serve(const std::string& tenant,
                                  const std::string& dataset,
                                  const gdp::core::BudgetSpec& budget,
                                  gdp::common::Rng& rng);

  // One Serve per budget, in order, each forking from the request's one
  // child of `rng` — a sequential sweep, not DisclosureSession::Sweep's
  // forked-stream batch:
  // each point is admitted, gated, and charged independently, and a denied
  // point is recorded (granted == false) while later points still run.  The
  // sweep is NOT atomic across points — by design, since the serving layer's
  // unit of admission is one request (a half-granted sweep leaves exactly
  // the charges its granted points made, each durably logged).
  [[nodiscard]] std::vector<ServeResult> ServeSweep(
      const std::string& tenant, const std::string& dataset,
      std::span<const gdp::core::BudgetSpec> budgets, gdp::common::Rng& rng);

  // Serve + drill-down in one request: charged exactly as Serve (same
  // event, same denial semantics; the entitled view is in
  // result.serve.view), drawing the entitled level through the coarsest
  // and, when granted, walking node (side, v)'s enclosing-group chain from
  // the coarsest level down to the ENTITLED level — never below it, because
  // finer levels belong to higher tiers (drill-down itself is pure
  // post-processing, no extra charge).
  // Throws std::out_of_range when `v` is not a node of `side`.
  [[nodiscard]] DrilldownResult ServeDrilldown(
      const std::string& tenant, const std::string& dataset,
      const gdp::core::BudgetSpec& budget, gdp::graph::Side side,
      gdp::graph::NodeIndex v, gdp::common::Rng& rng);

  // Evaluate a query workload for the tenant at its ENTITLED level under
  // `budget`, with Serve's admission pipeline (broker grant, odometer,
  // write-ahead gate) around DisclosureSession::TryAnswer's charge — the
  // workload's sequential cost (k queries → count = k) is what the gate and
  // ledger see.  Returns granted == false with empty results on an
  // exhausted grant or retired dataset.  Throws std::invalid_argument on an
  // empty `queries`.
  [[nodiscard]] AnswerResult ServeAnswer(const std::string& tenant,
                                         const std::string& dataset,
                                         const gdp::core::BudgetSpec& budget,
                                         std::span<const QuerySpec> queries,
                                         gdp::common::Rng& rng);

  // The tenant's cumulative ledger for `dataset` (audit).  Works while the
  // service is failed closed, and covers tenants recovered from the WAL that
  // have not been re-served yet (their ledger is rebuilt from the replayed
  // history on the fly).  Throws NotFoundError when this (tenant, dataset)
  // pair has never been served or recovered.
  [[nodiscard]] gdp::dp::BudgetLedger Ledger(const std::string& tenant,
                                             const std::string& dataset) const;

 private:
  // A tenant's live handle plus its lock (sessions are externally
  // synchronized; the service is the one doing the synchronizing).
  struct TenantEntry {
    std::mutex mutex;
    gdp::core::DisclosureSession session;
    explicit TenantEntry(gdp::core::DisclosureSession s)
        : session(std::move(s)) {}
  };

  // A tenant recovered from the WAL, not yet re-attached: its grant as of
  // the last logged open, plus the full replayed charge history.
  struct RecoveredTenant {
    bool has_open{false};
    double epsilon_cap{0.0};
    double delta_cap{0.0};
    gdp::dp::AccountingPolicy accounting{
        gdp::dp::AccountingPolicy::kSequential};
    std::string fingerprint;
    std::vector<gdp::core::ReplayedCharge> charges;
  };

  // Everything Serve resolves before it can charge: the admitted tenant's
  // profile, its (possibly just-created) session entry, the artifact the
  // entry pins, and the entitled level.
  struct Admission {
    TenantProfile profile;
    TenantEntry* entry{nullptr};
    std::shared_ptr<const gdp::core::CompiledDisclosure> compiled;
    int level{0};
  };

  // The shared front half of every serving entry point: fail-closed check
  // (DurabilityError), profile and dataset lookup (NotFoundError), artifact
  // resolve/compile, entitled-level resolve (AccessPolicyError), and entry
  // creation with its phase-1 admission.  On an expected denial (retired
  // dataset, grant too small for phase 1) fills `result` and returns an
  // Admission with entry == nullptr.
  [[nodiscard]] Admission Admit(const std::string& tenant,
                                const std::string& dataset,
                                ServeResult& result);

  // The write-ahead charge gate for one admitted request: odometer first
  // (commit-at-admit), then the durable append — so the log never records a
  // charge the odometer refused, and noise never outruns the log.  On an
  // odometer refusal the denial text lands in `gate_denial`.  `entry` and
  // `gate_denial` must outlive the returned gate; the entry's mutex must be
  // held while the gate can run.
  [[nodiscard]] gdp::core::ChargeGate MakeGate(const std::string& tenant,
                                               const std::string& dataset,
                                               TenantEntry& entry,
                                               const std::string& label,
                                               std::string& gate_denial);

  // Fill `result`'s ledger-derived fields (naive and accounted spend), and —
  // when the request was denied (`granted` stays false) — the denial reason:
  // the gate's, if it spoke, else the named-cap exhaustion message.
  static void FinishFromLedger(ServeResult& result, const TenantEntry& entry,
                               const gdp::core::BudgetSpec& budget,
                               std::string gate_denial, bool granted);

  // The tenant's existing entry, or nullptr (never creates).
  [[nodiscard]] TenantEntry* FindEntry(const std::string& tenant,
                                       const std::string& dataset);

  // The tenant's entry, creating it on first touch: restoring from the
  // replayed WAL history when one exists (no fresh phase-1 charge), else a
  // fresh Attach (phase-1 charged to the tenant AND — once per artifact
  // fingerprint — to the dataset odometer).  Returns nullptr with `denial`
  // set when the odometer refuses the phase-1 charge; throws
  // BudgetExhaustedError when the tenant's own grant cannot cover phase 1
  // and DurabilityError when the open record cannot be made durable.
  [[nodiscard]] TenantEntry* EntryFor(
      const std::string& tenant, const std::string& dataset,
      const std::string& fingerprint, const TenantProfile& profile,
      const std::shared_ptr<const gdp::core::CompiledDisclosure>& compiled,
      std::string& denial);

  // Replay `wal`'s recovered records into tenants/odometer and arm it for
  // appends.  Called once, from Open, before any Serve.
  void AdoptWal(std::unique_ptr<AuditWal> wal);

  // Append with fail-closed bookkeeping: a DurabilityError latches
  // wal_failed_ and rethrows.
  void WalAppend(WalRecord record);

  DatasetCatalog catalog_;
  TenantBroker broker_;
  SessionRegistry registry_;
  DatasetOdometer odometer_;
  std::unique_ptr<AuditWal> wal_;
  std::atomic<bool> wal_failed_{false};
  RecoveryReport recovery_;
  // Touched by every served request across the worker pool — sharded so the
  // accounting does not bounce a cache line (aggregated in
  // durability_stats()).
  mutable gdp::common::ShardedCounter wal_appends_;
  mutable gdp::common::ShardedCounter wal_failures_;
  mutable gdp::common::ShardedCounter fail_closed_rejections_;
  mutable gdp::common::ShardedCounter dataset_denials_;
  mutable std::mutex sessions_mutex_;
  // Keyed by (tenant, dataset): a tenant's spend on a dataset survives
  // registry eviction and recompile (the entry pins the artifact it was
  // attached to via its session's shared_ptr).
  std::map<std::pair<std::string, std::string>, std::unique_ptr<TenantEntry>>
      sessions_;
  // Replayed-but-not-yet-reattached tenants (guarded by sessions_mutex_;
  // entries move into sessions_ on first Serve).
  std::map<std::pair<std::string, std::string>, RecoveredTenant> recovered_;
  // Artifact fingerprints whose phase-1 spend the odometer has already been
  // charged for (guarded by sessions_mutex_).
  std::set<std::pair<std::string, std::string>> phase1_charged_;
};

}  // namespace gdp::serve
