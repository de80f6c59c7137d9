#include "serve/service.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "core/access_policy.hpp"
#include "query/query.hpp"

namespace gdp::serve {

gdp::common::Rng RequestStream(std::uint64_t seed, std::uint64_t sequence) {
  gdp::common::Rng stream = gdp::common::Rng(seed).Fork(1);
  stream.Advance(sequence);
  return stream;
}

namespace {

// Every serving entry point takes exactly one value off the stream it is
// handed and draws everything else from the child forked here.  That is
// what makes RequestStream(seed, n) — position n of the batch stream — the
// stream request n sees, whether a caller threads one stream through n
// calls or hands each call its own.
gdp::common::Rng TakeRequestStream(gdp::common::Rng& rng) { return rng.Fork(0); }

}  // namespace

DisclosureService::DisclosureService(std::size_t registry_capacity)
    : registry_(registry_capacity) {}

std::unique_ptr<DisclosureService> DisclosureService::Open(
    const std::function<void(DisclosureService&)>& configure,
    std::unique_ptr<Storage> wal_storage, std::size_t registry_capacity) {
  auto service = std::make_unique<DisclosureService>(registry_capacity);
  if (configure) {
    configure(*service);
  }
  // Adopt AFTER configuration: replay re-applies odometer spend against the
  // budgets configure just installed, and recovered tenants re-attach
  // lazily against the catalog it just filled.
  service->AdoptWal(std::make_unique<AuditWal>(std::move(wal_storage)));
  return service;
}

std::unique_ptr<DisclosureService> DisclosureService::Open(
    const std::function<void(DisclosureService&)>& configure,
    const std::string& wal_path, std::size_t registry_capacity) {
  return Open(configure, std::make_unique<FileStorage>(wal_path),
              registry_capacity);
}

void DisclosureService::AdoptWal(std::unique_ptr<AuditWal> wal) {
  const WalReplayResult& replay = wal->recovered();
  recovery_.records_replayed = replay.records.size();
  recovery_.truncated_bytes = replay.truncated_bytes;
  recovery_.sequence_gap = replay.sequence_gap;
  const std::lock_guard<std::mutex> lock(sessions_mutex_);
  std::size_t retired = 0;
  for (const WalRecord& record : replay.records) {
    const auto key = std::make_pair(record.tenant, record.dataset);
    switch (record.kind) {
      case WalRecordKind::kTenantOpen: {
        RecoveredTenant& tenant = recovered_[key];
        tenant.has_open = true;
        tenant.epsilon_cap = record.epsilon_cap;
        tenant.delta_cap = record.delta_cap;
        tenant.accounting = record.accounting;
        tenant.fingerprint = record.fingerprint;
        // A fresh open carries the phase-1 charge it paid; a restore-open
        // carries a zero event (its history already holds the original).
        if (record.event.TotalEpsilon() > 0.0 ||
            record.event.TotalDelta() > 0.0) {
          tenant.charges.push_back({record.event, record.label});
          // Dataset-level, phase 1 is ONE mechanism run per artifact: every
          // tenant sees the same noisy hierarchy, so the odometer is charged
          // once per fingerprint, not once per tenant.
          if (phase1_charged_
                  .insert(std::make_pair(record.dataset, record.fingerprint))
                  .second) {
            odometer_.RestoreCharge(record.dataset, record.event);
          }
        }
        break;
      }
      case WalRecordKind::kCharge:
        recovered_[key].charges.push_back({record.event, record.label});
        odometer_.RestoreCharge(record.dataset, record.event);
        break;
      case WalRecordKind::kDatasetRetired:
        odometer_.Retire(record.dataset, record.label);
        ++retired;
        break;
    }
  }
  recovery_.tenants_restored = recovered_.size();
  recovery_.datasets_retired = retired;
  wal_ = std::move(wal);
}

void DisclosureService::WalAppend(WalRecord record) {
  try {
    wal_->Append(std::move(record));
    wal_appends_.Add();
  } catch (const gdp::common::DurabilityError&) {
    // The charge may or may not be on disk (a torn frame is truncated on
    // the next open).  Either way nothing was released for it, so the only
    // wrong move — noise without durable accounting — cannot happen; latch
    // and refuse all further releases.
    wal_failures_.Add();
    wal_failed_.store(true, std::memory_order_release);
    throw;
  }
}

DurabilityStats DisclosureService::durability_stats() const noexcept {
  DurabilityStats stats;
  stats.wal_appends = wal_appends_.Total();
  stats.wal_failures = wal_failures_.Total();
  stats.fail_closed_rejections =
      fail_closed_rejections_.Total();
  stats.dataset_denials = dataset_denials_.Total();
  return stats;
}

DisclosureService::TenantEntry* DisclosureService::FindEntry(
    const std::string& tenant, const std::string& dataset) {
  const std::lock_guard<std::mutex> lock(sessions_mutex_);
  const auto it = sessions_.find(std::make_pair(tenant, dataset));
  return it != sessions_.end() ? it->second.get() : nullptr;
}

DisclosureService::TenantEntry* DisclosureService::EntryFor(
    const std::string& tenant, const std::string& dataset,
    const std::string& fingerprint, const TenantProfile& profile,
    const std::shared_ptr<const gdp::core::CompiledDisclosure>& compiled,
    std::string& denial) {
  const std::lock_guard<std::mutex> lock(sessions_mutex_);
  const auto key = std::make_pair(tenant, dataset);
  if (const auto it = sessions_.find(key); it != sessions_.end()) {
    return it->second.get();
  }

  if (const auto rec = recovered_.find(key); rec != recovered_.end()) {
    // Replayed history: rebuild the ledger exactly as the log recorded it
    // (no fresh phase-1 charge) under the CURRENT broker grant — grant
    // changes take effect across restarts; spent budget does not reset.
    if (rec->second.fingerprint != fingerprint) {
      GDP_LOG(kWarn) << "DisclosureService: tenant '" << tenant
                     << "' recovered against artifact " << rec->second.fingerprint
                     << " but dataset '" << dataset << "' now compiles to "
                     << fingerprint
                     << "; replayed spend is preserved against the new artifact";
    }
    auto entry =
        std::make_unique<TenantEntry>(gdp::core::DisclosureSession::Restore(
            compiled, profile.epsilon_cap, profile.delta_cap,
            profile.accounting, rec->second.charges));
    if (wal_ != nullptr) {
      // Log the re-open (zero-ε event: nothing newly paid) so the stream
      // records the grant in force from here on.  Fail closed before the
      // entry becomes servable if even this cannot be made durable.
      const gdp::dp::BudgetCharge accounted =
          entry->session.ledger().AccountedSpend();
      WalAppend(WalRecord::TenantOpen(
          tenant, dataset, fingerprint, profile.epsilon_cap, profile.delta_cap,
          profile.accounting, gdp::dp::MechanismEvent::PureEps(0.0),
          accounted.epsilon, accounted.delta, "restore-attach"));
    }
    recovered_.erase(rec);
    return sessions_.emplace(key, std::move(entry)).first->second.get();
  }

  // First touch ever: the dataset odometer must admit the artifact's phase-1
  // spend — once per artifact fingerprint, since all tenants share the one
  // noisy hierarchy — before the tenant may attach.
  const gdp::dp::MechanismEvent phase1 =
      gdp::dp::MechanismEvent::PureEps(compiled->phase1_epsilon_spent());
  const auto fp_key = std::make_pair(dataset, fingerprint);
  if (phase1_charged_.find(fp_key) == phase1_charged_.end()) {
    const OdometerAdmit admit = odometer_.Charge(dataset, phase1);
    if (admit != OdometerAdmit::kAdmitted) {
      dataset_denials_.Add();
      const std::optional<DatasetOdometer::Snapshot> snap =
          odometer_.Get(dataset);
      denial = "dataset '" + dataset + "' retired by cross-tenant odometer: " +
               (snap.has_value() ? snap->retire_reason : "retired");
      if (admit == OdometerAdmit::kRefusedNewlyRetired && wal_ != nullptr) {
        WalAppend(WalRecord::DatasetRetired(
            dataset,
            snap.has_value() ? snap->retire_reason : "budget exhausted"));
      }
      return nullptr;
    }
    phase1_charged_.insert(fp_key);
  }
  // Attach charges the tenant's own ledger; a grant too small for even
  // phase 1 throws BudgetExhaustedError out of here (the odometer spend
  // above stands — erring toward "spent" is the fail-safe direction).
  auto entry = std::make_unique<TenantEntry>(gdp::core::DisclosureSession::Attach(
      compiled, profile.epsilon_cap, profile.delta_cap, profile.accounting));
  if (wal_ != nullptr) {
    // One record covers "tenant exists" AND "tenant paid phase 1": there is
    // no crash point where the tenant is durable but its phase-1 charge is
    // not.  Durable BEFORE the entry becomes servable.
    const gdp::dp::BudgetCharge accounted =
        entry->session.ledger().AccountedSpend();
    WalAppend(WalRecord::TenantOpen(
        tenant, dataset, fingerprint, profile.epsilon_cap, profile.delta_cap,
        profile.accounting, phase1, accounted.epsilon, accounted.delta,
        "phase1: EM specialization"));
  }
  return sessions_.emplace(key, std::move(entry)).first->second.get();
}

DisclosureService::Admission DisclosureService::Admit(
    const std::string& tenant, const std::string& dataset,
    ServeResult& result) {
  if (wal_failed_.load(std::memory_order_acquire)) {
    fail_closed_rejections_.Add();
    throw gdp::common::DurabilityError(
        "DisclosureService: failing closed — a write-ahead append failed and "
        "further releases would be unaccounted; reopen the service over the "
        "log (read-only audit queries still work)");
  }
  Admission adm;
  adm.profile = broker_.Profile(tenant);      // NotFoundError
  const Dataset& ds = catalog_.Get(dataset);  // NotFoundError
  const std::string fingerprint =
      SessionRegistry::Fingerprint(ds.publication, ds.compile_seed);
  // An already-attached tenant serves from the artifact its session pins —
  // no registry touch, so a registry eviction never forces a recompile for
  // a request the entry can already serve.
  adm.entry = FindEntry(tenant, dataset);
  adm.compiled = adm.entry != nullptr
                     ? adm.entry->session.compiled()
                     : registry_.GetOrCompile(dataset, ds.graph,
                                              ds.publication, ds.compile_seed,
                                              ds.snapshot.get());

  // Resolve the entitled level BEFORE any charge or draw: a tier the policy
  // cannot map — including an explicit access_levels entry pointing past
  // the compiled hierarchy — must not cost the tenant anything
  // (AccessPolicyError).
  const gdp::core::AccessPolicy policy =
      ds.access_levels.empty()
          ? gdp::core::AccessPolicy::Uniform(
                adm.compiled->hierarchy().num_levels())
          : gdp::core::AccessPolicy(ds.access_levels);
  adm.level = policy.LevelForPrivilege(adm.profile.privilege);
  if (adm.level >= adm.compiled->hierarchy().num_levels()) {
    throw gdp::common::AccessPolicyError(
        "DisclosureService: dataset '" + dataset + "' maps tier " +
        std::to_string(adm.profile.privilege) + " to level " +
        std::to_string(adm.level) +
        " but the compiled hierarchy has levels [0, " +
        std::to_string(adm.compiled->hierarchy().num_levels()) + ")");
  }

  result.privilege = adm.profile.privilege;
  result.level = adm.level;
  result.accounting = adm.profile.accounting;

  if (adm.entry == nullptr) {
    // A retired dataset refuses the tenant BEFORE phase 1 is charged to its
    // ledger: the tenant must not pay for a view it can never draw.
    if (odometer_.IsRetired(dataset)) {
      dataset_denials_.Add();
      const std::optional<DatasetOdometer::Snapshot> snap =
          odometer_.Get(dataset);
      result.denial_reason =
          "dataset '" + dataset + "' retired by cross-tenant odometer: " +
          (snap.has_value() ? snap->retire_reason : "retired");
      result.epsilon_remaining = adm.profile.epsilon_cap;
      return adm;
    }
    std::string attach_denial;
    try {
      adm.entry = EntryFor(tenant, dataset, fingerprint, adm.profile,
                           adm.compiled, attach_denial);
    } catch (const gdp::common::BudgetExhaustedError& e) {
      // The grant cannot cover even the Phase-1 spend: an admission
      // decision, not a server error.  Nothing was cached, drawn, or
      // charged to the tenant — its whole grant is still unspent.
      result.denial_reason = e.what();
      result.epsilon_spent = 0.0;
      result.epsilon_remaining = adm.profile.epsilon_cap;
      return adm;
    }
    if (adm.entry == nullptr) {
      result.denial_reason = std::move(attach_denial);
      result.epsilon_remaining = adm.profile.epsilon_cap;
      return adm;
    }
  }
  return adm;
}

gdp::core::ChargeGate DisclosureService::MakeGate(const std::string& tenant,
                                                  const std::string& dataset,
                                                  TenantEntry& entry,
                                                  const std::string& label,
                                                  std::string& gate_denial) {
  // The write-ahead gate: runs after the tenant's own ledger admitted the
  // charge and before anything commits or draws.  Odometer first (cheap,
  // commit-at-admit), then the durable append — so the log never records a
  // charge the odometer refused, and noise never outruns the log.
  return [this, tenant, dataset, &entry, label,
          &gate_denial](const gdp::dp::MechanismEvent& event) -> bool {
    const OdometerAdmit admit = odometer_.Charge(dataset, event);
    if (admit != OdometerAdmit::kAdmitted) {
      dataset_denials_.Add();
      const std::optional<DatasetOdometer::Snapshot> snap =
          odometer_.Get(dataset);
      gate_denial =
          "dataset '" + dataset + "' retired by cross-tenant odometer: " +
          (snap.has_value() ? snap->retire_reason : "retired");
      if (admit == OdometerAdmit::kRefusedNewlyRetired && wal_ != nullptr) {
        // Retirement must survive restart even though the tripping request
        // itself is refused (and so never logged as a charge).
        WalAppend(WalRecord::DatasetRetired(
            dataset,
            snap.has_value() ? snap->retire_reason : "budget exhausted"));
      }
      return false;
    }
    if (wal_ != nullptr) {
      // Stamp the accountant-tightened cumulative AS OF this charge so an
      // offline verifier can recompute it from the event stream alone.
      const gdp::dp::BudgetCharge accounted =
          entry.session.ledger().AccountedSpendWith(event);
      WalAppend(WalRecord::Charge(tenant, dataset, event, accounted.epsilon,
                                  accounted.delta, label));
    }
    return true;
  };
}

void DisclosureService::FinishFromLedger(ServeResult& result,
                                         const TenantEntry& entry,
                                         const gdp::core::BudgetSpec& budget,
                                         std::string gate_denial,
                                         bool granted) {
  const gdp::dp::BudgetLedger& ledger = entry.session.ledger();
  result.epsilon_spent = ledger.epsilon_spent();
  result.epsilon_remaining = ledger.epsilon_remaining();
  // Report BOTH views of the spend: the naive Σε above and the accountant-
  // tightened guarantee admission binds (equal under kSequential).
  const gdp::dp::BudgetCharge accounted = ledger.AccountedSpend();
  result.accounted_epsilon = accounted.epsilon;
  result.accounted_delta = accounted.delta;
  if (granted) {
    result.granted = true;
    return;
  }
  if (!gate_denial.empty()) {
    result.denial_reason = std::move(gate_denial);
    return;
  }
  // Name the cap that tripped: an epsilon-only message is misleading when
  // the delta cap was the binding one.
  const bool eps_binding = ledger.WouldExceed(budget.phase2_epsilon(), 0.0);
  result.denial_reason =
      std::string("tenant grant exhausted (") +
      (eps_binding ? "epsilon" : "delta") + " cap): request needs eps=" +
      std::to_string(budget.phase2_epsilon()) +
      ", delta=" + std::to_string(budget.delta) + " but eps=" +
      std::to_string(ledger.epsilon_remaining()) + ", delta=" +
      std::to_string(ledger.delta_remaining()) + " remains";
}

ServeResult DisclosureService::Serve(const std::string& tenant,
                                     const std::string& dataset,
                                     const gdp::core::BudgetSpec& budget,
                                     gdp::common::Rng& rng) {
  gdp::common::Rng stream = TakeRequestStream(rng);
  ServeResult result;
  const Admission adm = Admit(tenant, dataset, result);
  if (adm.entry == nullptr) {
    return result;
  }
  const std::string label =
      "serve dataset=" + dataset +
      ": phase2 noise eps_g=" + std::to_string(budget.phase2_epsilon()) + " (" +
      gdp::core::NoiseKindName(budget.noise) + ")";

  const std::lock_guard<std::mutex> lock(adm.entry->mutex);
  std::string gate_denial;
  const gdp::core::ChargeGate gate =
      MakeGate(tenant, dataset, *adm.entry, label, gate_denial);
  // Draw the entitled level only; the charge is still the full release's.
  // `level` was bounds-checked against the hierarchy by Admit.
  std::optional<std::vector<gdp::core::LevelRelease>> levels =
      adm.entry->session.TryReleaseLevels(budget, adm.level, adm.level, stream,
                                          label, gate);
  FinishFromLedger(result, *adm.entry, budget, std::move(gate_denial),
                   levels.has_value());
  if (levels.has_value()) {
    result.view = std::move(levels->front());
  }
  return result;
}

std::vector<ServeResult> DisclosureService::ServeSweep(
    const std::string& tenant, const std::string& dataset,
    std::span<const gdp::core::BudgetSpec> budgets, gdp::common::Rng& rng) {
  gdp::common::Rng stream = TakeRequestStream(rng);
  std::vector<ServeResult> results;
  results.reserve(budgets.size());
  for (const gdp::core::BudgetSpec& budget : budgets) {
    results.push_back(Serve(tenant, dataset, budget, stream));
  }
  return results;
}

DrilldownResult DisclosureService::ServeDrilldown(
    const std::string& tenant, const std::string& dataset,
    const gdp::core::BudgetSpec& budget, gdp::graph::Side side,
    gdp::graph::NodeIndex v, gdp::common::Rng& rng) {
  gdp::common::Rng stream = TakeRequestStream(rng);
  DrilldownResult result;
  const Admission adm = Admit(tenant, dataset, result.serve);
  if (adm.entry == nullptr) {
    return result;
  }
  // No node id in the label: the drilled node is not a privacy parameter,
  // and leaving it out lets the ledger merge repeated drilldowns.
  const std::string label =
      "serve+drilldown dataset=" + dataset +
      ": phase2 noise eps_g=" + std::to_string(budget.phase2_epsilon()) + " (" +
      gdp::core::NoiseKindName(budget.noise) + ")";

  const std::lock_guard<std::mutex> lock(adm.entry->mutex);
  std::string gate_denial;
  const gdp::core::ChargeGate gate =
      MakeGate(tenant, dataset, *adm.entry, label, gate_denial);
  // The entitled level through the coarsest — never finer: levels below the
  // entitled level belong to higher tiers, and drill-down must not become a
  // side channel around the access policy.
  std::optional<std::vector<gdp::core::LevelRelease>> levels =
      adm.entry->session.TryReleaseLevels(
          budget, adm.level, adm.compiled->hierarchy().depth(), stream, label,
          gate);
  FinishFromLedger(result.serve, *adm.entry, budget, std::move(gate_denial),
                   levels.has_value());
  if (!levels.has_value()) {
    return result;
  }
  // Pure post-processing over the levels this request already paid for.
  result.chain = adm.compiled->Drilldown(*levels, side, v);
  result.serve.view = std::move(levels->front());
  return result;
}

AnswerResult DisclosureService::ServeAnswer(const std::string& tenant,
                                            const std::string& dataset,
                                            const gdp::core::BudgetSpec& budget,
                                            std::span<const QuerySpec> queries,
                                            gdp::common::Rng& rng) {
  gdp::common::Rng stream = TakeRequestStream(rng);
  if (queries.empty()) {
    throw std::invalid_argument(
        "DisclosureService::ServeAnswer: empty query list (an empty workload "
        "would charge a zero event — reject it at the boundary instead)");
  }
  AnswerResult result;
  const Admission adm = Admit(tenant, dataset, result.serve);
  if (adm.entry == nullptr) {
    return result;
  }
  // Instantiate the workload at the ENTITLED level: the level partition a
  // GroupCountQuery reads is owned by the pinned artifact's hierarchy, which
  // outlives the workload (the session holds the shared_ptr).
  gdp::query::Workload workload;
  for (const QuerySpec& q : queries) {
    switch (q.kind) {
      case QuerySpec::Kind::kAssociationCount:
        workload.Add(std::make_unique<gdp::query::AssociationCountQuery>());
        break;
      case QuerySpec::Kind::kGroupCount:
        workload.Add(std::make_unique<gdp::query::GroupCountQuery>(
            adm.compiled->hierarchy().level(adm.level)));
        break;
      case QuerySpec::Kind::kDegreeHistogram:
        workload.Add(std::make_unique<gdp::query::DegreeHistogramQuery>(
            q.side, q.max_degree));
        break;
      default:
        throw std::invalid_argument(
            "DisclosureService::ServeAnswer: unknown query kind");
    }
  }
  const std::string label =
      "serve+answer dataset=" + dataset + ": " +
      std::to_string(workload.size()) + " queries at L" +
      std::to_string(adm.level) +
      ", eps=" + std::to_string(budget.phase2_epsilon()) + " each (" +
      gdp::core::NoiseKindName(budget.noise) + ")";

  const std::lock_guard<std::mutex> lock(adm.entry->mutex);
  std::string gate_denial;
  const gdp::core::ChargeGate gate =
      MakeGate(tenant, dataset, *adm.entry, label, gate_denial);
  std::optional<std::vector<gdp::query::QueryRunResult>> answers =
      adm.entry->session.TryAnswer(workload, adm.level, budget, stream, label,
                                   gate);
  FinishFromLedger(result.serve, *adm.entry, budget, std::move(gate_denial),
                   answers.has_value());
  if (answers.has_value()) {
    result.results = std::move(*answers);
  }
  return result;
}

gdp::dp::BudgetLedger DisclosureService::Ledger(
    const std::string& tenant, const std::string& dataset) const {
  std::unique_lock<std::mutex> map_lock(sessions_mutex_);
  const auto key = std::make_pair(tenant, dataset);
  if (const auto it = sessions_.find(key); it != sessions_.end()) {
    TenantEntry& entry = *it->second;
    map_lock.unlock();
    const std::lock_guard<std::mutex> lock(entry.mutex);
    return entry.session.ledger();
  }
  if (const auto rec = recovered_.find(key); rec != recovered_.end()) {
    // Recovered but not re-served: rebuild the ledger from the replayed
    // history on the fly, under the logged grant (falling back to the
    // broker's when the log held charges but no open record).
    const RecoveredTenant& tenant_rec = rec->second;
    double epsilon_cap = tenant_rec.epsilon_cap;
    double delta_cap = tenant_rec.delta_cap;
    gdp::dp::AccountingPolicy accounting = tenant_rec.accounting;
    if (!tenant_rec.has_open) {
      const TenantProfile profile = broker_.Profile(tenant);  // NotFoundError
      epsilon_cap = profile.epsilon_cap;
      delta_cap = profile.delta_cap;
      accounting = profile.accounting;
    }
    gdp::dp::BudgetLedger ledger(epsilon_cap, delta_cap, accounting);
    for (const gdp::core::ReplayedCharge& charge : tenant_rec.charges) {
      ledger.RestoreCharge(charge.event, charge.label);
    }
    return ledger;
  }
  throw gdp::common::NotFoundError("DisclosureService: tenant '" + tenant +
                                   "' has never been served dataset '" +
                                   dataset + "'");
}

}  // namespace gdp::serve
