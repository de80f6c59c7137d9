// Privacy budget accounting.
//
// Composition facts used by the release pipeline:
//  * Sequential composition: k mechanisms at (εi, δi) on the same data give
//    (Σεi, Σδi)-DP.
//  * Parallel composition: mechanisms on *disjoint* partitions give
//    (max εi, max δi)-DP.  Phase 1's per-level splits and Phase 2's per-group
//    counts within a level are parallel over disjoint groups.
//  * Advanced composition (Dwork–Rothblum–Vadhan): k-fold adaptive
//    composition of (ε, δ) gives (ε', kδ + δ') with
//    ε' = ε·sqrt(2k·ln(1/δ')) + k·ε·(e^ε − 1).
//  * Rényi composition (Mironov'17): Gaussian mechanisms compose exactly on
//    the Rényi curve; see dp/rdp_accountant.hpp.
//
// BudgetLedger enforces a hard cap: Charge throws BudgetExhaustedError when
// the requested spend would exceed the cap (Core Guidelines I.5: state
// preconditions; we make over-spend unrepresentable at runtime).  The cap
// arithmetic is delegated to a pluggable PrivacyAccountant (see
// dp/privacy_accountant.hpp): the default AccountingPolicy::kSequential is
// bit-identical to the historical inlined Σε ledger, while kAdvanced / kRdp
// admit more mechanism-level charges against the same caps by composing
// tighter.  The ledger always ALSO keeps the naive sequential totals
// (epsilon_spent / delta_spent) as the audit baseline, so reports can show
// both the naive and the accountant-tightened cumulative.
//
// BOUNDED HISTORY: the totals and the accountant state are exact and O(1);
// the audit history merges repeated identical charges (same event, same
// label) into one entry with a count, so a long-lived serving tenant's
// ledger grows with the number of DISTINCT charges it made, not with its
// grants.  The per-grant record is the serving layer's write-ahead log.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "dp/privacy_accountant.hpp"
#include "dp/privacy_params.hpp"

namespace gdp::dp {

// --- stateless composition arithmetic -------------------------------------

// (Σεi, Σδi) over charges.
[[nodiscard]] BudgetCharge ComposeSequential(std::span<const BudgetCharge> charges);

// (max εi, max δi) over charges (disjoint inputs).  Requires non-empty.
[[nodiscard]] BudgetCharge ComposeParallel(std::span<const BudgetCharge> charges);

// Advanced composition bound for k-fold use of one (ε, δ) with slack δ'.
// Requires k > 0, delta in [0, 1), delta_slack in (0, 1).
[[nodiscard]] BudgetCharge ComposeAdvanced(Epsilon eps, double delta, int k,
                                           double delta_slack);

// --- stateful ledger --------------------------------------------------------

// One line of a ledger's charge history: `count` identical charges (same
// mechanism-level event, same audit label), merged.
struct LedgerEntry {
  MechanismEvent event;
  std::string label;
  std::uint64_t count{1};
};

class BudgetLedger {
 public:
  // Pure-ε cap: delta_cap == 0 means no δ spend is permitted.  The two-arg
  // form is the historical sequential ledger.
  BudgetLedger(double epsilon_cap, double delta_cap);

  // Ledger with an explicit accounting policy.  kAdvanced / kRdp need δ
  // headroom for their conversion slack, so they require delta_cap > 0
  // (std::invalid_argument otherwise).
  BudgetLedger(double epsilon_cap, double delta_cap, AccountingPolicy policy);

  // Copyable: a ledger is returned by value on audit paths.  The accountant
  // is deep-cloned.
  BudgetLedger(const BudgetLedger& other);
  BudgetLedger& operator=(const BudgetLedger& other);
  BudgetLedger(BudgetLedger&&) noexcept = default;
  BudgetLedger& operator=(BudgetLedger&&) noexcept = default;
  ~BudgetLedger() = default;

  // Record a spend; throws gdp::common::BudgetExhaustedError if the
  // accountant's cumulative guarantee would exceed either cap.  The
  // two-double form records an opaque (ε, δ) event — exactly the historical
  // behavior; the event form lets a mechanism-aware policy compose tighter.
  void Charge(double epsilon, double delta, std::string label);
  void Charge(const MechanismEvent& event, std::string label);

  // True iff a matching Charge would throw BudgetExhaustedError right now
  // (same slack arithmetic).  Lets batch callers pre-check a whole sequence
  // of charges atomically instead of failing mid-batch.
  [[nodiscard]] bool WouldExceed(double epsilon, double delta) const;
  [[nodiscard]] bool WouldExceed(const MechanismEvent& event) const;

  // Batch pre-check: would recording ALL of `events`, in order, exceed the
  // caps?  This is the only correct whole-batch check for a non-sequential
  // policy, where per-event guarantees do not simply add.
  [[nodiscard]] bool WouldExceedAll(std::span<const MechanismEvent> events) const;

  // Check-and-charge in one call: records the spend and returns true when it
  // fits the caps, returns false and leaves the ledger untouched otherwise.
  // The serving layer's admission path — rejecting a tenant request is an
  // expected outcome there, not exception-worthy.  The check and the record
  // are one operation, so a caller holding the ledger cannot interleave a
  // WouldExceed/Charge pair incorrectly.
  //
  // TENANT COMPOSITION: per-tenant ledgers are independent admission and
  // audit boundaries — each bounds what ITS tenant's view of the data can
  // leak, and ledgers never need to consult one another.  Two distinct
  // regimes, stated honestly:
  //  * Mechanisms over genuinely DISJOINT data (per-level splits, per-group
  //    counts within a level, tenants querying disjoint partitions) enjoy
  //    parallel composition: the effective spend is the max, not the sum.
  //  * Tenants served independently-noised releases of the SAME dataset do
  //    NOT: against an adversary observing (or tenants pooling) several
  //    views, the dataset-level loss composes sequentially (~Σ per-tenant
  //    spends).  Per-tenant ledgers deliberately do not track that global
  //    quantity; a deployment that needs it adds a dataset-level ledger
  //    (or accountant) charged once per release, across tenants.
  [[nodiscard]] bool TryCharge(double epsilon, double delta, std::string label);
  [[nodiscard]] bool TryCharge(const MechanismEvent& event, std::string label);

  // Crash-recovery rehydration: commit an already-admitted historical spend
  // WITHOUT the cap check.  A charge replayed from the durable audit log was
  // admitted when it happened; recovery must reproduce it even when the caps
  // have since been tightened — spent budget is a fact and is never "lost"
  // back to the tenant.  Still validates the event (a malformed replayed
  // event means log corruption, which must not be absorbed silently).
  void RestoreCharge(const MechanismEvent& event, std::string label);

  // Naive sequential totals (Σε, Σδ over charges) — the audit baseline,
  // maintained under every policy.  Under kSequential these ARE the
  // admission quantities; under kAdvanced / kRdp the accountant's guarantee
  // is what the caps bind, and epsilon_remaining can legitimately go
  // negative while the tenant is still admissible.
  [[nodiscard]] double epsilon_spent() const noexcept { return eps_spent_; }
  [[nodiscard]] double delta_spent() const noexcept { return delta_spent_; }
  [[nodiscard]] double epsilon_remaining() const noexcept {
    return eps_cap_ - eps_spent_;
  }
  [[nodiscard]] double delta_remaining() const noexcept {
    return delta_cap_ - delta_spent_;
  }
  [[nodiscard]] double epsilon_cap() const noexcept { return eps_cap_; }
  [[nodiscard]] double delta_cap() const noexcept { return delta_cap_; }
  // The merged charge history, in first-occurrence order: one entry per
  // distinct (event, label), counting its repeats.
  [[nodiscard]] const std::vector<LedgerEntry>& history() const noexcept {
    return history_;
  }
  // Charges committed so far (the sum of the history's counts).
  [[nodiscard]] std::uint64_t num_charges() const noexcept {
    return num_charges_;
  }

  [[nodiscard]] AccountingPolicy policy() const noexcept { return policy_; }

  // The policy-tightened cumulative guarantee at failure probability
  // `target_delta` (kSequential ignores the target and reports the naive
  // totals).  This is what an RDP tenant shows at its own δ.
  [[nodiscard]] BudgetCharge AccountedGuarantee(double target_delta) const;

  // The guarantee the cap check binds — the accountant's admission basis at
  // this ledger's δ cap.
  [[nodiscard]] BudgetCharge AccountedSpend() const;

  // AccountedSpend() AS IF `event` had been charged — computed without
  // mutating.  The write-ahead audit log stamps each charge record with this
  // value BEFORE the charge commits, so an offline verifier can recompute it
  // from the event stream and detect divergence.
  [[nodiscard]] BudgetCharge AccountedSpendWith(const MechanismEvent& event) const;

  // Multi-line audit trail: one line per history entry (suffixed " xN" when
  // it merges N > 1 charges) plus the naive totals, and — for a
  // non-sequential policy — the accountant-tightened cumulative.
  [[nodiscard]] std::string AuditReport() const;

 private:
  void CommitCharge(const MechanismEvent& event, std::string label);

  double eps_cap_;
  double delta_cap_;
  double eps_spent_{0.0};
  double delta_spent_{0.0};
  AccountingPolicy policy_{AccountingPolicy::kSequential};
  std::unique_ptr<PrivacyAccountant> accountant_;
  std::vector<LedgerEntry> history_;
  // Hash of (event, label) -> history_ index, for merging repeats.
  std::unordered_multimap<std::size_t, std::size_t> history_index_;
  std::uint64_t num_charges_{0};
};

}  // namespace gdp::dp
