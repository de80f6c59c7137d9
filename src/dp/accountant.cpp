#include "dp/accountant.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace gdp::dp {

BudgetCharge ComposeSequential(std::span<const BudgetCharge> charges) {
  BudgetCharge total;
  total.label = "sequential";
  for (const auto& c : charges) {
    total.epsilon += c.epsilon;
    total.delta += c.delta;
  }
  return total;
}

BudgetCharge ComposeParallel(std::span<const BudgetCharge> charges) {
  if (charges.empty()) {
    throw std::invalid_argument("ComposeParallel: requires at least one charge");
  }
  BudgetCharge total;
  total.label = "parallel";
  for (const auto& c : charges) {
    total.epsilon = std::max(total.epsilon, c.epsilon);
    total.delta = std::max(total.delta, c.delta);
  }
  return total;
}

BudgetCharge ComposeAdvanced(Epsilon eps, double delta, int k, double delta_slack) {
  if (k <= 0) {
    throw std::invalid_argument("ComposeAdvanced: k must be positive");
  }
  if (!(delta >= 0.0) || !(delta < 1.0)) {
    throw std::invalid_argument("ComposeAdvanced: delta must be in [0, 1)");
  }
  if (!(delta_slack > 0.0) || !(delta_slack < 1.0)) {
    throw std::invalid_argument("ComposeAdvanced: delta_slack must be in (0, 1)");
  }
  const double e = eps.value();
  const auto kd = static_cast<double>(k);
  BudgetCharge total;
  total.label = "advanced";
  total.epsilon =
      e * std::sqrt(2.0 * kd * std::log(1.0 / delta_slack)) + kd * e * std::expm1(e);
  total.delta = kd * delta + delta_slack;
  return total;
}

BudgetLedger::BudgetLedger(double epsilon_cap, double delta_cap)
    : BudgetLedger(epsilon_cap, delta_cap, AccountingPolicy::kSequential) {}

BudgetLedger::BudgetLedger(double epsilon_cap, double delta_cap,
                           AccountingPolicy policy)
    : eps_cap_(epsilon_cap),
      delta_cap_(delta_cap),
      policy_(policy),
      accountant_(MakeAccountant(policy)) {
  if (!(epsilon_cap > 0.0) || !std::isfinite(epsilon_cap)) {
    throw std::invalid_argument("BudgetLedger: epsilon_cap must be > 0");
  }
  if (!(delta_cap >= 0.0) || !(delta_cap < 1.0)) {
    throw std::invalid_argument("BudgetLedger: delta_cap must be in [0, 1)");
  }
  if (policy != AccountingPolicy::kSequential && !(delta_cap > 0.0)) {
    throw std::invalid_argument(
        std::string("BudgetLedger: the ") + AccountingPolicyName(policy) +
        " policy converts through a delta slack and requires delta_cap > 0");
  }
}

BudgetLedger::BudgetLedger(const BudgetLedger& other)
    : eps_cap_(other.eps_cap_),
      delta_cap_(other.delta_cap_),
      eps_spent_(other.eps_spent_),
      delta_spent_(other.delta_spent_),
      policy_(other.policy_),
      accountant_(other.accountant_->Clone()),
      history_(other.history_),
      history_index_(other.history_index_),
      num_charges_(other.num_charges_) {}

BudgetLedger& BudgetLedger::operator=(const BudgetLedger& other) {
  if (this != &other) {
    BudgetLedger copy(other);
    *this = std::move(copy);
  }
  return *this;
}

bool BudgetLedger::WouldExceed(double epsilon, double delta) const {
  return WouldExceed(MechanismEvent::Opaque(epsilon, delta));
}

bool BudgetLedger::WouldExceed(const MechanismEvent& event) const {
  return accountant_->WouldExceed(event, eps_cap_, delta_cap_);
}

bool BudgetLedger::WouldExceedAll(
    std::span<const MechanismEvent> events) const {
  const std::unique_ptr<PrivacyAccountant> probe = accountant_->Clone();
  for (const MechanismEvent& event : events) {
    probe->Spend(event);
  }
  const BudgetCharge guarantee = probe->AdmissionGuarantee(delta_cap_);
  return ExceedsBudgetCaps(guarantee.epsilon, guarantee.delta, eps_cap_,
                           delta_cap_);
}

namespace {

bool SameEvent(const MechanismEvent& a, const MechanismEvent& b) noexcept {
  return a.kind == b.kind && a.epsilon == b.epsilon && a.delta == b.delta &&
         a.noise_multiplier == b.noise_multiplier && a.count == b.count &&
         a.parallel_width == b.parallel_width;
}

std::size_t HistoryKey(const MechanismEvent& event, const std::string& label) {
  std::size_t h = std::hash<std::string>{}(label);
  const auto mix = [&h](std::size_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(static_cast<std::size_t>(event.kind));
  mix(std::hash<double>{}(event.epsilon));
  mix(std::hash<double>{}(event.delta));
  mix(std::hash<double>{}(event.noise_multiplier));
  mix(static_cast<std::size_t>(event.count));
  mix(static_cast<std::size_t>(event.parallel_width));
  return h;
}

}  // namespace

void BudgetLedger::CommitCharge(const MechanismEvent& event,
                                std::string label) {
  accountant_->Spend(event);
  eps_spent_ += event.TotalEpsilon();
  delta_spent_ += event.TotalDelta();
  ++num_charges_;
  const std::size_t key = HistoryKey(event, label);
  const auto [begin, end] = history_index_.equal_range(key);
  for (auto it = begin; it != end; ++it) {
    LedgerEntry& entry = history_[it->second];
    if (SameEvent(entry.event, event) && entry.label == label) {
      ++entry.count;
      return;
    }
  }
  history_index_.emplace(key, history_.size());
  history_.push_back(LedgerEntry{event, std::move(label), 1});
}

void BudgetLedger::Charge(double epsilon, double delta, std::string label) {
  Charge(MechanismEvent::Opaque(epsilon, delta), std::move(label));
}

void BudgetLedger::Charge(const MechanismEvent& event, std::string label) {
  ValidateMechanismEvent(event);
  if (WouldExceed(event)) {
    // Name the cap that tripped: re-check with the δ claim zeroed, matching
    // the historical epsilon-first check order.
    MechanismEvent eps_only = event;
    eps_only.delta = 0.0;
    const bool eps_binding =
        accountant_->WouldExceed(eps_only, eps_cap_, delta_cap_);
    throw gdp::common::BudgetExhaustedError(
        std::string("BudgetLedger: ") + (eps_binding ? "epsilon" : "delta") +
        " cap exceeded by charge '" + label + "'");
  }
  CommitCharge(event, std::move(label));
}

bool BudgetLedger::TryCharge(double epsilon, double delta, std::string label) {
  return TryCharge(MechanismEvent::Opaque(epsilon, delta), std::move(label));
}

bool BudgetLedger::TryCharge(const MechanismEvent& event, std::string label) {
  // Malformed spends are still programming errors, not admission decisions.
  ValidateMechanismEvent(event);
  if (WouldExceed(event)) {
    return false;
  }
  CommitCharge(event, std::move(label));
  return true;
}

void BudgetLedger::RestoreCharge(const MechanismEvent& event,
                                 std::string label) {
  ValidateMechanismEvent(event);
  CommitCharge(event, std::move(label));
}

BudgetCharge BudgetLedger::AccountedGuarantee(double target_delta) const {
  return accountant_->CumulativeGuarantee(target_delta);
}

BudgetCharge BudgetLedger::AccountedSpend() const {
  return accountant_->AdmissionGuarantee(delta_cap_);
}

BudgetCharge BudgetLedger::AccountedSpendWith(
    const MechanismEvent& event) const {
  return accountant_->GuaranteeWith(event, delta_cap_);
}

std::string BudgetLedger::AuditReport() const {
  std::ostringstream os;
  os << "budget ledger (cap eps=" << eps_cap_ << ", delta=" << delta_cap_
     << ", accounting=" << AccountingPolicyName(policy_) << ")\n";
  for (const LedgerEntry& e : history_) {
    os << "  charge eps=" << e.event.TotalEpsilon()
       << " delta=" << e.event.TotalDelta() << "  [" << e.label << "]";
    if (e.count > 1) {
      os << " x" << e.count;
    }
    os << '\n';
  }
  os << "  total  eps=" << eps_spent_ << " delta=" << delta_spent_ << '\n';
  if (policy_ != AccountingPolicy::kSequential) {
    const BudgetCharge tightened = AccountedSpend();
    os << "  " << AccountingPolicyName(policy_)
       << "-accounted eps=" << tightened.epsilon
       << " delta=" << tightened.delta << " (naive eps=" << eps_spent_
       << ", delta=" << delta_spent_ << ")\n";
  }
  return os.str();
}

}  // namespace gdp::dp
