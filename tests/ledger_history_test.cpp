// Bounded ledger history: repeated identical (event, label) charges merge
// into one history entry with a count, while totals and accountant state
// stay exactly what charging event by event gives, under every policy.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "dp/accountant.hpp"
#include "dp/gaussian.hpp"
#include "dp/privacy_accountant.hpp"

namespace gdp::dp {
namespace {

MechanismEvent GaussianReleaseEvent(double eps, double delta) {
  const double m =
      ClassicGaussianSigma(Epsilon(eps), Delta(delta), L2Sensitivity(1.0));
  return MechanismEvent::Gaussian(eps, delta, m);
}

// 100k identical charges: one history entry counting them, with totals and
// guarantees equal to charging an accountant event by event.
TEST(LedgerHistoryTest, IdenticalChargesMergeWithExactTotals) {
  constexpr int kCharges = 100000;
  for (const AccountingPolicy policy :
       {AccountingPolicy::kSequential, AccountingPolicy::kAdvanced,
        AccountingPolicy::kRdp}) {
    BudgetLedger ledger(1e9, 0.5, policy);
    const std::unique_ptr<PrivacyAccountant> unmerged = MakeAccountant(policy);
    const MechanismEvent event = GaussianReleaseEvent(0.5, 1e-7);
    double eps_sum = 0.0;
    double delta_sum = 0.0;
    for (int i = 0; i < kCharges; ++i) {
      ledger.Charge(event, "serve dataset=d");
      unmerged->Spend(event);
      eps_sum += event.TotalEpsilon();
      delta_sum += event.TotalDelta();
    }
    const char* name = AccountingPolicyName(policy);
    ASSERT_EQ(ledger.history().size(), 1u) << name;
    EXPECT_EQ(ledger.history()[0].count, static_cast<std::uint64_t>(kCharges));
    EXPECT_EQ(ledger.num_charges(), static_cast<std::uint64_t>(kCharges));
    EXPECT_EQ(ledger.epsilon_spent(), eps_sum) << name;
    EXPECT_EQ(ledger.delta_spent(), delta_sum) << name;
    EXPECT_EQ(ledger.AccountedGuarantee(1e-6).epsilon,
              unmerged->CumulativeGuarantee(1e-6).epsilon)
        << name;
    EXPECT_EQ(ledger.AccountedGuarantee(1e-6).delta,
              unmerged->CumulativeGuarantee(1e-6).delta)
        << name;
    EXPECT_EQ(ledger.AccountedSpend().epsilon,
              unmerged->AdmissionGuarantee(0.5).epsilon)
        << name;
    EXPECT_NE(ledger.AuditReport().find("x100000"), std::string::npos)
        << ledger.AuditReport();
  }
}

TEST(LedgerHistoryTest, DistinctLabelsOrEventsStaySeparate) {
  BudgetLedger ledger(100.0, 0.5, AccountingPolicy::kRdp);
  const MechanismEvent a = GaussianReleaseEvent(0.5, 1e-7);
  const MechanismEvent b = GaussianReleaseEvent(0.25, 1e-7);
  ledger.Charge(a, "x");
  ledger.Charge(b, "x");
  ledger.Charge(a, "y");
  ledger.Charge(a, "x");
  ledger.Charge(b, "x");
  ASSERT_EQ(ledger.history().size(), 3u);
  // First-occurrence order, repeats counted in place.
  EXPECT_EQ(ledger.history()[0].label, "x");
  EXPECT_EQ(ledger.history()[0].event.epsilon, 0.5);
  EXPECT_EQ(ledger.history()[0].count, 2u);
  EXPECT_EQ(ledger.history()[1].event.epsilon, 0.25);
  EXPECT_EQ(ledger.history()[1].count, 2u);
  EXPECT_EQ(ledger.history()[2].label, "y");
  EXPECT_EQ(ledger.history()[2].count, 1u);
  EXPECT_EQ(ledger.num_charges(), 5u);
  // A copy keeps merging where the original left off.
  BudgetLedger copy = ledger;
  copy.Charge(a, "y");
  EXPECT_EQ(copy.history().size(), 3u);
  EXPECT_EQ(copy.history()[2].count, 2u);
  EXPECT_EQ(ledger.history()[2].count, 1u);
}

}  // namespace
}  // namespace gdp::dp
