// The pluggable accounting subsystem: MechanismEvent validation, the three
// PrivacyAccountant backends, the policy-driven BudgetLedger admission, and
// the property pin that RDP composition beats the sequential Σε for k >= 2
// Gaussian mechanisms across an (m, k, δ) grid.  Runs under ASan (full
// suite) and TSan (CI filter) — the accountants are plain value state, so
// the sanitizer runs pin allocation/lifetime, not races.
#include "dp/privacy_accountant.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "dp/accountant.hpp"
#include "dp/gaussian.hpp"
#include "dp/rdp_accountant.hpp"

namespace gdp::dp {
namespace {

// ---------- MechanismEvent ----------

TEST(MechanismEventTest, FactoriesFillKindAndTotals) {
  const MechanismEvent g = MechanismEvent::Gaussian(0.5, 1e-6, 4.0, 3, 9);
  EXPECT_EQ(g.kind, MechanismEvent::Kind::kGaussian);
  EXPECT_DOUBLE_EQ(g.noise_multiplier, 4.0);
  EXPECT_DOUBLE_EQ(g.TotalEpsilon(), 1.5);
  EXPECT_DOUBLE_EQ(g.TotalDelta(), 3e-6);
  EXPECT_EQ(g.parallel_width, 9);

  const MechanismEvent p = MechanismEvent::PureEps(0.2);
  EXPECT_EQ(p.kind, MechanismEvent::Kind::kPureEps);
  EXPECT_DOUBLE_EQ(p.TotalDelta(), 0.0);

  const MechanismEvent o = MechanismEvent::Opaque(0.3, 1e-7);
  EXPECT_EQ(o.kind, MechanismEvent::Kind::kOpaque);
}

TEST(MechanismEventTest, ValidationRejectsMalformedEvents) {
  EXPECT_THROW(ValidateMechanismEvent(MechanismEvent::Opaque(-0.1, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(ValidateMechanismEvent(MechanismEvent::Opaque(
                   std::numeric_limits<double>::quiet_NaN(), 0.0)),
               std::invalid_argument);
  EXPECT_THROW(ValidateMechanismEvent(MechanismEvent::Opaque(0.1, 1.5)),
               std::invalid_argument);
  EXPECT_THROW(ValidateMechanismEvent(MechanismEvent::Opaque(0.1, 0.0, 0)),
               std::invalid_argument);
  // A Gaussian event must carry a usable noise multiplier.
  EXPECT_THROW(ValidateMechanismEvent(MechanismEvent::Gaussian(0.1, 1e-6, 0.0)),
               std::invalid_argument);
  MechanismEvent bad_width = MechanismEvent::PureEps(0.1);
  bad_width.parallel_width = 0;
  EXPECT_THROW(ValidateMechanismEvent(bad_width), std::invalid_argument);
  EXPECT_NO_THROW(
      ValidateMechanismEvent(MechanismEvent::Gaussian(0.1, 1e-6, 5.0)));
}

TEST(AccountingPolicyTest, NamesAndParsingRoundTrip) {
  EXPECT_EQ(ParseAccountingPolicy("sequential"), AccountingPolicy::kSequential);
  EXPECT_EQ(ParseAccountingPolicy("advanced"), AccountingPolicy::kAdvanced);
  EXPECT_EQ(ParseAccountingPolicy("rdp"), AccountingPolicy::kRdp);
  for (const AccountingPolicy p :
       {AccountingPolicy::kSequential, AccountingPolicy::kAdvanced,
        AccountingPolicy::kRdp}) {
    EXPECT_EQ(ParseAccountingPolicy(AccountingPolicyName(p)), p);
  }
  EXPECT_THROW((void)ParseAccountingPolicy("renyi"), std::invalid_argument);
  EXPECT_THROW((void)ParseAccountingPolicy(""), std::invalid_argument);
}

// ---------- accountant backends ----------

TEST(SequentialAccountantTest, GuaranteeIsNaiveSums) {
  const auto acct = MakeAccountant(AccountingPolicy::kSequential);
  acct->Spend(MechanismEvent::Gaussian(0.5, 1e-6, 5.0));
  acct->Spend(MechanismEvent::PureEps(0.25));
  const BudgetCharge g = acct->CumulativeGuarantee(1e-9);  // target ignored
  EXPECT_NEAR(g.epsilon, 0.75, 1e-12);
  EXPECT_NEAR(g.delta, 1e-6, 1e-18);
  EXPECT_EQ(acct->policy(), AccountingPolicy::kSequential);
}

TEST(AdvancedAccountantTest, ManySmallChargesBeatSequential) {
  const auto acct = MakeAccountant(AccountingPolicy::kAdvanced);
  const int k = 200;
  for (int i = 0; i < k; ++i) {
    acct->Spend(MechanismEvent::Opaque(0.01, 0.0));
  }
  const BudgetCharge g = acct->CumulativeGuarantee(1e-6);
  EXPECT_LT(g.epsilon, 0.01 * k);
  EXPECT_NEAR(g.delta, 1e-6, 1e-15);
  // And it matches the closed-form k-fold bound for homogeneous charges.
  const BudgetCharge closed = ComposeAdvanced(Epsilon(0.01), 0.0, k, 1e-6);
  EXPECT_NEAR(g.epsilon, closed.epsilon, 1e-9);
}

TEST(AdvancedAccountantTest, NeverWorseThanSequentialBound) {
  // For ONE large charge the advanced formula is worse than Σε; the
  // accountant must cap at the basic bound.
  const auto acct = MakeAccountant(AccountingPolicy::kAdvanced);
  acct->Spend(MechanismEvent::Opaque(1.0, 0.0));
  EXPECT_LE(acct->CumulativeGuarantee(1e-6).epsilon, 1.0 + 1e-12);
}

TEST(AdvancedAccountantTest, GuaranteeValidatesTargetDelta) {
  const auto acct = MakeAccountant(AccountingPolicy::kAdvanced);
  EXPECT_THROW((void)acct->CumulativeGuarantee(0.0), std::invalid_argument);
  EXPECT_THROW((void)acct->CumulativeGuarantee(1.0), std::invalid_argument);
  EXPECT_THROW((void)acct->CumulativeGuarantee(
                   std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(RdpBackedAccountantTest, GaussianCompositionMatchesRdpAccountant) {
  const auto acct = MakeAccountant(AccountingPolicy::kRdp);
  acct->Spend(MechanismEvent::Gaussian(0.9, 1e-5, 5.0, 8));
  const BudgetCharge g = acct->CumulativeGuarantee(1e-6);
  EXPECT_NEAR(g.epsilon, RdpGaussianComposition(5.0, 8, Delta(1e-6)), 1e-12);
  EXPECT_NEAR(g.delta, 1e-6, 1e-15);
}

TEST(RdpBackedAccountantTest, OpaqueEventsComposeBasicallyOnTop) {
  const auto acct = MakeAccountant(AccountingPolicy::kRdp);
  acct->Spend(MechanismEvent::Gaussian(0.9, 1e-5, 5.0, 4));
  acct->Spend(MechanismEvent::Opaque(0.5, 1e-7));
  const BudgetCharge g = acct->CumulativeGuarantee(1e-6);
  EXPECT_NEAR(g.epsilon, RdpGaussianComposition(5.0, 4, Delta(1e-6)) + 0.5,
              1e-12);
  // The opaque claim's delta stays in the books on top of the target.
  EXPECT_NEAR(g.delta, 1e-6 + 1e-7, 1e-18);
}

TEST(RdpBackedAccountantTest, PureEpsEntersTheRenyiCurve) {
  // A pure-ε spend must cost at MOST its ε (Bun–Steinke caps the curve at
  // ε), and the claimed δ of a pure mechanism stays additive.
  const auto acct = MakeAccountant(AccountingPolicy::kRdp);
  acct->Spend(MechanismEvent::PureEps(0.3, 1e-5));
  const BudgetCharge g = acct->CumulativeGuarantee(1e-6);
  EXPECT_LE(g.epsilon, 0.3 + 0.5);  // ε plus small conversion overhead
  EXPECT_NEAR(g.delta, 1e-6 + 1e-5, 1e-15);
}

TEST(PrivacyAccountantTest, WouldExceedNeverMutates) {
  const auto acct = MakeAccountant(AccountingPolicy::kRdp);
  acct->Spend(MechanismEvent::Gaussian(0.9, 1e-5, 5.0));
  const double before = acct->CumulativeGuarantee(1e-6).epsilon;
  (void)acct->WouldExceed(MechanismEvent::Gaussian(0.9, 1e-5, 5.0, 100), 1.0,
                          1e-2);
  EXPECT_DOUBLE_EQ(acct->CumulativeGuarantee(1e-6).epsilon, before);
}

TEST(PrivacyAccountantTest, CloneIsIndependent) {
  const auto acct = MakeAccountant(AccountingPolicy::kAdvanced);
  acct->Spend(MechanismEvent::Opaque(0.1, 0.0));
  const auto clone = acct->Clone();
  clone->Spend(MechanismEvent::Opaque(0.1, 0.0));
  EXPECT_LT(acct->CumulativeGuarantee(1e-6).epsilon,
            clone->CumulativeGuarantee(1e-6).epsilon);
}

// ---------- policy-driven ledger ----------

// The event one Gaussian level-release at (ε₂, δ) claims: multiplier from
// the classic calibration at Δ = 1 (valid for ε <= 1).
MechanismEvent GaussianReleaseEvent(double eps, double delta) {
  const double m =
      ClassicGaussianSigma(Epsilon(eps), Delta(delta), L2Sensitivity(1.0));
  return MechanismEvent::Gaussian(eps, delta, m);
}

// Releases a ledger with the given policy admits before exhaustion.
int ReleasesUntilExhaustion(AccountingPolicy policy, double eps_cap,
                            double delta_cap, double eps, double delta) {
  BudgetLedger ledger(eps_cap, delta_cap, policy);
  const MechanismEvent event = GaussianReleaseEvent(eps, delta);
  int releases = 0;
  while (ledger.TryCharge(event, "release") && releases < 100000) {
    ++releases;
  }
  return releases;
}

TEST(PolicyLedgerTest, SequentialPolicyMatchesHistoricalArithmetic) {
  BudgetLedger plain(1.0, 1e-4);
  BudgetLedger policy(1.0, 1e-4, AccountingPolicy::kSequential);
  EXPECT_EQ(plain.policy(), AccountingPolicy::kSequential);
  for (int i = 0; i < 5; ++i) {
    plain.Charge(0.2, 1e-5, "slice");
    policy.Charge(0.2, 1e-5, "slice");
  }
  EXPECT_EQ(plain.epsilon_spent(), policy.epsilon_spent());
  EXPECT_EQ(plain.delta_spent(), policy.delta_spent());
  EXPECT_EQ(plain.WouldExceed(0.2, 0.0), policy.WouldExceed(0.2, 0.0));
  // AccountedGuarantee under kSequential is the naive totals, target ignored.
  const BudgetCharge g = policy.AccountedGuarantee(1e-9);
  EXPECT_EQ(g.epsilon, policy.epsilon_spent());
  EXPECT_EQ(g.delta, policy.delta_spent());
}

TEST(PolicyLedgerTest, NonSequentialPoliciesRequireDeltaHeadroom) {
  EXPECT_THROW(BudgetLedger(1.0, 0.0, AccountingPolicy::kAdvanced),
               std::invalid_argument);
  EXPECT_THROW(BudgetLedger(1.0, 0.0, AccountingPolicy::kRdp),
               std::invalid_argument);
  EXPECT_NO_THROW(BudgetLedger(1.0, 0.0, AccountingPolicy::kSequential));
  EXPECT_NO_THROW(BudgetLedger(1.0, 1e-4, AccountingPolicy::kRdp));
}

TEST(PolicyLedgerTest, RdpLedgerAdmitsMoreGaussianReleasesThanSequential) {
  const double eps_cap = 5.0;
  const double delta_cap = 1e-2;
  const int sequential = ReleasesUntilExhaustion(AccountingPolicy::kSequential,
                                                 eps_cap, delta_cap, 0.9, 1e-5);
  const int rdp = ReleasesUntilExhaustion(AccountingPolicy::kRdp, eps_cap,
                                          delta_cap, 0.9, 1e-5);
  EXPECT_EQ(sequential, 5);  // floor(5.0 / 0.9)
  EXPECT_GT(rdp, sequential);
}

TEST(PolicyLedgerTest, RdpLedgerStillExhaustsEventually) {
  const int rdp = ReleasesUntilExhaustion(AccountingPolicy::kRdp, 5.0, 1e-2,
                                          0.9, 1e-5);
  EXPECT_LT(rdp, 100000) << "the RDP curve grows linearly in k at fixed "
                            "order, so exhaustion must terminate the loop";
}

TEST(PolicyLedgerTest, AdvancedLedgerAdmitsMoreSmallChargesThanSequential) {
  const int sequential = ReleasesUntilExhaustion(
      AccountingPolicy::kSequential, 2.0, 1e-2, 0.02, 1e-7);
  const int advanced = ReleasesUntilExhaustion(AccountingPolicy::kAdvanced,
                                               2.0, 1e-2, 0.02, 1e-7);
  EXPECT_GT(advanced, sequential);
}

TEST(PolicyLedgerTest, DeniedTryChargeLeavesNonSequentialLedgerUntouched) {
  BudgetLedger ledger(1.0, 1e-2, AccountingPolicy::kRdp);
  ASSERT_TRUE(ledger.TryCharge(GaussianReleaseEvent(0.9, 1e-5), "first"));
  const double spent = ledger.epsilon_spent();
  const double accounted = ledger.AccountedSpend().epsilon;
  // A charge far past the ε cap must be denied without mutating anything.
  MechanismEvent big = GaussianReleaseEvent(0.9, 1e-5);
  big.count = 1000;
  EXPECT_FALSE(ledger.TryCharge(big, "overrun"));
  EXPECT_EQ(ledger.epsilon_spent(), spent);
  EXPECT_EQ(ledger.AccountedSpend().epsilon, accounted);
  EXPECT_EQ(ledger.num_charges(), 1u);
  EXPECT_EQ(ledger.history().size(), 1u);
}

TEST(PolicyLedgerTest, ChargeThrowsBudgetExhaustedUnderRdpToo) {
  BudgetLedger ledger(1.0, 1e-2, AccountingPolicy::kRdp);
  MechanismEvent big = GaussianReleaseEvent(0.9, 1e-5);
  big.count = 1000;
  EXPECT_THROW(ledger.Charge(big, "too much"),
               gdp::common::BudgetExhaustedError);
  EXPECT_EQ(ledger.num_charges(), 0u);
}

TEST(PolicyLedgerTest, WouldExceedAllMatchesChargingTheBatch) {
  const std::vector<MechanismEvent> batch(8, GaussianReleaseEvent(0.9, 1e-5));
  BudgetLedger probe(3.0, 1e-2, AccountingPolicy::kRdp);
  const bool predicted = !probe.WouldExceedAll(batch);
  BudgetLedger commit(3.0, 1e-2, AccountingPolicy::kRdp);
  bool all_landed = true;
  for (const MechanismEvent& event : batch) {
    all_landed = all_landed && commit.TryCharge(event, "point");
  }
  EXPECT_EQ(predicted, all_landed)
      << "the batch pre-check must agree with charging point by point";
}

TEST(PolicyLedgerTest, AuditReportShowsPolicyAndTightenedTotals) {
  BudgetLedger ledger(10.0, 1e-2, AccountingPolicy::kRdp);
  for (int i = 0; i < 4; ++i) {
    ledger.Charge(GaussianReleaseEvent(0.9, 1e-5), "release");
  }
  const std::string report = ledger.AuditReport();
  EXPECT_NE(report.find("accounting=rdp"), std::string::npos);
  EXPECT_NE(report.find("rdp-accounted"), std::string::npos);
  EXPECT_NE(report.find("naive"), std::string::npos);
}

TEST(PolicyLedgerTest, CopyPreservesAccountantState) {
  BudgetLedger ledger(10.0, 1e-2, AccountingPolicy::kRdp);
  ledger.Charge(GaussianReleaseEvent(0.9, 1e-5), "release");
  const BudgetLedger copy = ledger;
  EXPECT_EQ(copy.policy(), AccountingPolicy::kRdp);
  EXPECT_DOUBLE_EQ(copy.AccountedGuarantee(1e-6).epsilon,
                   ledger.AccountedGuarantee(1e-6).epsilon);
  EXPECT_EQ(copy.num_charges(), 1u);
}

// ---------- the property pin ----------

// RDP cumulative ε <= sequential Σε for k >= 2 Gaussian mechanisms, across
// an (m, k, δ) grid.  The sequential claim prices each mechanism at the
// TIGHT per-mechanism ε(δ) from the analytic Gaussian curve, so the
// comparison is against the strongest version of the naive ledger.
TEST(RdpVsSequentialPropertyTest, RdpEpsilonAtMostSequentialSumOnGrid) {
  for (const double m : {2.0, 5.0, 10.0}) {
    for (const int k : {2, 4, 8, 16}) {
      for (const double delta : {1e-5, 1e-6, 1e-7}) {
        // Tight per-mechanism epsilon at this δ: invert the Balle–Wang curve
        // by bisection (δ(ε) is decreasing in ε).
        double lo = 1e-6;
        double hi = 50.0;
        for (int it = 0; it < 100; ++it) {
          const double mid = 0.5 * (lo + hi);
          if (GaussianDeltaForSigma(m, Epsilon(mid), L2Sensitivity(1.0)) >
              delta) {
            lo = mid;
          } else {
            hi = mid;
          }
        }
        const double per_mechanism_eps = hi;
        const double sequential_sum = per_mechanism_eps * k;
        const double rdp_eps = RdpGaussianComposition(m, k, Delta(delta));
        EXPECT_LE(rdp_eps, sequential_sum)
            << "m=" << m << " k=" << k << " delta=" << delta;
        // And strictly below once several mechanisms compose — the whole
        // point of the policy (allow a hair of slack at tiny k).
        if (k >= 4) {
          EXPECT_LT(rdp_eps, sequential_sum * 0.95)
              << "m=" << m << " k=" << k << " delta=" << delta;
        }
      }
    }
  }
}

}  // namespace
}  // namespace gdp::dp
