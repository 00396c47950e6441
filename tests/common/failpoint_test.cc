#include "common/failpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/result.h"

namespace aqp {
namespace {

// A function with a failpoint site, as production code has them.
Status GuardedStep() {
  AQP_FAILPOINT(fail::site::kScanNext);
  return Status::OK();
}

Result<int> GuardedResultStep() {
  AQP_FAILPOINT(fail::site::kScanNext);
  return 42;
}

void GuardedVoidStep() { AQP_FAILPOINT_THROW(fail::site::kStoreAdd); }

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fail::kCompiledIn) {
      GTEST_SKIP() << "failpoints compiled out (AQP_ENABLE_FAILPOINTS off)";
    }
    fail::DisarmAll();
  }
  void TearDown() override { fail::DisarmAll(); }
};

TEST_F(FailpointTest, UnarmedSiteIsANoop) {
  EXPECT_FALSE(fail::AnyArmed());
  EXPECT_TRUE(GuardedStep().ok());
  EXPECT_NO_THROW(GuardedVoidStep());
}

TEST_F(FailpointTest, OnceFiresExactlyOnce) {
  fail::Arm(fail::site::kScanNext,
            fail::Policy::Once(Status::IOError("injected fault")));
  EXPECT_TRUE(fail::AnyArmed());
  Status first = GuardedStep();
  EXPECT_TRUE(first.IsIOError());
  EXPECT_TRUE(GuardedStep().ok());
  EXPECT_TRUE(GuardedStep().ok());
  EXPECT_EQ(fail::Hits(fail::site::kScanNext), 3u);
  EXPECT_EQ(fail::Fires(fail::site::kScanNext), 1u);
}

TEST_F(FailpointTest, FiredStatusCarriesSiteBreadcrumb) {
  fail::Arm(fail::site::kScanNext,
            fail::Policy::Once(Status::IOError("injected fault")));
  Status s = GuardedStep();
  EXPECT_EQ(s.message(), "site=scan.next: injected fault");
}

TEST_F(FailpointTest, NthHitFiresOnExactlyTheNthEvaluation) {
  fail::Arm(fail::site::kScanNext,
            fail::Policy::OnNthHit(3, Status::Unavailable("blip")));
  EXPECT_TRUE(GuardedStep().ok());
  EXPECT_TRUE(GuardedStep().ok());
  EXPECT_TRUE(GuardedStep().IsUnavailable());
  EXPECT_TRUE(GuardedStep().ok());
  EXPECT_EQ(fail::Fires(fail::site::kScanNext), 1u);
}

TEST_F(FailpointTest, WorksInResultReturningFunctions) {
  fail::Arm(fail::site::kScanNext,
            fail::Policy::Once(Status::IOError("injected fault")));
  Result<int> r = GuardedResultStep();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError());
  Result<int> again = GuardedResultStep();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 42);
}

TEST_F(FailpointTest, ThrowingPolicyThrowsInjectedFault) {
  fail::Arm(fail::site::kScanNext,
            fail::Policy::Once(Status::Internal("boom"), /*do_throw=*/true));
  try {
    (void)GuardedStep();
    FAIL() << "expected InjectedFault";
  } catch (const fail::InjectedFault& e) {
    EXPECT_TRUE(e.status().IsInternal());
  }
}

TEST_F(FailpointTest, VoidSiteAlwaysThrowsWhenFired) {
  // Even a returning policy must throw at a void-context site.
  fail::Arm(fail::site::kStoreAdd,
            fail::Policy::Once(Status::IOError("no space")));
  EXPECT_THROW(GuardedVoidStep(), fail::InjectedFault);
  EXPECT_NO_THROW(GuardedVoidStep());
}

TEST_F(FailpointTest, ProbabilityIsDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    fail::Arm(fail::site::kScanNext,
              fail::Policy::WithProbability(0.3, seed,
                                            Status::IOError("injected")));
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(!GuardedStep().ok());
    fail::Disarm(fail::site::kScanNext);
    return fired;
  };
  const std::vector<bool> a = run(7);
  const std::vector<bool> b = run(7);
  const std::vector<bool> c = run(8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // astronomically unlikely to collide over 64 draws
  EXPECT_GT(std::count(a.begin(), a.end(), true), 0);
  EXPECT_LT(std::count(a.begin(), a.end(), true), 64);
}

TEST_F(FailpointTest, ProbabilityZeroNeverFiresOneAlwaysFires) {
  fail::Arm(fail::site::kScanNext,
            fail::Policy::WithProbability(0.0, 1, Status::IOError("x")));
  for (int i = 0; i < 32; ++i) EXPECT_TRUE(GuardedStep().ok());
  fail::Arm(fail::site::kScanNext,
            fail::Policy::WithProbability(1.0, 1, Status::IOError("x")));
  for (int i = 0; i < 32; ++i) EXPECT_FALSE(GuardedStep().ok());
}

TEST_F(FailpointTest, RearmResetsCounters) {
  fail::Arm(fail::site::kScanNext,
            fail::Policy::Once(Status::IOError("x")));
  (void)GuardedStep();
  EXPECT_EQ(fail::Hits(fail::site::kScanNext), 1u);
  fail::Arm(fail::site::kScanNext,
            fail::Policy::Once(Status::IOError("x")));
  EXPECT_EQ(fail::Hits(fail::site::kScanNext), 0u);
  EXPECT_EQ(fail::Fires(fail::site::kScanNext), 0u);
  EXPECT_FALSE(GuardedStep().ok());  // fresh Once fires again
}

TEST_F(FailpointTest, DisarmKeepsCountersForInspection) {
  fail::Arm(fail::site::kScanNext,
            fail::Policy::Once(Status::IOError("x")));
  (void)GuardedStep();
  EXPECT_TRUE(fail::Disarm(fail::site::kScanNext));
  EXPECT_FALSE(fail::Disarm(fail::site::kScanNext));
  EXPECT_EQ(fail::Hits(fail::site::kScanNext), 1u);
  EXPECT_EQ(fail::Fires(fail::site::kScanNext), 1u);
  EXPECT_FALSE(fail::AnyArmed());
  EXPECT_TRUE(GuardedStep().ok());
}

TEST_F(FailpointTest, ScopedFailpointDisarmsOnExit) {
  {
    fail::ScopedFailpoint guard(fail::site::kScanNext,
                                fail::Policy::Once(Status::IOError("x")));
    EXPECT_TRUE(fail::AnyArmed());
  }
  EXPECT_FALSE(fail::AnyArmed());
}

TEST_F(FailpointTest, KnownSitesEnumeratesEveryCanonicalSite) {
  const std::vector<std::string> sites = fail::KnownSites();
  EXPECT_EQ(sites.size(), 16u);
  for (const char* expected :
       {fail::site::kCsvOpen, fail::site::kCsvRead, fail::site::kScanNext,
        fail::site::kExchangeRoute, fail::site::kIngestPrefetch,
        fail::site::kExchangeMerge,
        fail::site::kShardPhaseA, fail::site::kShardPhaseB,
        fail::site::kPoolTask, fail::site::kStoreAdd,
        fail::site::kArenaAlloc, fail::site::kParallelOpen,
        fail::site::kServiceAdmit, fail::site::kServiceFinalize,
        fail::site::kBudgetCharge, fail::site::kWatchdogStall}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), std::string(expected)),
              sites.end())
        << expected << " missing from KnownSites()";
  }
}

TEST_F(FailpointTest, ArmingOneSiteDoesNotAffectOthers) {
  fail::Arm(fail::site::kCsvOpen, fail::Policy::Once(Status::IOError("x")));
  EXPECT_TRUE(GuardedStep().ok());
  EXPECT_NO_THROW(GuardedVoidStep());
  EXPECT_EQ(fail::Fires(fail::site::kCsvOpen), 0u);
}

}  // namespace
}  // namespace aqp
