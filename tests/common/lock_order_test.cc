#include "common/lock_order.h"

#include <mutex>
#include <thread>

#include <gtest/gtest.h>

#include "common/sync.h"

namespace aqp {
namespace sync {
namespace {

// The detector's default follows the build mode: compiled in under
// Debug, compiled out (zero cost, no id field) under NDEBUG. This
// guard pins the default so a CMake change cannot silently ship the
// detector into Release builds — or drop it from Debug ones.
TEST(LockOrderConfigTest, DefaultFollowsBuildMode) {
#ifdef NDEBUG
  EXPECT_FALSE(lock_order::kEnabled);
#else
  EXPECT_TRUE(lock_order::kEnabled);
#endif
}

#if AQP_LOCK_ORDER

TEST(LockOrderTest, ConsistentOrderAcrossThreadsIsSilent) {
  const size_t edges_before = lock_order::EdgeCountForTest();
  {
    Mutex a("lock_order_test.consistent.a");
    Mutex b("lock_order_test.consistent.b");
    auto work = [&] {
      for (int i = 0; i < 100; ++i) {
        MutexLock lock_a(&a);
        MutexLock lock_b(&b);
      }
    };
    std::thread t1(work);
    std::thread t2(work);
    t1.join();
    t2.join();
    // One a->b edge, recorded once and then proven-safe thereafter.
    EXPECT_EQ(lock_order::EdgeCountForTest(), edges_before + 1);
  }
  // Destruction unregisters both locks and drops their edges.
  EXPECT_EQ(lock_order::EdgeCountForTest(), edges_before);
  EXPECT_EQ(lock_order::HeldCountForTest(), 0u);
}

TEST(LockOrderTest, NestedScopesTrackHeldStack) {
  Mutex a("lock_order_test.nested.a");
  Mutex b("lock_order_test.nested.b");
  EXPECT_EQ(lock_order::HeldCountForTest(), 0u);
  {
    MutexLock lock_a(&a);
    EXPECT_EQ(lock_order::HeldCountForTest(), 1u);
    {
      MutexLock lock_b(&b);
      EXPECT_EQ(lock_order::HeldCountForTest(), 2u);
    }
    EXPECT_EQ(lock_order::HeldCountForTest(), 1u);
  }
  EXPECT_EQ(lock_order::HeldCountForTest(), 0u);
}

TEST(LockOrderTest, OutOfOrderReleaseIsSilent) {
  Mutex a("lock_order_test.ooo.a");
  Mutex b("lock_order_test.ooo.b");
  a.Lock();
  b.Lock();
  a.Unlock();  // released before b: legal, just unusual
  EXPECT_EQ(lock_order::HeldCountForTest(), 1u);
  b.Unlock();
  EXPECT_EQ(lock_order::HeldCountForTest(), 0u);
}

size_t held_at_thread_exit = 0;

/// Takes `mu` from its destructor, which runs at thread exit.
struct LocksAtThreadExit {
  Mutex* mu = nullptr;
  ~LocksAtThreadExit() {
    if (mu == nullptr) return;
    MutexLock lock(mu);
    held_at_thread_exit = lock_order::HeldCountForTest();
  }
};

// A thread-local destructor may take a lock while its thread exits.
// This one is constructed before the thread's first lock, so it is
// destroyed after anything the detector made at that lock.
TEST(LockOrderTest, LockTakenByThreadLocalDestructorAtThreadExit) {
  Mutex mu("lock_order_test.tls_exit");
  held_at_thread_exit = 0;
  std::thread t([&mu] {
    thread_local LocksAtThreadExit guard;
    guard.mu = &mu;
    MutexLock lock(&mu);
  });
  t.join();
  EXPECT_EQ(held_at_thread_exit, 1u);
  EXPECT_EQ(lock_order::HeldCountForTest(), 0u);
}

TEST(LockOrderTest, TryLockAgainstRecordedOrderIsSilent) {
  Mutex a("lock_order_test.try.a");
  Mutex b("lock_order_test.try.b");
  {
    MutexLock lock_a(&a);
    MutexLock lock_b(&b);  // records a -> b
  }
  // Taking them in the opposite order via TryLock is the sanctioned
  // escape: it can fail but never block, so it cannot deadlock.
  MutexLock lock_b(&b);
  ASSERT_TRUE(a.TryLock());
  a.Unlock();
}

TEST(LockOrderDeathTest, TwoThreadInversionAborts) {
  // Threads are spawned inside the death statement, so the "threadsafe"
  // style (re-exec the binary, then fork) keeps the child sane.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex a("lock_order_test.inversion.a");
        Mutex b("lock_order_test.inversion.b");
        // Thread 1 establishes a -> b and fully exits before thread 2
        // starts, so no schedule actually deadlocks — the detector must
        // still flag the *potential* from the accumulated graph.
        std::thread t([&] {
          MutexLock lock_a(&a);
          MutexLock lock_b(&b);
        });
        t.join();
        MutexLock lock_b(&b);
        MutexLock lock_a(&a);  // b -> a closes the cycle: abort
      },
      "lock order inversion");
}

TEST(LockOrderDeathTest, RecursiveAcquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex a("lock_order_test.recursive.a");
        a.Lock();
        a.Lock();  // std::mutex self-deadlock: abort with a report
      },
      "recursive acquisition");
}

#else  // !AQP_LOCK_ORDER

// Compiled-out guard: with the detector off, sync::Mutex must carry no
// bookkeeping at all — same size as the raw primitive it wraps — and
// the hook functions must not even be declared (this TU would fail to
// compile if a stray call site survived the #if).
static_assert(sizeof(Mutex) == sizeof(std::mutex),
              "Release sync::Mutex must not carry a lock-order id");

TEST(LockOrderTest, DetectorCompiledOut) {
  EXPECT_FALSE(lock_order::kEnabled);
}

#endif  // AQP_LOCK_ORDER

}  // namespace
}  // namespace sync
}  // namespace aqp
