#include "common/sync.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "analytics/analytics_engine.h"
#include "data/msemantics.h"

namespace c2mn {
namespace {

// The whole suite is about the runtime lock-rank checker; without it the
// death tests have nothing to observe.  C2MN_LOCK_CHECK is ON by
// default, so this only skips in deliberately stripped builds.
#if defined(C2MN_LOCK_ORDER_CHECK)

using sync_internal::SetViolationHandlerForTest;

/// Captures violation messages instead of aborting.  A plain function
/// pointer (the handler API allocates nothing), so the captured text
/// lives in a global.
std::string* g_captured_message = nullptr;

void CaptureViolation(const char* message) {
  if (g_captured_message != nullptr) *g_captured_message = message;
}

/// RAII: installs the capture handler, restores the previous handler
/// (normally abort) on scope exit so a failing test cannot leak it into
/// the rest of the suite.
class ScopedViolationCapture {
 public:
  explicit ScopedViolationCapture(std::string* out)
      : previous_(SetViolationHandlerForTest(&CaptureViolation)) {
    g_captured_message = out;
  }
  ~ScopedViolationCapture() {
    SetViolationHandlerForTest(previous_);
    g_captured_message = nullptr;
  }

 private:
  sync_internal::ViolationHandler previous_;
};

TEST(SyncLockRankDeathTest, ShardThenSubscribersInversionDies) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // The PR-5 standing-query deadlock, distilled: an analytics shard lock
  // is held while the subscribers list is acquired.  TSan only catches
  // this when two threads actually interleave; the rank checker kills it
  // on the first single-threaded execution.
  Mutex shard_mu(LockRank::kAnalyticsShard, "AnalyticsEngine::Shard::mu");
  SharedMutex subs_mu(LockRank::kAnalyticsSubscribers,
                      "AnalyticsEngine::subs_mu_");
  EXPECT_DEATH(
      {
        MutexLock shard_lock(&shard_mu);
        ReaderMutexLock subs_lock(&subs_mu);
      },
      // The abort names the inverted edge and both acquisition sites.
      "rank not increasing.*AnalyticsEngine::subs_mu_.*sync_test.*"
      "while holding AnalyticsEngine::Shard::mu.*sync_test");
}

TEST(SyncLockRankDeathTest, SameRankPairDies) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // Two locks of equal rank may not nest either: nothing in the repo
  // legitimately holds two shard locks at once.
  Mutex a(LockRank::kAnalyticsShard, "shard_a");
  Mutex b(LockRank::kAnalyticsShard, "shard_b");
  EXPECT_DEATH(
      {
        MutexLock lock_a(&a);
        MutexLock lock_b(&b);
      },
      "rank not increasing.*shard_b.*while holding shard_a");
}

TEST(SyncLockRankDeathTest, RecursiveAcquisitionDies) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // Recursive std::mutex locking is UB (in practice a hang); the checker
  // turns it into an immediate abort.  Must be a death test: in
  // handler-capture mode the second Lock() would really deadlock.
  Mutex mu(LockRank::kServiceQueue, "queue_mu");
  EXPECT_DEATH(
      {
        MutexLock outer(&mu);
        mu.Lock();
      },
      "recursive acquisition.*queue_mu.*while holding queue_mu");
}

TEST(SyncLockRankTest, HandlerCapturesBothAcquisitionSites) {
  std::string message;
  ScopedViolationCapture capture(&message);
  Mutex high(LockRank::kObsRegistry, "registry_mu");
  Mutex low(LockRank::kServiceRegistry, "service_registry_mu");
  high.Lock();
  low.Lock();  // Violation: 400 after 900.  Still acquired (see header).
  low.Unlock();
  high.Unlock();
  EXPECT_NE(message.find("rank not increasing"), std::string::npos) << message;
  EXPECT_NE(message.find("service_registry_mu (rank 400)"), std::string::npos)
      << message;
  EXPECT_NE(message.find("registry_mu (rank 900)"), std::string::npos)
      << message;
  // Both sites point into this file.
  EXPECT_NE(message.find("sync_test.cc"), std::string::npos) << message;
}

TEST(SyncLockRankTest, TryLockParticipatesInRankChecking) {
  std::string message;
  ScopedViolationCapture capture(&message);
  Mutex high(LockRank::kObsRegistry, "registry_mu");
  Mutex low(LockRank::kObsSlowOps, "slow_mu");
  high.Lock();
  ASSERT_TRUE(low.TryLock());  // Succeeds but reports the undeclared edge.
  low.Unlock();
  high.Unlock();
  EXPECT_NE(message.find("rank not increasing"), std::string::npos) << message;
}

TEST(SyncLockRankTest, IncreasingChainIsClean) {
  // The full declared lattice in one acquisition chain; any false
  // positive here would abort the test binary.
  SharedMutex subs(LockRank::kAnalyticsSubscribers, "subs");
  Mutex sub(LockRank::kAnalyticsSubscription, "sub");
  Mutex shard(LockRank::kAnalyticsShard, "shard");
  Mutex registry(LockRank::kServiceRegistry, "registry");
  Mutex stats(LockRank::kServiceShardStats, "stats");
  Mutex queue(LockRank::kServiceQueue, "queue");
  Mutex obs(LockRank::kObsRegistry, "obs");
  ReaderMutexLock l0(&subs);
  MutexLock l1(&sub);
  MutexLock l2(&shard);
  MutexLock l3(&registry);
  MutexLock l4(&stats);
  MutexLock l5(&queue);
  MutexLock l6(&obs);
}

TEST(SyncLockRankTest, ReleaseUnwindsTheRankFloor) {
  // Dropping a high-rank lock must let the thread start a fresh chain at
  // a low rank — the checker tracks held locks, not a high-water mark.
  Mutex high(LockRank::kObsRegistry, "high");
  Mutex low(LockRank::kAnalyticsSubscribers, "low");
  { MutexLock lock(&high); }
  { MutexLock lock(&low); }
  { MutexLock lock(&high); }
}

TEST(SyncLockRankTest, UnrankedLocksSkipOrderChecking) {
  // kUnranked (the default ctor) opts out of ordering — in any nesting
  // direction — but still catches recursive self-acquisition.  The second
  // direction nests under a different mutex of the same rank: the rank
  // checker sees the same unranked -> kServiceDrain nesting, while
  // ThreadSanitizer's lock graph (which tracks mutexes, not ranks) gets no
  // cycle to report as an inversion.  Static storage keeps these edges
  // from outliving their mutexes: std::mutex destruction is invisible to
  // ThreadSanitizer, so a later test's stack mutex at a reused address
  // would inherit them and close a cycle.
  static Mutex unranked;
  static Mutex ranked(LockRank::kServiceDrain, "drain");
  static Mutex ranked_peer(LockRank::kServiceDrain, "drain_peer");
  {
    MutexLock l1(&ranked);
    MutexLock l2(&unranked);
  }
  {
    MutexLock l1(&unranked);
    MutexLock l2(&ranked_peer);
  }
}

TEST(SyncCondVarTest, WaitKeepsHeldStackExact) {
  // A blocked Wait() releases the mutex through the wrapper, so (a) the
  // notifier can re-acquire the same ranked mutex without tripping the
  // checker, and (b) after wake the waiter's chain continues from the
  // reacquired rank — both would abort if the stack went stale.
  Mutex mu(LockRank::kServiceExport, "export_mu");
  CondVar cv;
  bool ready = false;
  std::thread waiter([&] {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(&mu);
    // Chain upward from the reacquired lock: proves it was re-recorded.
    Mutex leaf(LockRank::kObsSlowOps, "leaf");
    MutexLock leaf_lock(&leaf);
  });
  {
    // If the waiter's Wait() had left export_mu on its own stack this
    // acquisition would still be fine (stacks are per-thread); what this
    // exercises is the WaitAdapter's Lock/Unlock round trip under
    // contention with a real notifier.
    MutexLock lock(&mu);
    ready = true;
  }
  cv.NotifyAll();
  waiter.join();
}

TEST(SyncCondVarTest, WaitUntilTimesOutAndReacquires) {
  Mutex mu(LockRank::kServiceDrain, "drain_mu");
  CondVar cv;
  MutexLock lock(&mu);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  EXPECT_FALSE(cv.WaitUntil(&mu, deadline));
  // Still held after the timeout: a further ranked acquisition chains.
  Mutex leaf(LockRank::kObsRegistry, "leaf");
  MutexLock leaf_lock(&leaf);
}

/// The real subsystem under the checker: standing-query subscribe,
/// ingest-driven deltas, retention evictions, and a delta callback that
/// re-enters the engine (Snapshot takes every shard lock under the
/// subscription lock — the exact 200 -> 300 edge the lattice permits).
/// Any undeclared edge in the engine aborts this test on first run.
TEST(SyncEngineIntegrationTest, StandingQueryAndEvictionPathsRunClean) {
  AnalyticsEngine::Options options;
  options.num_shards = 2;
  options.bucket_seconds = 1.0;
  options.horizon_seconds = 2.0;  // Tiny horizon: every ingest ages data.
  AnalyticsEngine engine(options);

  std::atomic<int> deltas{0};
  StandingQuery query;
  query.kind = StandingQuery::Kind::kPopularRegions;
  query.spec.all_regions = true;
  query.spec.window = TimeWindow::All();
  query.k = 2;
  const int sub_id = engine.Subscribe(query, [&](const StandingQueryDelta&) {
    deltas.fetch_add(1, std::memory_order_relaxed);
    // Callback -> engine re-entry: subscription mutex held, shard locks
    // acquired inside.  Forbidden re-entry (Subscribe/Unsubscribe) would
    // be a recursive subs_mu_ acquisition the checker flags.
    (void)engine.Snapshot();
  });
  ASSERT_GT(sub_id, 0);
  EXPECT_EQ(deltas.load(), 1);  // Initial snapshot.

  MSemantics ms;
  ms.event = MobilityEvent::kStay;
  for (int i = 0; i < 40; ++i) {
    ms.region = static_cast<RegionId>(i % 3);
    ms.t_start = static_cast<double>(i);
    ms.t_end = static_cast<double>(i) + 0.5;  // Advancing time evicts.
    engine.Ingest(/*object_id=*/i % 4, ms);
  }
  engine.NoteSessionClosed(/*object_id=*/0);
  EXPECT_GT(deltas.load(), 1);
  EXPECT_TRUE(engine.Unsubscribe(sub_id));
  EXPECT_FALSE(engine.Unsubscribe(sub_id));
}

#else  // !C2MN_LOCK_ORDER_CHECK

TEST(SyncLockRankTest, CheckerCompiledOut) {
  GTEST_SKIP() << "built without C2MN_LOCK_ORDER_CHECK";
}

#endif  // C2MN_LOCK_ORDER_CHECK

}  // namespace
}  // namespace c2mn
