#ifndef C2MN_COMMON_SYNC_H_
#define C2MN_COMMON_SYNC_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

/// \file Annotated synchronization primitives: the one way this codebase
/// takes a lock.
///
/// Two enforcement layers ride on these wrappers, so that the locking
/// discipline is provable instead of being a TSan lottery ticket:
///
///  1. **Clang Thread Safety Analysis** (compile time).  Every wrapper
///     carries capability attributes, every guarded field is declared
///     with C2MN_GUARDED_BY, and every lock-requiring method with
///     C2MN_REQUIRES / C2MN_EXCLUDES.  Under clang the CI builds with
///     `-Werror=thread-safety`, so an unlocked read of a guarded field
///     or a method called without its declared lock is a build error.
///     Under GCC the attributes expand to nothing (zero cost, zero
///     behavior change).
///
///  2. **Runtime lock-rank checking** (every build with
///     C2MN_LOCK_ORDER_CHECK, the default).  Each Mutex/SharedMutex is
///     constructed with a LockRank; acquisitions must be strictly
///     rank-increasing per thread.  A violation aborts immediately with
///     both acquisition sites — on the *first* execution of the inverted
///     path, in any single-threaded unit test, regardless of
///     interleaving.  This is the cross-object complement of the static
///     analysis: clang cannot express "any Subscription::mu before any
///     AnalyticsEngine::Shard::mu", the rank lattice can.
///
/// The rank lattice (see LockRank below) encodes every nesting the
/// repo's subsystems are allowed to form.  Adding a lock means adding a
/// rank here first; an undeclared lock edge cannot merge, because the
/// checker aborts the first test that exercises it.

// --------------------------------------------------------------------------
// Clang Thread Safety Analysis attribute macros (no-op on non-clang).
// Names and semantics follow the clang documentation; everything is
// namespaced C2MN_ so a future vendored library cannot collide.
// --------------------------------------------------------------------------

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define C2MN_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef C2MN_THREAD_ANNOTATION
#define C2MN_THREAD_ANNOTATION(x)
#endif

/// Declares a type to be a capability ("mutex" in diagnostics).
#define C2MN_CAPABILITY(x) C2MN_THREAD_ANNOTATION(capability(x))
/// Declares a scoped (RAII) lock type.
#define C2MN_SCOPED_CAPABILITY C2MN_THREAD_ANNOTATION(scoped_lockable)
/// Field may only be read/written while holding the given capability.
#define C2MN_GUARDED_BY(x) C2MN_THREAD_ANNOTATION(guarded_by(x))
/// Pointed-to data may only be accessed while holding the capability.
#define C2MN_PT_GUARDED_BY(x) C2MN_THREAD_ANNOTATION(pt_guarded_by(x))
/// This capability must be acquired before the listed ones.
#define C2MN_ACQUIRED_BEFORE(...) \
  C2MN_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
/// This capability must be acquired after the listed ones.
#define C2MN_ACQUIRED_AFTER(...) \
  C2MN_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
/// Caller must hold the capability (exclusively) to call this function.
#define C2MN_REQUIRES(...) \
  C2MN_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Caller must hold the capability (at least shared).
#define C2MN_REQUIRES_SHARED(...) \
  C2MN_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
/// Function acquires the capability (exclusively); caller must not hold it.
#define C2MN_ACQUIRE(...) \
  C2MN_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define C2MN_ACQUIRE_SHARED(...) \
  C2MN_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
/// Function releases the capability; caller must hold it.
#define C2MN_RELEASE(...) \
  C2MN_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define C2MN_RELEASE_SHARED(...) \
  C2MN_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
/// Function acquires the capability iff it returns the given value.
#define C2MN_TRY_ACQUIRE(...) \
  C2MN_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
/// Caller must NOT hold the capability (deadlock prevention for
/// self-locking methods).
#define C2MN_EXCLUDES(...) C2MN_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Function returns a reference to the given capability.
#define C2MN_RETURN_CAPABILITY(x) C2MN_THREAD_ANNOTATION(lock_returned(x))
/// Escape hatch; every use needs a justification comment.
#define C2MN_NO_THREAD_SAFETY_ANALYSIS \
  C2MN_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace c2mn {

// --------------------------------------------------------------------------
// Lock ranks: the global acquisition order, lowest first.
// --------------------------------------------------------------------------

/// Every ranked lock acquisition must have a rank strictly greater than
/// any rank the thread already holds (same-rank instances may not be
/// held together either: nothing in the repo legitimately holds two
/// shard locks at once — cross-shard folds lock one shard at a time).
///
/// The lattice encodes, among others, the PR-5 standing-query order
/// (subscribers list -> one subscription -> one analytics shard; the
/// inversion of the last two was the TSan-caught deadlock) and keeps the
/// observability leaves below everything that can call out to user
/// code.  kUnranked locks (the default) skip order checking but
/// still detect same-mutex recursive acquisition.
enum class LockRank : int {
  kUnranked = 0,

  // AnalyticsEngine standing queries: list -> subscription -> shard.
  // A subscription's delta callback runs under kAnalyticsSubscription
  // and may legitimately poll/snapshot (kAnalyticsShard) or read service
  // stats (kServiceRegistry, kServiceShardStats), so all of those rank
  // above it.  Calling Subscribe/Unsubscribe from a callback is the
  // self-deadlock the ranks forbid.
  kAnalyticsSubscribers = 100,
  kAnalyticsSubscription = 200,
  kAnalyticsShard = 300,

  // AnnotationService control plane and per-shard stats.
  kServiceRegistry = 400,
  kServiceShardStats = 500,
  kServiceQueue = 600,
  kServiceExport = 650,
  // Durable-state layer: the checkpoint thread's wakeup mutex (held only
  // across its interruptible sleep, like kServiceExport), the flush
  // hand-off queue between shard workers and the background log writer,
  // and the StorageManager's write-ahead-log mutex.  The flush queue
  // ranks below the log mutex so the writer could legally nest them,
  // though it never does (it pops under one, writes under the other).
  // The log mutex is a leaf on the write path — the writer thread holds
  // nothing else — and the checkpoint cycle interleaves it with the
  // analytics shard locks strictly sequentially (rotate, release, then
  // snapshot one shard at a time), so no nesting with kAnalyticsShard
  // ever forms.
  kServiceCheckpoint = 660,
  kStorageFlush = 670,
  kStorageLog = 680,
  kServiceDrain = 700,

  // Observability leaves: safe to take from anywhere, must never take
  // anything above themselves.
  kObsSlowOps = 800,
  kObsRegistry = 900,
};

namespace sync_internal {

/// Test hook: replaces abort-on-violation with a callback receiving the
/// formatted message.  Not for production use — after a violation the
/// held-lock stack is left as-is and the offending lock IS acquired.
using ViolationHandler = void (*)(const char* message);
ViolationHandler SetViolationHandlerForTest(ViolationHandler handler);

#if defined(C2MN_LOCK_ORDER_CHECK)
/// Called with the would-be acquisition before the underlying lock call;
/// aborts (or invokes the test handler) on a rank violation, recording
/// the site for the eventual error message.  Allocation-free: the
/// per-thread stack is a fixed array.
void NoteAcquire(const void* mu, LockRank rank, const char* name,
                 const char* file, int line);
void NoteRelease(const void* mu);
#else
inline void NoteAcquire(const void*, LockRank, const char*, const char*,
                        int) {}
inline void NoteRelease(const void*) {}
#endif

}  // namespace sync_internal

// --------------------------------------------------------------------------
// Mutex / SharedMutex
// --------------------------------------------------------------------------

/// std::mutex with a capability annotation and a lock rank.  All new
/// locks take the (rank, name) constructor; the name appears in
/// rank-violation aborts next to both acquisition sites.
class C2MN_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(LockRank rank, const char* name) : rank_(rank), name_(name) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock(const char* file = __builtin_FILE(),
            int line = __builtin_LINE()) C2MN_ACQUIRE() {
    sync_internal::NoteAcquire(this, rank_, name_, file, line);
    mu_.lock();
  }

  void Unlock() C2MN_RELEASE() {
    mu_.unlock();
    sync_internal::NoteRelease(this);
  }

  bool TryLock(const char* file = __builtin_FILE(),
               int line = __builtin_LINE()) C2MN_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    // A successful try_lock cannot deadlock, but a rank violation here
    // is still an undeclared lock edge — check it like a plain Lock.
    sync_internal::NoteAcquire(this, rank_, name_, file, line);
    return true;
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  friend class CondVar;
  std::mutex mu_;
  const LockRank rank_ = LockRank::kUnranked;
  const char* const name_ = "mutex";
};

/// std::shared_mutex with the same annotations; shared acquisitions
/// participate in rank checking exactly like exclusive ones.
class C2MN_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(LockRank rank, const char* name) : rank_(rank), name_(name) {}

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock(const char* file = __builtin_FILE(),
            int line = __builtin_LINE()) C2MN_ACQUIRE() {
    sync_internal::NoteAcquire(this, rank_, name_, file, line);
    mu_.lock();
  }

  void Unlock() C2MN_RELEASE() {
    mu_.unlock();
    sync_internal::NoteRelease(this);
  }

  void LockShared(const char* file = __builtin_FILE(),
                  int line = __builtin_LINE()) C2MN_ACQUIRE_SHARED() {
    sync_internal::NoteAcquire(this, rank_, name_, file, line);
    mu_.lock_shared();
  }

  void UnlockShared() C2MN_RELEASE_SHARED() {
    mu_.unlock_shared();
    sync_internal::NoteRelease(this);
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::shared_mutex mu_;
  const LockRank rank_ = LockRank::kUnranked;
  const char* const name_ = "shared_mutex";
};

// --------------------------------------------------------------------------
// Scoped lockers
// --------------------------------------------------------------------------

/// RAII exclusive lock on a Mutex (the lock_guard replacement).
class C2MN_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu, const char* file = __builtin_FILE(),
                     int line = __builtin_LINE()) C2MN_ACQUIRE(mu)
      : mu_(mu) {
    mu_->Lock(file, line);
  }

  ~MutexLock() C2MN_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// RAII shared (reader) lock on a SharedMutex.
class C2MN_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu, const char* file = __builtin_FILE(),
                           int line = __builtin_LINE()) C2MN_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_->LockShared(file, line);
  }

  ~ReaderMutexLock() C2MN_RELEASE() { mu_->UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// RAII exclusive (writer) lock on a SharedMutex.
class C2MN_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu, const char* file = __builtin_FILE(),
                           int line = __builtin_LINE()) C2MN_ACQUIRE(mu)
      : mu_(mu) {
    mu_->Lock(file, line);
  }

  ~WriterMutexLock() C2MN_RELEASE() { mu_->Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

// --------------------------------------------------------------------------
// CondVar
// --------------------------------------------------------------------------

/// Condition variable paired with the annotated Mutex.  Waits go through
/// the wrapper's Lock/Unlock, so the rank checker's held-lock stack
/// stays exact across the block (the mutex is popped while blocked and
/// rank-checked again on wake).
///
/// There is deliberately no predicate overload: the TSA cannot see a
/// lock held across a lambda boundary, so waits are written as explicit
/// loops whose guarded reads the analysis can verify:
///
///   MutexLock lock(&mu_);
///   while (!ready_) cv_.Wait(&mu_);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `*mu`, blocks, and reacquires it before
  /// returning.  Spurious wakeups happen; always wait in a loop.
  void Wait(Mutex* mu, const char* file = __builtin_FILE(),
            int line = __builtin_LINE()) C2MN_REQUIRES(*mu) {
    WaitAdapter adapter{mu, file, line};
    cv_.wait(adapter);
  }

  /// Like Wait, but returns false once `deadline` passes.
  template <typename Clock, typename Duration>
  bool WaitUntil(Mutex* mu,
                 const std::chrono::time_point<Clock, Duration>& deadline,
                 const char* file = __builtin_FILE(),
                 int line = __builtin_LINE()) C2MN_REQUIRES(*mu) {
    WaitAdapter adapter{mu, file, line};
    return cv_.wait_until(adapter, deadline) == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  /// BasicLockable view of a held Mutex for condition_variable_any: the
  /// cv calls unlock() to block and lock() on wake, and routing those
  /// through the wrapper keeps the checker stack truthful.
  struct WaitAdapter {
    Mutex* mu;
    const char* file;
    int line;
    void lock() C2MN_NO_THREAD_SAFETY_ANALYSIS { mu->Lock(file, line); }
    void unlock() C2MN_NO_THREAD_SAFETY_ANALYSIS { mu->Unlock(); }
  };

  std::condition_variable_any cv_;
};

}  // namespace c2mn

#endif  // C2MN_COMMON_SYNC_H_
