// Deterministic parallel execution substrate.
//
// The evaluation sweeps (Figs. 3-7, the ablations, the planner's
// (kappa, mu) grid search) are hundreds of fully independent
// deterministic simulations: every point owns its own net::Simulator
// and seeded Rng, so points may run concurrently without sharing any
// mutable state. This layer provides the minimal machinery for that:
// a fixed-size FIFO thread pool (no work stealing — tasks are grabbed
// from a single queue, results are committed in index order by the
// caller), so sweep output is bitwise identical to the sequential run
// regardless of thread count.
//
// The partitioned simulator's lockstep windows are a different shape:
// thousands of short rounds over the same few logical processes. They
// run on a Team, a persistent set of threads that each always run the
// same indices, released and collected through two futex-backed
// atomics per round instead of queued tasks.
//
// Parallelism is selected by the MCSS_THREADS environment variable
// (or set_threads()); MCSS_THREADS=1 is the exact legacy path — no
// pool or team is created and everything runs inline on the calling
// thread.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mcss::runtime {

/// Worker-thread count used by the parallel helpers: the set_threads()
/// override if any, else the MCSS_THREADS environment variable, else
/// std::thread::hardware_concurrency(). Always >= 1. The environment is
/// read once and cached.
[[nodiscard]] unsigned configured_threads() noexcept;

/// Programmatic override of MCSS_THREADS (tests, --threads flags).
/// Takes effect at the next parallel helper call, whenever it is made.
void set_threads(unsigned n) noexcept;

/// Fixed-size thread pool with a single FIFO task queue. Destruction
/// drains the queue and joins the workers.
class ThreadPool {
 public:
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; some worker runs it eventually.
  void submit(std::function<void()> task);

  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// True when the calling thread is a pool worker (any pool) or is
  /// running its share of a Team::run. The parallel helpers use this to
  /// run nested parallelism inline instead of deadlocking on their own
  /// pool or team.
  [[nodiscard]] static bool on_worker() noexcept;

  /// Process-wide pool, created lazily on first use with
  /// max(configured_threads(), hardware_concurrency()) workers, so a
  /// later, wider set_threads() still gets its width (up to the host's).
  /// Never touched (and never created) when configured_threads() == 1.
  [[nodiscard]] static ThreadPool& shared();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// A fixed team of `size()` members that runs one indexed job at a time
/// in lockstep. The calling thread of run() is member 0; the team owns
/// threads for members 1 .. size() - 1, which park on a futex between
/// jobs. Index i always runs on member i % size(), so whatever state an
/// index touches stays with one thread (and its cache) from job to job.
///
/// A job costs one generation bump to release the members and one
/// count-down of `pending` to collect them, both std::atomic wait/notify
/// (futex-backed). There is no hand-written spin: the library's own
/// short spin before the futex wait is all the spinning there is.
/// Destruction releases and joins every member thread.
class Team {
 public:
  /// Wall time of one run(), from member 0's clock reads and each
  /// member's own.
  struct Timing {
    std::chrono::nanoseconds busy_max{0};  ///< slowest member's share
    std::chrono::nanoseconds busy_sum{0};  ///< all members' shares
    /// Member 0's wait for the others after finishing its own share.
    std::chrono::nanoseconds caller_wait{0};
  };

  explicit Team(unsigned members);
  ~Team();

  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(slots_.size());
  }

  /// Call body(i) for every i in [0, count), i on member i % size(), and
  /// return once every member has finished its share. While member 0
  /// (the caller) runs its share, ThreadPool::on_worker() is true on it,
  /// as it always is on the other members. A member stops its share at
  /// the first index that throws; after every member has finished, the
  /// exception of the lowest throwing index is rethrown here, and the
  /// team is ready for the next run. Not reentrant: one run at a time,
  /// from one thread.
  Timing run(std::size_t count, const std::function<void(std::size_t)>& body);

 private:
  // Written by one member during a job, read by the caller after the
  // barrier; padded so members do not share a cache line.
  struct alignas(64) Slot {
    std::chrono::nanoseconds busy{0};
    std::size_t error_index = 0;
    std::exception_ptr error;
  };

  void member_loop(unsigned member);
  void run_share(unsigned member);
  void stop() noexcept;

  // The job, written by the caller before the generation bump that
  // publishes it and read by members only after they observe the bump.
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t count_ = 0;
  bool stopping_ = false;
  std::vector<Slot> slots_;
  std::atomic<std::uint32_t> generation_{0};
  std::atomic<std::uint32_t> pending_{0};
  std::vector<std::thread> threads_;  // last: members use all of the above
};

}  // namespace mcss::runtime
