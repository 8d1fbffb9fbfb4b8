#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>

#include "util/ensure.hpp"

namespace mcss::runtime {

namespace {

thread_local bool t_on_worker = false;

std::atomic<unsigned> g_thread_override{0};  // 0 = not overridden

unsigned threads_from_environment() noexcept {
  const char* env = std::getenv("MCSS_THREADS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const unsigned long parsed = std::strtoul(env, &end, 10);
    if (end != nullptr && *end == '\0' && parsed >= 1 && parsed <= 4096) {
      return static_cast<unsigned>(parsed);
    }
    // Malformed values fall through to the hardware default rather than
    // silently serializing a sweep the user asked to parallelize.
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1;
}

}  // namespace

unsigned configured_threads() noexcept {
  const unsigned override = g_thread_override.load(std::memory_order_relaxed);
  if (override != 0) return override;
  static const unsigned from_env = threads_from_environment();
  return from_env;
}

void set_threads(unsigned n) noexcept {
  g_thread_override.store(n == 0 ? 1 : n, std::memory_order_relaxed);
}

ThreadPool::ThreadPool(unsigned threads) {
  MCSS_ENSURE(threads >= 1, "thread pool needs at least one worker");
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    MCSS_ENSURE(!stopping_, "submit on a stopping thread pool");
    queue_.push_back(std::move(task));
  }
  wake_.notify_one();
}

void ThreadPool::worker_loop() {
  t_on_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

bool ThreadPool::on_worker() noexcept { return t_on_worker; }

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(
      std::max(configured_threads(), std::thread::hardware_concurrency()));
  return pool;
}

Team::Team(unsigned members) {
  MCSS_ENSURE(members >= 1, "a team needs at least one member");
  slots_.resize(members);
  threads_.reserve(members - 1);
  try {
    for (unsigned m = 1; m < members; ++m) {
      threads_.emplace_back([this, m] { member_loop(m); });
    }
  } catch (...) {
    stop();
    throw;
  }
}

Team::~Team() { stop(); }

void Team::stop() noexcept {
  stopping_ = true;
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void Team::member_loop(unsigned member) {
  t_on_worker = true;
  std::uint32_t seen = 0;
  for (;;) {
    generation_.wait(seen, std::memory_order_acquire);
    seen = generation_.load(std::memory_order_acquire);
    if (stopping_) return;
    run_share(member);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pending_.notify_one();
    }
  }
}

void Team::run_share(unsigned member) {
  Slot& slot = slots_[member];
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = member; i < count_; i += slots_.size()) {
    try {
      (*body_)(i);
    } catch (...) {
      slot.error = std::current_exception();
      slot.error_index = i;
      break;
    }
  }
  slot.busy = std::chrono::steady_clock::now() - start;
}

Team::Timing Team::run(std::size_t count,
                       const std::function<void(std::size_t)>& body) {
  body_ = &body;
  count_ = count;
  pending_.store(size() - 1, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();

  const bool was_on_worker = t_on_worker;
  t_on_worker = true;
  run_share(0);
  t_on_worker = was_on_worker;

  const auto wait_start = std::chrono::steady_clock::now();
  for (std::uint32_t left = pending_.load(std::memory_order_acquire);
       left != 0; left = pending_.load(std::memory_order_acquire)) {
    pending_.wait(left, std::memory_order_acquire);
  }
  Timing timing;
  timing.caller_wait = std::chrono::steady_clock::now() - wait_start;

  Slot* failed = nullptr;
  for (Slot& slot : slots_) {
    timing.busy_max = std::max(timing.busy_max, slot.busy);
    timing.busy_sum += slot.busy;
    if (slot.error &&
        (failed == nullptr || slot.error_index < failed->error_index)) {
      failed = &slot;
    }
  }
  if (failed != nullptr) {
    const std::exception_ptr error = failed->error;
    for (Slot& slot : slots_) slot.error = nullptr;
    std::rethrow_exception(error);
  }
  return timing;
}

}  // namespace mcss::runtime
