#include "util/threadpool.h"

#include <atomic>

namespace sddict {
namespace {

// Set while a worker runs, so submit() from inside a task lands on the
// submitting worker's own deque (LIFO locality) instead of round-robin.
struct WorkerIdentity {
  const ThreadPool* pool = nullptr;
  std::size_t index = 0;
};
thread_local WorkerIdentity tls_worker;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n = resolve(num_threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.push_back(std::make_unique<Worker>());
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    threads_.emplace_back(&ThreadPool::worker_loop, this, i);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    stop_ = true;
  }
  work_available_.notify_all();
  for (auto& t : threads_) t.join();
}

std::size_t ThreadPool::default_num_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void ThreadPool::submit(std::function<void()> task) {
  std::size_t target;
  if (tls_worker.pool == this) {
    target = tls_worker.index;
  } else {
    std::lock_guard<std::mutex> lock(state_mutex_);
    target = next_victim_++ % workers_.size();
  }
  // Count before pushing: once the task is visible in a deque a worker may
  // claim and finish it immediately, and its decrements must not precede
  // these increments.
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++queued_;
    ++pending_;
  }
  {
    std::lock_guard<std::mutex> lock(workers_[target]->mutex);
    workers_[target]->deque.push_back(std::move(task));
  }
  work_available_.notify_one();
}

bool ThreadPool::try_get_task(std::size_t self, std::function<void()>* out) {
  // Own deque, newest first: recently pushed work is cache-warm.
  {
    Worker& own = *workers_[self];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.deque.empty()) {
      *out = std::move(own.deque.back());
      own.deque.pop_back();
      return true;
    }
  }
  return try_steal(self, out);
}

bool ThreadPool::try_steal(std::size_t thief, std::function<void()>* out) {
  // Victims' deques, oldest first: stealing the front grabs the
  // largest-granularity work and leaves the victim its warm tail.
  const std::size_t n = workers_.size();
  for (std::size_t off = 1; off < n; ++off) {
    Worker& victim = *workers_[(thief + off) % n];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.deque.empty()) {
      *out = std::move(victim.deque.front());
      victim.deque.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::capture_error() noexcept {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }
  // Stop siblings early: chunks that have not started skip their bodies.
  cancelled_.store(true, std::memory_order_release);
}

std::exception_ptr ThreadPool::take_error() {
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    err = first_error_;
    first_error_ = nullptr;
  }
  // The cancellation was raised by the failed task; clear it so the pool
  // stays usable after the rethrow. An explicit cancel() with no error in
  // flight is left alone.
  if (err) cancelled_.store(false, std::memory_order_release);
  return err;
}

void ThreadPool::worker_loop(std::size_t self) {
  tls_worker = {this, self};
  for (;;) {
    std::function<void()> task;
    if (try_get_task(self, &task)) {
      {
        std::lock_guard<std::mutex> lock(state_mutex_);
        --queued_;
      }
      // A throwing task must not unwind through the worker loop (that
      // would std::terminate the process); capture and surface at join.
      try {
        task();
      } catch (...) {
        capture_error();
      }
      task = nullptr;  // release captures before possibly sleeping
      {
        std::lock_guard<std::mutex> lock(state_mutex_);
        if (--pending_ == 0) all_done_.notify_all();
      }
      continue;
    }
    std::unique_lock<std::mutex> lock(state_mutex_);
    // queued_ can lag a concurrent claim (popped, decrement pending), so a
    // wakeup may find the deques empty; the loop just re-waits.
    work_available_.wait(lock, [&] { return stop_ || queued_ > 0; });
    if (stop_ && queued_ <= 0) return;
  }
}

void ThreadPool::wait_idle() {
  {
    std::unique_lock<std::mutex> lock(state_mutex_);
    all_done_.wait(lock, [&] { return pending_ == 0; });
  }
  if (std::exception_ptr err = take_error()) std::rethrow_exception(err);
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  parallel_for_chunks(begin, end, /*num_chunks=*/end - begin,
                      [&](std::size_t cb, std::size_t ce) {
                        for (std::size_t i = cb; i < ce; ++i) body(i);
                      });
}

void ThreadPool::parallel_for_chunks(
    std::size_t begin, std::size_t end, std::size_t num_chunks,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  num_chunks = std::min(num_chunks, n);
  // Cap the task count: with coarse chunks there is nothing to steal past a
  // small multiple of the worker count, and fewer tasks mean less queue
  // traffic. 4x gives the stealer something to grab when chunks are uneven.
  num_chunks = std::min(num_chunks, workers_.size() * 4);
  if (num_chunks <= 1 || workers_.size() == 1) {
    // Inline fast path: exceptions propagate directly; cancellation is
    // honored the same way the task path honors it.
    if (!cancel_requested()) body(begin, end);
    return;
  }

  // The barrier lives on this stack frame, so no worker may touch it after
  // the caller can see the count reach zero: every decrement happens under
  // done_mutex and the last one notifies before unlocking. With a lock-free
  // decrement the caller could return while the last worker was still
  // locking the mutex and signalling the condvar in a dead frame.
  std::size_t remaining = num_chunks;
  std::mutex done_mutex;
  std::condition_variable done_cv;

  for (std::size_t c = 0; c < num_chunks; ++c) {
    const std::size_t cb = begin + n * c / num_chunks;
    const std::size_t ce = begin + n * (c + 1) / num_chunks;
    submit([&, cb, ce] {
      // The decrement below must run even when the body throws, or the
      // barrier would hang; capture here rather than in the worker loop.
      if (!cancel_requested()) {
        try {
          body(cb, ce);
        } catch (...) {
          capture_error();
        }
      }
      std::lock_guard<std::mutex> lock(done_mutex);
      if (--remaining == 0) done_cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(done_mutex);
    done_cv.wait(lock, [&] { return remaining == 0; });
  }
  if (std::exception_ptr err = take_error()) std::rethrow_exception(err);
}

}  // namespace sddict
