#include "util/threadpool.h"

#include <algorithm>

namespace sddict {

ThreadPool::ThreadPool(std::size_t num_threads)
    : num_threads_(resolve(num_threads)) {
  if (num_threads_ == 1) return;
  threads_.reserve(num_threads_);
  for (std::size_t i = 0; i < num_threads_; ++i)
    threads_.emplace_back(&ThreadPool::worker_loop, this);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
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
  if (threads_.empty()) {
    run(task);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    ++pending_;
  }
  work_available_.notify_one();
}

void ThreadPool::run(const std::function<void()>& task) noexcept {
  // A throwing task must not unwind through the worker loop (that would
  // std::terminate the process); capture and surface at the join.
  try {
    task();
  } catch (...) {
    capture_error();
  }
}

void ThreadPool::capture_error() noexcept {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }
  // Stop siblings early: chunks that have not started skip their bodies.
  cancelled_.store(true, std::memory_order_release);
}

std::exception_ptr ThreadPool::take_error() {
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    err = first_error_;
    first_error_ = nullptr;
  }
  // The cancellation was raised by the failed task; clear it so the pool
  // stays usable after the rethrow. An explicit cancel() with no error in
  // flight is left alone.
  if (err) cancelled_.store(false, std::memory_order_release);
  return err;
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_available_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    // Stopping drains the queue first, so no submitted task is dropped.
    if (queue_.empty()) return;
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    run(task);
    task = nullptr;  // release captures before the task counts as done
    lock.lock();
    if (--pending_ == 0) all_done_.notify_all();
  }
}

void ThreadPool::wait_idle() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
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
  // Cap the task count: with coarse chunks a small multiple of the worker
  // count already balances uneven chunks, and fewer tasks mean less queue
  // traffic.
  num_chunks = std::min(num_chunks, num_threads_ * 4);
  if (num_chunks <= 1 || num_threads_ == 1) {
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
