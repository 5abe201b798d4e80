// Fork-join thread pool for the dictionary-construction hot paths.
//
// Design: one mutex-guarded FIFO task queue shared by every worker. The
// callers (fault simulation, Procedure 1's restart waves, the engine's
// sharded sweep) submit a few coarse chunks per wave and block on them,
// so a shared queue balances uneven chunks as well as any per-worker
// scheme would. A pool of one starts no thread: tasks run on the caller.
// The pool is deterministic only in *what* gets executed, never in
// completion order; callers that need reproducible results must make
// their reduction order-independent (see build_response_matrix and
// run_procedure1 for the pattern: compute into index-addressed slots,
// reduce sequentially by index).
//
// Exception safety: a task that throws never takes the process down. The
// pool captures the std::exception_ptr and cancels itself so sibling
// chunks of the same parallel_for stop early, and the first exception is
// rethrown at the join point — the end of parallel_for /
// parallel_for_chunks, or wait_idle for raw submit()s. Rethrowing clears
// the error and the cancellation flag, so the pool stays usable.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sddict {

class ThreadPool {
 public:
  // num_threads == 0 selects default_num_threads(). A pool of size 1
  // starts no thread and runs every task inline on the calling thread.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return num_threads_; }

  // std::thread::hardware_concurrency(), clamped to at least 1.
  static std::size_t default_num_threads();

  // Resolves a user-facing thread-count knob: 0 -> hardware concurrency.
  static std::size_t resolve(std::size_t requested) {
    return requested == 0 ? default_num_threads() : requested;
  }

  // Enqueues one task. Thread-safe; may be called from worker threads. A
  // pool of one runs the task before returning. A throwing task's
  // exception is captured and rethrown by the next wait_idle().
  void submit(std::function<void()> task);

  // Blocks until every submitted task has finished, then rethrows the
  // first exception any of them raised (clearing it).
  void wait_idle();

  // Runs body(i) for i in [begin, end), split into contiguous chunks, and
  // blocks until all iterations complete. Chunking is by iteration ranges,
  // so side effects into index-addressed slots are race-free; completion
  // order is unspecified. Not reentrant from inside a pool task. If any
  // iteration throws, not-yet-started chunks are skipped and the first
  // exception is rethrown here after the barrier.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

  // Range flavor: body(chunk_begin, chunk_end) over an even partition of
  // [begin, end) into at most num_chunks pieces. Used when per-chunk setup
  // (scratch buffers, simulator state) should be amortized.
  void parallel_for_chunks(
      std::size_t begin, std::size_t end, std::size_t num_chunks,
      const std::function<void(std::size_t, std::size_t)>& body);

  // Cooperative pool-wide cancellation. Cancelled pools skip the bodies of
  // chunks that have not started yet (queued tasks still drain, so joins
  // do not hang); long tasks may poll cancel_requested() to stop early.
  // Raised automatically when a task throws; cleared when the exception is
  // rethrown at a join point, or manually via reset_cancel().
  void cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_acquire);
  }
  void reset_cancel() { cancelled_.store(false, std::memory_order_release); }

 private:
  void worker_loop();
  // Runs one task, capturing anything it throws.
  void run(const std::function<void()>& task) noexcept;
  // Records the in-flight exception (first one wins) and cancels the pool.
  void capture_error() noexcept;
  // Takes the stored error, clearing it and the cancellation flag it set.
  std::exception_ptr take_error();

  std::size_t num_threads_;

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  std::size_t pending_ = 0;  // submitted but not yet finished
  bool stop_ = false;
  std::exception_ptr first_error_;  // guarded by mutex_
  std::atomic<bool> cancelled_{false};
  // Last: the workers use every member above.
  std::vector<std::thread> threads_;  // empty for a pool of one
};

}  // namespace sddict
