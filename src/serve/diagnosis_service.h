// Concurrent batched diagnosis service — the query-serving layer over one
// packed SignatureStore and the noise-tolerant engine (diag/engine.h).
// Every dictionary kind reaches it as a store (SignatureStore::build);
// first-fail dictionaries, which a store carries as their pass/fail
// projection, stay reachable natively through diagnose_observed().
//
// Shape: producers submit() qualified observations into a bounded MPMC
// queue (submit blocks when the queue is full — backpressure, not
// unbounded memory) and get a std::future. A single dispatcher thread
// drains the queue in micro-batches of up to `batch` requests, answers
// what it can from an LRU cache keyed by the observation's 128-bit hash
// (util/hash.h), and ranks the rest across the shared ThreadPool — one
// whole diagnosis per worker task, so a batch of b queries costs b
// independent kernel sweeps with no cross-request locking. Because the
// cache and its LRU list are touched only by the dispatcher thread, cache
// maintenance needs no lock at all.
//
// Per-request deadlines reuse the RunBudget anytime semantics: a request
// whose remaining deadline expires mid-rank resolves (never throws) with
// the engine's best-so-far prefix and completed == false. Only completed
// results enter the cache.
//
// With batch == 1, the cache off and no deadline, a service response is
// bit-identical to calling diagnose_observed() directly — the property
// the single-query equivalence gate (tests/test_serving.cpp) pins down.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "diag/engine.h"
#include "store/signature_store.h"
#include "util/hash.h"
#include "util/threadpool.h"

namespace sddict {

struct ServiceOptions {
  std::size_t threads = 1;  // ranking workers; 0 = hardware concurrency
  std::size_t batch = 8;    // max requests ranked per micro-batch
  std::size_t cache = 256;  // LRU capacity in entries; 0 disables
  double deadline_ms = 0;   // per-request deadline from submit(); 0 = none
  std::size_t queue_capacity = 1024;  // bounded request queue
  EngineOptions engine{};             // tolerance, max_results, ...
};

struct ServiceResponse {
  EngineDiagnosis diagnosis;
  bool cache_hit = false;
  double latency_ms = 0;  // submit() -> resolution
};

// Counter snapshot for the report layer. Latency percentiles come from a
// 64-bucket log2 histogram (microsecond resolution), so p50/p99 are upper
// bounds of their bucket, not exact order statistics, capped at max_ms.
struct ServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t batches = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  // Fallback-stage tallies, indexed by DiagnosisOutcome.
  std::uint64_t outcomes[4] = {0, 0, 0, 0};
  std::uint64_t deadline_expired = 0;  // resolved with completed == false
  std::uint64_t swaps = 0;             // hot-swaps published via swap_store()
  std::uint64_t shed_count = 0;        // try_submit() rejections (queue full)
  // Point-in-time gauges sampled by stats(): requests waiting in the MPMC
  // queue, and requests the dispatcher currently holds unresolved. The
  // admission-control layer (src/net) keys its load shedding off these.
  std::uint64_t queue_depth = 0;
  std::uint64_t in_flight = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
};

std::string format_service_stats(const ServiceStats& s);

// Latency-histogram plumbing behind ServiceStats, exposed so the
// percentile math is unit-testable against hand-built histograms.
// latency_bucket maps a latency to its log2-microsecond bucket in [0, 63];
// bucket_upper_ms is that bucket's upper bound back in milliseconds.
std::size_t latency_bucket(double ms);
double bucket_upper_ms(std::size_t b);
// p-th percentile (p in [0, 1]) over a 64-bucket histogram holding `total`
// samples: the upper bound of the bucket containing the ceil(p * total)-th
// sample — always a bound some recorded sample actually fell under, never
// the bound of an empty bucket.
double percentile_from_buckets(const std::uint64_t* buckets,
                               std::uint64_t total, double p);

class DiagnosisService {
 public:
  // Serves a shared store; swap_store() can atomically publish a
  // replacement version at any time. Throws std::runtime_error on a null
  // store.
  DiagnosisService(std::shared_ptr<const SignatureStore> store,
                   const ServiceOptions& options = {});
  // Takes ownership of `store` (wrapped into a shared_ptr).
  DiagnosisService(SignatureStore store, const ServiceOptions& options = {});

  // Drains every in-flight and queued request, then joins.
  ~DiagnosisService();

  DiagnosisService(const DiagnosisService&) = delete;
  DiagnosisService& operator=(const DiagnosisService&) = delete;

  std::size_t num_tests() const;
  std::size_t num_faults() const;

  // Enqueues one observation. Blocks while the queue is full; throws
  // std::runtime_error after shutdown(). The future always resolves — a
  // malformed observation (wrong length) resolves it with the engine's
  // exception rather than throwing here.
  std::future<ServiceResponse> submit(std::vector<Observed> observed);

  // Non-blocking admission: enqueues like submit() but, instead of
  // blocking while the queue is full, returns nullopt and tallies the
  // rejection in ServiceStats::shed_count — the primitive the networked
  // front end's load shedding is built on (an event loop must never park
  // inside submit()). Still throws after shutdown().
  std::optional<std::future<ServiceResponse>> try_submit(
      std::vector<Observed> observed);

  // submit() + wait: the synchronous convenience path.
  ServiceResponse diagnose(std::vector<Observed> observed);

  // Lock-taking convenience gauge (also sampled into stats()).
  std::size_t queue_depth() const;

  // False once shutdown() has begun: submit()/try_submit() throw from
  // then on. Drain introspection for supervisors deciding when a service
  // is safe to restart.
  bool accepting() const;

  // Stops accepting new requests and blocks until everything queued has
  // resolved. Idempotent; stats() remains valid afterwards.
  void shutdown();

  ServiceStats stats() const;

  // Hot-swap; throws on a null store. Publication is atomic: requests
  // already ranking finish on the version they snapshotted at dispatch;
  // every later request sees `next`. The old version is retired when the
  // last in-flight reference drains. The dispatcher's result cache is
  // invalidated at its next batch, so a content-changing swap can never
  // serve a stale cached ranking.
  void swap_store(std::shared_ptr<const SignatureStore> next);
  // The currently published store.
  std::shared_ptr<const SignatureStore> current_store() const;

 private:
  struct Request {
    std::vector<Observed> observed;
    std::promise<ServiceResponse> promise;
    std::chrono::steady_clock::time_point submitted;
  };
  struct CacheEntry {
    EngineDiagnosis diagnosis;
    std::list<Hash128>::iterator lru;
  };

  void dispatcher_loop();
  void process_batch(std::vector<Request>& batch);
  // allow_sharding: whether the engine may split its rank sweep across
  // pool_ (true only when called from the dispatcher thread itself —
  // parallel_for is not reentrant from a pool task).
  EngineDiagnosis run_one(const std::vector<Observed>& observed,
                          std::chrono::steady_clock::time_point submitted,
                          bool allow_sharding = false);
  void record(const EngineDiagnosis& d, bool cache_hit, double latency_ms);

  // Reads and writes of the published pointer go through swap_mutex_.
  std::shared_ptr<const SignatureStore> store_;
  mutable std::mutex swap_mutex_;
  std::atomic<std::uint64_t> swap_epoch_{0};
  std::uint64_t seen_swap_epoch_ = 0;  // dispatcher-thread-only
  ServiceOptions options_;
  ThreadPool pool_;

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_not_empty_;
  std::condition_variable queue_not_full_;
  std::condition_variable queue_drained_;
  std::deque<Request> queue_;
  bool accepting_ = true;
  bool stopping_ = false;
  bool in_flight_ = false;  // dispatcher holds an unresolved batch
  std::size_t inflight_requests_ = 0;  // size of that unresolved batch

  // Dispatcher-thread-only state (no lock: single reader/writer).
  std::unordered_map<Hash128, CacheEntry, Hash128Hasher> cache_;
  std::list<Hash128> lru_;  // front = most recent

  mutable std::mutex stats_mutex_;
  ServiceStats stats_;
  std::uint64_t latency_buckets_[64] = {};  // log2(us), guarded by stats_mutex_

  std::thread dispatcher_;  // last member: joins before the rest dies
};

}  // namespace sddict
