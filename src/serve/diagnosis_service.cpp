#include "serve/diagnosis_service.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace sddict {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Observation -> 128-bit cache key. Value and qualifier are packed into
// one word per test so kMissing, kUnstable and every response id (incl.
// kUnknownResponse) key distinctly.
Hash128 observation_key(const std::vector<Observed>& observed) {
  std::vector<std::uint64_t> packed(observed.size());
  for (std::size_t t = 0; t < observed.size(); ++t)
    packed[t] = static_cast<std::uint64_t>(observed[t].value) |
                (static_cast<std::uint64_t>(observed[t].status) << 32);
  return hash_words(packed.data(), packed.size(), /*seed=*/0x5eed5eed);
}

}  // namespace

// log2 microsecond bucket of a latency, clamped to [0, 63].
std::size_t latency_bucket(double ms) {
  const double us = ms * 1000.0;
  if (us < 1.0) return 0;
  const auto b = static_cast<std::size_t>(
      std::bit_width(static_cast<std::uint64_t>(us)));
  return std::min<std::size_t>(b, 63);
}

// Upper bound of bucket b, back in milliseconds.
double bucket_upper_ms(std::size_t b) {
  return std::ldexp(1.0, static_cast<int>(b)) / 1000.0;
}

double percentile_from_buckets(const std::uint64_t* buckets,
                               std::uint64_t total, double p) {
  if (total == 0) return 0;
  const auto target = static_cast<std::uint64_t>(
      std::ceil(p * static_cast<double>(total)));
  std::uint64_t seen = 0;
  std::size_t last_nonempty = 0;
  for (std::size_t b = 0; b < 64; ++b) {
    if (buckets[b] > 0) last_nonempty = b;
    seen += buckets[b];
    // The target sample lives in the last non-empty bucket at or below b
    // (b itself can be empty when earlier buckets already covered the
    // target); b's own bound would be one no recorded latency ever hit.
    if (seen >= target) return bucket_upper_ms(last_nonempty);
  }
  return bucket_upper_ms(63);
}

std::string format_service_stats(const ServiceStats& s) {
  std::ostringstream out;
  out << "requests=" << s.requests << " batches=" << s.batches
      << " cache_hits=" << s.cache_hits << " cache_misses=" << s.cache_misses
      << " deadline_expired=" << s.deadline_expired << " shed=" << s.shed_count
      << " queue_depth=" << s.queue_depth << " in_flight=" << s.in_flight;
  for (int o = 0; o < 4; ++o)
    out << " " << diagnosis_outcome_name(static_cast<DiagnosisOutcome>(o))
        << "=" << s.outcomes[o];
  out << " swaps=" << s.swaps;
  out << " p50_ms=" << s.p50_ms << " p99_ms=" << s.p99_ms
      << " max_ms=" << s.max_ms;
  return out.str();
}

DiagnosisService::DiagnosisService(std::shared_ptr<const SignatureStore> store,
                                   const ServiceOptions& options)
    : store_(std::move(store)), options_(options), pool_(options.threads) {
  if (!store_) throw std::runtime_error("DiagnosisService: null shared store");
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

DiagnosisService::DiagnosisService(SignatureStore store,
                                   const ServiceOptions& options)
    : DiagnosisService(std::make_shared<const SignatureStore>(std::move(store)),
                       options) {}

DiagnosisService::~DiagnosisService() {
  shutdown();
  {
    std::lock_guard<std::mutex> lk(queue_mutex_);
    stopping_ = true;
  }
  queue_not_empty_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

std::size_t DiagnosisService::num_tests() const {
  return current_store()->num_tests();
}

std::size_t DiagnosisService::num_faults() const {
  return current_store()->num_faults();
}

void DiagnosisService::swap_store(std::shared_ptr<const SignatureStore> next) {
  if (!next)
    throw std::runtime_error("DiagnosisService: swap_store on a null store");
  {
    std::lock_guard<std::mutex> lk(swap_mutex_);
    store_ = std::move(next);
    // Release-publish AFTER the pointer: the dispatcher's acquire load of
    // the epoch at its next batch then implies it sees the new store too,
    // so its cache flush and the swap can never be observed out of order.
    swap_epoch_.fetch_add(1, std::memory_order_release);
  }
  std::lock_guard<std::mutex> lk(stats_mutex_);
  ++stats_.swaps;
}

std::shared_ptr<const SignatureStore> DiagnosisService::current_store() const {
  std::lock_guard<std::mutex> lk(swap_mutex_);
  return store_;
}

std::future<ServiceResponse> DiagnosisService::submit(
    std::vector<Observed> observed) {
  Request req;
  req.observed = std::move(observed);
  req.submitted = Clock::now();
  std::future<ServiceResponse> fut = req.promise.get_future();
  {
    std::unique_lock<std::mutex> lk(queue_mutex_);
    queue_not_full_.wait(lk, [this] {
      return !accepting_ || queue_.size() < options_.queue_capacity;
    });
    if (!accepting_)
      throw std::runtime_error("DiagnosisService: submit after shutdown");
    queue_.push_back(std::move(req));
  }
  queue_not_empty_.notify_one();
  return fut;
}

std::optional<std::future<ServiceResponse>> DiagnosisService::try_submit(
    std::vector<Observed> observed) {
  Request req;
  req.observed = std::move(observed);
  req.submitted = Clock::now();
  std::future<ServiceResponse> fut = req.promise.get_future();
  {
    std::lock_guard<std::mutex> lk(queue_mutex_);
    if (!accepting_)
      throw std::runtime_error("DiagnosisService: submit after shutdown");
    if (queue_.size() >= options_.queue_capacity) {
      std::lock_guard<std::mutex> slk(stats_mutex_);
      ++stats_.shed_count;
      return std::nullopt;
    }
    queue_.push_back(std::move(req));
  }
  queue_not_empty_.notify_one();
  return fut;
}

ServiceResponse DiagnosisService::diagnose(std::vector<Observed> observed) {
  return submit(std::move(observed)).get();
}

std::size_t DiagnosisService::queue_depth() const {
  std::lock_guard<std::mutex> lk(queue_mutex_);
  return queue_.size();
}

bool DiagnosisService::accepting() const {
  std::lock_guard<std::mutex> lk(queue_mutex_);
  return accepting_;
}

void DiagnosisService::shutdown() {
  std::unique_lock<std::mutex> lk(queue_mutex_);
  accepting_ = false;
  queue_not_full_.notify_all();
  queue_not_empty_.notify_all();
  // Wait for the dispatcher to drain what was accepted. `stopping_` stays
  // false here so the dispatcher keeps running (stats stay queryable and
  // the destructor reuses this path).
  queue_drained_.wait(lk, [this] { return queue_.empty() && !in_flight_; });
}

ServiceStats DiagnosisService::stats() const {
  ServiceStats s;
  {
    std::lock_guard<std::mutex> lk(stats_mutex_);
    s = stats_;
    std::uint64_t total = 0;
    for (std::size_t b = 0; b < 64; ++b) total += latency_buckets_[b];
    // A bucket's upper bound can exceed every latency recorded in it; no
    // percentile is larger than the largest sample.
    s.p50_ms = std::min(
        percentile_from_buckets(latency_buckets_, total, 0.50), s.max_ms);
    s.p99_ms = std::min(
        percentile_from_buckets(latency_buckets_, total, 0.99), s.max_ms);
  }
  // Gauges come from the queue lock, taken after the stats lock is
  // released — never both at once.
  std::lock_guard<std::mutex> lk(queue_mutex_);
  s.queue_depth = queue_.size();
  s.in_flight = inflight_requests_;
  return s;
}

void DiagnosisService::dispatcher_loop() {
  for (;;) {
    std::vector<Request> batch;
    {
      std::unique_lock<std::mutex> lk(queue_mutex_);
      queue_not_empty_.wait(
          lk, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      const std::size_t n =
          std::min(std::max<std::size_t>(options_.batch, 1), queue_.size());
      batch.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      in_flight_ = true;
      inflight_requests_ = batch.size();
    }
    queue_not_full_.notify_all();
    process_batch(batch);
    {
      std::lock_guard<std::mutex> lk(queue_mutex_);
      in_flight_ = false;
      inflight_requests_ = 0;
    }
    queue_drained_.notify_all();
  }
}

EngineDiagnosis DiagnosisService::run_one(const std::vector<Observed>& observed,
                                          Clock::time_point submitted,
                                          bool allow_sharding) {
  EngineOptions opt = options_.engine;
  // ThreadPool::parallel_for is not reentrant, so only the dispatcher-
  // inline single-miss path may shard its rank sweep across the worker
  // pool; calls made from inside a pool task must clear it — including a
  // pool the caller put into options_.engine.
  opt.pool = allow_sharding ? &pool_ : nullptr;
  if (options_.deadline_ms > 0) {
    // Deadline counts from submission, so queueing time eats into the
    // rank budget — a request that waited too long resolves immediately
    // with an expired (anytime, best-effort-empty) result.
    const double remaining_s =
        (options_.deadline_ms - ms_since(submitted)) / 1000.0;
    opt.budget.max_seconds = std::max(remaining_s, 1e-9);
  }
  // Snapshot the published pointer; the request then ranks against that
  // version even if a swap lands mid-rank, and keeps the old store alive
  // until it resolves.
  return diagnose_observed(*current_store(), observed, opt);
}

void DiagnosisService::process_batch(std::vector<Request>& batch) {
  // A hot-swap may have changed the backing store since the last batch;
  // cached rankings from the old version must not leak past it. The cache
  // is dispatcher-thread-only, so the swapping thread bumps an epoch and
  // the flush happens here.
  const std::uint64_t epoch = swap_epoch_.load(std::memory_order_acquire);
  if (epoch != seen_swap_epoch_) {
    cache_.clear();
    lru_.clear();
    seen_swap_epoch_ = epoch;
  }

  struct Slot {
    Request* req = nullptr;
    Hash128 key{};
    bool cached = false;
    EngineDiagnosis result;
    std::exception_ptr error;
  };
  std::vector<Slot> slots(batch.size());
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    slots[i].req = &batch[i];
    if (options_.cache > 0) {
      slots[i].key = observation_key(batch[i].observed);
      auto it = cache_.find(slots[i].key);
      if (it != cache_.end()) {
        slots[i].cached = true;
        slots[i].result = it->second.diagnosis;
        lru_.splice(lru_.begin(), lru_, it->second.lru);  // touch
        continue;
      }
    }
    misses.push_back(i);
  }

  if (misses.size() == 1) {
    // No point paying the dispatch barrier for a single query — and since
    // this runs on the dispatcher thread, the workers are free to shard
    // the rank sweep itself (engine.h: EngineOptions::pool).
    Slot& s = slots[misses[0]];
    try {
      s.result = run_one(s.req->observed, s.req->submitted,
                         /*allow_sharding=*/true);
    } catch (...) {
      s.error = std::current_exception();
    }
  } else if (!misses.empty()) {
    pool_.parallel_for(0, misses.size(), [&](std::size_t j) {
      Slot& s = slots[misses[j]];
      try {
        s.result = run_one(s.req->observed, s.req->submitted);
      } catch (...) {
        s.error = std::current_exception();
      }
    });
  }

  for (Slot& s : slots) {
    const double latency = ms_since(s.req->submitted);
    if (s.error) {
      s.req->promise.set_exception(s.error);
      continue;
    }
    if (!s.cached && options_.cache > 0 && s.result.completed) {
      // Only completed results are worth remembering: a deadline-expired
      // prefix would poison every later lookup of the same observation.
      auto it = cache_.find(s.key);
      if (it == cache_.end()) {
        lru_.push_front(s.key);
        cache_.emplace(s.key, CacheEntry{s.result, lru_.begin()});
        if (cache_.size() > options_.cache) {
          cache_.erase(lru_.back());
          lru_.pop_back();
        }
      }
    }
    record(s.result, s.cached, latency);
    ServiceResponse resp;
    resp.diagnosis = std::move(s.result);
    resp.cache_hit = s.cached;
    resp.latency_ms = latency;
    s.req->promise.set_value(std::move(resp));
  }

  std::lock_guard<std::mutex> lk(stats_mutex_);
  ++stats_.batches;
}

void DiagnosisService::record(const EngineDiagnosis& d, bool cache_hit,
                              double latency_ms) {
  std::lock_guard<std::mutex> lk(stats_mutex_);
  ++stats_.requests;
  if (cache_hit)
    ++stats_.cache_hits;
  else
    ++stats_.cache_misses;
  ++stats_.outcomes[static_cast<std::size_t>(d.outcome)];
  if (!d.completed) ++stats_.deadline_expired;
  ++latency_buckets_[latency_bucket(latency_ms)];
  stats_.max_ms = std::max(stats_.max_ms, latency_ms);
}

}  // namespace sddict
