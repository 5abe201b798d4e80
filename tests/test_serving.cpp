// Serving suite: the DiagnosisService over packed stores.
//
//  * the single-query equivalence gate — a service configured with
//    batch = 1, cache off and no deadline returns results bit-identical to
//    calling diagnose_observed() directly on the same store, for stores
//    built from ALL FIVE dictionary types (pass/fail, same/different,
//    multi-baseline, first-fail, full), on clean and on noisy
//    observations;
//  * batching and caching preserve those results, with cache_hit reported
//    on repeats;
//  * per-request deadlines resolve (anytime semantics) instead of throwing;
//  * the bounded MPMC queue under concurrent producers with backpressure
//    (queue_capacity intentionally tiny) — the test tsan actually cares
//    about;
//  * shutdown drains everything, further submits throw, stats survive;
//  * malformed observations resolve the future with the engine's
//    std::invalid_argument instead of poisoning the service;
//  * stats() latency percentiles never exceed the observed maximum.
//
// Registered under the "serving" ctest label; the tsan preset includes it.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bmcirc/synth.h"
#include "diag/engine.h"
#include "dict/firstfail_dict.h"
#include "dict/full_dict.h"
#include "dict/multibaseline_dict.h"
#include "dict/passfail_dict.h"
#include "dict/samediff_dict.h"
#include "fault/collapse.h"
#include "faultinject.h"
#include "serve/diagnosis_service.h"
#include "sim/response.h"
#include "sim/testset.h"
#include "store/signature_store.h"
#include "util/rng.h"

namespace sddict {
namespace {

using testing::NoiseChannel;
using testing::apply_noise;

// ------------------------------------------------------------- fixtures --

ResponseMatrix serving_matrix() {
  SynthProfile profile;
  profile.name = "serve";
  profile.inputs = 10;
  profile.outputs = 4;
  profile.dffs = 0;
  profile.gates = 80;
  profile.seed = 0x5e2e;
  const Netlist nl = generate_synthetic(profile);
  const FaultList faults = collapsed_fault_list(nl).collapsed;
  TestSet tests(nl.num_inputs());
  Rng rng(9);
  tests.add_random(60, rng);
  ResponseMatrixStatus status;
  return build_response_matrix(nl, faults, tests, {.store_diff_outputs = true},
                               &status);
}

const ResponseMatrix& rm() {
  static const ResponseMatrix m = serving_matrix();
  return m;
}

const FullDictionary& full_dict() {
  static const FullDictionary d = FullDictionary::build(rm());
  return d;
}

std::vector<ResponseId> sd_baselines() {
  std::vector<ResponseId> bl(rm().num_tests(), 0);
  for (std::size_t t = 0; t < rm().num_tests(); ++t)
    if (rm().num_distinct(t) > 1 && t % 2 == 0) bl[t] = 1;
  return bl;
}

std::vector<std::vector<ResponseId>> mb_baselines() {
  std::vector<std::vector<ResponseId>> bl(rm().num_tests());
  for (std::size_t t = 0; t < rm().num_tests(); ++t) {
    bl[t].push_back(0);
    if (rm().num_distinct(t) > 1 && t % 3 == 0) bl[t].push_back(1);
  }
  return bl;
}

std::vector<ResponseId> fault_response(FaultId f) {
  std::vector<ResponseId> obs(rm().num_tests());
  for (std::size_t t = 0; t < rm().num_tests(); ++t)
    obs[t] = full_dict().entry(f, t);
  return obs;
}

// Clean and degraded observation streams over the same fault set: every
// odd observation goes through the seeded noise channel (flips into other
// modeled ids or kUnknownResponse, drops records to kMissing).
std::vector<std::vector<Observed>> observation_stream(std::size_t count,
                                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Observed>> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto f = static_cast<FaultId>(rng.below(rm().num_faults()));
    const std::vector<ResponseId> ids = fault_response(f);
    if (i % 2 == 0) {
      out.push_back(qualify(ids));
    } else {
      out.push_back(apply_noise(
          ids, rm(),
          NoiseChannel{.flip_rate = 0.1, .drop_rate = 0.1, .seed = seed + i}));
    }
  }
  return out;
}

void expect_same_diagnosis(const EngineDiagnosis& a, const EngineDiagnosis& b,
                           const char* what) {
  EXPECT_EQ(a.outcome, b.outcome) << what;
  EXPECT_EQ(a.best_mismatches, b.best_mismatches) << what;
  EXPECT_EQ(a.margin, b.margin) << what;
  EXPECT_EQ(a.effective_tests, b.effective_tests) << what;
  EXPECT_EQ(a.dont_care_tests, b.dont_care_tests) << what;
  EXPECT_EQ(a.unknown_tests, b.unknown_tests) << what;
  EXPECT_EQ(a.completed, b.completed) << what;
  EXPECT_EQ(a.stop_reason, b.stop_reason) << what;
  EXPECT_EQ(a.cover, b.cover) << what;
  EXPECT_EQ(a.uncovered_failures, b.uncovered_failures) << what;
  ASSERT_EQ(a.matches.size(), b.matches.size()) << what;
  for (std::size_t i = 0; i < a.matches.size(); ++i) {
    EXPECT_EQ(a.matches[i].fault, b.matches[i].fault) << what << " #" << i;
    EXPECT_EQ(a.matches[i].mismatches, b.matches[i].mismatches)
        << what << " #" << i;
    EXPECT_EQ(a.matches[i].margin, b.matches[i].margin) << what << " #" << i;
    EXPECT_EQ(a.matches[i].effective_tests, b.matches[i].effective_tests)
        << what << " #" << i;
  }
}

// The gate configuration the header documents: no batching, no cache, no
// deadline — a service response must be bit-identical to the direct call.
ServiceOptions gate_options() {
  ServiceOptions o;
  o.threads = 1;
  o.batch = 1;
  o.cache = 0;
  return o;
}

// Every dictionary kind reaches the service as a store; the gate pins the
// service to the direct engine call on that same store.
template <typename Dict>
void run_equivalence_gate(const Dict& dict, const char* what,
                          std::uint64_t seed = 0xabc) {
  const auto store =
      std::make_shared<const SignatureStore>(SignatureStore::build(dict));
  DiagnosisService service(store, gate_options());
  for (const auto& obs : observation_stream(10, seed)) {
    const ServiceResponse r = service.diagnose(obs);
    EXPECT_FALSE(r.cache_hit) << what;
    expect_same_diagnosis(r.diagnosis, diagnose_observed(*store, obs), what);
  }
}

// ------------------------------------------------------ equivalence gate --

TEST(ServingGate, PassFail) {
  run_equivalence_gate(PassFailDictionary::build(rm()), "pass/fail");
}

TEST(ServingGate, SameDifferent) {
  run_equivalence_gate(SameDifferentDictionary::build(rm(), sd_baselines()),
                       "same/different");
}

TEST(ServingGate, MultiBaseline) {
  run_equivalence_gate(MultiBaselineDictionary::build(rm(), mb_baselines()),
                       "multi-baseline");
}

TEST(ServingGate, Full) { run_equivalence_gate(full_dict(), "full"); }

TEST(ServingGate, FirstFail) {
  run_equivalence_gate(FirstFailDictionary::build(rm()), "first-fail", 0xdef);
}

TEST(ServingGate, StoreBacked) {
  const SameDifferentDictionary sd =
      SameDifferentDictionary::build(rm(), sd_baselines());
  DiagnosisService service(SignatureStore::build(sd), gate_options());
  EXPECT_EQ(service.num_tests(), sd.num_tests());
  EXPECT_EQ(service.num_faults(), sd.num_faults());
  for (const auto& obs : observation_stream(10, 0x111)) {
    expect_same_diagnosis(service.diagnose(obs).diagnosis,
                          diagnose_observed(sd, obs), "store-backed");
  }
}

// ------------------------------------------------------- batching, cache --

TEST(Serving, BatchedServiceMatchesDirectCalls) {
  const SameDifferentDictionary sd =
      SameDifferentDictionary::build(rm(), sd_baselines());
  ServiceOptions o;
  o.threads = 2;
  o.batch = 4;
  o.cache = 0;
  DiagnosisService service(SignatureStore::build(sd), o);

  const auto stream = observation_stream(24, 0x222);
  std::vector<std::future<ServiceResponse>> futures;
  futures.reserve(stream.size());
  for (const auto& obs : stream) futures.push_back(service.submit(obs));
  for (std::size_t i = 0; i < stream.size(); ++i)
    expect_same_diagnosis(futures[i].get().diagnosis,
                          diagnose_observed(sd, stream[i]), "batched");

  const ServiceStats s = service.stats();
  EXPECT_EQ(s.requests, stream.size());
  EXPECT_GE(s.batches, 1u);
  EXPECT_LE(s.batches, s.requests);
  EXPECT_EQ(s.cache_hits, 0u);
}

TEST(Serving, CacheHitsOnRepeatsWithIdenticalResults) {
  const PassFailDictionary pf = PassFailDictionary::build(rm());
  ServiceOptions o;
  o.threads = 1;
  o.batch = 4;
  o.cache = 64;
  DiagnosisService service(SignatureStore::build(pf), o);

  const auto stream = observation_stream(8, 0x333);
  std::vector<EngineDiagnosis> first;
  std::size_t first_hits = 0;  // the stream may repeat a query by chance
  for (const auto& obs : stream) {
    const ServiceResponse r = service.diagnose(obs);
    if (r.cache_hit) ++first_hits;
    first.push_back(r.diagnosis);
  }
  // Replay: every repeat must hit and return the identical diagnosis.
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const ServiceResponse r = service.diagnose(stream[i]);
    EXPECT_TRUE(r.cache_hit) << "replay #" << i;
    expect_same_diagnosis(r.diagnosis, first[i], "cached replay");
  }
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.cache_hits, stream.size() + first_hits);
  EXPECT_EQ(s.cache_misses, stream.size() - first_hits);
}

TEST(Serving, CacheEvictsBeyondCapacity) {
  const PassFailDictionary pf = PassFailDictionary::build(rm());
  ServiceOptions o;
  o.threads = 1;
  o.batch = 1;
  o.cache = 2;
  DiagnosisService service(SignatureStore::build(pf), o);

  const auto stream = observation_stream(6, 0x444);
  for (const auto& obs : stream) service.diagnose(obs);
  // Oldest entries were evicted: replaying the first query misses again.
  EXPECT_FALSE(service.diagnose(stream[0]).cache_hit);
  // The most recent query is still resident.
  EXPECT_TRUE(service.diagnose(stream[5]).cache_hit);
}

// --------------------------------------------------------------- deadline --

TEST(Serving, ExpiredDeadlineResolvesAnytime) {
  const SameDifferentDictionary sd =
      SameDifferentDictionary::build(rm(), sd_baselines());
  ServiceOptions o;
  o.threads = 1;
  o.batch = 1;
  o.cache = 0;
  o.deadline_ms = 1e-6;  // expires before the first restart check
  DiagnosisService service(SignatureStore::build(sd), o);

  const auto stream = observation_stream(4, 0x555);
  for (const auto& obs : stream) {
    const ServiceResponse r = service.diagnose(obs);  // must not throw
    if (!r.diagnosis.completed) {
      EXPECT_EQ(r.diagnosis.stop_reason, StopReason::kDeadline);
    }
  }
  // Nothing incomplete may have entered the cache-tally as a hit.
  EXPECT_EQ(service.stats().cache_hits, 0u);
  EXPECT_EQ(service.stats().requests, stream.size());
}

// ------------------------------------------------- MPMC queue, shutdown --

TEST(Serving, ConcurrentProducersThroughTinyQueue) {
  const PassFailDictionary pf = PassFailDictionary::build(rm());
  ServiceOptions o;
  o.threads = 2;
  o.batch = 2;
  o.cache = 8;
  o.queue_capacity = 2;  // force submit() to block on backpressure
  DiagnosisService service(SignatureStore::build(pf), o);

  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 8;
  std::vector<std::thread> producers;
  std::vector<std::vector<std::future<ServiceResponse>>> futures(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const auto stream = observation_stream(kPerProducer, 0x600 + p);
      for (const auto& obs : stream)
        futures[p].push_back(service.submit(obs));
    });
  }
  for (auto& t : producers) t.join();
  // Every future resolves (no deadlock, no dropped request).
  for (auto& fs : futures)
    for (auto& f : fs) EXPECT_NO_THROW(f.get());
  EXPECT_EQ(service.stats().requests, kProducers * kPerProducer);
}

TEST(Serving, ShutdownDrainsThenRejects) {
  const PassFailDictionary pf = PassFailDictionary::build(rm());
  ServiceOptions o;
  o.threads = 1;
  o.batch = 4;
  DiagnosisService service(SignatureStore::build(pf), o);

  const auto stream = observation_stream(6, 0x777);
  std::vector<std::future<ServiceResponse>> futures;
  for (const auto& obs : stream) futures.push_back(service.submit(obs));
  service.shutdown();
  // Everything submitted before shutdown resolved.
  for (auto& f : futures)
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  // New submissions are refused; stats remain readable.
  EXPECT_THROW(service.submit(stream[0]), std::runtime_error);
  EXPECT_EQ(service.stats().requests, stream.size());
  service.shutdown();  // idempotent
}

// Drain introspection: what the fleet's rolling-restart path keys off —
// after shutdown() the gauges must prove quiescence (queue_depth == 0,
// in_flight == 0, accepting() false), and a swap_store() racing the
// drain is serialized, never torn: every request resolves and the swap
// is counted exactly once.
TEST(Serving, DrainIntrospectionProvesQuiescence) {
  const SameDifferentDictionary sd =
      SameDifferentDictionary::build(rm(), sd_baselines());
  auto v1 = std::make_shared<const SignatureStore>(SignatureStore::build(sd));
  auto v2 = std::make_shared<const SignatureStore>(SignatureStore::build(sd));
  ServiceOptions o;
  o.threads = 2;
  o.batch = 2;
  o.cache = 0;
  DiagnosisService service(v1, o);
  EXPECT_TRUE(service.accepting());

  const auto stream = observation_stream(12, 0x778);
  std::vector<std::future<ServiceResponse>> futures;
  for (const auto& obs : stream) futures.push_back(service.submit(obs));
  std::thread swapper([&] { service.swap_store(v2); });
  service.shutdown();
  swapper.join();

  for (auto& f : futures)
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.queue_depth, 0u);
  EXPECT_EQ(s.in_flight, 0u);
  EXPECT_EQ(s.requests, stream.size());
  EXPECT_EQ(s.swaps, 1u);
  EXPECT_FALSE(service.accepting());
  EXPECT_THROW(service.submit(stream[0]), std::runtime_error);
}

// try_submit: the non-blocking admission primitive the networked front
// end (src/net) sheds with. A full queue returns nullopt — tallied in
// shed_count — instead of parking the caller, accepted futures all still
// resolve, and the queue_depth/in_flight gauges read zero once drained.
TEST(Serving, TrySubmitShedsWhenQueueFullInsteadOfBlocking) {
  const PassFailDictionary pf = PassFailDictionary::build(rm());
  ServiceOptions o;
  o.threads = 1;
  o.batch = 1;
  o.cache = 0;
  o.queue_capacity = 1;
  DiagnosisService service(SignatureStore::build(pf), o);

  const auto obs = observation_stream(1, 0xaaa).front();
  std::vector<std::future<ServiceResponse>> accepted;
  std::uint64_t shed = 0;
  // try_submit costs nanoseconds; ranking costs far more. A tight loop
  // over a one-slot queue must observe it full long before the attempt
  // bound.
  for (int i = 0; i < 100000 && shed == 0; ++i) {
    auto fut = service.try_submit(obs);
    if (fut.has_value())
      accepted.push_back(std::move(*fut));
    else
      ++shed;
  }
  EXPECT_GT(shed, 0u);
  // A shed is a refusal, never a hang or a lost accepted request.
  for (auto& f : accepted) EXPECT_NO_THROW(f.get());

  // The dispatcher resolves the future before it zeroes the in-flight
  // gauge, so give it a bounded moment to go quiescent.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    const ServiceStats g = service.stats();
    if (g.queue_depth == 0 && g.in_flight == 0 &&
        g.requests == accepted.size())
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const ServiceStats s = service.stats();
  EXPECT_EQ(s.shed_count, shed);
  EXPECT_EQ(s.requests, accepted.size());
  EXPECT_EQ(s.queue_depth, 0u);  // drained: gauges back to zero
  EXPECT_EQ(s.in_flight, 0u);
  EXPECT_EQ(service.queue_depth(), 0u);
  const std::string text = format_service_stats(s);
  EXPECT_NE(text.find(" shed="), std::string::npos);
  EXPECT_NE(text.find(" queue_depth="), std::string::npos);
  EXPECT_NE(text.find(" in_flight="), std::string::npos);

  service.shutdown();
  EXPECT_THROW(service.try_submit(obs), std::runtime_error);
}

TEST(Serving, MalformedObservationResolvesWithEngineError) {
  const PassFailDictionary pf = PassFailDictionary::build(rm());
  DiagnosisService service(SignatureStore::build(pf), gate_options());
  std::future<ServiceResponse> bad =
      service.submit(std::vector<Observed>(3, Observed::of(0)));
  EXPECT_THROW(bad.get(), std::invalid_argument);
  // The service survives a poisoned request.
  const auto obs = observation_stream(1, 0x888).front();
  EXPECT_NO_THROW(service.diagnose(obs));
}

TEST(Serving, StatsTallyOutcomesAndFormat) {
  const SameDifferentDictionary sd =
      SameDifferentDictionary::build(rm(), sd_baselines());
  ServiceOptions o;
  o.threads = 1;
  o.batch = 2;
  o.cache = 16;
  DiagnosisService service(SignatureStore::build(sd), o);
  for (const auto& obs : observation_stream(12, 0x999)) service.diagnose(obs);

  const ServiceStats s = service.stats();
  EXPECT_EQ(s.requests, 12u);
  std::uint64_t outcome_sum = 0;
  for (const std::uint64_t c : s.outcomes) outcome_sum += c;
  EXPECT_EQ(outcome_sum, s.requests);
  EXPECT_EQ(s.cache_hits + s.cache_misses, s.requests);
  EXPECT_GE(s.p99_ms, s.p50_ms);
  EXPECT_GE(s.max_ms, 0.0);
  const std::string text = format_service_stats(s);
  EXPECT_NE(text.find("requests"), std::string::npos);
  EXPECT_NE(text.find("p99"), std::string::npos);
}

// The histogram reports a bucket's upper bound, which can lie above every
// latency recorded in it; stats() must never report a percentile above
// the observed maximum.
TEST(Serving, PercentilesNeverExceedObservedMax) {
  ServiceOptions o;
  o.threads = 1;
  o.cache = 0;
  DiagnosisService service(SignatureStore::build(PassFailDictionary::build(rm())),
                           o);
  for (const auto& obs : observation_stream(12, 0xaaa)) service.diagnose(obs);
  const ServiceStats s = service.stats();
  ASSERT_EQ(s.requests, 12u);
  EXPECT_GT(s.max_ms, 0.0);
  EXPECT_LE(s.p50_ms, s.p99_ms);
  EXPECT_LE(s.p99_ms, s.max_ms);
}

// ------------------------------------------------- latency percentiles --

// percentile_from_buckets over hand-built histograms. The regression this
// pins: when the cumulative count crosses the target in a bucket that is
// itself empty (the crossing happened earlier and a gap follows), the
// reported bound must be that of the last NON-EMPTY bucket — a latency
// some request actually recorded — not the empty bucket's.
TEST(Serving, PercentileFromHandBuiltHistograms) {
  std::uint64_t buckets[64] = {};

  // All mass in one bucket: every percentile reports that bucket's bound.
  buckets[5] = 100;
  EXPECT_DOUBLE_EQ(percentile_from_buckets(buckets, 100, 0.50),
                   bucket_upper_ms(5));
  EXPECT_DOUBLE_EQ(percentile_from_buckets(buckets, 100, 0.99),
                   bucket_upper_ms(5));

  // Bimodal with a gap: 90 fast (bucket 2), 10 slow (bucket 9). p50 lands
  // inside the fast mode, p99 inside the slow one; neither may report a
  // bound from the empty buckets 3..8 in between.
  std::fill(std::begin(buckets), std::end(buckets), 0);
  buckets[2] = 90;
  buckets[9] = 10;
  EXPECT_DOUBLE_EQ(percentile_from_buckets(buckets, 100, 0.50),
                   bucket_upper_ms(2));
  EXPECT_DOUBLE_EQ(percentile_from_buckets(buckets, 100, 0.90),
                   bucket_upper_ms(2));
  EXPECT_DOUBLE_EQ(percentile_from_buckets(buckets, 100, 0.91),
                   bucket_upper_ms(9));
  EXPECT_DOUBLE_EQ(percentile_from_buckets(buckets, 100, 0.99),
                   bucket_upper_ms(9));

  // Empty histogram: degenerate, reports 0.
  std::fill(std::begin(buckets), std::end(buckets), 0);
  EXPECT_DOUBLE_EQ(percentile_from_buckets(buckets, 0, 0.99), 0.0);

  // Mass only in the last bucket: the final-bucket fallback still returns
  // a real bound.
  buckets[63] = 1;
  EXPECT_DOUBLE_EQ(percentile_from_buckets(buckets, 1, 0.99),
                   bucket_upper_ms(63));
}

// latency_bucket / bucket_upper_ms invariants: every latency's bucket
// bound is >= the latency itself (so percentiles are upper bounds), and
// the mapping is monotone.
TEST(Serving, LatencyBucketBoundsAreUpperBounds) {
  const double samples[] = {0.0,  0.0005, 0.001, 0.004, 0.1,
                            1.0,  1.5,    16.0,  250.0, 10000.0};
  for (const double ms : samples) {
    const std::size_t b = latency_bucket(ms);
    ASSERT_LT(b, 64u);
    EXPECT_GE(bucket_upper_ms(b), ms) << "ms=" << ms;
  }
  std::size_t prev = 0;
  for (double ms = 0.001; ms < 1000.0; ms *= 1.7) {
    const std::size_t b = latency_bucket(ms);
    EXPECT_GE(b, prev);
    prev = b;
  }
}

}  // namespace
}  // namespace sddict
