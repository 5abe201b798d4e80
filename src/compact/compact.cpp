#include "compact/compact.h"

#include <stdexcept>
#include <string>

namespace sddict {

namespace {

PlanOptions to_plan_options(const CompactionOptions& opts) {
  PlanOptions p;
  p.max_resolution_loss = opts.max_resolution_loss;
  p.order = opts.order;
  p.budget = opts.budget;
  return p;
}

CompactionReport to_report(const CompactionPlan& plan, std::size_t tests,
                           std::size_t bytes_before) {
  CompactionReport r;
  r.tests_before = tests;
  r.tests_after = plan.kept.size();
  r.dropped = plan.dropped;
  r.pairs_before = plan.pairs_before;
  r.pairs_after = plan.pairs_after;
  r.bytes_before = bytes_before;
  r.completed = plan.completed;
  r.stop_reason = plan.stop_reason;
  r.verified = plan.verified;
  return r;
}

}  // namespace

SymbolMatrix store_symbols(const SignatureStore& store) {
  const std::size_t F = store.num_faults();
  const std::size_t T = store.num_tests();
  SymbolMatrix m(F, T);
  switch (store.kind()) {
    case StoreKind::kPassFail:
    case StoreKind::kSameDifferent:
      for (std::size_t f = 0; f < F; ++f)
        for (std::size_t t = 0; t < T; ++t)
          m.set(f, t, store.row_bit(static_cast<FaultId>(f), t) ? 1 : 0);
      break;
    case StoreKind::kMultiBaseline: {
      const std::size_t r = store.rank();
      if (r > 64)
        throw std::runtime_error(
            "store_symbols: multi-baseline rank " + std::to_string(r) +
            " exceeds 64 (per-test bit group does not fit one symbol)");
      for (std::size_t f = 0; f < F; ++f)
        for (std::size_t t = 0; t < T; ++t) {
          std::uint64_t sym = 0;
          for (std::size_t l = 0; l < r; ++l)
            if (store.row_bit(static_cast<FaultId>(f), t * r + l))
              sym |= std::uint64_t{1} << l;
          m.set(f, t, sym);
        }
      break;
    }
    case StoreKind::kFull:
      for (std::size_t f = 0; f < F; ++f) {
        const ResponseId* row = store.full_row(static_cast<FaultId>(f));
        for (std::size_t t = 0; t < T; ++t) m.set(f, t, row[t]);
      }
      break;
  }
  return m;
}

SymbolMatrix response_symbols(const ResponseMatrix& rm) {
  SymbolMatrix m(rm.num_faults(), rm.num_tests());
  for (std::size_t t = 0; t < rm.num_tests(); ++t)
    for (std::size_t f = 0; f < rm.num_faults(); ++f)
      m.set(f, t, rm.response(static_cast<FaultId>(f), t));
  return m;
}

CompactionPlan plan_store_compaction(const SignatureStore& store,
                                     const CompactionOptions& opts) {
  return plan_compaction(store_symbols(store), to_plan_options(opts));
}

CompactionResult compact_store(const SignatureStore& store,
                               const CompactionOptions& opts) {
  CompactionPlan plan = plan_store_compaction(store, opts);
  SignatureStore compacted = plan.dropped.empty()
                                 ? SignatureStore::from_bytes(store.to_bytes())
                                 : store.select_tests(plan.kept);
  CompactionReport report =
      to_report(plan, store.num_tests(), store.size_bytes());
  report.bytes_after = compacted.size_bytes();
  return CompactionResult{std::move(compacted), std::move(report)};
}

TestsetCompaction compact_testset(const ResponseMatrix& rm,
                                  const TestSet& tests,
                                  const CompactionOptions& opts) {
  if (tests.size() != rm.num_tests())
    throw std::invalid_argument(
        "compact_testset: test set size " + std::to_string(tests.size()) +
        " does not match response matrix (" + std::to_string(rm.num_tests()) +
        " tests)");
  CompactionPlan plan =
      plan_compaction(response_symbols(rm), to_plan_options(opts));
  return TestsetCompaction{tests.subset(plan.kept), std::move(plan)};
}

std::vector<Observed> project_observations(
    const std::vector<Observed>& obs, const std::vector<std::size_t>& kept) {
  std::vector<Observed> out;
  out.reserve(kept.size());
  for (std::size_t t : kept) {
    if (t >= obs.size())
      throw std::invalid_argument(
          "project_observations: kept column " + std::to_string(t) +
          " out of range (" + std::to_string(obs.size()) + " observations)");
    out.push_back(obs[t]);
  }
  return out;
}

}  // namespace sddict
