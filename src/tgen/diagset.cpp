#include "tgen/diagset.h"

#include <bit>
#include <unordered_map>
#include <unordered_set>

#include "dict/partition.h"
#include "sim/faultsim.h"
#include "tgen/distinguish.h"
#include "tgen/ndetect.h"
#include "util/hash.h"
#include "util/log.h"
#include "util/timer.h"

namespace sddict {
namespace {

// Full-response labels of every fault for each pattern of one batch:
// labels[t][fault] is a small id, 0 = fault-free response. Ids are local to
// the (batch, pattern) and only meaningful for equality tests.
std::vector<std::vector<std::uint32_t>> batch_response_labels(
    FaultSimulator& fsim, const FaultList& faults, const TestSet& tests,
    std::size_t first, std::size_t count) {
  std::vector<std::uint64_t> words;
  tests.pack_batch(first, count, &words);
  fsim.load_batch(words, count);

  std::vector<std::vector<std::uint32_t>> labels(
      count, std::vector<std::uint32_t>(faults.size(), 0));
  std::vector<std::unordered_map<Hash128, std::uint32_t, Hash128Hasher>> intern(
      count);

  Hash128 sig[64];
  std::vector<std::pair<std::size_t, std::uint64_t>> diffs;
  for (FaultId i = 0; i < faults.size(); ++i) {
    diffs.clear();
    const std::uint64_t any =
        fsim.simulate_fault(faults[i], [&](std::size_t o, std::uint64_t w) {
          diffs.push_back({o, w});
        });
    if (any == 0) continue;
    for (const auto& [o, w] : diffs) {
      const Hash128 tok = slot_token(o, 1);
      std::uint64_t bits = w;
      while (bits != 0) {
        const int t = std::countr_zero(bits);
        bits &= bits - 1;
        sig[t] ^= tok;
      }
    }
    std::uint64_t dirty = any;
    while (dirty != 0) {
      const int t = std::countr_zero(dirty);
      dirty &= dirty - 1;
      auto& table = intern[static_cast<std::size_t>(t)];
      auto [it, inserted] = table.try_emplace(
          sig[t], static_cast<std::uint32_t>(table.size() + 1));
      labels[static_cast<std::size_t>(t)][i] = it->second;
      sig[t] = Hash128{};
    }
  }
  return labels;
}

// Refines the partition with the full responses of tests [first, end).
void refine_with_tests(Partition* part, FaultSimulator& fsim,
                       const FaultList& faults, const TestSet& tests,
                       std::size_t first) {
  for (std::size_t b = first; b < tests.size(); b += 64) {
    const std::size_t count = std::min<std::size_t>(64, tests.size() - b);
    const auto labels = batch_response_labels(fsim, faults, tests, b, count);
    for (std::size_t t = 0; t < count; ++t) part->refine(labels[t]);
  }
}

std::uint64_t pair_key(FaultId a, FaultId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

}  // namespace

DiagSetResult generate_diagnostic(const Netlist& nl, const FaultList& faults,
                                  const DiagSetOptions& options) {
  DiagSetResult res;
  Rng rng(options.seed);
  Timer budget;
  BudgetScope scope(fold_legacy_deadline(options.budget, options.max_seconds));
  const std::size_t max_patterns = options.budget.max_patterns;
  // Polls deadline/cancellation and the emitted-pattern cap in one place.
  const auto out_of_budget = [&] {
    if (max_patterns > 0 && res.tests.size() >= max_patterns)
      scope.trip(StopReason::kMaxPatterns);
    return scope.stop();
  };

  // Phase 1: detection base (shares the overall deadline and token; its own
  // legacy 300 s cap applies only when this run is otherwise unbudgeted).
  DetectResult det = generate_detect(nl, faults, rng.next(), options.podem,
                                     options.random, 300.0, scope.nested());
  res.tests = std::move(det.tests);
  res.detect_tests = res.tests.size();
  LOG_DEBUG << "diagset(" << nl.name() << "): phase1 done at "
            << budget.seconds() << "s, " << res.detect_tests << " tests";

  Partition part(faults.size());
  FaultSimulator fsim(nl);
  refine_with_tests(&part, fsim, faults, res.tests, 0);
  LOG_DEBUG << "diagset(" << nl.name() << "): initial refine at "
            << budget.seconds() << "s, " << part.indistinguished_pairs()
            << " pairs open";

  // Phase 2: random diagnostic sweep — keep patterns that split classes.
  std::size_t stale = 0;
  for (std::size_t batch = 0; batch < options.diag_random_batches &&
                              stale < options.diag_random_stale &&
                              !part.fully_refined() && !out_of_budget();
       ++batch) {
    TestSet candidates(nl.num_inputs());
    candidates.add_random(64, rng);
    const auto labels = batch_response_labels(fsim, faults, candidates, 0, 64);
    std::size_t kept = 0;
    for (std::size_t t = 0; t < 64; ++t) {
      if (max_patterns > 0 && res.tests.size() >= max_patterns) {
        scope.trip(StopReason::kMaxPatterns);
        break;
      }
      if (part.refine(labels[t]) > 0) {
        res.tests.add(candidates[t]);
        ++kept;
      }
    }
    res.random_diag_tests += kept;
    stale = kept == 0 ? stale + 1 : 0;
  }
  LOG_DEBUG << "diagset(" << nl.name() << "): phase2 done at "
            << budget.seconds() << "s, +" << res.random_diag_tests
            << " tests, " << part.indistinguished_pairs() << " pairs open";

  // Phase 3: targeted pair ATPG on the remaining classes.
  std::unordered_set<std::uint64_t> settled;  // proven equivalent or aborted
  for (std::size_t round = 0;
       round < options.max_rounds && !part.fully_refined() && !out_of_budget();
       ++round) {
    if (res.pair_atpg_calls >= options.max_pair_atpg_calls) break;
    const std::size_t before = res.tests.size();

    // Refinement happens after the round, so the classes stay put.
    for (std::uint32_t c : part.open_classes()) {
      const auto members = part.members(c);
      if (res.pair_atpg_calls >= options.max_pair_atpg_calls) break;
      if (out_of_budget()) break;
      const FaultId a = members[0];
      for (std::size_t j = 1; j < members.size(); ++j) {
        const FaultId b = members[j];
        if (settled.count(pair_key(a, b))) continue;
        // Two proven-untestable faults both always produce the fault-free
        // response: provably indistinguishable, no ATPG needed.
        if (det.untestable[a] && det.untestable[b]) {
          settled.insert(pair_key(a, b));
          ++res.equivalence_proofs;
          continue;
        }
        ++res.pair_atpg_calls;
        BitVec test;
        PodemOptions pair_opts = options.pair_podem;
        pair_opts.budget = scope.nested();
        const DistinguishStatus st = distinguish_pair(
            nl, faults[a], faults[b], &test, rng, pair_opts);
        if (st == DistinguishStatus::kFound) {
          res.tests.add(std::move(test));
          ++res.targeted_tests;
          break;  // one new test per class per round
        }
        settled.insert(pair_key(a, b));
        if (st == DistinguishStatus::kIndistinguishable)
          ++res.equivalence_proofs;
        else
          ++res.aborted_pairs;
        if (res.pair_atpg_calls >= options.max_pair_atpg_calls) break;
      }
    }

    if (res.tests.size() == before) break;  // no class made progress
    refine_with_tests(&part, fsim, faults, res.tests, before);
    LOG_DEBUG << "diagset(" << nl.name() << "): round " << round << " at "
              << budget.seconds() << "s, +" << (res.tests.size() - before)
              << " tests, " << part.indistinguished_pairs() << " pairs open, "
              << res.pair_atpg_calls << " atpg calls";
  }

  res.indistinguished_pairs = part.indistinguished_pairs();
  res.completed = !scope.stopped();
  res.stop_reason = scope.reason();
  LOG_DEBUG << "diagset(" << nl.name() << "): " << res.tests.size() << " tests ("
            << res.detect_tests << " det + " << res.random_diag_tests
            << " rand + " << res.targeted_tests << " atpg), "
            << res.indistinguished_pairs << " pairs left, "
            << res.equivalence_proofs << " equivalence proofs";
  return res;
}

}  // namespace sddict
