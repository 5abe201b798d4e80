#include "core/baseline.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "util/failpoint.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace sddict {

ResponseClasses ResponseClasses::singletons(std::size_t num_faults) {
  ResponseClasses classes;
  classes.rep.resize(num_faults);
  std::iota(classes.rep.begin(), classes.rep.end(), std::uint32_t{0});
  classes.weight.assign(num_faults, 1);
  return classes;
}

ResponseClasses response_classes(const ResponseMatrix& rm) {
  Partition part(rm.num_faults());
  for (std::size_t j = 0; j < rm.num_tests() && !part.fully_refined(); ++j) {
    const auto col = rm.column(j);
    part.refine_with([&](std::uint32_t f) { return col[f]; });
  }
  // Members keep ascending fault order, so a class's first member is its
  // lowest fault and the classes come out in order of first appearance.
  ResponseClasses classes;
  classes.rep.reserve(part.num_classes());
  classes.weight.reserve(part.num_classes());
  for (std::uint32_t f = 0; f < rm.num_faults(); ++f) {
    const auto members = part.members(part.class_of(f));
    if (members.front() != f) continue;
    classes.rep.push_back(f);
    classes.weight.push_back(static_cast<std::uint32_t>(members.size()));
  }
  return classes;
}

std::vector<std::uint64_t> candidate_dist(const ResponseMatrix& rm,
                                          std::size_t test,
                                          const Partition& partition) {
  const ResponseClasses classes =
      ResponseClasses::singletons(partition.num_elements());
  CandidateScorer scorer(rm.column(test), classes, rm.num_distinct(test));
  for (std::uint32_t c : partition.open_classes())
    scorer.add_group(partition.members(c));
  return scorer.dist();
}

ResponseId scan_with_lower(const std::vector<std::uint64_t>& dist,
                           std::size_t lower) {
  // Procedure 1, steps 3b/3c: best_dist starts below every real score;
  // `lower` counts consecutive candidates scoring strictly below the best.
  ResponseId best_id = 0;
  bool have_best = false;
  std::uint64_t best = 0;
  std::size_t low_run = 0;
  for (ResponseId z = 0; z < dist.size(); ++z) {
    if (!have_best || dist[z] > best) {
      best = dist[z];
      best_id = z;
      have_best = true;
      low_run = 0;
    } else if (dist[z] < best) {
      if (++low_run == lower) break;
    }
  }
  return best_id;
}

namespace {

// Fault pairs a partition of classes leaves together: the sum over its
// parts of C(W, 2), W the part's total weight.
std::uint64_t weighted_pairs(const Partition& part,
                             const ResponseClasses& classes) {
  std::uint64_t pairs = 0;
  for (std::size_t c = 0; c < part.num_classes(); ++c) {
    std::size_t w = 0;
    for (std::uint32_t e : part.members(c)) w += classes.weight[e];
    pairs += Partition::pairs(w);
  }
  return pairs;
}

// Procedure 1 on one weighted row per class. The partition is over
// classes, so it is fully refined exactly when every remaining group of
// faults shares one full row and no test can split anything.
BaselineSelection procedure1_on_classes(const ResponseMatrix& rm,
                                        const ResponseClasses& classes,
                                        const std::vector<std::size_t>& order,
                                        std::size_t lower) {
  BaselineSelection sel;
  sel.baselines.resize(rm.num_tests());
  for (std::size_t j = 0; j < rm.num_tests(); ++j)
    sel.baselines[j] = rm.fault_free_id(j);
  Partition part(classes.size());
  std::vector<std::uint32_t> scored;  // open classes that scored, ascending
  for (std::size_t j : order) {
    if (part.fully_refined()) break;
    const auto col = rm.column(j);
    CandidateScorer scorer(col, classes, rm.num_distinct(j));
    scored.clear();
    for (std::uint32_t c : part.open_classes())
      if (scorer.add_group(part.members(c))) scored.push_back(c);
    const ResponseId chosen = scan_with_lower(scorer.dist(), lower);
    sel.baselines[j] = chosen;
    // A class that did not score shares one response, hence one label.
    part.refine_classes(scored, [&](std::uint32_t e) {
      return col[classes.rep[e]] == chosen;
    });
  }
  sel.indistinguished_pairs = weighted_pairs(part, classes);
  sel.distinguished_pairs =
      Partition::pairs(rm.num_faults()) - sel.indistinguished_pairs;
  sel.calls_used = 1;
  return sel;
}

// The all-fault-free assignment (a pass/fail dictionary): itself a valid
// baseline choice and the floor under every Procedure 1 result. The
// fault-free id is resolved per test — id 0 for simulated matrices, but
// not necessarily for matrices from response_matrix_from_ids.
BaselineSelection passfail_floor(const ResponseMatrix& rm,
                                 const ResponseClasses& classes) {
  BaselineSelection passfail;
  passfail.baselines.resize(rm.num_tests());
  Partition part(classes.size());
  for (std::size_t j = 0; j < rm.num_tests(); ++j) {
    const ResponseId ff = rm.fault_free_id(j);
    passfail.baselines[j] = ff;
    const auto col = rm.column(j);
    if (!part.fully_refined())
      part.refine_with(
          [&](std::uint32_t e) { return col[classes.rep[e]] == ff; });
  }
  passfail.indistinguished_pairs = weighted_pairs(part, classes);
  passfail.distinguished_pairs =
      Partition::pairs(rm.num_faults()) - passfail.indistinguished_pairs;
  return passfail;
}

}  // namespace

BaselineSelection procedure1_single(const ResponseMatrix& rm,
                                    const std::vector<std::size_t>& order,
                                    std::size_t lower) {
  return procedure1_on_classes(rm, response_classes(rm), order, lower);
}

BaselineSelection run_procedure1(const ResponseMatrix& rm,
                                 const BaselineSelectionConfig& config) {
  return run_procedure1(rm, response_classes(rm), config);
}

BaselineSelection run_procedure1(const ResponseMatrix& rm,
                                 const ResponseClasses& classes,
                                 const BaselineSelectionConfig& config) {
  BudgetScope scope(config.budget);

  // Restart r is a pure function of (rm, config, r): restart 0 uses the
  // natural test order, restart r > 0 a permutation drawn from
  // Rng(config.seed + r). That makes restarts independently computable in
  // any order and on any thread. A restart started after the budget expired
  // is skipped (empty selection, calls_used == 0); the reduction below can
  // never consume such a slot, because the expiry it observed is also
  // visible to every later budget poll.
  auto run_restart = [&](std::size_t r) {
    if (scope.stop()) return BaselineSelection{};
    SDDICT_FAILPOINT("proc1_restart");
    std::vector<std::size_t> order(rm.num_tests());
    std::iota(order.begin(), order.end(), std::size_t{0});
    if (r > 0) {
      Rng rng(config.seed + r);
      rng.shuffle(order);
    }
    return procedure1_on_classes(rm, classes, order, config.lower);
  };

  // Waves of independent restarts, reduced sequentially by restart index
  // with the original stopping rules. The first wave runs restarts
  // [0, threads) and computes the pass/fail floor as one more task; the
  // reduction seeds the incumbent with restart 0 unless the floor is
  // strictly better, and with the floor alone when even restart 0 was
  // skipped (calls_used == 0). Strict improvement ("more distinguished
  // pairs") keeps the lowest restart index on ties, and restarts past the
  // stop point are computed but never consumed — so the result and
  // calls_used are bit-identical at every thread count and wave size. No
  // wave computes a restart past the restart caps.
  // Stop-rule ordering matters for the anytime guarantee: natural
  // completion is checked first (so a run that finishes and expires in the
  // same instant reports completed), then the restart caps (which latch
  // kMaxRestarts), then the deadline/cancellation poll.
  BaselineSelection best;
  std::size_t calls = 0;
  std::size_t no_improve = 0;
  auto stopped = [&] {
    if (no_improve >= config.calls1 ||
        best.indistinguished_pairs <= config.target_indistinguished)
      return true;
    if (calls >= kMaxProcedure1Calls ||
        (config.budget.max_restarts > 0 &&
         calls >= config.budget.max_restarts)) {
      scope.trip(StopReason::kMaxRestarts);
      return true;
    }
    return scope.stop();
  };

  const std::size_t threads = ThreadPool::resolve(config.num_threads);
  const std::size_t wave = threads;
  const std::size_t restart_cap =
      config.budget.max_restarts > 0
          ? std::min(config.budget.max_restarts, kMaxProcedure1Calls)
          : kMaxProcedure1Calls;
  ThreadPool pool(threads);

  std::vector<BaselineSelection> slots(wave);
  BaselineSelection passfail;
  std::size_t next_restart = 0;
  do {
    const std::size_t wave_begin = next_restart;
    const std::size_t wave_end = std::min(wave_begin + wave, restart_cap);
    // The floor goes first in the first wave so the pool's FIFO queue
    // starts it alongside the restarts.
    const std::size_t extra = wave_begin == 0 ? 1 : 0;
    pool.parallel_for(0, extra + wave_end - wave_begin, [&](std::size_t i) {
      if (i < extra)
        passfail = passfail_floor(rm, classes);
      else
        slots[i - extra] = run_restart(wave_begin + i - extra);
    });
    for (std::size_t r = wave_begin; r < wave_end; ++r) {
      BaselineSelection cur = std::move(slots[r - wave_begin]);
      if (r == 0) {
        // calls_used == 1 marks a restart that actually ran
        // (procedure1_on_classes sets it); 0 means an already-expired
        // budget skipped it.
        const bool ran = cur.calls_used == 1;
        calls = ran ? 1 : 0;
        best = ran && cur.distinguished_pairs >= passfail.distinguished_pairs
                   ? std::move(cur)
                   : std::move(passfail);
        continue;
      }
      if (stopped()) break;
      ++calls;
      if (cur.distinguished_pairs > best.distinguished_pairs) {
        best = std::move(cur);
        no_improve = 0;
      } else {
        ++no_improve;
      }
    }
    next_restart = wave_end;
  } while (!stopped());
  best.calls_used = calls;
  best.completed = !scope.stopped();
  best.stop_reason = scope.reason();
  LOG_DEBUG << "procedure1: " << calls << " calls on " << threads
            << " thread(s), " << best.indistinguished_pairs
            << " pairs indistinguished ("
            << stop_reason_name(best.stop_reason) << ")";
  return best;
}

}  // namespace sddict
