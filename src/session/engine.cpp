#include "session/engine.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "store/kernels.h"
#include "store/signature_store.h"
#include "util/bitvec.h"

namespace sddict {

namespace {

std::uint32_t popcount_and(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t n) {
  std::uint32_t c = 0;
  for (std::size_t i = 0; i < n; ++i)
    c += static_cast<std::uint32_t>(std::popcount(a[i] & b[i]));
  return c;
}

}  // namespace

bool SessionEngine::detects(FaultId f, std::size_t t) const {
  return kernels::bit_at(detect_.row(f), t);
}

SessionEngine::SessionEngine(std::shared_ptr<const SignatureStore> store)
    : store_(std::move(store)) {
  if (!store_) throw std::invalid_argument("SessionEngine: null store");
  num_faults_ = store_->num_faults();
  num_tests_ = store_->num_tests();
  detect_ = passfail_rows(*store_);
  ad_.assign(num_faults_, 0);
  for (FaultId f = 0; f < num_faults_; ++f)
    for (std::size_t w = 0; w < detect_.words; ++w)
      ad_[f] += static_cast<std::uint32_t>(std::popcount(detect_.row(f)[w]));
}

SessionDiagnosis SessionEngine::diagnose(const SessionEvidence& ev,
                                         const SessionOptions& opt) const {
  if (ev.num_runs == 0)
    throw std::invalid_argument("session diagnose: session has no runs");
  if (ev.num_tests != num_tests_)
    throw std::invalid_argument(
        "session diagnose: evidence covers " + std::to_string(ev.num_tests) +
        " tests, dictionary has " + std::to_string(num_tests_));

  const std::size_t words = detect_.words;
  SessionDiagnosis out;
  out.num_runs = ev.num_runs;
  const std::vector<Observed> consensus = ev.consensus();
  // Single-fault ranking through the existing staged chain. With one
  // clean run the consensus IS that run's observation vector, so this is
  // bit-identical to calling diagnose_observed() directly.
  out.single = diagnose_observed(*store_, consensus, opt.engine);

  BudgetScope scope(opt.budget);

  // Pass/fail view of the consensus: a concrete reading that differs
  // from the fault-free response (id 0) is a fail (kUnknownResponse
  // included — its one honest bit), qualified tests are don't-cares.
  BitVec fail_mask(num_tests_);
  BitVec pass_mask(num_tests_);
  std::vector<std::size_t> failing;
  for (std::size_t t = 0; t < num_tests_; ++t) {
    if (consensus[t].dont_care()) continue;
    if (consensus[t].value != 0) {
      fail_mask.set(t, true);
      failing.push_back(t);
    } else {
      pass_mask.set(t, true);
    }
  }
  out.failing_tests = failing.size();
  if (failing.empty()) {
    out.cover_minimal = true;
    return out;
  }

  // Candidate scoring on the packed rows: per-fault coverage of the
  // failing set over every row, then conflicts against the passing set
  // over the relevant rows, one batched kernel call per block of rows
  // (obs = zeros, so masked_hamming counts row & mask). Setup and the
  // greedy incumbent below run un-polled — they are the bounded floor an
  // anytime result always includes; only the exponential search polls.
  const kernels::KernelTable& kt = kernels::dispatch();
  const std::vector<std::uint64_t> zeros(words, 0);
  const std::uint64_t* fm = fail_mask.words().data();
  const std::uint64_t* pm = pass_mask.words().data();
  std::vector<std::uint32_t> covers(num_faults_);
  kernels::masked_hamming_strided(kt, detect_.fail.data(), words, num_faults_,
                                  zeros.data(), fm, words, covers.data());
  std::vector<std::uint32_t> relevant;       // faults covering >= 1 failure
  std::vector<const std::uint64_t*> relevant_rows;  // indexed like `relevant`
  std::vector<std::uint64_t> detected(words, 0);  // union of relevant rows
  for (FaultId f = 0; f < num_faults_; ++f) {
    if (covers[f] == 0) continue;
    const std::uint64_t* row = detect_.row(f);
    relevant.push_back(static_cast<std::uint32_t>(f));
    relevant_rows.push_back(row);
    for (std::size_t w = 0; w < words; ++w) detected[w] |= row[w];
  }
  std::vector<std::uint32_t> conflicts_of(relevant.size());
  kt.masked_hamming_rows(relevant_rows.data(), relevant_rows.size(),
                         zeros.data(), pm, words, conflicts_of.data());

  // Failing tests no modeled fault detects cannot constrain the cover;
  // report them and search over the rest.
  std::vector<std::size_t> coverable;
  for (const std::size_t t : failing) {
    if (kernels::bit_at(detected.data(), t))
      coverable.push_back(t);
    else
      ++out.unexplained_failures;
  }
  const std::size_t nf = coverable.size();
  if (nf == 0) {
    out.cover_minimal = true;
    return out;
  }

  // Compressed coverage rows over the coverable-failure positions, so the
  // search never touches full-width rows: cov[r] bit i <=> relevant[r]
  // detects coverable[i].
  const std::size_t fw = BitVec::word_count(nf);
  std::vector<std::uint64_t> cov(relevant.size() * fw, 0);
  std::vector<std::vector<std::uint32_t>> cand(nf);  // detectors per failure
  for (std::size_t r = 0; r < relevant.size(); ++r) {
    const std::uint64_t* row = detect_.row(relevant[r]);
    std::uint64_t* crow = cov.data() + r * fw;
    for (std::size_t i = 0; i < nf; ++i)
      if (kernels::bit_at(row, coverable[i])) {
        crow[i >> 6] |= std::uint64_t{1} << (i & 63);
        cand[i].push_back(static_cast<std::uint32_t>(r));
      }
  }

  // Candidate preference at equal coverage gain: fewer conflicts, then
  // the AD index (a low accidental-detection count makes a fault hard to
  // implicate by accident), then fault id.
  const auto prefer = [&](std::uint32_t a, std::uint32_t b) {
    if (conflicts_of[a] != conflicts_of[b])
      return conflicts_of[a] < conflicts_of[b];
    if (ad_[relevant[a]] != ad_[relevant[b]])
      return ad_[relevant[a]] < ad_[relevant[b]];
    return relevant[a] < relevant[b];
  };

  // Greedy incumbent: the anytime fallback and the branch-and-bound's
  // initial upper bound.
  std::vector<std::uint64_t> uncov(fw, 0);
  for (std::size_t i = 0; i < nf; ++i)
    uncov[i >> 6] |= std::uint64_t{1} << (i & 63);
  std::vector<std::uint32_t> greedy;
  std::size_t greedy_uncovered = nf;
  {
    std::vector<std::uint64_t> u = uncov;
    std::size_t left = nf;
    while (left > 0 && greedy.size() < opt.max_cover) {
      std::uint32_t best_r = 0;
      std::uint32_t best_gain = 0;
      for (std::uint32_t r = 0; r < relevant.size(); ++r) {
        const std::uint32_t g = popcount_and(cov.data() + r * fw, u.data(), fw);
        if (g > best_gain || (g == best_gain && g > 0 && prefer(r, best_r)))
          best_r = r, best_gain = g;
      }
      if (best_gain == 0) break;  // cannot happen: every position has a cand
      greedy.push_back(best_r);
      const std::uint64_t* crow = cov.data() + best_r * fw;
      for (std::size_t w = 0; w < fw; ++w) u[w] &= ~crow[w];
      left -= best_gain;
    }
    greedy_uncovered = left;
  }
  const bool greedy_full = greedy_uncovered == 0;

  // Branch-and-bound enumeration of minimal covers. Exclusion branching
  // (branch i of a node bans candidates 0..i-1 of that node in its whole
  // subtree) yields every cover exactly once: a cover surfaces in the
  // branch of its lowest-ordered member among the branch test's
  // candidates. The admissible bound ceil(uncovered / gmax) prunes with
  // > (not >=), so every tie at the minimal cardinality is enumerated.
  std::uint32_t gmax = 1;
  for (std::size_t r = 0; r < relevant.size(); ++r)
    gmax = std::max(gmax, popcount_and(cov.data() + r * fw, uncov.data(), fw));

  std::size_t best = greedy_full ? greedy.size() : opt.max_cover + 1;
  bool have_full = greedy_full;
  std::vector<std::vector<std::uint32_t>> sols;
  bool truncated = false;
  bool stopped = false;
  std::vector<char> banned(relevant.size(), 0);
  std::vector<std::uint32_t> chosen;

  const std::function<void(const std::vector<std::uint64_t>&, std::size_t)>
      search = [&](const std::vector<std::uint64_t>& u, std::size_t left) {
        // Polled per node: the node's own work (candidate scan + sort)
        // dwarfs the clock read, and per-node polling makes truncation
        // deterministic — an expired budget stops at the very next node.
        if (stopped || scope.stop()) {
          stopped = true;
          return;
        }
        if (left == 0) {
          if (chosen.size() < best || !have_full) {
            best = chosen.size();
            have_full = true;
            sols.clear();
            truncated = false;
          }
          if (sols.size() < opt.max_groups)
            sols.push_back(chosen);
          else
            truncated = true;
          return;
        }
        const std::size_t limit = have_full ? best : opt.max_cover;
        if (chosen.size() + (left + gmax - 1) / gmax > limit) return;
        // Branch on the most constrained uncovered failure (fewest
        // detectors overall — a cheap static proxy).
        std::size_t pick = nf;
        for (std::size_t i = 0; i < nf; ++i) {
          if (!((u[i >> 6] >> (i & 63)) & 1u)) continue;
          if (pick == nf || cand[i].size() < cand[pick].size()) pick = i;
        }
        // Order its detectors: coverage gain against the live uncovered
        // set first, then the conflict/AD/id preference.
        std::vector<std::pair<std::uint32_t, std::uint32_t>> order;  // (r, gain)
        order.reserve(cand[pick].size());
        for (const std::uint32_t r : cand[pick]) {
          if (banned[r]) continue;
          order.emplace_back(r,
                             popcount_and(cov.data() + r * fw, u.data(), fw));
        }
        std::sort(order.begin(), order.end(), [&](const auto& a, const auto& b) {
          if (a.second != b.second) return a.second > b.second;
          return prefer(a.first, b.first);
        });
        std::size_t banned_here = 0;
        for (const auto& [r, gain] : order) {
          std::vector<std::uint64_t> child(fw);
          const std::uint64_t* crow = cov.data() + r * fw;
          for (std::size_t w = 0; w < fw; ++w) child[w] = u[w] & ~crow[w];
          chosen.push_back(r);
          search(child, left - gain);
          chosen.pop_back();
          if (stopped) break;
          banned[r] = 1;  // later branches must not re-enumerate covers of r
          ++banned_here;
        }
        for (std::size_t i = 0; i < banned_here; ++i) banned[order[i].first] = 0;
      };
  search(uncov, nf);

  out.completed = !stopped;
  out.stop_reason = stopped ? scope.reason() : StopReason::kCompleted;
  if (sols.empty()) {
    if (greedy.empty()) return out;  // budget died before the greedy pass
    sols.push_back(greedy);  // anytime incumbent (possibly partial)
    out.uncovered_failures = greedy_uncovered;
    out.cover_minimal = false;
  } else {
    out.cover_minimal = !stopped;
    out.groups_truncated = truncated;
  }
  out.min_cover = sols.front().size();

  // Score each cover as an ambiguity group on the full-width rows.
  double weight_total = 0;
  for (std::size_t t = 0; t < num_tests_; ++t)
    if (!consensus[t].dont_care()) weight_total += ev.weight(t);
  std::vector<std::uint64_t> joint(words);
  for (const std::vector<std::uint32_t>& sol : sols) {
    AmbiguityGroup g;
    std::fill(joint.begin(), joint.end(), 0);
    for (const std::uint32_t r : sol) {
      const FaultId f = relevant[r];
      g.faults.push_back(f);
      g.ad_sum += ad_[f];
      const std::uint64_t* row = detect_.row(f);
      for (std::size_t w = 0; w < words; ++w) joint[w] |= row[w];
    }
    std::sort(g.faults.begin(), g.faults.end());
    g.conflicts = popcount_and(joint.data(), pm, words);
    double consistent = 0;
    for (std::size_t t = 0; t < num_tests_; ++t) {
      if (consensus[t].dont_care()) continue;
      const bool predicted_fail = kernels::bit_at(joint.data(), t);
      if (predicted_fail == fail_mask.get(t)) consistent += ev.weight(t);
    }
    g.confidence = weight_total > 0 ? consistent / weight_total : 0.0;
    out.groups.push_back(std::move(g));
  }
  std::sort(out.groups.begin(), out.groups.end(),
            [](const AmbiguityGroup& a, const AmbiguityGroup& b) {
              if (a.conflicts != b.conflicts) return a.conflicts < b.conflicts;
              if (a.confidence != b.confidence)
                return a.confidence > b.confidence;
              if (a.ad_sum != b.ad_sum) return a.ad_sum < b.ad_sum;
              return a.faults < b.faults;
            });
  return out;
}

}  // namespace sddict
