// Signature-store suite (ISSUE 4): the packed on-disk format and its
// kernels.
//
//  * round trips for every store kind (pass/fail, same/different,
//    multi-baseline, full) plus the pass/fail projections of first-fail
//    and detection-list dictionaries — to_bytes/from_bytes, write_file/
//    load_file, dictionary reconstruction, and diagnose equivalence of the
//    store path against the dictionary path;
//  * the packed pass/fail projection (passfail_rows) and the engine's
//    projection stages against the per-bit tri-state rule;
//  * mmap vs. stream loads are byte- and behavior-identical;
//  * word-parallel kernels against their per-bit reference loops on random
//    operands;
//  * fault injection: EVERY single-byte flip and EVERY truncation of a
//    packed store, and a stream that fails mid-write or mid-read, must be
//    rejected with a named std::runtime_error — never a crash, never a
//    silently wrong answer.
//
// Registered under the "robustness" ctest label (sanitizer presets).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bmcirc/synth.h"
#include "diag/engine.h"
#include "dict/detlist_dict.h"
#include "dict/firstfail_dict.h"
#include "dict/full_dict.h"
#include "dict/multibaseline_dict.h"
#include "dict/passfail_dict.h"
#include "dict/samediff_dict.h"
#include "fault/collapse.h"
#include "faultinject.h"
#include "repo/repository.h"
#include "sim/response.h"
#include "sim/testset.h"
#include "store/kernels.h"
#include "store/signature_store.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace sddict {
namespace {

using testing::FailAfterWriteBuf;
using testing::ThrowAfterReadBuf;
using testing::flip_byte;
using testing::truncate_to;

// ------------------------------------------------------------- fixtures --

// A small-but-not-trivial workload: enough faults and tests that rows span
// multiple 64-bit words and the store needs several pages.
ResponseMatrix store_matrix() {
  SynthProfile profile;
  profile.name = "store";
  profile.inputs = 10;
  profile.outputs = 4;
  profile.dffs = 0;
  profile.gates = 90;
  profile.seed = 0x570e;
  const Netlist nl = generate_synthetic(profile);
  const FaultList faults = collapsed_fault_list(nl).collapsed;
  TestSet tests(nl.num_inputs());
  Rng rng(7);
  tests.add_random(70, rng);
  ResponseMatrixStatus status;
  return build_response_matrix(nl, faults, tests, {.store_diff_outputs = true},
                               &status);
}

const ResponseMatrix& rm() {
  static const ResponseMatrix m = store_matrix();
  return m;
}

std::vector<ResponseId> nontrivial_baselines(const ResponseMatrix& m) {
  std::vector<ResponseId> bl(m.num_tests(), 0);
  for (std::size_t t = 0; t < m.num_tests(); ++t)
    if (m.num_distinct(t) > 1 && t % 2 == 0) bl[t] = 1;
  return bl;
}

std::vector<std::vector<ResponseId>> ragged_baselines(const ResponseMatrix& m) {
  std::vector<std::vector<ResponseId>> bl(m.num_tests());
  for (std::size_t t = 0; t < m.num_tests(); ++t) {
    bl[t].push_back(0);
    if (m.num_distinct(t) > 1 && t % 3 == 0) bl[t].push_back(1);
  }
  return bl;
}

std::vector<Observed> fault_observation(const FullDictionary& full,
                                        FaultId f) {
  std::vector<Observed> obs(full.num_tests());
  for (std::size_t t = 0; t < full.num_tests(); ++t)
    obs[t] = Observed::of(full.entry(f, t));
  return obs;
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

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

// --------------------------------------------------------------- kernels --

TEST(Kernels, MaskedHammingMatchesReferenceOnRandomOperands) {
  Rng rng(11);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t nbits = 1 + rng.below(300);
    const std::size_t nwords = (nbits + 63) / 64;
    std::vector<std::uint64_t> row(nwords), obs(nwords), care(nwords);
    for (std::size_t i = 0; i < nwords; ++i) {
      row[i] = rng.next();
      obs[i] = rng.next();
      care[i] = rng.next();
    }
    // Zero the tail so per-word and per-bit agree on the domain.
    const std::size_t tail = nwords * 64 - nbits;
    if (tail > 0) {
      const std::uint64_t mask = ~std::uint64_t{0} >> tail;
      row[nwords - 1] &= mask;
      obs[nwords - 1] &= mask;
      care[nwords - 1] &= mask;
    }
    EXPECT_EQ(kernels::masked_hamming(row.data(), obs.data(), care.data(),
                                      nwords),
              kernels::masked_hamming_reference(row.data(), obs.data(),
                                                care.data(), nbits));
  }
}

TEST(Kernels, MaskedSymbolMismatchesMatchesReference) {
  Rng rng(12);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t n = 1 + rng.below(200);
    std::vector<std::uint32_t> row(n), obs(n);
    std::vector<std::uint8_t> care(n);
    for (std::size_t t = 0; t < n; ++t) {
      row[t] = static_cast<std::uint32_t>(rng.below(4));
      obs[t] = rng.coin() ? row[t] : static_cast<std::uint32_t>(rng.below(4));
      care[t] = rng.coin() ? 1 : 0;
    }
    EXPECT_EQ(kernels::masked_symbol_mismatches(row.data(), obs.data(),
                                                care.data(), n),
              kernels::masked_symbol_mismatches_reference(
                  row.data(), obs.data(), care.data(), n));
  }
}

// Every dispatched variant (scalar word-parallel + whatever SIMD tables
// this machine supports) against the per-bit oracle, sweeping tail widths
// around every vector-width boundary (nbits mod 64 in {0, 1, 63}) and the
// degenerate all-care / no-care masks. A variant whose tail handling is
// off by even one lane fails here before it can misrank anything.
TEST(Kernels, EveryVariantMatchesPerBitOracleAcrossTailWidths) {
  const auto tables = kernels::supported_kernels();
  ASSERT_FALSE(tables.empty());
  EXPECT_STREQ(tables.front()->name, "scalar");
  Rng rng(13);
  const std::size_t widths[] = {1,   63,  64,  65,  127, 128, 129,
                                191, 192, 193, 320, 321, 512, 513};
  for (const std::size_t nbits : widths) {
    const std::size_t nwords = (nbits + 63) / 64;
    std::vector<std::uint64_t> row(nwords), obs(nwords), care(nwords);
    for (std::size_t i = 0; i < nwords; ++i) {
      row[i] = rng.next();
      obs[i] = rng.next();
      care[i] = rng.next();
    }
    const std::size_t tail = nwords * 64 - nbits;
    const std::uint64_t mask =
        tail > 0 ? ~std::uint64_t{0} >> tail : ~std::uint64_t{0};
    row[nwords - 1] &= mask;
    obs[nwords - 1] &= mask;
    care[nwords - 1] &= mask;

    const std::uint32_t want_masked = kernels::masked_hamming_reference(
        row.data(), obs.data(), care.data(), nbits);
    std::vector<std::uint64_t> all_care(nwords, ~std::uint64_t{0});
    all_care[nwords - 1] = mask;
    const std::uint32_t want_all = kernels::masked_hamming_reference(
        row.data(), obs.data(), all_care.data(), nbits);
    const std::vector<std::uint64_t> no_care(nwords, 0);

    for (const kernels::KernelTable* t : tables) {
      EXPECT_EQ(t->masked_hamming(row.data(), obs.data(), care.data(), nwords),
                want_masked)
          << t->name << " nbits=" << nbits;
      EXPECT_EQ(
          t->masked_hamming(row.data(), obs.data(), all_care.data(), nwords),
          want_all)
          << t->name << " all-care nbits=" << nbits;
      EXPECT_EQ(
          t->masked_hamming(row.data(), obs.data(), no_care.data(), nwords),
          0u)
          << t->name << " no-care nbits=" << nbits;
    }
  }
}

// Regression test for the care-byte contract (any non-zero byte means
// "cared"): the pre-fix scalar kernel masked with the raw care byte, so an
// even byte (2, 0x80, ...) silently dropped real mismatches. Every
// variant must count a mismatch under every non-zero care byte, across
// lane-tail widths of the 8- and 16-lane SIMD loops.
TEST(Kernels, EveryVariantCountsSymbolMismatchesForAnyNonZeroCareByte) {
  const auto tables = kernels::supported_kernels();
  const std::uint8_t care_bytes[] = {0, 1, 2, 0x80, 0xFF};

  // Deterministic single-lane probe: one mismatching lane, every care byte.
  for (const std::uint8_t c : care_bytes) {
    const std::uint32_t row = 3, obs = 4;
    const std::uint32_t want = c != 0 ? 1u : 0u;
    for (const kernels::KernelTable* t : tables)
      EXPECT_EQ(t->masked_symbol_mismatches(&row, &obs, &c, 1), want)
          << t->name << " care=" << int{c};
  }

  Rng rng(14);
  const std::size_t lane_counts[] = {1,  2,  3,  4,  5,  7,  8,  9,
                                     15, 16, 17, 31, 32, 33, 64, 65};
  for (const std::size_t n : lane_counts) {
    std::vector<std::uint32_t> row(n), obs(n);
    std::vector<std::uint8_t> care(n);
    for (std::size_t t = 0; t < n; ++t) {
      row[t] = static_cast<std::uint32_t>(rng.below(4));
      obs[t] = rng.coin() ? row[t] : static_cast<std::uint32_t>(rng.below(4));
      care[t] = care_bytes[rng.below(5)];
    }
    const std::uint32_t want = kernels::masked_symbol_mismatches_reference(
        row.data(), obs.data(), care.data(), n);
    for (const kernels::KernelTable* t : tables)
      EXPECT_EQ(t->masked_symbol_mismatches(row.data(), obs.data(),
                                            care.data(), n),
                want)
          << t->name << " n=" << n;
  }
}

// The bounded kernels' contract (the top-k pruning primitive): a result
// <= limit is the exact count; a result > limit proves the true count is
// also > limit. Checked for every variant over random operands and limits
// straddling the true count, plus the no-limit short-circuit.
TEST(Kernels, BoundedKernelsHonorTheirContract) {
  const auto tables = kernels::supported_kernels();
  Rng rng(15);
  constexpr std::uint32_t kNoLimit = ~std::uint32_t{0};
  for (int iter = 0; iter < 100; ++iter) {
    const std::size_t nbits = 1 + rng.below(1200);
    const std::size_t nwords = (nbits + 63) / 64;
    std::vector<std::uint64_t> row(nwords), obs(nwords), care(nwords);
    for (std::size_t i = 0; i < nwords; ++i) {
      row[i] = rng.next();
      obs[i] = rng.next();
      care[i] = rng.next();
    }
    const std::size_t tail = nwords * 64 - nbits;
    if (tail > 0) {
      const std::uint64_t mask = ~std::uint64_t{0} >> tail;
      row[nwords - 1] &= mask;
      obs[nwords - 1] &= mask;
      care[nwords - 1] &= mask;
    }
    const std::uint32_t truth = kernels::masked_hamming_reference(
        row.data(), obs.data(), care.data(), nbits);
    const std::uint32_t limits[] = {0,
                                    truth > 0 ? truth - 1 : 0,
                                    truth,
                                    truth + 1,
                                    truth + 17,
                                    static_cast<std::uint32_t>(rng.below(
                                        2 * truth + 2)),
                                    kNoLimit};
    for (const kernels::KernelTable* t : tables) {
      for (const std::uint32_t limit : limits) {
        const std::uint32_t got = kernels::masked_hamming_bounded(
            *t, row.data(), obs.data(), care.data(), nwords, limit);
        if (got <= limit)
          EXPECT_EQ(got, truth) << t->name << " limit=" << limit;
        else
          EXPECT_GT(truth, limit) << t->name << " limit=" << limit;
      }
    }
  }
  // Symbol-lane flavor.
  for (int iter = 0; iter < 100; ++iter) {
    const std::size_t n = 1 + rng.below(400);
    std::vector<std::uint32_t> row(n), obs(n);
    std::vector<std::uint8_t> care(n);
    for (std::size_t t = 0; t < n; ++t) {
      row[t] = static_cast<std::uint32_t>(rng.below(4));
      obs[t] = rng.coin() ? row[t] : static_cast<std::uint32_t>(rng.below(4));
      care[t] = static_cast<std::uint8_t>(rng.below(3));
    }
    const std::uint32_t truth = kernels::masked_symbol_mismatches_reference(
        row.data(), obs.data(), care.data(), n);
    const std::uint32_t limits[] = {0, truth, truth + 1, kNoLimit};
    for (const kernels::KernelTable* t : tables) {
      for (const std::uint32_t limit : limits) {
        const std::uint32_t got = kernels::masked_symbol_mismatches_bounded(
            *t, row.data(), obs.data(), care.data(), n, limit);
        if (got <= limit)
          EXPECT_EQ(got, truth) << t->name << " limit=" << limit;
        else
          EXPECT_GT(truth, limit) << t->name << " limit=" << limit;
      }
    }
  }
}

// The batched rows kernels against the per-row kernel and the per-bit
// oracle, for every variant: widths 1-9 and 17 words with nbits mod 64 in
// {0, 1, 63}, symbol lane counts around the 8-, 16- and 64-lane
// boundaries, row counts around one 256-row sweep block, all-care and
// no-care masks. Each row is its own exact-size allocation and the
// pointer array is shuffled, so the kernels can assume neither a stride
// nor readable bytes past a row's end.
TEST(Kernels, RowsKernelsMatchPerRowOnEveryVariant) {
  const auto tables = kernels::supported_kernels();
  Rng rng(16);
  const std::size_t row_counts[] = {1, 255, 256, 257};
  const auto shuffled = [&rng](std::size_t n) {
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    rng.shuffle(order);
    return order;
  };

  const std::size_t word_counts[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 17};
  for (const std::size_t nwords : word_counts) {
    for (const std::size_t tail : {0u, 1u, 63u}) {
      const std::size_t nbits = tail == 0 ? nwords * 64 : (nwords - 1) * 64 + tail;
      const std::uint64_t mask =
          tail == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << tail) - 1;
      const auto random_words = [&] {
        std::vector<std::uint64_t> w(nwords);
        for (std::uint64_t& x : w) x = rng.next();
        w.back() &= mask;
        return w;
      };
      const std::vector<std::uint64_t> obs = random_words();
      std::vector<std::uint64_t> all_care(nwords, ~std::uint64_t{0});
      all_care.back() = mask;
      const std::vector<std::vector<std::uint64_t>> cares = {
          random_words(), all_care, std::vector<std::uint64_t>(nwords, 0)};
      for (const std::size_t nrows : row_counts) {
        std::vector<std::vector<std::uint64_t>> rows(nrows);
        for (auto& r : rows) r = random_words();
        std::vector<const std::uint64_t*> ptrs;
        for (const std::size_t i : shuffled(nrows)) ptrs.push_back(rows[i].data());
        for (const auto& care : cares) {
          for (const kernels::KernelTable* t : tables) {
            std::vector<std::uint32_t> out(nrows + 1, 0xdeadbeef);
            t->masked_hamming_rows(ptrs.data(), nrows, obs.data(), care.data(),
                                   nwords, out.data());
            for (std::size_t r = 0; r < nrows; ++r) {
              const std::uint32_t want = kernels::masked_hamming_reference(
                  ptrs[r], obs.data(), care.data(), nbits);
              ASSERT_EQ(out[r], want) << t->name << " nbits=" << nbits
                                      << " nrows=" << nrows << " row " << r;
              ASSERT_EQ(out[r], t->masked_hamming(ptrs[r], obs.data(),
                                                  care.data(), nwords))
                  << t->name << " nbits=" << nbits << " row " << r;
            }
            EXPECT_EQ(out[nrows], 0xdeadbeefu) << t->name << " wrote past nrows";
          }
        }
      }
    }
  }

  const std::size_t lane_counts[] = {1,  7,  8,  9,  15,  16,  17,
                                     63, 64, 65, 127, 128, 129};
  for (const std::size_t n : lane_counts) {
    std::vector<std::uint32_t> obs(n);
    for (std::uint32_t& v : obs) v = static_cast<std::uint32_t>(rng.below(4));
    std::vector<std::uint8_t> some_care(n);
    for (std::uint8_t& c : some_care) c = static_cast<std::uint8_t>(rng.below(3));
    const std::vector<std::vector<std::uint8_t>> cares = {
        some_care, std::vector<std::uint8_t>(n, 0xFF),
        std::vector<std::uint8_t>(n, 0)};
    for (const std::size_t nrows : row_counts) {
      std::vector<std::vector<std::uint32_t>> rows(nrows);
      for (auto& r : rows) {
        r.resize(n);
        for (std::size_t t = 0; t < n; ++t)
          r[t] = rng.coin() ? obs[t] : static_cast<std::uint32_t>(rng.below(4));
      }
      std::vector<const std::uint32_t*> ptrs;
      for (const std::size_t i : shuffled(nrows)) ptrs.push_back(rows[i].data());
      for (const auto& care : cares) {
        for (const kernels::KernelTable* t : tables) {
          std::vector<std::uint32_t> out(nrows + 1, 0xdeadbeef);
          t->masked_symbol_mismatches_rows(ptrs.data(), nrows, obs.data(),
                                           care.data(), n, out.data());
          for (std::size_t r = 0; r < nrows; ++r) {
            const std::uint32_t want = kernels::masked_symbol_mismatches_reference(
                ptrs[r], obs.data(), care.data(), n);
            ASSERT_EQ(out[r], want)
                << t->name << " n=" << n << " nrows=" << nrows << " row " << r;
            ASSERT_EQ(out[r], t->masked_symbol_mismatches(ptrs[r], obs.data(),
                                                          care.data(), n))
                << t->name << " n=" << n << " row " << r;
          }
          EXPECT_EQ(out[nrows], 0xdeadbeefu) << t->name << " wrote past nrows";
        }
      }
    }
  }
}

// ----------------------------------------------------------- round trips --

TEST(SignatureStore, PassFailRoundTrip) {
  const PassFailDictionary d = PassFailDictionary::build(rm());
  const SignatureStore s =
      SignatureStore::from_bytes(SignatureStore::build(d).to_bytes());
  EXPECT_EQ(s.kind(), StoreKind::kPassFail);
  EXPECT_EQ(s.source(), StoreSource::kPassFail);
  EXPECT_EQ(s.num_faults(), d.num_faults());
  EXPECT_EQ(s.num_tests(), d.num_tests());
  EXPECT_EQ(s.num_outputs(), d.num_outputs());
  for (FaultId f = 0; f < d.num_faults(); ++f)
    for (std::size_t t = 0; t < d.num_tests(); ++t)
      ASSERT_EQ(s.row_bit(f, t), d.bit(f, t)) << "fault " << f << " test " << t;
  const PassFailDictionary back = s.to_passfail();
  EXPECT_EQ(back.num_faults(), d.num_faults());
  EXPECT_EQ(back.indistinguished_pairs(), d.indistinguished_pairs());
}

TEST(SignatureStore, SameDifferentRoundTrip) {
  const SameDifferentDictionary d =
      SameDifferentDictionary::build(rm(), nontrivial_baselines(rm()));
  const SignatureStore s =
      SignatureStore::from_bytes(SignatureStore::build(d).to_bytes());
  EXPECT_EQ(s.kind(), StoreKind::kSameDifferent);
  for (std::size_t t = 0; t < d.num_tests(); ++t)
    ASSERT_EQ(s.baselines()[t], d.baselines()[t]) << "test " << t;
  const SameDifferentDictionary back = s.to_samediff();
  EXPECT_EQ(back.baselines(), d.baselines());
  EXPECT_EQ(back.indistinguished_pairs(), d.indistinguished_pairs());
  for (FaultId f = 0; f < d.num_faults(); ++f)
    for (std::size_t t = 0; t < d.num_tests(); ++t)
      ASSERT_EQ(back.bit(f, t), d.bit(f, t));
}

TEST(SignatureStore, MultiBaselineRoundTrip) {
  const MultiBaselineDictionary d =
      MultiBaselineDictionary::build(rm(), ragged_baselines(rm()));
  const SignatureStore s =
      SignatureStore::from_bytes(SignatureStore::build(d).to_bytes());
  EXPECT_EQ(s.kind(), StoreKind::kMultiBaseline);
  EXPECT_EQ(s.rank(), d.baselines_per_test());
  for (std::size_t t = 0; t < d.num_tests(); ++t) {
    const auto [ids, count] = s.baseline_set(t);
    ASSERT_EQ(count, d.baselines()[t].size()) << "test " << t;
    for (std::size_t l = 0; l < count; ++l)
      ASSERT_EQ(ids[l], d.baselines()[t][l]) << "test " << t << " slot " << l;
  }
  const MultiBaselineDictionary back = s.to_multibaseline();
  EXPECT_EQ(back.baselines(), d.baselines());
  EXPECT_EQ(back.indistinguished_pairs(), d.indistinguished_pairs());
}

TEST(SignatureStore, FullRoundTrip) {
  const FullDictionary d = FullDictionary::build(rm());
  const SignatureStore s =
      SignatureStore::from_bytes(SignatureStore::build(d).to_bytes());
  EXPECT_EQ(s.kind(), StoreKind::kFull);
  for (FaultId f = 0; f < d.num_faults(); ++f)
    for (std::size_t t = 0; t < d.num_tests(); ++t)
      ASSERT_EQ(s.entry(f, t), d.entry(f, t));
  const FullDictionary back = s.to_full();
  EXPECT_EQ(back.indistinguished_pairs(), d.indistinguished_pairs());
}

TEST(SignatureStore, FirstFailAndDetectionListProjectToPassFail) {
  const PassFailDictionary pf = PassFailDictionary::build(rm());
  const FirstFailDictionary ff = FirstFailDictionary::build(rm());
  const DetectionListDictionary dl = DetectionListDictionary::build(rm());

  const SignatureStore sff = SignatureStore::build(ff);
  EXPECT_EQ(sff.kind(), StoreKind::kPassFail);
  EXPECT_EQ(sff.source(), StoreSource::kFirstFail);
  const SignatureStore sdl = SignatureStore::build(dl, rm().num_outputs());
  EXPECT_EQ(sdl.kind(), StoreKind::kPassFail);
  EXPECT_EQ(sdl.source(), StoreSource::kDetectionList);

  // Both projections are exactly the pass/fail bit matrix.
  for (FaultId f = 0; f < pf.num_faults(); ++f)
    for (std::size_t t = 0; t < pf.num_tests(); ++t) {
      ASSERT_EQ(sff.row_bit(f, t), pf.bit(f, t)) << "first-fail " << f;
      ASSERT_EQ(sdl.row_bit(f, t), pf.bit(f, t)) << "detlist " << f;
    }
}

TEST(SignatureStore, RejectsKindMismatchedReconstruction) {
  const SignatureStore s =
      SignatureStore::build(PassFailDictionary::build(rm()));
  EXPECT_THROW(s.to_samediff(), std::runtime_error);
  EXPECT_THROW(s.to_multibaseline(), std::runtime_error);
  EXPECT_THROW(s.to_full(), std::runtime_error);
}

TEST(SignatureStore, RejectsEmptyDictionary) {
  EXPECT_THROW(SignatureStore::build(PassFailDictionary::from_rows({}, 4, 2)),
               std::runtime_error);
}

// ----------------------------------------------------- store == dictionary --

TEST(SignatureStore, DiagnoseEquivalentToDictionaryAllKinds) {
  const FullDictionary full = FullDictionary::build(rm());
  const PassFailDictionary pf = PassFailDictionary::build(rm());
  const SameDifferentDictionary sd =
      SameDifferentDictionary::build(rm(), nontrivial_baselines(rm()));
  const MultiBaselineDictionary mb =
      MultiBaselineDictionary::build(rm(), ragged_baselines(rm()));

  Rng rng(3);
  for (int i = 0; i < 6; ++i) {
    const auto f = static_cast<FaultId>(rng.below(full.num_faults()));
    std::vector<Observed> obs = fault_observation(full, f);
    if (i % 2 == 1) {
      // Degrade: one dropped record, one unmodeled response.
      obs[rng.below(obs.size())] = Observed::unstable();
      obs[rng.below(obs.size())] = Observed::of(kUnknownResponse);
    }
    expect_same_diagnosis(diagnose_observed(SignatureStore::build(pf), obs),
                          diagnose_observed(pf, obs), "pass/fail");
    expect_same_diagnosis(diagnose_observed(SignatureStore::build(sd), obs),
                          diagnose_observed(sd, obs), "same/different");
    expect_same_diagnosis(diagnose_observed(SignatureStore::build(mb), obs),
                          diagnose_observed(mb, obs), "multi-baseline");
    expect_same_diagnosis(diagnose_observed(SignatureStore::build(full), obs),
                          diagnose_observed(full, obs), "full");
  }
}

// --------------------------------------------------- top-k pruned ranking --

// The pruned sweep must be bit-identical to the exhaustive one (engine.h)
// for every store kind, including: degraded observations (which switch on
// the projection tiebreak), mass ties in the mismatch counts, max_results
// down to 1 (the k >= 2 clamp that keeps the margin exact), and non-zero
// tolerance (every fault within e keeps its guaranteed slot).
TEST(SignatureStore, PrunedRankingIsBitIdenticalToUnpruned) {
  const FullDictionary full = FullDictionary::build(rm());
  const SignatureStore stores[] = {
      SignatureStore::build(PassFailDictionary::build(rm())),
      SignatureStore::build(
          SameDifferentDictionary::build(rm(), nontrivial_baselines(rm()))),
      SignatureStore::build(
          MultiBaselineDictionary::build(rm(), ragged_baselines(rm()))),
      SignatureStore::build(full)};

  Rng rng(21);
  for (int i = 0; i < 8; ++i) {
    const auto f = static_cast<FaultId>(rng.below(full.num_faults()));
    std::vector<Observed> obs = fault_observation(full, f);
    if (i % 2 == 1) {
      // Degraded: dropped record + unmodeled response.
      obs[rng.below(obs.size())] = Observed::missing();
      obs[rng.below(obs.size())] = Observed::of(kUnknownResponse);
    }
    if (i >= 4) {
      // Scramble toward the fault-free response so many faults tie: ties
      // are where an unsound pruning bound would first leak (a kept row
      // displacing an equal-count pruned one).
      for (int j = 0; j < 12; ++j) obs[rng.below(obs.size())] = Observed::of(0);
    }
    EngineOptions opt;
    opt.max_results = 1 + static_cast<std::size_t>(i % 3);
    opt.tolerance = (i % 2 == 1) ? 2u : 0u;
    EngineOptions unpruned = opt;
    unpruned.prune = false;
    for (const SignatureStore& s : stores)
      expect_same_diagnosis(diagnose_observed(s, obs, opt),
                            diagnose_observed(s, obs, unpruned),
                            "pruned vs unpruned");
  }
}

// Sharding the sweep across a real pool (forced on via shard_min_faults =
// 1) must agree with the sequential sweep, pruned and unpruned.
TEST(SignatureStore, ShardedRankingMatchesSequential) {
  const FullDictionary full = FullDictionary::build(rm());
  const SignatureStore s = SignatureStore::build(full);
  ThreadPool pool(2);

  Rng rng(22);
  for (int i = 0; i < 4; ++i) {
    const auto f = static_cast<FaultId>(rng.below(full.num_faults()));
    std::vector<Observed> obs = fault_observation(full, f);
    if (i % 2 == 1) obs[rng.below(obs.size())] = Observed::unstable();

    EngineOptions sequential;
    sequential.max_results = 3;
    EngineOptions sharded = sequential;
    sharded.pool = &pool;
    sharded.shard_min_faults = 1;
    expect_same_diagnosis(diagnose_observed(s, obs, sharded),
                          diagnose_observed(s, obs, sequential),
                          "sharded vs sequential");
    sharded.prune = false;
    expect_same_diagnosis(diagnose_observed(s, obs, sharded),
                          diagnose_observed(s, obs, sequential),
                          "sharded unpruned vs sequential pruned");
  }
}

// ---------------------------------------------- wide, tie-heavy stores --

// A response matrix whose rows are wider than one bounded-kernel block
// (kernels::kBoundedBlockWords words, kBoundedBlockLanes lanes) and whose
// observations tie over a thousand faults: 1,500 faults over 3 outputs,
// of which every fault id not divisible by 4 (1,125 of them, spread over
// every 256-row sweep block) responds like the fault-free circuit on
// every test. The rest fail about a third of the tests with one of two
// faulty responses, so responses repeat and non-trivial baselines exist.
ResponseMatrix tie_heavy_matrix(std::size_t tests) {
  constexpr std::size_t kOutputs = 3;
  constexpr std::size_t kFaults = 1500;
  Rng rng(0x71e + tests);
  std::vector<BitVec> good(tests, BitVec(kOutputs));
  for (BitVec& z : good)
    for (std::size_t o = 0; o < kOutputs; ++o) z.set(o, rng.coin());
  std::vector<std::vector<BitVec>> faulty(kFaults, good);
  for (std::size_t f = 0; f < kFaults; f += 4)
    for (std::size_t t = 0; t < tests; ++t)
      if (rng.below(3) == 0) {
        const std::size_t o = rng.below(2);
        faulty[f][t].set(o, !good[t].get(o));
      }
  return response_matrix_from_table(good, faulty);
}

// Observation with every test at the fault-free response except
// `fails` tests (spread evenly) at faulty response id 1.
std::vector<Observed> fault_free_observation(const ResponseMatrix& m,
                                             std::size_t fails) {
  std::vector<Observed> obs(m.num_tests(), Observed::of(0));
  for (std::size_t i = 0, t = 0; i < fails && t < m.num_tests(); ++t)
    if (m.num_distinct(t) > 1 && t % 7 == 0) {
      obs[t] = Observed::of(1);
      ++i;
    }
  return obs;
}

// The engine on stores wider than one block, under mass ties: pruned
// equals unpruned, sharded equals sequential, and a budget stopped at a
// fixed poll (the diag.sweep.poll failpoint) stops the pruned and the
// unpruned sweep on identical prefixes. Every store kind: pass/fail,
// same/different and full over 600 tests, multi-baseline rank 2 over 300.
// max_results 0 keeps only the faults within tolerance, often none; the
// margin must still come from the two best counts.
// The engine runs the dispatched kernel table; CI reruns this suite with
// SDDICT_KERNELS pinned to the other variants.
TEST(EngineWideStores, PrunedShardedAndStoppedSweepsAgree) {
  const ResponseMatrix wide = tie_heavy_matrix(600);
  const ResponseMatrix half = tie_heavy_matrix(300);
  const PassFailDictionary pf = PassFailDictionary::build(wide);
  const SameDifferentDictionary sd =
      SameDifferentDictionary::build(wide, nontrivial_baselines(wide));
  const MultiBaselineDictionary mb =
      MultiBaselineDictionary::build(half, ragged_baselines(half));
  const FullDictionary full = FullDictionary::build(wide);
  // Each store with its matrix and its dictionary's own diagnose(): the
  // classical ranking, counted without the engine's kernels.
  using Classical = std::function<std::vector<DiagnosisMatch>(
      const std::vector<ResponseId>&, std::size_t)>;
  const struct {
    SignatureStore store;
    const ResponseMatrix& m;
    Classical classical;
  } cases[] = {
      {SignatureStore::build(pf), wide,
       [&](const std::vector<ResponseId>& ids, std::size_t n) {
         return pf.diagnose(pf.encode(ids), n);
       }},
      {SignatureStore::build(sd), wide,
       [&](const std::vector<ResponseId>& ids, std::size_t n) {
         return sd.diagnose(sd.encode(ids), n);
       }},
      {SignatureStore::build(mb), half,
       [&](const std::vector<ResponseId>& ids, std::size_t n) {
         return mb.diagnose(mb.encode(ids), n);
       }},
      {SignatureStore::build(full), wide,
       [&](const std::vector<ResponseId>& ids, std::size_t n) {
         return full.diagnose(ids, n);
       }},
  };
  ThreadPool pool(2);

  std::size_t largest_tie = 0;
  for (const auto& c : cases) {
    const SignatureStore& s = c.store;
    const ResponseMatrix& m = c.m;
    const char* kind = store_kind_name(s.kind());
    if (s.kind() == StoreKind::kFull)
      ASSERT_GT(s.num_tests(), kernels::kBoundedBlockLanes) << kind;
    else
      ASSERT_GT((s.signature_bits() + 63) / 64, kernels::kBoundedBlockWords)
          << kind;

    std::vector<std::vector<Observed>> queries = {
        fault_free_observation(m, 0), fault_free_observation(m, 3)};
    std::vector<Observed> detected(m.num_tests());
    for (std::size_t t = 0; t < m.num_tests(); ++t)
      detected[t] = Observed::of(m.response(8, t));
    queries.push_back(detected);
    detected[5] = Observed::missing();
    detected[9] = Observed::of(kUnknownResponse);
    queries.push_back(detected);  // degraded: tiebreak, stages 3 and 4
    std::vector<Observed> dropped = fault_free_observation(m, 3);
    dropped[1] = Observed::unstable();
    queries.push_back(dropped);

    for (std::size_t q = 0; q < queries.size(); ++q) {
      for (const std::size_t max_results : {0, 1, 10}) {
        for (const std::uint32_t tolerance : {0u, 2u}) {
          const std::string what = std::string(kind) + " query " +
                                   std::to_string(q) + " max_results " +
                                   std::to_string(max_results) + " tolerance " +
                                   std::to_string(tolerance);
          EngineOptions pruned;
          pruned.max_results = max_results;
          pruned.tolerance = tolerance;
          EngineOptions unpruned = pruned;
          unpruned.prune = false;
          const EngineDiagnosis want = diagnose_observed(s, queries[q], unpruned);
          largest_tie = std::max(largest_tie, want.matches.size());
          if (max_results > 0 &&
              want.outcome <= DiagnosisOutcome::kTolerantMatch &&
              want.dont_care_tests == 0) {
            // A native verdict on a clean observation is the classical
            // ranking, extended by the tolerance-e slots.
            std::vector<ResponseId> ids;
            for (const Observed& o : queries[q]) ids.push_back(o.value);
            const auto ref = c.classical(ids, max_results);
            ASSERT_FALSE(ref.empty()) << what;
            for (std::size_t i = 0; i < std::min(ref.size(), want.matches.size());
                 ++i) {
              EXPECT_EQ(want.matches[i].fault, ref[i].fault) << what << " #" << i;
              EXPECT_EQ(want.matches[i].mismatches, ref[i].mismatches)
                  << what << " #" << i;
            }
          }
          expect_same_diagnosis(diagnose_observed(s, queries[q], pruned), want,
                                (what + " pruned vs unpruned").c_str());

          for (EngineOptions sharded : {pruned, unpruned}) {
            sharded.pool = &pool;
            sharded.shard_min_faults = 1;
            expect_same_diagnosis(diagnose_observed(s, queries[q], sharded),
                                  want, (what + " sharded").c_str());
          }

          // Third poll: the native sweep stops after two 256-row blocks.
          EngineDiagnosis stopped[2];
          for (const bool prune : {true, false}) {
            EngineOptions opt = prune ? pruned : unpruned;
            ::sddict::testing::ScopedFailPoint stop("diag.sweep.poll", 3);
            stopped[prune] = diagnose_observed(s, queries[q], opt);
          }
          EXPECT_FALSE(stopped[0].completed) << what;
          EXPECT_EQ(stopped[0].stop_reason, StopReason::kCancelled) << what;
          for (const DiagnosisMatch& d : stopped[0].matches)
            EXPECT_LT(d.fault, 512u) << what << " stopped past its prefix";
          expect_same_diagnosis(stopped[1], stopped[0],
                                (what + " stopped pruned vs unpruned").c_str());
        }
      }
    }
  }
  EXPECT_GE(largest_tie, 1000u) << "no query tied 1,000+ faults";
}

// ------------------------------------------------ pass/fail projection --

// Ragged rank-2 baseline sets mixing every shape the projection must
// handle: fault-free only, faulty only, two faulty, fault-free in slot 1,
// and empty.
std::vector<std::vector<ResponseId>> mixed_baselines(const ResponseMatrix& m) {
  std::vector<std::vector<ResponseId>> bl(m.num_tests());
  for (std::size_t t = 0; t < m.num_tests(); ++t) {
    const std::size_t n = m.num_distinct(t);
    switch (t % 5) {
      case 0: bl[t] = {0}; break;
      case 1: if (n > 1) bl[t] = {1}; break;
      case 2: if (n > 2) bl[t] = {2, 1}; else bl[t] = {0}; break;
      case 3: if (n > 1) bl[t] = {1, 0}; break;
      default: break;  // empty set
    }
  }
  return bl;
}

// The per-bit tri-state rule the packed projection replaces: 1 = the
// fault definitely fails test t, 0 = it definitely passes, -1 = not
// derivable from the row.
int reference_projection(const SignatureStore& s, FaultId f, std::size_t t) {
  switch (s.kind()) {
    case StoreKind::kPassFail:
      return s.row_bit(f, t) ? 1 : 0;
    case StoreKind::kSameDifferent:
      if (s.baselines()[t] == 0) return s.row_bit(f, t) ? 1 : 0;
      return s.row_bit(f, t) ? -1 : 1;
    case StoreKind::kMultiBaseline: {
      const auto [ids, count] = s.baseline_set(t);
      for (std::size_t l = 0; l < count; ++l)
        if (ids[l] == 0) return s.row_bit(f, t * s.rank() + l) ? 1 : 0;
      for (std::size_t l = 0; l < count; ++l)
        if (!s.row_bit(f, t * s.rank() + l)) return 1;
      return -1;
    }
    case StoreKind::kFull:
      return s.entry(f, t) != 0 ? 1 : 0;
  }
  return -1;
}

// Reference projected mismatch count: cared tests where the tri-state bit
// is derivable and disagrees with the observed pass/fail bit.
std::uint32_t reference_projected_count(const SignatureStore& s, FaultId f,
                                        const std::vector<Observed>& obs) {
  std::uint32_t n = 0;
  for (std::size_t t = 0; t < obs.size(); ++t) {
    if (obs[t].dont_care()) continue;
    const int b = reference_projection(s, f, t);
    if (b >= 0 && b != (obs[t].value != 0 ? 1 : 0)) ++n;
  }
  return n;
}

// Recounting greedy cover of the observed fails over the reference fail
// bits: per pick, highest count of still-uncovered fails, lowest id.
std::vector<FaultId> reference_cover(const SignatureStore& s,
                                     const std::vector<Observed>& obs,
                                     std::size_t max_cover,
                                     std::size_t* uncovered) {
  std::vector<std::size_t> failing;
  for (std::size_t t = 0; t < obs.size(); ++t)
    if (!obs[t].dont_care() && obs[t].value != 0) failing.push_back(t);
  std::vector<bool> covered(failing.size(), false);
  *uncovered = failing.size();
  std::vector<FaultId> cover;
  while (*uncovered > 0 && cover.size() < max_cover) {
    FaultId best = kNoFault;
    std::size_t best_gain = 0;
    for (FaultId f = 0; f < s.num_faults(); ++f) {
      std::size_t gain = 0;
      for (std::size_t i = 0; i < failing.size(); ++i)
        if (!covered[i] && reference_projection(s, f, failing[i]) == 1) ++gain;
      if (gain > best_gain) {
        best_gain = gain;
        best = f;
      }
    }
    if (best_gain == 0) break;
    cover.push_back(best);
    for (std::size_t i = 0; i < failing.size(); ++i)
      if (!covered[i] && reference_projection(s, best, failing[i]) == 1) {
        covered[i] = true;
        --*uncovered;
      }
  }
  return cover;
}

// passfail_rows against the tri-state rule, bit by bit, for all four store
// kinds over a test count that is not a multiple of 64.
TEST(PassFailProjection, PackedRowsMatchPerBitRule) {
  ASSERT_NE(rm().num_tests() % 64, 0u);
  const FullDictionary full = FullDictionary::build(rm());
  const SignatureStore stores[] = {
      SignatureStore::build(PassFailDictionary::build(rm())),
      SignatureStore::build(
          SameDifferentDictionary::build(rm(), nontrivial_baselines(rm()))),
      SignatureStore::build(
          MultiBaselineDictionary::build(rm(), mixed_baselines(rm()))),
      SignatureStore::build(full)};
  for (const SignatureStore& s : stores) {
    const PassFailRows p = passfail_rows(s);
    const char* kind = store_kind_name(s.kind());
    ASSERT_EQ(p.words, (s.num_tests() + 63) / 64) << kind;
    ASSERT_EQ(p.fail.size(), s.num_faults() * p.words) << kind;
    ASSERT_EQ(p.pass_known.size(), p.words) << kind;
    std::size_t undecided = 0;
    for (FaultId f = 0; f < s.num_faults(); ++f) {
      for (std::size_t t = 0; t < s.num_tests(); ++t) {
        const int want = reference_projection(s, f, t);
        const int got = kernels::bit_at(p.row(f), t) ? 1
                        : kernels::bit_at(p.pass_known.data(), t) ? 0
                                                                  : -1;
        ASSERT_EQ(got, want) << kind << " fault " << f << " test " << t;
        if (want < 0) ++undecided;
      }
      for (std::size_t i = s.num_tests(); i < p.words * 64; ++i)
        ASSERT_FALSE(kernels::bit_at(p.row(f), i)) << kind << " tail " << f;
    }
    for (std::size_t i = s.num_tests(); i < p.words * 64; ++i)
      ASSERT_FALSE(kernels::bit_at(p.pass_known.data(), i)) << kind;
    if (s.kind() == StoreKind::kSameDifferent ||
        s.kind() == StoreKind::kMultiBaseline) {
      EXPECT_GT(undecided, 0u) << kind << ": fixture never exercises -1";
    }
  }
}

// On degraded observations the projection stages' counts and the stage-4
// cover must equal the per-bit reference, for every dictionary overload
// (pass/fail, same/different, multi-baseline, full, first-fail) and the
// store built from it, pruned and unpruned.
TEST(PassFailProjection, EngineStagesMatchPerBitReference) {
  const FullDictionary full = FullDictionary::build(rm());
  const PassFailDictionary pf = PassFailDictionary::build(rm());
  const SameDifferentDictionary sd =
      SameDifferentDictionary::build(rm(), nontrivial_baselines(rm()));
  const MultiBaselineDictionary mb =
      MultiBaselineDictionary::build(rm(), mixed_baselines(rm()));
  const FirstFailDictionary ff = FirstFailDictionary::build(rm());
  // The first-fail store is the first-fail dictionary's projection, so it
  // is also the reference for the first-fail overload.
  const SignatureStore spf = SignatureStore::build(pf);
  const SignatureStore ssd = SignatureStore::build(sd);
  const SignatureStore smb = SignatureStore::build(mb);
  const SignatureStore sfull = SignatureStore::build(full);
  const SignatureStore sff = SignatureStore::build(ff);

  std::size_t projected = 0;
  std::size_t unmodeled = 0;
  Rng rng(0x9f);
  for (int i = 0; i < 24; ++i) {
    std::vector<Observed> obs =
        fault_observation(full, static_cast<FaultId>(rng.below(full.num_faults())));
    // Composites of two or three faults push the chain down to stage 4.
    for (int extra = i % 3; extra > 0; --extra) {
      const auto g = static_cast<FaultId>(rng.below(full.num_faults()));
      for (std::size_t t = 0; t < obs.size(); ++t)
        if (obs[t].value == 0) obs[t] = Observed::of(full.entry(g, t));
    }
    for (int d = 0; d < 3; ++d) {
      obs[rng.below(obs.size())] = Observed::missing();
      obs[rng.below(obs.size())] = Observed::unstable();
    }
    obs[rng.below(obs.size())] = Observed::of(kUnknownResponse);
    if (i % 4 == 0) obs[rng.below(obs.size())] = Observed::of(kUnknownResponse);

    for (const bool prune : {true, false}) {
      EngineOptions opt;
      opt.max_results = 5;
      opt.prune = prune;
      const struct {
        const char* what;
        EngineDiagnosis d;
        const SignatureStore& ref;
      } runs[] = {
          {"pass/fail", diagnose_observed(pf, obs, opt), spf},
          {"pass/fail store", diagnose_observed(spf, obs, opt), spf},
          {"same/different", diagnose_observed(sd, obs, opt), ssd},
          {"same/different store", diagnose_observed(ssd, obs, opt), ssd},
          {"multi-baseline", diagnose_observed(mb, obs, opt), smb},
          {"multi-baseline store", diagnose_observed(smb, obs, opt), smb},
          {"full", diagnose_observed(full, obs, opt), sfull},
          {"full store", diagnose_observed(sfull, obs, opt), sfull},
          {"first-fail", diagnose_observed(ff, rm(), obs, opt), sff},
      };
      for (const auto& r : runs) {
        // An unknown response never yields a native verdict.
        ASSERT_GE(r.d.outcome, DiagnosisOutcome::kPassFailProjection)
            << r.what << " obs " << i;
        ASSERT_FALSE(r.d.matches.empty()) << r.what;
        for (const DiagnosisMatch& m : r.d.matches)
          ASSERT_EQ(m.mismatches,
                    reference_projected_count(r.ref, m.fault, obs))
              << r.what << " obs " << i << " fault " << m.fault;
        if (r.d.outcome == DiagnosisOutcome::kPassFailProjection) {
          ++projected;
          continue;
        }
        ++unmodeled;
        std::size_t uncovered = 0;
        EXPECT_EQ(r.d.cover,
                  reference_cover(r.ref, obs, opt.max_cover, &uncovered))
            << r.what << " obs " << i;
        EXPECT_EQ(r.d.uncovered_failures, uncovered) << r.what << " obs " << i;
      }
    }
  }
  EXPECT_GT(projected, 0u);
  EXPECT_GT(unmodeled, 0u);
}

// ------------------------------------------------------------ file modes --

TEST(SignatureStore, MmapAndStreamLoadsAreIdentical) {
  const SameDifferentDictionary sd =
      SameDifferentDictionary::build(rm(), nontrivial_baselines(rm()));
  const SignatureStore built = SignatureStore::build(sd);
  const std::string path = temp_path("sdstore_modes.bin");
  built.write_file(path);

  const SignatureStore streamed =
      SignatureStore::load_file(path, StoreLoadMode::kStream);
  EXPECT_FALSE(streamed.mapped());
  EXPECT_EQ(streamed.to_bytes(), built.to_bytes());

#if defined(__unix__) || defined(__APPLE__)
  const SignatureStore mapped =
      SignatureStore::load_file(path, StoreLoadMode::kMmap);
  EXPECT_TRUE(mapped.mapped());
  EXPECT_EQ(mapped.to_bytes(), built.to_bytes());

  const FullDictionary full = FullDictionary::build(rm());
  const std::vector<Observed> obs = fault_observation(full, 5);
  expect_same_diagnosis(diagnose_observed(mapped, obs),
                        diagnose_observed(streamed, obs), "mmap vs stream");
#endif
  std::remove(path.c_str());
}

TEST(SignatureStore, LoadFileMissingPathThrows) {
  EXPECT_THROW(SignatureStore::load_file(temp_path("no_such_store.bin")),
               std::runtime_error);
}

// Torn streams: a disk filling up mid-write and an I/O error mid-read are
// named errors, never a silently short file or a half-parsed image.
TEST(SignatureStore, MidWriteStreamFailureIsANamedError) {
  const SignatureStore built =
      SignatureStore::build(PassFailDictionary::build(rm()));
  FailAfterWriteBuf buf(/*limit=*/100);
  std::ostream out(&buf);
  try {
    built.write(out);
    FAIL() << "a write into a failing stream was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("went bad mid-write"),
              std::string::npos)
        << e.what();
  }
}

TEST(SignatureStore, MidReadStreamFailureThrows) {
  const std::string bytes =
      SignatureStore::build(
          SameDifferentDictionary::build(rm(), nontrivial_baselines(rm())))
          .to_bytes();
  ThrowAfterReadBuf buf(bytes, bytes.size() / 2);
  std::istream in(&buf);
  try {
    SignatureStore::load(in);
    FAIL() << "a read from a failing stream was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("went bad mid-read"),
              std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------------ edge cases --

// Degenerate dimensions: a dictionary with zero faults or zero tests has
// no signatures to pack. The builder refuses with a named error rather
// than emitting an image the loader would have to special-case.
TEST(SignatureStore, ZeroFaultDictionaryIsRejectedByName) {
  try {
    SignatureStore::build(PassFailDictionary::from_rows({}, 4, 2));
    FAIL() << "zero-fault build should throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("empty dictionary"),
              std::string::npos)
        << e.what();
  }
}

TEST(SignatureStore, ZeroTestDictionaryIsRejectedByName) {
  try {
    SignatureStore::build(
        PassFailDictionary::from_rows({BitVec(0), BitVec(0)}, 0, 2));
    FAIL() << "zero-test build should throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("empty dictionary"),
              std::string::npos)
        << e.what();
  }
}

// An image whose header claims zero faults or zero tests is rejected at
// parse time ("empty dimensions"), so a corrupted dimension field can
// never produce a store that silently answers nothing.
TEST(SignatureStore, ParseRejectsZeroDimensionHeaders) {
  const SignatureStore s =
      SignatureStore::build(PassFailDictionary::build(rm()));
  for (const std::size_t off : {std::size_t{24}, std::size_t{32}}) {
    std::string img = s.to_bytes();
    for (std::size_t i = 0; i < 8; ++i) img[off + i] = '\0';
    EXPECT_THROW(SignatureStore::from_bytes(img), std::runtime_error);
  }
}

// A zero-length file is a named error in every load mode — kMmap cannot
// map it, kStream sees a truncated header, and kAuto falls back from the
// failed mmap to the stream path and reports the same defect. Never a
// crash, never a store.
TEST(SignatureStore, ZeroLengthFileIsANamedErrorInEveryLoadMode) {
  const std::string path = temp_path("zero_len.store");
  { std::ofstream out(path, std::ios::binary); }
  for (const StoreLoadMode mode :
       {StoreLoadMode::kAuto, StoreLoadMode::kStream, StoreLoadMode::kMmap}) {
    try {
      SignatureStore::load_file(path, mode);
      FAIL() << "zero-length load should throw (mode "
             << static_cast<int>(mode) << ")";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("SignatureStore:"), std::string::npos) << what;
    }
  }
  std::remove(path.c_str());
}

// --------------------------------------------------------------- fuzzers --

// Small matrix (the paper's worked example) so the flip fuzzer can afford
// one full parse per byte of the image.
ResponseMatrix tiny_matrix() {
  const std::vector<BitVec> ff = {BitVec::from_string("00"),
                                  BitVec::from_string("00")};
  const std::vector<std::vector<BitVec>> faulty = {
      {BitVec::from_string("10"), BitVec::from_string("11")},
      {BitVec::from_string("00"), BitVec::from_string("10")},
      {BitVec::from_string("01"), BitVec::from_string("10")},
      {BitVec::from_string("01"), BitVec::from_string("00")},
  };
  return response_matrix_from_table(ff, faulty);
}

void run_flip_fuzzer(const std::string& bytes, const char* what) {
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    try {
      SignatureStore::from_bytes(flip_byte(bytes, i));
      FAIL() << what << ": flip at byte " << i << " was accepted";
    } catch (const std::runtime_error&) {
      // Named rejection: exactly what the format promises.
    }
  }
}

TEST(SignatureStoreFuzz, EverySingleByteFlipIsRejected) {
  const ResponseMatrix m = tiny_matrix();
  run_flip_fuzzer(
      SignatureStore::build(PassFailDictionary::build(m)).to_bytes(),
      "pass/fail");
  run_flip_fuzzer(
      SignatureStore::build(
          SameDifferentDictionary::build(m, {1, 0}))
          .to_bytes(),
      "same/different");
  run_flip_fuzzer(
      SignatureStore::build(FullDictionary::build(m)).to_bytes(), "full");
}

TEST(SignatureStoreFuzz, EveryTruncationIsRejected) {
  const SignatureStore built =
      SignatureStore::build(SameDifferentDictionary::build(tiny_matrix(),
                                                           {1, 0}));
  const std::string bytes = built.to_bytes();
  for (std::size_t size = 0; size < bytes.size(); ++size) {
    try {
      SignatureStore::from_bytes(truncate_to(bytes, size));
      FAIL() << "truncation to " << size << " bytes was accepted";
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(SignatureStoreFuzz, TrailingGarbageIsRejected) {
  const std::string bytes =
      SignatureStore::build(PassFailDictionary::build(tiny_matrix()))
          .to_bytes();
  EXPECT_THROW(SignatureStore::from_bytes(bytes + std::string(4096, '\0')),
               std::runtime_error);
  EXPECT_THROW(SignatureStore::from_bytes(bytes + "x"), std::runtime_error);
}

// Patches a header field and repairs the header CRC, so parse() reaches
// the semantic validation behind the checksum.
std::string patch_header(std::string bytes, std::size_t off,
                         std::uint32_t value) {
  for (int b = 0; b < 4; ++b)
    bytes[off + b] = static_cast<char>((value >> (8 * b)) & 0xff);
  Crc32 crc;
  crc.update(bytes.data(), 4092);
  const std::uint32_t v = crc.value();
  for (int b = 0; b < 4; ++b)
    bytes[4092 + b] = static_cast<char>((v >> (8 * b)) & 0xff);
  return bytes;
}

TEST(SignatureStoreFuzz, NamedErrorsBehindTheChecksum) {
  const std::string bytes =
      SignatureStore::build(PassFailDictionary::build(tiny_matrix()))
          .to_bytes();
  const auto message_of = [](const std::string& image) -> std::string {
    try {
      SignatureStore::from_bytes(image);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(message_of(patch_header(bytes, 12, 99)).find("version"),
            std::string::npos);
  EXPECT_NE(message_of(patch_header(bytes, 16, 7)).find("bad kind"),
            std::string::npos);
  EXPECT_NE(message_of(patch_header(bytes, 20, 42)).find("bad source"),
            std::string::npos);
  EXPECT_NE(message_of(patch_header(bytes, 24, 0)).find("empty"),
            std::string::npos);
  // tiny_matrix rows are 2 bits: the version-2 stride is 8 and the
  // version-1 stride 64. Every other stride is rejected under each version.
  for (const std::uint32_t stride : {0u, 16u, 64u}) {
    const std::string what = message_of(patch_header(bytes, 64, stride));
    EXPECT_NE(what.find("row stride"), std::string::npos) << stride;
    EXPECT_EQ(what.rfind("SignatureStore:", 0), 0u) << what;
  }
  const std::string v1_stride8 = message_of(patch_header(bytes, 12, 1));
  EXPECT_NE(v1_stride8.find("row stride"), std::string::npos) << v1_stride8;
  EXPECT_EQ(v1_stride8.rfind("SignatureStore:", 0), 0u) << v1_stride8;
  // Every named error carries the format prefix.
  EXPECT_EQ(message_of(patch_header(bytes, 12, 99)).rfind("SignatureStore:", 0),
            0u);
}


// ------------------------------------------------------- version-1 stores --

// Format version 1 padded every row to 64 bytes; version 2, the one the
// writers emit, pads it to one 64-bit word. Version-1 files must keep
// loading and answering exactly as before.

std::uint32_t crc_of(const std::string& bytes) {
  Crc32 crc;
  crc.update(bytes);
  return crc.value();
}

std::uint32_t header_u32(const std::string& bytes, std::size_t off) {
  std::uint32_t v;
  std::memcpy(&v, bytes.data() + off, 4);
  return v;
}

std::uint64_t header_u64(const std::string& bytes, std::size_t off) {
  std::uint64_t v;
  std::memcpy(&v, bytes.data() + off, 8);
  return v;
}

// Re-lays a store's image in format version 1: the same header with
// version 1 and a 64-byte row stride, the sections re-paged and every CRC
// recomputed. LegacyRelayMatchesTheVersion1Writer pins it to the old
// writer's output.
std::string legacy_v1_bytes(const SignatureStore& s) {
  constexpr std::uint64_t kPage = SignatureStore::kPageSize;
  const auto round_up = [](std::uint64_t v, std::uint64_t a) {
    return (v + a - 1) / a * a;
  };
  const std::string v2 = s.to_bytes();
  const std::uint64_t v2_stride = header_u64(v2, 64);
  const std::uint64_t v2_bl_off = header_u64(v2, 104);
  const std::uint64_t bl_size = header_u64(v2, 112);
  const std::uint64_t stride = round_up((s.signature_bits() + 7) / 8, 64);
  const std::uint64_t rows_size = s.num_faults() * stride;
  const std::uint64_t rows_pad = round_up(rows_size, kPage);
  const std::uint64_t bl_off = kPage + rows_pad;
  const std::uint64_t bl_pad = round_up(bl_size, kPage);

  std::string v1(bl_off + bl_pad, '\0');
  std::memcpy(v1.data(), v2.data(), kPage);
  for (FaultId f = 0; f < s.num_faults(); ++f)
    std::memcpy(v1.data() + kPage + f * stride, s.row_words(f), v2_stride);
  std::memcpy(v1.data() + bl_off, v2.data() + v2_bl_off, bl_size);
  const auto put32 = [&v1](std::size_t off, std::uint32_t v) {
    std::memcpy(v1.data() + off, &v, 4);
  };
  const auto put64 = [&v1](std::size_t off, std::uint64_t v) {
    std::memcpy(v1.data() + off, &v, 8);
  };
  const auto crc_range = [&v1](std::uint64_t off, std::uint64_t n) {
    return crc_of(v1.substr(off, n));
  };
  put32(12, 1);
  put64(64, stride);
  put64(88, rows_size);
  put64(104, bl_off);
  put32(96, crc_range(kPage, rows_pad));
  put32(120, crc_range(bl_off, bl_pad));
  put32(4092, crc_range(0, 4092));
  return v1;
}

// CRC-32 of the whole image the version-1 writer produced for each
// tiny_matrix store, recorded from that writer.
TEST(StoreFormatV1, LegacyRelayMatchesTheVersion1Writer) {
  const ResponseMatrix m = tiny_matrix();
  EXPECT_EQ(crc_of(legacy_v1_bytes(
                SignatureStore::build(PassFailDictionary::build(m)))),
            0xbd6c38f4u);
  EXPECT_EQ(crc_of(legacy_v1_bytes(SignatureStore::build(
                SameDifferentDictionary::build(m, {1, 0})))),
            0xf5d65f61u);
  EXPECT_EQ(crc_of(legacy_v1_bytes(SignatureStore::build(
                MultiBaselineDictionary::build(m, {{0, 1}, {0, 2}})))),
            0x3aae656fu);
  EXPECT_EQ(crc_of(legacy_v1_bytes(
                SignatureStore::build(FullDictionary::build(m)))),
            0xacb602d5u);
}

// One store of every native kind, built over rm() (70 tests: two-word
// rows, so the version-1 and version-2 strides differ).
struct KindStore {
  const char* what;
  SignatureStore store;
};

std::vector<KindStore> every_kind_store() {
  std::vector<KindStore> out;
  out.push_back({"pass/fail",
                 SignatureStore::build(PassFailDictionary::build(rm()))});
  out.push_back({"same/different",
                 SignatureStore::build(SameDifferentDictionary::build(
                     rm(), nontrivial_baselines(rm())))});
  out.push_back({"multi-baseline",
                 SignatureStore::build(MultiBaselineDictionary::build(
                     rm(), ragged_baselines(rm())))});
  out.push_back({"full", SignatureStore::build(FullDictionary::build(rm()))});
  return out;
}

void expect_same_contents(const SignatureStore& a, const SignatureStore& b,
                          const std::string& what) {
  ASSERT_EQ(a.kind(), b.kind()) << what;
  EXPECT_EQ(a.source(), b.source()) << what;
  ASSERT_EQ(a.num_faults(), b.num_faults()) << what;
  ASSERT_EQ(a.num_tests(), b.num_tests()) << what;
  EXPECT_EQ(a.num_outputs(), b.num_outputs()) << what;
  ASSERT_EQ(a.rank(), b.rank()) << what;
  ASSERT_EQ(a.signature_bits(), b.signature_bits()) << what;
  const std::size_t words = (a.signature_bits() + 63) / 64;
  for (FaultId f = 0; f < a.num_faults(); ++f)
    ASSERT_EQ(std::memcmp(a.row_words(f), b.row_words(f), words * 8), 0)
        << what << " row " << f;
  if (a.kind() == StoreKind::kSameDifferent) {
    for (std::size_t t = 0; t < a.num_tests(); ++t)
      ASSERT_EQ(a.baselines()[t], b.baselines()[t]) << what << " test " << t;
  }
  if (a.kind() == StoreKind::kMultiBaseline) {
    for (std::size_t t = 0; t < a.num_tests(); ++t) {
      const auto [ids_a, count_a] = a.baseline_set(t);
      const auto [ids_b, count_b] = b.baseline_set(t);
      ASSERT_EQ(count_a, count_b) << what << " test " << t;
      for (std::size_t l = 0; l < a.rank(); ++l)
        ASSERT_EQ(ids_a[l], ids_b[l]) << what << " test " << t;
    }
  }
}

TEST(StoreFormatV1, WritersEmitWordStrideVersion2) {
  for (const KindStore& k : every_kind_store()) {
    const std::string bytes = k.store.to_bytes();
    EXPECT_EQ(header_u32(bytes, 12), 2u) << k.what;
    EXPECT_EQ(header_u64(bytes, 64), 8 * ((k.store.signature_bits() + 63) / 64))
        << k.what;
    const std::string v1 = legacy_v1_bytes(k.store);
    EXPECT_EQ(header_u32(v1, 12), 1u) << k.what;
    EXPECT_EQ(header_u64(v1, 64), ((k.store.signature_bits() + 7) / 8 + 63) /
                                      64 * 64)
        << k.what;
    // The rows section (its size is at byte 88) shrinks.
    EXPECT_LT(header_u64(bytes, 88), header_u64(v1, 88)) << k.what;
  }
}

TEST(StoreFormatV1, LoadsInEveryModeWithTheSameRowsAndBaselines) {
  for (const KindStore& k : every_kind_store()) {
    const std::string v1 = legacy_v1_bytes(k.store);
    const SignatureStore from_bytes = SignatureStore::from_bytes(v1);
    EXPECT_EQ(from_bytes.to_bytes(), v1) << k.what;
    expect_same_contents(from_bytes, k.store, std::string(k.what) + " bytes");

    const std::string path = temp_path("sdstore_v1.bin");
    from_bytes.write_file(path);
    const SignatureStore streamed =
        SignatureStore::load_file(path, StoreLoadMode::kStream);
    expect_same_contents(streamed, k.store, std::string(k.what) + " stream");
#if defined(__unix__) || defined(__APPLE__)
    const SignatureStore mapped =
        SignatureStore::load_file(path, StoreLoadMode::kMmap);
    EXPECT_TRUE(mapped.mapped());
    expect_same_contents(mapped, k.store, std::string(k.what) + " mmap");
#endif
    std::remove(path.c_str());
  }
}

TEST(StoreFormatV1, DiagnosesIdenticallyToVersion2) {
  const FullDictionary full = FullDictionary::build(rm());
  const std::vector<KindStore> stores = every_kind_store();
  std::vector<SignatureStore> legacy;
  for (const KindStore& k : stores)
    legacy.push_back(SignatureStore::from_bytes(legacy_v1_bytes(k.store)));
  Rng rng(11);
  for (int i = 0; i < 6; ++i) {
    const auto f = static_cast<FaultId>(rng.below(full.num_faults()));
    std::vector<Observed> obs = fault_observation(full, f);
    if (i % 2 == 1) {
      obs[rng.below(obs.size())] = Observed::missing();
      obs[rng.below(obs.size())] = Observed::of(kUnknownResponse);
    }
    for (std::size_t s = 0; s < stores.size(); ++s)
      expect_same_diagnosis(diagnose_observed(legacy[s], obs),
                            diagnose_observed(stores[s].store, obs),
                            stores[s].what);
  }
}

TEST(StoreFormatV1, ColumnSurgeryIsByteIdenticalToVersion2) {
  // Kept columns cross the word boundary at 64 and leave a one-word row.
  std::vector<std::size_t> keep;
  for (std::size_t t = 0; t < rm().num_tests(); t += 3) keep.push_back(t);
  for (const KindStore& k : every_kind_store()) {
    const SignatureStore v1 =
        SignatureStore::from_bytes(legacy_v1_bytes(k.store));
    EXPECT_EQ(v1.select_tests(keep).to_bytes(),
              k.store.select_tests(keep).to_bytes())
        << k.what;
    EXPECT_EQ(SignatureStore::concat_tests(v1, k.store).to_bytes(),
              SignatureStore::concat_tests(k.store, k.store).to_bytes())
        << k.what;
  }
}

// A repository whose full base version was published in format version 1,
// followed by an append delta written in version 2, materializes as the
// version-2 image concat_tests builds from the version-2 halves.
TEST(StoreFormatV1, RepositoryDeltaChainOnAVersion1Base) {
  const std::string dir = ::testing::TempDir() + "sddict_store_v1_repo";
  std::filesystem::remove_all(dir);
  DictionaryRepository repo(dir);
  for (const KindStore& k : every_kind_store()) {
    const StoreSource source = k.store.source();
    const std::size_t half = k.store.num_tests() / 2;
    std::vector<std::size_t> lo, hi;
    for (std::size_t t = 0; t < k.store.num_tests(); ++t)
      (t < half ? lo : hi).push_back(t);
    const SignatureStore base = k.store.select_tests(lo);
    const SignatureStore added = k.store.select_tests(hi);
    const SignatureStore legacy_base =
        SignatureStore::from_bytes(legacy_v1_bytes(base));

    const ManifestEntry e1 = repo.publish("c", source, legacy_base, {});
    std::ifstream in(dir + "/" + e1.file, std::ios::binary);
    const std::string on_disk((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    EXPECT_EQ(header_u32(on_disk, 12), 1u) << k.what;
    repo.publish_delta("c", source, &added, {}, {});

    const std::string materialized = repo.acquire("c", source)->to_bytes();
    EXPECT_EQ(header_u32(materialized, 12), 2u) << k.what;
    EXPECT_EQ(materialized,
              SignatureStore::concat_tests(base, added).to_bytes())
        << k.what;
    EXPECT_EQ(materialized, k.store.to_bytes()) << k.what;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sddict
