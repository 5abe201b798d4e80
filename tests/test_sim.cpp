#include <gtest/gtest.h>

#include <algorithm>

#include "bmcirc/embedded.h"
#include "bmcirc/registry.h"
#include "bmcirc/synth.h"
#include "fault/collapse.h"
#include "netlist/transform.h"
#include "sim/faultsim.h"
#include "sim/logicsim.h"
#include "sim/response.h"

namespace sddict {
namespace {

// Independent reference evaluator (recursive, one pattern).
BitVec ref_simulate(const Netlist& nl, const BitVec& input) {
  std::vector<int> value(nl.num_gates(), -1);
  for (std::size_t i = 0; i < nl.num_inputs(); ++i)
    value[nl.inputs()[i]] = input.get(i);
  for (GateId g : nl.topo_order()) {
    const Gate& gate = nl.gate(g);
    if (gate.type == GateType::kInput) continue;
    std::vector<bool> in;
    std::vector<char> raw;
    for (GateId f : gate.fanin) raw.push_back(static_cast<char>(value[f]));
    std::vector<bool> bools(raw.begin(), raw.end());
    bool inb[16];
    for (std::size_t p = 0; p < bools.size(); ++p) inb[p] = bools[p];
    value[g] = eval_gate_bool(gate.type, inb, bools.size());
  }
  BitVec out(nl.num_outputs());
  for (std::size_t o = 0; o < nl.num_outputs(); ++o)
    out.set(o, value[nl.outputs()[o]] == 1);
  return out;
}

TEST(TestSet, AddAndPack) {
  TestSet ts(3);
  ts.add_string("101");
  ts.add_string("010");
  EXPECT_EQ(ts.size(), 2u);
  std::vector<std::uint64_t> words;
  ts.pack_batch(0, 2, &words);
  ASSERT_EQ(words.size(), 3u);
  EXPECT_EQ(words[0], 0b01u);  // input0: test0=1, test1=0
  EXPECT_EQ(words[1], 0b10u);
  EXPECT_EQ(words[2], 0b01u);
}

TEST(TestSet, WrongWidthRejected) {
  TestSet ts(3);
  EXPECT_THROW(ts.add_string("10"), std::invalid_argument);
}

TEST(TestSet, RandomDeterministic) {
  Rng a(5), b(5);
  TestSet ta(10), tb(10);
  ta.add_random(20, a);
  tb.add_random(20, b);
  for (std::size_t i = 0; i < 20; ++i) EXPECT_EQ(ta[i], tb[i]);
}

TEST(TestSet, Dedupe) {
  TestSet ts(2);
  ts.add_string("01");
  ts.add_string("10");
  ts.add_string("01");
  ts.dedupe();
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts[0].to_string(), "01");
  EXPECT_EQ(ts[1].to_string(), "10");
}

TEST(TestSet, SubsetAndAppend) {
  TestSet ts(2);
  ts.add_string("00");
  ts.add_string("01");
  ts.add_string("10");
  const TestSet sub = ts.subset({2, 0});
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub[0].to_string(), "10");
  TestSet other(2);
  other.add_string("11");
  TestSet merged = ts;
  merged.append(other);
  EXPECT_EQ(merged.size(), 4u);
}

TEST(BatchSimulator, MatchesReferenceOnC17Exhaustive) {
  const Netlist nl = make_c17();
  for (std::size_t v = 0; v < 32; ++v) {
    BitVec in(5);
    for (std::size_t i = 0; i < 5; ++i) in.set(i, (v >> i) & 1);
    EXPECT_EQ(simulate_pattern(nl, in), ref_simulate(nl, in)) << v;
  }
}

TEST(BatchSimulator, MatchesReferenceOnSyntheticCircuit) {
  SynthProfile p;
  p.name = "rnd";
  p.inputs = 8;
  p.outputs = 4;
  p.gates = 60;
  p.seed = 99;
  const Netlist nl = full_scan(generate_synthetic(p));
  Rng rng(3);
  TestSet ts(nl.num_inputs());
  ts.add_random(100, rng);
  const auto fast = good_responses(nl, ts);
  for (std::size_t t = 0; t < ts.size(); ++t)
    EXPECT_EQ(fast[t], ref_simulate(nl, ts[t])) << t;
}

TEST(BatchSimulator, RejectsSequentialNetlist) {
  EXPECT_THROW(BatchSimulator sim(make_s27()), std::runtime_error);
}

TEST(BatchSimulator, SixtyFourPatternsIndependent) {
  // Pattern packing: bit t of every word belongs only to test t.
  const Netlist nl = make_c17();
  Rng rng(17);
  TestSet ts(5);
  ts.add_random(64, rng);
  const auto batch = good_responses(nl, ts);
  for (std::size_t t = 0; t < 64; ++t)
    EXPECT_EQ(batch[t], simulate_pattern(nl, ts[t])) << t;
}

// ------------------------------------------------------------- faultsim --

// Reference: detection by explicit structural injection.
bool ref_detects(const Netlist& nl, const StuckFault& f, const BitVec& test) {
  const Netlist bad = inject_faults(nl, {to_injection(f)});
  return simulate_pattern(nl, test) != simulate_pattern(bad, test);
}

TEST(FaultSimulator, MatchesStructuralInjectionOnC17) {
  const Netlist nl = make_c17();
  const FaultList faults = enumerate_all_faults(nl);
  // All 32 input vectors in one batch.
  TestSet ts(5);
  for (std::size_t v = 0; v < 32; ++v) {
    BitVec in(5);
    for (std::size_t i = 0; i < 5; ++i) in.set(i, (v >> i) & 1);
    ts.add(in);
  }
  FaultSimulator fsim(nl);
  std::vector<std::uint64_t> words;
  ts.pack_batch(0, 32, &words);
  fsim.load_batch(words, 32);
  for (const auto& f : faults) {
    const std::uint64_t w = fsim.detect_word(f);
    for (std::size_t v = 0; v < 32; ++v)
      EXPECT_EQ((w >> v) & 1, ref_detects(nl, f, ts[v]) ? 1u : 0u)
          << fault_name(nl, f) << " test " << v;
  }
}

TEST(FaultSimulator, MatchesStructuralInjectionOnSynthetic) {
  SynthProfile p;
  p.name = "rnd";
  p.inputs = 6;
  p.outputs = 3;
  p.gates = 40;
  p.seed = 5;
  const Netlist nl = full_scan(generate_synthetic(p));
  const FaultList faults = collapsed_fault_list(nl).collapsed;
  Rng rng(1);
  TestSet ts(nl.num_inputs());
  ts.add_random(50, rng);

  FaultSimulator fsim(nl);
  std::vector<std::uint64_t> words;
  ts.pack_batch(0, 50, &words);
  fsim.load_batch(words, 50);
  for (const auto& f : faults) {
    const std::uint64_t w = fsim.detect_word(f);
    for (std::size_t v = 0; v < 50; ++v)
      EXPECT_EQ((w >> v) & 1, ref_detects(nl, f, ts[v]) ? 1u : 0u)
          << fault_name(nl, f) << " test " << v;
  }
}

TEST(FaultSimulator, PatternMaskSuppressesPadSlots) {
  const Netlist nl = make_c17();
  const FaultList faults = enumerate_all_faults(nl);
  TestSet ts(5);
  ts.add_string("00000");  // single pattern; slots 1..63 are padding
  FaultSimulator fsim(nl);
  std::vector<std::uint64_t> words;
  ts.pack_batch(0, 1, &words);
  fsim.load_batch(words, 1);
  for (const auto& f : faults)
    EXPECT_EQ(fsim.detect_word(f) & ~std::uint64_t{1}, 0u);
}

TEST(FaultSimulator, DiffSinkReportsCorrectOutputs) {
  // y0 = NOT(a), y1 = BUF(a); a sa1 flips both outputs iff a=0.
  Netlist nl("t");
  const GateId a = nl.add_gate(GateType::kInput, "a");
  const GateId x = nl.add_gate(GateType::kNot, "x", {a});
  const GateId y = nl.add_gate(GateType::kBuf, "y", {a});
  nl.mark_output(x);
  nl.mark_output(y);

  TestSet ts(1);
  ts.add_string("0");
  ts.add_string("1");
  FaultSimulator fsim(nl);
  std::vector<std::uint64_t> words;
  ts.pack_batch(0, 2, &words);
  fsim.load_batch(words, 2);

  std::vector<std::pair<std::size_t, std::uint64_t>> diffs;
  fsim.simulate_fault({a, -1, 1}, [&](std::size_t o, std::uint64_t w) {
    diffs.push_back({o, w});
  });
  ASSERT_EQ(diffs.size(), 2u);
  for (const auto& [o, w] : diffs) EXPECT_EQ(w, 0b01u) << o;
}

TEST(FaultSimulator, CountDetections) {
  const Netlist nl = make_c17();
  const FaultList faults = collapsed_fault_list(nl).collapsed;
  TestSet ts(5);
  for (std::size_t v = 0; v < 32; ++v) {
    BitVec in(5);
    for (std::size_t i = 0; i < 5; ++i) in.set(i, (v >> i) & 1);
    ts.add(in);
  }
  const auto counts = count_detections(nl, faults, ts);
  // Exhaustive test set detects every (testable) collapsed fault of c17.
  for (std::size_t i = 0; i < counts.size(); ++i)
    EXPECT_GT(counts[i], 0u) << fault_name(nl, faults[i]);
}

// ------------------------------------- fanout-free regions vs. the oracle --

// Checks the region-based path against simulate_fault_full, which injects
// the fault and re-simulates its whole cone: for every fault of the
// uncollapsed universe and every batch of `num_patterns` random patterns,
// simulate_fault must report exactly the outputs whose oracle value differs
// from the good value on a real pattern slot, with those words, and
// detect_word must return their OR. Faults are visited twice per batch in
// different orders so both cache-miss and cache-hit root lookups are used,
// interleaved with the oracle's own injections.
void expect_matches_full_oracle(const Netlist& nl, std::size_t num_patterns) {
  const FaultList faults = enumerate_all_faults(nl);
  ASSERT_FALSE(faults.empty());
  Rng rng(num_patterns);
  TestSet ts(nl.num_inputs());
  ts.add_random(num_patterns, rng);
  FaultSimulator fsim(nl);
  std::vector<std::uint64_t> words;
  std::vector<std::uint64_t> full;
  for (std::size_t first = 0; first < ts.size(); first += 64) {
    const std::size_t count = std::min<std::size_t>(64, ts.size() - first);
    const std::uint64_t mask =
        count == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << count) - 1;
    ts.pack_batch(first, count, &words);
    fsim.load_batch(words, count);
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t k = 0; k < faults.size(); ++k) {
        const StuckFault& f =
            faults[static_cast<FaultId>(pass == 0 ? k : faults.size() - 1 - k)];
        fsim.simulate_fault_full(f, &full);
        std::vector<std::uint64_t> expected(nl.num_outputs(), 0);
        std::uint64_t expected_any = 0;
        for (std::size_t o = 0; o < nl.num_outputs(); ++o) {
          const GateId out = nl.outputs()[o];
          expected[o] = (full[out] ^ fsim.good_value(out)) & mask;
          expected_any |= expected[o];
        }
        std::vector<std::uint64_t> got(nl.num_outputs(), 0);
        const std::uint64_t any =
            fsim.simulate_fault(f, [&](std::size_t o, std::uint64_t w) {
              ASSERT_LT(o, got.size());
              EXPECT_NE(w, 0u);
              EXPECT_EQ(got[o], 0u) << "output " << o << " reported twice";
              got[o] = w;
            });
        EXPECT_EQ(got, expected) << fault_name(nl, f) << " batch " << first;
        EXPECT_EQ(any, expected_any) << fault_name(nl, f);
        EXPECT_EQ(fsim.detect_word(f), expected_any) << fault_name(nl, f);
      }
    }
  }
}

TEST(FaultSimulatorRegions, MatchesFullOracleOnBenchmarks) {
  for (const std::string name : {"c17", "s27", "s298", "s1423"}) {
    SCOPED_TRACE(name);
    const Netlist nl = full_scan(load_benchmark(name));
    expect_matches_full_oracle(nl, 64);
    expect_matches_full_oracle(nl, 37);   // partial pattern mask
    expect_matches_full_oracle(nl, 165);  // later batches reuse the cache
  }
}

TEST(FaultSimulatorRegions, OutputInsideSingleFanoutChain) {
  // n2 has one fanout but is also a primary output, so it roots its own
  // region and n1's effect must be reported at n2 and beyond.
  Netlist nl("po_chain");
  const GateId a = nl.add_gate(GateType::kInput, "a");
  const GateId b = nl.add_gate(GateType::kInput, "b");
  const GateId c = nl.add_gate(GateType::kInput, "c");
  const GateId n1 = nl.add_gate(GateType::kAnd, "n1", {a, b});
  const GateId n2 = nl.add_gate(GateType::kNot, "n2", {n1});
  const GateId n3 = nl.add_gate(GateType::kOr, "n3", {n2, c});
  const GateId n4 = nl.add_gate(GateType::kBuf, "n4", {n3});
  nl.mark_output(n2);
  nl.mark_output(n4);
  expect_matches_full_oracle(nl, 64);
  expect_matches_full_oracle(nl, 5);
}

TEST(FaultSimulatorRegions, DriverListedTwiceByOneGate) {
  // g lists n twice: n has fanout count 2, is a root, and carries one pin
  // fault per listing.
  Netlist nl("dup");
  const GateId a = nl.add_gate(GateType::kInput, "a");
  const GateId b = nl.add_gate(GateType::kInput, "b");
  const GateId n = nl.add_gate(GateType::kNot, "n", {a});
  const GateId g = nl.add_gate(GateType::kAnd, "g", {n, b, n});
  const GateId x = nl.add_gate(GateType::kXor, "x", {g, a});
  nl.mark_output(x);
  const FaultList faults = enumerate_all_faults(nl);
  EXPECT_EQ(std::count(faults.begin(), faults.end(), StuckFault{g, 2, 0}), 1);
  expect_matches_full_oracle(nl, 64);
  expect_matches_full_oracle(nl, 3);
}

TEST(FaultSimulatorRegions, ReconvergentFanout) {
  // s fans out to two paths that reconverge at an XOR (which can mask the
  // effect) and at an AND.
  Netlist nl("reconv");
  const GateId a = nl.add_gate(GateType::kInput, "a");
  const GateId b = nl.add_gate(GateType::kInput, "b");
  const GateId c = nl.add_gate(GateType::kInput, "c");
  const GateId s = nl.add_gate(GateType::kNand, "s", {a, b});
  const GateId p1 = nl.add_gate(GateType::kNot, "p1", {s});
  const GateId p2 = nl.add_gate(GateType::kOr, "p2", {s, c});
  const GateId q1 = nl.add_gate(GateType::kBuf, "q1", {p1});
  const GateId x = nl.add_gate(GateType::kXor, "x", {q1, p2});
  const GateId y = nl.add_gate(GateType::kAnd, "y", {p2, x, c});
  nl.mark_output(x);
  nl.mark_output(y);
  expect_matches_full_oracle(nl, 64);
  expect_matches_full_oracle(nl, 37);
}

TEST(FaultSimulatorRegions, WideGateOnChain) {
  // A 100-input AND inside a single-fanout chain: the chain walk
  // re-evaluates it with the previous gate's faulty word.
  Netlist nl("wide_chain");
  std::vector<GateId> in;
  for (int i = 0; i < 100; ++i)
    in.push_back(nl.add_gate(GateType::kInput, "i" + std::to_string(i)));
  std::vector<GateId> fanin = in;
  fanin[0] = nl.add_gate(GateType::kNot, "n", {in[0]});
  const GateId w = nl.add_gate(GateType::kNand, "w", fanin);
  const GateId z = nl.add_gate(GateType::kNot, "z", {w});
  nl.mark_output(z);
  // Random patterns almost never set 99 inputs; bias toward ones so the
  // wide gate is sensitized in some slots.
  FaultSimulator fsim(nl);
  std::vector<std::uint64_t> words(nl.num_inputs(), ~std::uint64_t{0});
  words[0] = 0x00000000FFFFFFFFull;  // n = 1 on the upper 32 slots
  words[17] = 0x0000FFFF0000FFFFull;
  fsim.load_batch(words, 64);
  std::vector<std::uint64_t> full;
  for (const StuckFault& f : enumerate_all_faults(nl)) {
    fsim.simulate_fault_full(f, &full);
    const std::uint64_t expected = full[z] ^ fsim.good_value(z);
    EXPECT_EQ(fsim.detect_word(f), expected) << fault_name(nl, f);
  }
  EXPECT_EQ(fsim.detect_word({w, 17, 1}), 0xFFFF0000'00000000ull);
  EXPECT_EQ(fsim.detect_word({fanin[0], -1, 0}), 0x0000FFFF'00000000ull);
  expect_matches_full_oracle(nl, 64);
}

TEST(FaultSimulatorRegions, ConstantGates) {
  // A constant on a single-fanout chain and one with fanout 2.
  Netlist nl("consts");
  const GateId a = nl.add_gate(GateType::kInput, "a");
  const GateId b = nl.add_gate(GateType::kInput, "b");
  const GateId zero = nl.add_gate(GateType::kConst0, "zero");
  const GateId one = nl.add_gate(GateType::kConst1, "one");
  const GateId nz = nl.add_gate(GateType::kNot, "nz", {zero});
  const GateId y = nl.add_gate(GateType::kAnd, "y", {a, nz, one});
  const GateId z = nl.add_gate(GateType::kXor, "z", {b, one});
  nl.mark_output(y);
  nl.mark_output(z);
  expect_matches_full_oracle(nl, 64);
  expect_matches_full_oracle(nl, 2);
}

// ------------------------------------------------------- response matrix --

TEST(ResponseMatrix, FaultFreeRowsAreZero) {
  const Netlist nl = make_c17();
  const FaultList faults = collapsed_fault_list(nl).collapsed;
  TestSet ts(5);
  ts.add_string("00000");
  const ResponseMatrix rm = build_response_matrix(nl, faults, ts);
  // Under the all-zero input, undetected faults must have response id 0.
  FaultSimulator fsim(nl);
  std::vector<std::uint64_t> words;
  ts.pack_batch(0, 1, &words);
  fsim.load_batch(words, 1);
  for (FaultId i = 0; i < faults.size(); ++i)
    EXPECT_EQ(rm.detected(i, 0), fsim.detect_word(faults[i]) != 0);
}

TEST(ResponseMatrix, EqualResponsesShareIds) {
  const Netlist nl = make_c17();
  const FaultList faults = collapsed_fault_list(nl).collapsed;
  TestSet ts(5);
  for (std::size_t v = 0; v < 32; ++v) {
    BitVec in(5);
    for (std::size_t i = 0; i < 5; ++i) in.set(i, (v >> i) & 1);
    ts.add(in);
  }
  const ResponseMatrix rm =
      build_response_matrix(nl, faults, ts, {.store_diff_outputs = true});

  // Cross-check ids against explicit faulty output vectors.
  std::vector<std::vector<BitVec>> responses(faults.size());
  for (FaultId i = 0; i < faults.size(); ++i) {
    const Netlist bad = inject_faults(nl, {to_injection(faults[i])});
    responses[i] = good_responses(bad, ts);
  }
  for (std::size_t t = 0; t < ts.size(); ++t)
    for (FaultId i = 0; i < faults.size(); ++i)
      for (FaultId j = 0; j < faults.size(); ++j)
        EXPECT_EQ(rm.response(i, t) == rm.response(j, t),
                  responses[i][t] == responses[j][t])
            << "t=" << t << " i=" << i << " j=" << j;
}

TEST(ResponseMatrix, DiffOutputsReconstructResponses) {
  const Netlist nl = make_c17();
  const FaultList faults = collapsed_fault_list(nl).collapsed;
  TestSet ts(5);
  ts.add_string("10110");
  ts.add_string("01001");
  const ResponseMatrix rm =
      build_response_matrix(nl, faults, ts, {.store_diff_outputs = true});
  const auto good = good_responses(nl, ts);
  for (FaultId i = 0; i < faults.size(); ++i) {
    const Netlist bad = inject_faults(nl, {to_injection(faults[i])});
    const auto bad_resp = good_responses(bad, ts);
    for (std::size_t t = 0; t < ts.size(); ++t) {
      BitVec rebuilt = good[t];
      for (std::uint32_t o : rm.diff_outputs(t, rm.response(i, t)))
        rebuilt.flip(o);
      EXPECT_EQ(rebuilt, bad_resp[t]);
    }
  }
}

TEST(ResponseMatrix, DiffOutputsThrowWithoutOption) {
  const Netlist nl = make_c17();
  const FaultList faults = collapsed_fault_list(nl).collapsed;
  TestSet ts(5);
  ts.add_string("00000");
  const ResponseMatrix rm = build_response_matrix(nl, faults, ts);
  EXPECT_THROW(rm.diff_outputs(0, 0), std::logic_error);
}

TEST(ResponseMatrix, ResponseCountsSumToFaults) {
  const Netlist nl = make_c17();
  const FaultList faults = collapsed_fault_list(nl).collapsed;
  TestSet ts(5);
  ts.add_string("11111");
  ts.add_string("00011");
  const ResponseMatrix rm = build_response_matrix(nl, faults, ts);
  for (std::size_t t = 0; t < ts.size(); ++t) {
    const auto counts = rm.response_counts(t);
    std::size_t total = 0;
    for (auto c : counts) total += c;
    EXPECT_EQ(total, faults.size());
  }
}

TEST(ResponseMatrix, FindResponseInvertsSignature) {
  const Netlist nl = make_c17();
  const FaultList faults = collapsed_fault_list(nl).collapsed;
  TestSet ts(5);
  ts.add_string("10101");
  const ResponseMatrix rm = build_response_matrix(nl, faults, ts);
  for (ResponseId id = 0; id < rm.num_distinct(0); ++id)
    EXPECT_EQ(rm.find_response(0, rm.signature(0, id)), id);
  EXPECT_EQ(rm.find_response(0, Hash128{123, 456}),
            static_cast<ResponseId>(-1));
}

TEST(ResponseMatrix, FromTableMatchesManualExpectation) {
  // Two outputs, two tests, the paper's Table 1 example.
  const std::vector<BitVec> ff = {BitVec::from_string("00"),
                                  BitVec::from_string("00")};
  const std::vector<std::vector<BitVec>> faulty = {
      {BitVec::from_string("10"), BitVec::from_string("11")},  // f0
      {BitVec::from_string("00"), BitVec::from_string("10")},  // f1
      {BitVec::from_string("01"), BitVec::from_string("10")},  // f2
      {BitVec::from_string("01"), BitVec::from_string("00")},  // f3
  };
  const ResponseMatrix rm = response_matrix_from_table(ff, faulty);
  EXPECT_EQ(rm.num_faults(), 4u);
  EXPECT_EQ(rm.num_tests(), 2u);
  EXPECT_EQ(rm.num_outputs(), 2u);
  // Test 0 responses: 10, 00, 01, 01 -> ids f1=0; f0 and f2 distinct; f2==f3.
  EXPECT_EQ(rm.response(1, 0), 0u);
  EXPECT_NE(rm.response(0, 0), rm.response(2, 0));
  EXPECT_EQ(rm.response(2, 0), rm.response(3, 0));
  // Test 1: f0=11, f1=f2=10, f3=00(=ff).
  EXPECT_EQ(rm.response(3, 1), 0u);
  EXPECT_EQ(rm.response(1, 1), rm.response(2, 1));
  EXPECT_NE(rm.response(0, 1), rm.response(1, 1));
  EXPECT_EQ(rm.num_distinct(0), 3u);
  EXPECT_EQ(rm.num_distinct(1), 3u);
}

}  // namespace
}  // namespace sddict
