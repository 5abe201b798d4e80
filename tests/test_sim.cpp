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
#include "util/failpoint.h"

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

// ------------------------------------------------- four-lane simulator --

// The four-lane simulator against one-lane whole-cone oracles: lane l of a
// batch of `num_patterns` random patterns must report exactly what a
// one-lane simulator loaded with patterns 64l..64l+63 computes by full
// injection. Pad slots of the partial lane and every empty lane stay
// silent, and the four-lane simulate_fault_full agrees with the one-lane
// one on every gate of every occupied lane. Faults are visited forward and
// then backward so root effects are both computed and reused.
void expect_four_lanes_match_oracle(const Netlist& nl,
                                    std::size_t num_patterns) {
  using Wide = BasicFaultSimulator<4>;
  const FaultList faults = enumerate_all_faults(nl);
  ASSERT_FALSE(faults.empty());
  Rng rng(num_patterns + 1000);
  TestSet ts(nl.num_inputs());
  ts.add_random(num_patterns, rng);

  Wide wide(nl);
  std::vector<std::uint64_t> words;
  ts.pack_batch(0, num_patterns, &words, Wide::kLanes);
  wide.load_batch(words, num_patterns);
  const std::size_t lanes = (num_patterns + 63) / 64;
  std::vector<FaultSimulator> narrow;
  narrow.reserve(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    const std::size_t count = std::min<std::size_t>(64, num_patterns - 64 * l);
    narrow.emplace_back(nl);
    ts.pack_batch(64 * l, count, &words);
    narrow[l].load_batch(words, count);
    for (GateId g = 0; g < nl.num_gates(); ++g)
      ASSERT_EQ(wide.good_value(g)[l], narrow[l].good_value(g)) << g;
  }

  std::vector<std::uint64_t> full;
  std::vector<Wide::Word> wide_full;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t k = 0; k < faults.size(); ++k) {
      const StuckFault& f =
          faults[static_cast<FaultId>(pass == 0 ? k : faults.size() - 1 - k)];
      std::vector<Wide::Word> expected(nl.num_outputs());
      Wide::Word expected_any{};
      wide.simulate_fault_full(f, &wide_full);
      for (std::size_t l = 0; l < lanes; ++l) {
        const std::size_t count =
            std::min<std::size_t>(64, num_patterns - 64 * l);
        narrow[l].simulate_fault_full(f, &full);
        for (GateId g = 0; g < nl.num_gates(); ++g)
          ASSERT_EQ(wide_full[g][l], full[g])
              << fault_name(nl, f) << " gate " << g << " lane " << l;
        for (std::size_t o = 0; o < nl.num_outputs(); ++o) {
          const GateId out = nl.outputs()[o];
          expected[o][l] = (full[out] ^ narrow[l].good_value(out)) &
                           first_patterns<1>(count);
          expected_any[l] |= expected[o][l];
        }
      }
      std::vector<Wide::Word> got(nl.num_outputs());
      const Wide::Word any =
          wide.simulate_fault(f, [&](std::size_t o, const Wide::Word& w) {
            ASSERT_LT(o, got.size());
            EXPECT_TRUE(w);
            EXPECT_FALSE(got[o]) << "output " << o << " reported twice";
            got[o] = w;
          });
      EXPECT_EQ(got, expected) << fault_name(nl, f);
      EXPECT_EQ(any, expected_any) << fault_name(nl, f);
      EXPECT_EQ(wide.detect_word(f), expected_any) << fault_name(nl, f);
      EXPECT_FALSE(any & ~first_patterns<4>(num_patterns))
          << fault_name(nl, f) << " reports a pad slot";
    }
  }
}

TEST(FourLaneSimulator, MatchesOneLaneOracleOnBenchmarks) {
  for (const std::string name : {"c17", "s27", "s298", "s1423"}) {
    SCOPED_TRACE(name);
    const Netlist nl = full_scan(load_benchmark(name));
    for (std::size_t patterns : {1, 63, 64, 65, 128, 200, 255, 256}) {
      SCOPED_TRACE(patterns);
      expect_four_lanes_match_oracle(nl, patterns);
    }
  }
}

TEST(FourLaneSimulator, FirstPatternsMasksEachLane) {
  const LaneWord<4> none = first_patterns<4>(0);
  EXPECT_FALSE(none);
  const LaneWord<4> m = first_patterns<4>(130);
  EXPECT_EQ(m[0], ~std::uint64_t{0});
  EXPECT_EQ(m[1], ~std::uint64_t{0});
  EXPECT_EQ(m[2], 0b11u);
  EXPECT_EQ(m[3], 0u);
  EXPECT_EQ(first_patterns<4>(256), ~LaneWord<4>{});
  EXPECT_EQ(first_patterns<1>(5), 0b11111u);
}

TEST(TestSet, PackBatchLanes) {
  TestSet ts(2);
  Rng rng(4);
  ts.add_random(130, rng);
  std::vector<std::uint64_t> words;
  ts.pack_batch(0, 130, &words, 4);
  ASSERT_EQ(words.size(), 8u);
  for (std::size_t t = 0; t < 130; ++t)
    for (std::size_t i = 0; i < 2; ++i)
      EXPECT_EQ((words[i * 4 + t / 64] >> (t % 64)) & 1,
                ts[t].get(i) ? 1u : 0u);
  EXPECT_EQ(words[3], 0u);  // empty lane
  EXPECT_EQ(words[2] >> 2, 0u);  // pad slots of the partial lane
  EXPECT_THROW(ts.pack_batch(0, 130, &words, 2), std::invalid_argument);
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

// The response matrix against one built from explicit output vectors: every
// fault's faulty response under every test comes from one-lane whole-cone
// simulation, and response_matrix_from_table interns them in the same
// ascending first-detecting-fault order build_response_matrix promises.
// Ids, signatures and difference lists must all be equal.
ResponseMatrix reference_matrix(const Netlist& nl, const FaultList& faults,
                                const TestSet& ts) {
  const std::vector<BitVec> good = good_responses(nl, ts);
  std::vector<std::vector<BitVec>> faulty(faults.size(), good);
  FaultSimulator fsim(nl);
  std::vector<std::uint64_t> words;
  std::vector<std::uint64_t> full;
  for (std::size_t first = 0; first < ts.size(); first += 64) {
    const std::size_t count = std::min<std::size_t>(64, ts.size() - first);
    ts.pack_batch(first, count, &words);
    fsim.load_batch(words, count);
    for (FaultId i = 0; i < faults.size(); ++i) {
      fsim.simulate_fault_full(faults[i], &full);
      for (std::size_t o = 0; o < nl.num_outputs(); ++o) {
        const std::uint64_t w = full[nl.outputs()[o]];
        for (std::size_t t = 0; t < count; ++t)
          faulty[i][first + t].set(o, (w >> t) & 1);
      }
    }
  }
  return response_matrix_from_table(good, faulty);
}

void expect_same_matrix(const ResponseMatrix& got, const ResponseMatrix& want,
                        bool diffs) {
  ASSERT_EQ(got.num_faults(), want.num_faults());
  ASSERT_EQ(got.num_tests(), want.num_tests());
  for (std::size_t t = 0; t < want.num_tests(); ++t) {
    ASSERT_EQ(got.num_distinct(t), want.num_distinct(t)) << "test " << t;
    for (FaultId f = 0; f < want.num_faults(); ++f)
      ASSERT_EQ(got.response(f, t), want.response(f, t))
          << "fault " << f << " test " << t;
    for (ResponseId id = 0; id < want.num_distinct(t); ++id) {
      ASSERT_EQ(got.signature(t, id), want.signature(t, id));
      if (diffs) {
        ASSERT_EQ(got.diff_outputs(t, id), want.diff_outputs(t, id));
      }
    }
  }
}

TEST(ResponseMatrix, MatchesTableBuiltFromFullSimulation) {
  for (const std::string name : {"s298", "s344"}) {
    SCOPED_TRACE(name);
    const Netlist nl = full_scan(load_benchmark(name));
    const FaultList faults = collapsed_fault_list(nl).collapsed;
    for (std::size_t num_tests : {1, 64, 65, 256, 257, 600}) {
      SCOPED_TRACE(num_tests);
      Rng rng(num_tests);
      TestSet ts(nl.num_inputs());
      ts.add_random(num_tests, rng);
      const ResponseMatrix want = reference_matrix(nl, faults, ts);
      for (bool diffs : {false, true}) {
        for (std::size_t threads : {1, 4}) {
          SCOPED_TRACE(threads);
          ResponseMatrixStatus status;
          const ResponseMatrix got = build_response_matrix(
              nl, faults, ts,
              {.store_diff_outputs = diffs, .num_threads = threads}, &status);
          EXPECT_TRUE(status.completed);
          EXPECT_EQ(status.faults_simulated, faults.size());
          EXPECT_EQ(got.has_diff_outputs(), diffs);
          expect_same_matrix(got, want, diffs);
        }
      }
    }
  }
}

// A budget that expires after the first of three 256-pattern passes: the
// tests of that pass carry their complete columns, later tests keep id 0,
// and no chunk counts as simulated.
TEST(ResponseMatrix, BudgetExpiringBetweenPassesLeavesValidMatrix) {
  const Netlist nl = full_scan(load_benchmark("s298"));
  const FaultList faults = collapsed_fault_list(nl).collapsed;
  Rng rng(9);
  TestSet ts(nl.num_inputs());
  ts.add_random(600, rng);
  const ResponseMatrix whole = build_response_matrix(nl, faults, ts);

  ResponseMatrixStatus status;
  failpoint::arm("simulate_pass.expire", 2);
  const ResponseMatrix rm =
      build_response_matrix(nl, faults, ts, {.num_threads = 1}, &status);
  failpoint::disarm("simulate_pass.expire");
  EXPECT_FALSE(status.completed);
  EXPECT_EQ(status.stop_reason, StopReason::kDeadline);
  EXPECT_EQ(status.faults_simulated, 0u);
  for (std::size_t t = 0; t < rm.num_tests(); ++t) {
    ASSERT_EQ(rm.fault_free_id(t), 0u);
    if (t < 256) {
      ASSERT_EQ(rm.num_distinct(t), whole.num_distinct(t)) << t;
      for (FaultId f = 0; f < rm.num_faults(); ++f)
        ASSERT_EQ(rm.response(f, t), whole.response(f, t));
    } else {
      ASSERT_EQ(rm.num_distinct(t), 1u) << t;
      for (FaultId f = 0; f < rm.num_faults(); ++f)
        ASSERT_EQ(rm.response(f, t), 0u);
    }
  }

  // Across threads the expiry lands at a different point of every chunk;
  // whatever was filled in names the right response, and every chunk
  // counted as simulated carries complete rows.
  failpoint::arm("simulate_pass.expire", 6);
  const ResponseMatrix part =
      build_response_matrix(nl, faults, ts, {.num_threads = 4}, &status);
  failpoint::disarm("simulate_pass.expire");
  EXPECT_FALSE(status.completed);
  std::size_t complete_rows = 0;
  for (FaultId f = 0; f < part.num_faults(); ++f) {
    bool complete = true;
    for (std::size_t t = 0; t < part.num_tests(); ++t) {
      ASSERT_LT(part.response(f, t), part.num_distinct(t));
      const ResponseId id = part.response(f, t);
      if (id != 0) {
        ASSERT_EQ(part.signature(t, id),
                  whole.signature(t, whole.response(f, t)));
      }
      complete = complete && id == whole.response(f, t);
    }
    complete_rows += complete;
  }
  for (std::size_t t = 0; t < part.num_tests(); ++t)
    ASSERT_EQ(part.fault_free_id(t), 0u);
  EXPECT_LE(status.faults_simulated, complete_rows);
}

}  // namespace
}  // namespace sddict
