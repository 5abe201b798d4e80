// Quickstart: build all three dictionary types for the ISCAS-85 c17
// circuit, pick same/different baselines with the paper's Procedures 1 and
// 2, and compare diagnostic resolution and size.
//
//   $ ./quickstart
#include <cstdio>

#include "bmcirc/embedded.h"
#include "core/procedure2.h"
#include "dict/full_dict.h"
#include "dict/passfail_dict.h"
#include "dict/samediff_dict.h"
#include "fault/collapse.h"
#include "netlist/stats.h"
#include "tgen/ndetect.h"
#include "util/cli.h"

using namespace sddict;

int main(int argc, char** argv) {
  // quickstart takes no flags; reject anything that looks like one so a
  // typo ("quickstart --seed=3") fails loudly instead of being ignored.
  const CliArgs args(argc, argv);
  if (!args.unknown_flags({}).empty() || !args.positional().empty()) {
    std::fprintf(stderr, "usage: quickstart  (no arguments)\n");
    return 1;
  }

  // 1. A circuit. (Load your own with parse_bench_file("my.bench") and, if
  //    it is sequential, full_scan() it first.)
  const Netlist nl = make_c17();
  std::printf("circuit: %s\n", format_stats(nl).c_str());

  // 2. The collapsed stuck-at fault list.
  const FaultList faults = collapsed_fault_list(nl).collapsed;
  std::printf("collapsed faults: %zu\n", faults.size());

  // 3. A test set (here: 10-detection).
  NDetectOptions topts;
  topts.n = 10;
  const TestSet tests = generate_ndetect(nl, faults, topts).tests;
  std::printf("tests: %zu\n\n", tests.size());

  // 4. Fault-simulate once; everything else derives from the response matrix.
  const ResponseMatrix rm = build_response_matrix(nl, faults, tests);

  // 5. The three dictionaries.
  const FullDictionary full = FullDictionary::build(rm);
  const PassFailDictionary pf = PassFailDictionary::build(rm);

  // Procedures 1 and 2 select the same/different baselines.
  const Construction c = construct(rm, {.lower = 10, .calls1 = 100});
  const SameDifferentDictionary sd =
      SameDifferentDictionary::build(rm, c.proc2.baselines);

  std::printf("%-16s %12s %22s\n", "dictionary", "size (bits)",
              "indistinguished pairs");
  std::printf("%-16s %12llu %22llu\n", "full",
              (unsigned long long)full.size_bits(),
              (unsigned long long)full.indistinguished_pairs());
  std::printf("%-16s %12llu %22llu\n", "pass/fail",
              (unsigned long long)pf.size_bits(),
              (unsigned long long)pf.indistinguished_pairs());
  std::printf("%-16s %12llu %22llu\n", "same/different",
              (unsigned long long)sd.size_bits(),
              (unsigned long long)sd.indistinguished_pairs());

  // 6. Diagnose: the tester observed fault #5's behaviour.
  std::vector<ResponseId> observed(tests.size());
  for (std::size_t t = 0; t < tests.size(); ++t)
    observed[t] = rm.response(5, t);
  const auto candidates = sd.diagnose(sd.encode(observed), 3);
  std::printf("\ntop same/different candidates for an observed failure:\n");
  for (const auto& m : candidates)
    std::printf("  %-24s (%u mismatching tests)\n",
                fault_name(nl, faults[m.fault]).c_str(), m.mismatches);
  return 0;
}
