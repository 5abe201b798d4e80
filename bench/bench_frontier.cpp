// Size/resolution frontier: for each circuit, plots (as table rows) every
// dictionary variant in this library on the storage-vs-resolution plane the
// paper's argument lives on: pass/fail, first-fail (reference [12]-style),
// same/different after Procedures 1+2, multi-baseline r=2, and full.
//
//   $ ./bench_frontier [--circuits=...] [--tests=150] [--seed=1]
#include <cstdio>

#include "bmcirc/registry.h"
#include "core/multibaseline.h"
#include "core/procedure2.h"
#include "dict/firstfail_dict.h"
#include "dict/full_dict.h"
#include "dict/multibaseline_dict.h"
#include "dict/passfail_dict.h"
#include "dict/samediff_dict.h"
#include "dict/signature_dict.h"
#include "fault/collapse.h"
#include "netlist/transform.h"
#include "util/cli.h"
#include "util/log.h"

using namespace sddict;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: bench_frontier [--circuits=s298,...] [--tests=N] "
               "[--seed=N]\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const auto unknown = args.unknown_flags({"circuits", "tests", "seed"});
  if (!unknown.empty()) {
    for (const auto& f : unknown)
      std::fprintf(stderr, "unknown flag --%s\n", f.c_str());
    return usage();
  }
  std::vector<std::string> circuits;
  std::size_t num_tests = 0;
  std::uint64_t seed = 0;
  try {
    set_log_level(LogLevel::kWarn);
    circuits = args.get_list("circuits");
    if (circuits.empty()) circuits = {"s298", "s344", "s526", "s820"};
    num_tests = args.get_int("tests", 150, 1, 1 << 20);
    seed = args.get_int("seed", 1, 0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage();
  }

  std::printf("Size/resolution frontier (%zu random tests per circuit)\n\n",
              num_tests);
  std::printf("%-8s %-18s %14s %15s\n", "circuit", "dictionary",
              "size (bits)", "indistinguished");

  for (const auto& name : circuits) {
    Netlist nl = load_benchmark(name);
    if (nl.has_dffs()) nl = full_scan(nl);
    const FaultList faults = collapsed_fault_list(nl).collapsed;
    TestSet tests(nl.num_inputs());
    Rng rng(seed);
    tests.add_random(num_tests, rng);
    const ResponseMatrix rm = build_response_matrix(
        nl, faults, tests, {.store_diff_outputs = true});

    const auto pf = PassFailDictionary::build(rm);
    const auto ffd = FirstFailDictionary::build(rm);
    const auto full = FullDictionary::build(rm);

    BaselineSelectionConfig cfg;
    cfg.calls1 = 10;
    cfg.seed = seed;
    const Construction c = construct(rm, cfg);
    const auto sd = SameDifferentDictionary::build(rm, c.proc2.baselines);
    cfg.target_indistinguished = c.full_pairs;
    const auto mb2 = MultiBaselineDictionary::build(
        rm, run_multi_baseline(rm, 2, cfg).baselines);

    const auto sig32 = SignatureDictionary::build(nl, faults, tests, 32);

    const struct {
      const char* label;
      std::uint64_t size;
      std::uint64_t indist;
    } rows[] = {
        {"misr-32 [6,19]", sig32.size_bits(), sig32.indistinguished_pairs()},
        {"pass/fail", pf.size_bits(), pf.indistinguished_pairs()},
        {"same/diff (P1+P2)", sd.size_bits(), sd.indistinguished_pairs()},
        {"multi-baseline r=2", mb2.size_bits(), mb2.indistinguished_pairs()},
        {"first-fail [12]", ffd.size_bits(), ffd.indistinguished_pairs()},
        {"full", full.size_bits(), full.indistinguished_pairs()},
    };
    for (const auto& r : rows)
      std::printf("%-8s %-18s %14llu %15llu\n", name.c_str(), r.label,
                  (unsigned long long)r.size, (unsigned long long)r.indist);
    std::printf("\n");
  }
  return 0;
}
