// Noise-vs-rank sweep of the diagnosis engine: inject modeled single-fault
// defects, corrupt the tester observation through the deterministic noise
// channel (seeded response-id flips + record dropouts), and diagnose with
// every dictionary type through diag/engine.h. Reports the mean rank of the
// true fault (1 = top candidate; lower is better) per noise rate, i.e. how
// gracefully each dictionary's resolution degrades with tester data quality.
//
//   $ ./bench_noise [--circuit=s298] [--defects=1000] [--rates=0.5,1,2,5]
//                   [--tests=detect|diag] [--tolerance=2] [--calls1=10]
//                   [--seed=1]
//
// The noise mix models a real datalog: at rate r% each test independently
// loses its record with probability r/100 (the dominant tester failure)
// and, when kept, has its response corrupted into another modeled response
// with probability r/400 (outright value corruption is the rarer event).
// The default test set is a compact detection set — the production-tester
// scenario where the dictionaries' resolution actually differs; a
// diagnosis-optimized set (--tests=diag) leaves little resolution for any
// dictionary to add.
//
// Built-in self-check: at every rate <= 2% the same/different dictionary's
// mean true-fault rank must beat (be strictly below) pass/fail's — the
// diagnostic-resolution claim the paper makes, preserved under noise.
// Exits non-zero when the check fails.
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "bmcirc/registry.h"
#include "core/multibaseline.h"
#include "core/procedure2.h"
#include "diag/engine.h"
#include "diag/observe.h"
#include "fault/collapse.h"
#include "netlist/transform.h"
#include "tgen/diagset.h"
#include "tgen/ndetect.h"
#include "util/cli.h"
#include "util/log.h"
#include "util/rng.h"

#include "../tests/faultinject.h"

using namespace sddict;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: bench_noise [--circuit=s298] [--defects=N]\n"
               "  [--rates=0.5,1,2,5] (percent) [--tests=detect|diag]\n"
               "  [--tolerance=N] [--calls1=N] [--seed=N]\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const auto unknown = args.unknown_flags(
      {"circuit", "defects", "rates", "tests", "tolerance", "calls1", "seed"});
  if (!unknown.empty()) {
    for (const auto& f : unknown)
      std::fprintf(stderr, "unknown flag --%s\n", f.c_str());
    return usage();
  }

  std::string circuit;
  std::string ttype;
  std::size_t num_defects = 0;
  std::vector<double> rates;
  EngineOptions eopt;
  std::size_t calls1 = 0;
  std::uint64_t seed = 0;
  try {
    set_log_level(LogLevel::kWarn);
    circuit = args.get("circuit", "s298");
    if (!is_known_benchmark(circuit))
      throw std::invalid_argument("flag --circuit: unknown benchmark '" +
                                  circuit + "'");
    num_defects = args.get_int("defects", 1000, 1, 1 << 20);
    for (const auto& r : args.get_list("rates")) {
      std::size_t pos = 0;
      double v = -1;
      try {
        v = std::stod(r, &pos);
      } catch (const std::exception&) {
        pos = 0;
      }
      if (pos != r.size() || v < 0 || v > 100)
        throw std::invalid_argument(
            "flag --rates: '" + r + "' is not a percentage in [0, 100]");
      rates.push_back(v);
    }
    if (rates.empty()) rates = {0.5, 1, 2, 5};
    ttype = args.get("tests", "detect");
    if (ttype != "detect" && ttype != "diag")
      throw std::invalid_argument("flag --tests must be detect or diag");
    eopt.tolerance =
        static_cast<std::uint32_t>(args.get_int("tolerance", 2, 0, 1 << 20));
    calls1 = args.get_int("calls1", 10, 1, 1 << 20);
    seed = args.get_int("seed", 1, 0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage();
  }

  Netlist nl = load_benchmark(circuit);
  if (nl.has_dffs()) nl = full_scan(nl);
  const FaultList faults = collapsed_fault_list(nl).collapsed;
  TestSet tests;
  if (ttype == "detect") {
    tests = generate_detect(nl, faults, seed).tests;
  } else {
    DiagSetOptions dopts;
    dopts.seed = seed;
    tests = generate_diagnostic(nl, faults, dopts).tests;
  }
  ResponseMatrixOptions rmopts;
  rmopts.store_diff_outputs = true;  // first-fail needs the output lists
  const ResponseMatrix rm = build_response_matrix(nl, faults, tests, rmopts);

  const auto full = FullDictionary::build(rm);
  const auto pf = PassFailDictionary::build(rm);
  BaselineSelectionConfig cfg;
  cfg.calls1 = calls1;
  cfg.seed = seed;
  const Construction c = construct(rm, cfg);
  const auto sd = SameDifferentDictionary::build(rm, c.proc2.baselines);
  cfg.target_indistinguished = c.full_pairs;
  const auto mbsel = run_multi_baseline(rm, 2, cfg);
  const auto mb = MultiBaselineDictionary::build(rm, mbsel.baselines);
  const auto ff = FirstFailDictionary::build(rm);

  std::printf("Noise sweep: %s, %zu faults, %zu tests, %zu defects/rate, "
              "tolerance %u\n\n",
              circuit.c_str(), faults.size(), tests.size(), num_defects,
              eopt.tolerance);
  enum { kFull = 0, kPf, kSd, kMb, kFf, kDicts };
  const char* labels[kDicts] = {"full", "pass/fail", "same/diff", "multi-bl-2",
                                "first-fail"};
  std::printf("%-9s", "noise %");
  for (const char* l : labels) std::printf(" %12s", l);
  std::printf("   (mean true-fault rank)\n");

  eopt.max_results = faults.size();  // rank every fault
  bool check_ok = true;
  for (std::size_t ri = 0; ri < rates.size(); ++ri) {
    const double rate = rates[ri];
    double sum_rank[kDicts] = {0};
    Rng defect_rng(seed + 99);
    for (std::size_t d = 0; d < num_defects; ++d) {
      const auto truth = static_cast<FaultId>(defect_rng.below(faults.size()));
      const auto ids = observe_defect(nl, tests, rm, {to_injection(faults[truth])});
      testing::NoiseChannel noise;
      noise.flip_rate = rate / 400.0;
      noise.drop_rate = rate / 100.0;
      noise.seed = seed * 1000003 + ri * 8191 + d * 31 + 7;
      const auto observed = testing::apply_noise(ids, rm, noise);

      const EngineDiagnosis diags[kDicts] = {
          diagnose_observed(full, observed, eopt),
          diagnose_observed(pf, observed, eopt),
          diagnose_observed(sd, observed, eopt),
          diagnose_observed(mb, observed, eopt),
          diagnose_observed(ff, rm, observed, eopt),
      };
      for (int i = 0; i < kDicts; ++i) {
        std::size_t rank = true_fault_rank(diags[i].matches, truth);
        if (rank == 0) rank = faults.size();  // absent: worst case
        sum_rank[i] += static_cast<double>(rank);
      }
    }
    std::printf("%-9.2f", rate);
    for (int i = 0; i < kDicts; ++i)
      std::printf(" %12.2f", sum_rank[i] / static_cast<double>(num_defects));
    std::printf("\n");
    if (rate <= 2.0 && sum_rank[kSd] >= sum_rank[kPf]) check_ok = false;
  }

  std::printf("\nself-check (same/diff mean rank < pass/fail at every rate "
              "<= 2%%): %s\n",
              check_ok ? "OK" : "FAILED");
  return check_ok ? 0 : 1;
}
