// End-to-end diagnosis quality: inject defects (modeled single faults and
// unmodeled double faults), capture tester observations, and diagnose with
// each dictionary type. Reports average candidate-list sizes and how often
// the true site is in the top candidate set — the operational meaning of
// "diagnostic resolution" the paper's dictionaries trade storage for.
//
//   $ ./bench_diagnosis [--circuits=...] [--defects=50] [--seed=1]
#include <cstdio>

#include "bmcirc/registry.h"
#include "core/procedure2.h"
#include "diag/observe.h"
#include "diag/report.h"
#include "diag/twophase.h"
#include "fault/collapse.h"
#include "netlist/transform.h"
#include "tgen/diagset.h"
#include "util/cli.h"
#include "util/log.h"

using namespace sddict;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: bench_diagnosis [--circuits=s298,...] [--defects=N] "
               "[--seed=N]\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const auto unknown = args.unknown_flags({"circuits", "defects", "seed"});
  if (!unknown.empty()) {
    for (const auto& f : unknown)
      std::fprintf(stderr, "unknown flag --%s\n", f.c_str());
    return usage();
  }
  std::vector<std::string> circuits;
  std::size_t num_defects = 0;
  std::uint64_t seed = 0;
  try {
    set_log_level(LogLevel::kWarn);
    circuits = args.get_list("circuits");
    if (circuits.empty()) circuits = {"s298", "s344", "s526"};
    num_defects = args.get_int("defects", 50, 1, 1 << 20);
    seed = args.get_int("seed", 1, 0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage();
  }

  std::printf("Diagnosis quality over %zu injected single-fault defects per "
              "circuit (diagnostic test sets)\n\n", num_defects);
  std::printf("%-8s %-15s %17s %15s %17s\n", "circuit", "dictionary",
              "avg candidates", "hit rate (%)", "phase-1 sims");

  for (const auto& name : circuits) {
    Netlist nl = load_benchmark(name);
    if (nl.has_dffs()) nl = full_scan(nl);
    const FaultList faults = collapsed_fault_list(nl).collapsed;
    DiagSetOptions dopts;
    dopts.seed = seed;
    const TestSet tests = generate_diagnostic(nl, faults, dopts).tests;
    const ResponseMatrix rm = build_response_matrix(nl, faults, tests);

    const auto full = FullDictionary::build(rm);
    const auto pf = PassFailDictionary::build(rm);
    const auto sd = SameDifferentDictionary::build(
        rm, construct(rm, {.calls1 = 10, .seed = seed}).proc2.baselines);

    double cand[3] = {0, 0, 0};
    std::size_t hits[3] = {0, 0, 0};
    double sims[3] = {0, 0, 0};
    Rng rng(seed + 99);
    for (std::size_t d = 0; d < num_defects; ++d) {
      const FaultId truth = static_cast<FaultId>(rng.below(faults.size()));
      const auto observed =
          observe_defect(nl, tests, rm, {to_injection(faults[truth])});
      const auto cmp = compare_dictionaries(full, pf, sd, observed, truth);
      const DictionaryDiagnosis* ds[3] = {&cmp.full, &cmp.pass_fail,
                                          &cmp.same_different};
      for (int i = 0; i < 3; ++i) {
        cand[i] += static_cast<double>(ds[i]->tied_candidates);
        hits[i] += ds[i]->true_fault_rank >= 1 &&
                           ds[i]->true_fault_rank <= ds[i]->tied_candidates
                       ? 1
                       : 0;
      }
      sims[1] += static_cast<double>(
          two_phase_with_passfail(pf, rm, observed).simulations_run);
      sims[2] += static_cast<double>(
          two_phase_with_samediff(sd, rm, observed).simulations_run);
    }

    const char* labels[3] = {"full", "pass/fail", "same/different"};
    for (int i = 0; i < 3; ++i) {
      char simbuf[24];
      if (i == 0)
        std::snprintf(simbuf, sizeof simbuf, "%17s", "-");
      else
        std::snprintf(simbuf, sizeof simbuf, "%17.1f",
                      sims[i] / static_cast<double>(num_defects));
      std::printf("%-8s %-15s %17.2f %15.1f %s\n", name.c_str(), labels[i],
                  cand[i] / static_cast<double>(num_defects),
                  100.0 * static_cast<double>(hits[i]) /
                      static_cast<double>(num_defects),
                  simbuf);
    }
    std::printf("\n");
  }
  std::printf("candidates = faults tied at the best match (smaller is "
              "better); hit = true fault inside that set;\nphase-1 sims = "
              "full-response simulations a two-phase flow runs (out of the "
              "whole fault list).\n");
  return 0;
}
