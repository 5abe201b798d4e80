// Bridging-defect diagnosis with stuck-at dictionaries (the use case of the
// paper's reference [7]): inject wired-AND/OR bridges, diagnose with each
// stuck-at dictionary type, and score a diagnosis as successful when a
// top-ranked candidate sits on one of the bridged nets. Higher-resolution
// dictionaries should localize more bridges with fewer candidates.
//
//   $ ./bench_bridging [--circuits=...] [--bridges=40] [--top=10] [--seed=1]
#include <algorithm>
#include <cstdio>

#include "bmcirc/registry.h"
#include "core/procedure2.h"
#include "diag/observe.h"
#include "dict/full_dict.h"
#include "dict/passfail_dict.h"
#include "dict/samediff_dict.h"
#include "fault/bridge.h"
#include "fault/collapse.h"
#include "netlist/transform.h"
#include "tgen/diagset.h"
#include "util/cli.h"
#include "util/log.h"

using namespace sddict;

namespace {

bool hits_bridge(const Netlist& nl, const FaultList& faults,
                 const std::vector<DiagnosisMatch>& ranked, std::size_t top,
                 const BridgingFault& br) {
  const std::size_t limit = std::min(top, ranked.size());
  for (std::size_t i = 0; i < limit; ++i) {
    const StuckFault& f = faults[ranked[i].fault];
    // A candidate "sits on" the bridge when its site gate is one of the
    // bridged nets or a direct consumer pin of one of them.
    if (f.gate == br.a || f.gate == br.b) return true;
    if (!f.is_output_fault()) {
      const GateId driver = nl.gate(f.gate).fanin[static_cast<std::size_t>(f.pin)];
      if (driver == br.a || driver == br.b) return true;
    }
  }
  return false;
}

}  // namespace

int usage() {
  std::fprintf(stderr,
               "usage: bench_bridging [--circuits=s298,...] [--bridges=N] "
               "[--top=N] [--seed=N]\n");
  return 1;
}

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const auto unknown =
      args.unknown_flags({"circuits", "bridges", "top", "seed"});
  if (!unknown.empty()) {
    for (const auto& f : unknown)
      std::fprintf(stderr, "unknown flag --%s\n", f.c_str());
    return usage();
  }
  std::vector<std::string> circuits;
  std::size_t num_bridges = 0;
  std::size_t top = 0;
  std::uint64_t seed = 0;
  try {
    set_log_level(LogLevel::kWarn);
    circuits = args.get_list("circuits");
    if (circuits.empty()) circuits = {"s298", "s344"};
    num_bridges = args.get_int("bridges", 40, 1, 1 << 20);
    top = args.get_int("top", 10, 1, 1 << 20);
    seed = args.get_int("seed", 1, 0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage();
  }

  std::printf("Bridging-defect diagnosis via stuck-at dictionaries "
              "(%zu bridges per circuit, top-%zu candidates)\n\n",
              num_bridges, top);
  std::printf("%-8s %-15s %18s\n", "circuit", "dictionary",
              "localization (%)");

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

    Rng rng(seed + 5);
    const auto bridges = sample_bridges(nl, num_bridges, rng);
    std::size_t hit_full = 0, hit_pf = 0, hit_sd = 0, active = 0;
    for (const auto& br : bridges) {
      const Netlist bad = inject_bridge(nl, br);
      const auto observed = observe_defective_netlist(nl, bad, tests, rm);
      bool fails = false;
      for (ResponseId id : observed) fails |= id != 0;
      if (!fails) continue;  // bridge never excited by this test set
      ++active;
      hit_full += hits_bridge(nl, faults, full.diagnose(observed, top), top, br);
      hit_pf += hits_bridge(
          nl, faults, pf.diagnose(pf.encode(observed), top), top, br);
      hit_sd += hits_bridge(
          nl, faults, sd.diagnose(sd.encode(observed), top), top, br);
    }
    if (active == 0) {
      std::printf("%-8s (no bridge excited by the test set)\n\n", name.c_str());
      continue;
    }
    const double denom = static_cast<double>(active);
    std::printf("%-8s %-15s %18.1f\n", name.c_str(), "full",
                100.0 * static_cast<double>(hit_full) / denom);
    std::printf("%-8s %-15s %18.1f\n", name.c_str(), "pass/fail",
                100.0 * static_cast<double>(hit_pf) / denom);
    std::printf("%-8s %-15s %18.1f\n", name.c_str(), "same/different",
                100.0 * static_cast<double>(hit_sd) / denom);
    std::printf("%-8s (%zu of %zu bridges excited)\n\n", name.c_str(), active,
                bridges.size());
  }
  return 0;
}
