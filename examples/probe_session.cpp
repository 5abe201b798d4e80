// Guided-probe diagnosis session: a chip fails with an *unmodeled* defect
// (a two-net bridge). The same/different dictionary narrows the candidate
// list from the tester response alone; guided probing of internal nets then
// pins the defect down to the bridged region — the full classic flow of
// dictionary lookup followed by physical probing.
//
//   $ ./probe_session [--circuit=s298] [--seed=1]
#include <cstdio>
#include <exception>
#include <stdexcept>

#include "bmcirc/registry.h"
#include "core/procedure2.h"
#include "diag/observe.h"
#include "diag/probe.h"
#include "dict/samediff_dict.h"
#include "fault/bridge.h"
#include "fault/collapse.h"
#include "netlist/stats.h"
#include "netlist/transform.h"
#include "tgen/diagset.h"
#include "util/cli.h"

using namespace sddict;

namespace {

int usage() {
  std::fprintf(stderr, "usage: probe_session [--circuit=s298] [--seed=N]\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const auto unknown = args.unknown_flags({"circuit", "seed"});
  if (!unknown.empty()) {
    for (const auto& f : unknown)
      std::fprintf(stderr, "unknown flag --%s\n", f.c_str());
    return usage();
  }
  std::string circuit;
  std::uint64_t seed = 0;
  try {
    circuit = args.get("circuit", "s298");
    if (!is_known_benchmark(circuit))
      throw std::invalid_argument("flag --circuit: unknown benchmark '" +
                                  circuit + "'");
    seed = args.get_int("seed", 1, 0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage();
  }

  Netlist nl = load_benchmark(circuit);
  if (nl.has_dffs()) nl = full_scan(nl);
  std::printf("chip: %s\n", format_stats(nl).c_str());

  const FaultList faults = collapsed_fault_list(nl).collapsed;
  DiagSetOptions dopts;
  dopts.seed = seed;
  const TestSet tests = generate_diagnostic(nl, faults, dopts).tests;
  const ResponseMatrix rm = build_response_matrix(nl, faults, tests);

  const auto sd = SameDifferentDictionary::build(
      rm, construct(rm, {.calls1 = 10, .seed = seed}).proc2.baselines);

  // The hidden defect: a sampled non-feedback bridge.
  Rng rng(seed + 42);
  const auto bridges = sample_bridges(nl, 10, rng);
  BridgingFault defect{};
  std::vector<ResponseId> observed;
  bool excited = false;
  for (const auto& br : bridges) {
    const Netlist bad = inject_bridge(nl, br);
    observed = observe_defective_netlist(nl, bad, tests, rm);
    for (ResponseId id : observed) excited |= id != 0;
    if (excited) {
      defect = br;
      break;
    }
  }
  if (!excited) {
    std::printf("no sampled bridge was excited by the test set; rerun with "
                "another --seed\n");
    return 1;
  }
  std::printf("hidden defect: %s\n\n", bridge_name(nl, defect).c_str());

  // Stage 1: dictionary lookup.
  const auto ranked = sd.diagnose(sd.encode(observed), faults.size());
  std::vector<FaultId> candidates;
  for (const auto& m : ranked)
    if (m.mismatches == ranked.front().mismatches)
      candidates.push_back(m.fault);
  std::printf("stage 1 (same/different dictionary): %zu candidate(s) at %u "
              "mismatching tests\n",
              candidates.size(), ranked.front().mismatches);
  for (std::size_t i = 0; i < candidates.size() && i < 6; ++i)
    std::printf("    %s\n", fault_name(nl, faults[candidates[i]]).c_str());

  // Stage 2: guided probing.
  const auto oracle = bridge_probe_oracle(nl, tests, defect);
  const ProbeResult probe =
      guided_probe(nl, faults, tests, candidates, oracle);
  std::printf("\nstage 2 (guided probe): %zu probe(s)\n", probe.steps.size());
  for (const auto& step : probe.steps)
    std::printf("    probed %s under test %zu -> %d  (%zu -> %zu candidates)\n",
                nl.gate(step.net).name.c_str(), step.test, step.reading,
                step.candidates_before, step.candidates_after);
  std::printf("final candidates:\n");
  for (FaultId f : probe.final_candidates)
    std::printf("    %s\n", fault_name(nl, faults[f]).c_str());

  // Score: did diagnosis end on the bridged nets?
  bool on_bridge = false;
  for (FaultId f : probe.final_candidates) {
    const StuckFault& sf = faults[f];
    if (sf.gate == defect.a || sf.gate == defect.b) on_bridge = true;
    if (!sf.is_output_fault()) {
      const GateId driver =
          nl.gate(sf.gate).fanin[static_cast<std::size_t>(sf.pin)];
      if (driver == defect.a || driver == defect.b) on_bridge = true;
    }
  }
  std::printf("\ndefect region %s by the final candidate set\n",
              on_bridge ? "LOCALIZED" : "not hit");
  return 0;
}
