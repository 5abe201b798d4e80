// Microbenchmarks: logic-simulation and fault-simulation throughput of the
// PPSFP engine across circuit sizes.
#include <benchmark/benchmark.h>

#include "bmcirc/registry.h"
#include "fault/collapse.h"
#include "netlist/transform.h"
#include "sim/faultsim.h"
#include "sim/logicsim.h"
#include "sim/response.h"
#include "util/rng.h"

namespace sddict {
namespace {

const Netlist& circuit_for(int idx) {
  static const std::vector<std::string> names = {"s298", "s953", "s5378"};
  static std::vector<Netlist> cache;
  if (cache.empty())
    for (const auto& n : names) cache.push_back(full_scan(load_benchmark(n)));
  return cache[static_cast<std::size_t>(idx)];
}

void BM_GoodSimBatch(benchmark::State& state) {
  const Netlist& nl = circuit_for(static_cast<int>(state.range(0)));
  BatchSimulator sim(nl);
  Rng rng(1);
  std::vector<std::uint64_t> words(nl.num_inputs());
  for (auto& w : words) w = rng.next();
  for (auto _ : state) {
    sim.simulate(words);
    benchmark::DoNotOptimize(sim.values().data());
    words[0] = rng.next();  // defeat caching of identical batches
  }
  // 64 patterns per batch.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
  state.counters["gates"] = static_cast<double>(nl.num_gates());
}
BENCHMARK(BM_GoodSimBatch)->Arg(0)->Arg(1)->Arg(2);

// One fault per iteration against a batch of Lanes×64 patterns. A new
// random batch is loaded after every pass over the fault list, so the
// root-cone simulations are paid once per pass as in the response matrix,
// and items count patterns: the per-pattern cost of both widths compares
// directly.
template <std::size_t Lanes>
void BM_FaultSimBatch(benchmark::State& state) {
  const Netlist& nl = circuit_for(static_cast<int>(state.range(0)));
  const FaultList faults = collapsed_fault_list(nl).collapsed;
  BasicFaultSimulator<Lanes> fsim(nl);
  Rng rng(2);
  std::vector<std::uint64_t> words(nl.num_inputs() * Lanes);
  std::size_t i = 0;
  for (auto _ : state) {
    if (i == 0) {
      for (auto& w : words) w = rng.next();
      fsim.load_batch(words);
    }
    benchmark::DoNotOptimize(fsim.detect_word(faults[i]));
    i = (i + 1) % faults.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(Lanes * 64));
  state.counters["faults"] = static_cast<double>(faults.size());
}
BENCHMARK_TEMPLATE(BM_FaultSimBatch, 1)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK_TEMPLATE(BM_FaultSimBatch, 4)->Arg(0)->Arg(1)->Arg(2);

void BM_BuildResponseMatrix(benchmark::State& state) {
  const Netlist& nl = circuit_for(static_cast<int>(state.range(0)));
  const FaultList faults = collapsed_fault_list(nl).collapsed;
  TestSet tests(nl.num_inputs());
  Rng rng(3);
  tests.add_random(64, rng);
  for (auto _ : state) {
    const ResponseMatrix rm = build_response_matrix(nl, faults, tests);
    benchmark::DoNotOptimize(rm.num_distinct(0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(faults.size()) * 64);
}
BENCHMARK(BM_BuildResponseMatrix)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
}  // namespace sddict

BENCHMARK_MAIN();
