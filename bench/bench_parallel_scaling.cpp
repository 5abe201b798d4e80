// Thread-scaling of the dictionary-construction pipeline: fault simulation
// (build_response_matrix), Procedure-1 restarts (run_procedure1),
// Procedure 2's parallel scoring (run_procedure2) and the single-threaded
// same/different dictionary build, at 1/2/4/8 threads, with a built-in
// bit-identity check of every multi-thread result (matrix, both
// procedures' baselines, pair counts) against the first thread count's —
// the parallel pipeline guarantees identical output at every thread count,
// and this bench fails (exit 1) if that ever breaks.
//
//   $ ./bench_parallel_scaling                         # s1423,s5378,s9234
//   $ ./bench_parallel_scaling --circuits=s9234 --tests=200 --calls1=50
//   $ ./bench_parallel_scaling --threads=1,2,4,8,16 --json=BENCH_scaling.json
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "bmcirc/registry.h"
#include "core/baseline.h"
#include "core/procedure2.h"
#include "dict/samediff_dict.h"
#include "fault/collapse.h"
#include "json_writer.h"
#include "netlist/transform.h"
#include "store/kernels.h"
#include "util/cli.h"
#include "util/log.h"
#include "util/threadpool.h"
#include "util/timer.h"

using namespace sddict;

namespace {

bool same_matrix(const ResponseMatrix& a, const ResponseMatrix& b) {
  if (a.num_faults() != b.num_faults() || a.num_tests() != b.num_tests())
    return false;
  for (std::size_t j = 0; j < a.num_tests(); ++j) {
    if (a.num_distinct(j) != b.num_distinct(j)) return false;
    for (ResponseId id = 0; id < a.num_distinct(j); ++id)
      if (!(a.signature(j, id) == b.signature(j, id))) return false;
  }
  for (FaultId f = 0; f < a.num_faults(); ++f)
    for (std::size_t j = 0; j < a.num_tests(); ++j)
      if (a.response(f, j) != b.response(f, j)) return false;
  return true;
}

bool same_selection(const BaselineSelection& a, const BaselineSelection& b) {
  return a.baselines == b.baselines &&
         a.distinguished_pairs == b.distinguished_pairs &&
         a.indistinguished_pairs == b.indistinguished_pairs &&
         a.calls_used == b.calls_used;
}

bool same_procedure2(const Procedure2Result& a, const Procedure2Result& b) {
  return a.baselines == b.baselines &&
         a.indistinguished_pairs == b.indistinguished_pairs &&
         a.replacements == b.replacements && a.sweeps == b.sweeps;
}

// The checkout's revision (`git describe --always --dirty`), or "unknown".
std::string source_revision() {
  std::string rev;
  if (FILE* p = popen("git -C '" SDDICT_SOURCE_DIR
                      "' describe --always --dirty --abbrev=12 2>/dev/null",
                      "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof buf, p) != nullptr) rev += buf;
    pclose(p);
  }
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r'))
    rev.pop_back();
  return rev.empty() ? "unknown" : rev;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_parallel_scaling [--circuits=s1423,...]\n"
               "  [--tests=N] [--seed=N] [--calls1=N] [--lower=N]\n"
               "  [--threads=1,2,4,8] [--verbose=true] [--json=FILE]\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const auto unknown =
      args.unknown_flags({"circuits", "tests", "seed", "calls1", "lower",
                          "threads", "verbose", "json"});
  if (!unknown.empty()) {
    for (const auto& f : unknown)
      std::fprintf(stderr, "unknown flag --%s\n", f.c_str());
    return usage();
  }

  std::vector<std::string> circuits;
  std::size_t num_tests = 0;
  std::uint64_t seed = 1;
  std::vector<std::size_t> thread_counts;
  BaselineSelectionConfig bcfg;
  try {
    set_log_level(args.get_bool("verbose", false) ? LogLevel::kDebug
                                                  : LogLevel::kWarn);

    circuits = args.get_list("circuits");
    if (circuits.empty()) circuits = {"s1423", "s5378", "s9234"};
    num_tests = args.get_int("tests", 150, 1, 1 << 20);
    seed = static_cast<std::uint64_t>(args.get_int("seed", 1, 0));

    // Strictly parsed: --threads=abc or --threads=0 is an error, not a
    // silently-zero strtoull result.
    for (std::int64_t t : args.get_int_list("threads", 1, 4096))
      thread_counts.push_back(static_cast<std::size_t>(t));
    if (thread_counts.empty()) thread_counts = {1, 2, 4, 8};

    bcfg.lower = args.get_int("lower", 10, 1, 1 << 20);
    bcfg.calls1 = args.get_int("calls1", 20, 1, 1 << 20);
    bcfg.seed = seed;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage();
  }

  const std::size_t nproc = ThreadPool::default_num_threads();
  const std::string revision = source_revision();
  std::printf("Parallel dictionary-construction scaling "
              "(%zu random tests, CALLS1=%zu, %zu hardware threads)\n"
              "kernel=%s build=%s rev=%s\n\n",
              num_tests, bcfg.calls1, nproc, kernels::dispatch().name,
              SDDICT_BUILD_TYPE, revision.c_str());
  std::printf("%-8s %8s %10s %10s %10s %10s %10s %9s %10s\n", "circuit",
              "threads", "sim (s)", "proc1 (s)", "proc2 (s)", "s/d (s)",
              "total (s)", "speedup", "identical");

  const std::string json_path = args.get("json");
  std::vector<bench::JsonRecord> records;

  bool all_identical = true;
  for (const auto& name : circuits) {
    if (!is_known_benchmark(name)) {
      std::fprintf(stderr, "skipping unknown circuit '%s'\n", name.c_str());
      continue;
    }
    Netlist nl = load_benchmark(name);
    if (nl.has_dffs()) nl = full_scan(nl);
    const FaultList faults = collapsed_fault_list(nl).collapsed;
    TestSet tests(nl.num_inputs());
    Rng rng(seed);
    tests.add_random(num_tests, rng);

    ResponseMatrix reference_rm;
    BaselineSelection reference_sel;
    Procedure2Result reference_p2;
    double base_total = 0;
    for (std::size_t threads : thread_counts) {
      Timer sim_timer;
      ResponseMatrix rm =
          build_response_matrix(nl, faults, tests, {.num_threads = threads});
      const double sim_s = sim_timer.seconds();

      bcfg.num_threads = threads;
      Timer p1_timer;
      BaselineSelection sel = run_procedure1(rm, bcfg);
      const double p1_s = p1_timer.seconds();

      Timer p2_timer;
      Procedure2Result p2 =
          run_procedure2(rm, sel.baselines, {.num_threads = threads});
      const double p2_s = p2_timer.seconds();

      Timer sd_timer;
      const SameDifferentDictionary sd =
          SameDifferentDictionary::build(rm, p2.baselines);
      const double sd_s = sd_timer.seconds();
      const double total = sim_s + p1_s + p2_s + sd_s;

      bool identical = sd.indistinguished_pairs() == p2.indistinguished_pairs;
      if (threads == thread_counts.front()) {
        reference_rm = std::move(rm);
        reference_sel = std::move(sel);
        reference_p2 = std::move(p2);
        base_total = total;
      } else {
        identical = identical && same_matrix(reference_rm, rm) &&
                    same_selection(reference_sel, sel) &&
                    same_procedure2(reference_p2, p2);
      }
      all_identical = all_identical && identical;
      std::printf("%-8s %8zu %10.3f %10.3f %10.3f %10.3f %10.3f %8.2fx %10s\n",
                  name.c_str(), threads, sim_s, p1_s, p2_s, sd_s, total,
                  base_total > 0 ? base_total / total : 0.0,
                  identical ? "yes" : "NO");
      std::fflush(stdout);
      records.push_back({"bench_parallel_scaling", name, threads, "sim_s",
                         sim_s});
      records.push_back({"bench_parallel_scaling", name, threads, "proc1_s",
                         p1_s});
      records.push_back({"bench_parallel_scaling", name, threads, "proc2_s",
                         p2_s});
      records.push_back({"bench_parallel_scaling", name, threads, "sd_s",
                         sd_s});
      records.push_back({"bench_parallel_scaling", name, threads, "total_s",
                         total});
      records.push_back({"bench_parallel_scaling", name, threads, "speedup",
                         base_total > 0 ? base_total / total : 0.0});
    }
    std::printf("  [%s: %zu faults, %zu tests, %llu indistinguished pairs "
                "after proc1, %llu after proc2, %zu proc1 calls, %zu proc2 "
                "replacements]\n\n",
                name.c_str(), faults.size(), tests.size(),
                (unsigned long long)reference_sel.indistinguished_pairs,
                (unsigned long long)reference_p2.indistinguished_pairs,
                reference_sel.calls_used, reference_p2.replacements);
  }

  // Where the numbers were measured.
  const char* const bench = "bench_parallel_scaling";
  records.push_back({bench, "host", 0, "nproc", static_cast<double>(nproc)});
  records.push_back({bench, "host", 0, "kernel", 0, kernels::dispatch().name});
  records.push_back({bench, "host", 0, "build_type", 0, SDDICT_BUILD_TYPE});
  records.push_back({bench, "host", 0, "revision", 0, revision});

  if (!json_path.empty()) {
    try {
      bench::write_bench_json(json_path, records);
      std::printf("wrote %zu records to %s\n", records.size(),
                  json_path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  }

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: some thread count produced a different result\n");
    return 1;
  }
  return 0;
}
