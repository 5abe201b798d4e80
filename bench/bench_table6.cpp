// Regenerates the paper's Table 6: for every circuit and test-set type,
// dictionary sizes (full / pass-fail / same-different) and indistinguished
// fault-pair counts (full / pass-fail / s-d after Procedure 1 / s-d after
// Procedure 2).
//
// Defaults are sized for an unattended run over all circuits
// (CALLS1 scaled down to 10); reproduce the paper's exact configuration
// with:
//
//   $ ./bench_table6 --calls1=100 --lower=10
//
// Useful flags:
//   --circuits=s208,s298,...   subset of circuits (default: all 16)
//   --ttype=diag|10det|both    test-set types to run (default both)
//   --calls1=N --lower=N       Procedure-1 parameters (paper: 100 / 10)
//   --ndetect=N                n for the n-detection test set (paper: 10)
//   --seed=N
//   --threads=N                worker threads for fault simulation and
//                              Procedure-1 restarts (0 = all cores;
//                              results are identical at any thread count)
//
// Every printed row is checked against the resolution ordering the paper's
// claims rest on, in indistinguished pairs: s/d <= p/f, full <= s/d and
// s/d-repl <= s/d-rand. A row that breaks one is named on stderr and the
// run exits 1.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "bmcirc/registry.h"
#include "core/experiment.h"
#include "json_writer.h"
#include "netlist/stats.h"
#include "netlist/transform.h"
#include "util/cli.h"
#include "util/log.h"
#include "util/timer.h"

using namespace sddict;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: bench_table6 [--circuits=s208,s298,...]\n"
               "  [--ttype=diag|10det|both] [--calls1=N] [--lower=N]\n"
               "  [--ndetect=N] [--seed=N] [--threads=N]\n"
               "  [--verbose=true] [--json=FILE]\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const auto unknown = args.unknown_flags(
      {"circuits", "ttype", "calls1", "lower", "ndetect", "seed", "threads",
       "verbose", "json"});
  if (!unknown.empty()) {
    for (const auto& f : unknown)
      std::fprintf(stderr, "unknown flag --%s\n", f.c_str());
    return usage();
  }

  std::vector<std::string> circuits;
  std::string ttype;
  std::string json_path;
  ExperimentConfig cfg;
  try {
    json_path = args.get("json");
    if (args.get_bool("verbose", false))
      set_log_level(LogLevel::kDebug);
    else
      set_log_level(LogLevel::kWarn);

    circuits = args.get_list("circuits");
    if (circuits.empty()) circuits = table6_circuit_names();

    ttype = args.get("ttype", "both");
    if (ttype != "diag" && ttype != "10det" && ttype != "both")
      throw std::invalid_argument("flag --ttype must be diag, 10det or both");
    cfg.baseline.lower = args.get_int("lower", 10, 1, 1 << 20);
    cfg.baseline.calls1 = args.get_int("calls1", 10, 1, 1 << 20);
    cfg.baseline.seed = args.get_int("seed", 1, 0);
    cfg.baseline.num_threads = args.get_int("threads", 0, 0, 4096);
    cfg.ndetect.n = args.get_int("ndetect", 10, 1, 1000);
    cfg.ndetect.seed = cfg.baseline.seed;
    cfg.diag.seed = cfg.baseline.seed;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage();
  }

  std::printf("Table 6: experimental results (CALLS1=%zu, LOWER=%zu)\n",
              cfg.baseline.calls1, cfg.baseline.lower);
  std::printf("note: circuits are deterministic synthetic stand-ins at the "
              "published ISCAS-89 profiles (see DESIGN.md)\n\n");
  std::printf("%s\n", experiment_header().c_str());

  Timer total;
  std::vector<bench::JsonRecord> records;
  int violations = 0;
  for (const auto& name : circuits) {
    if (!is_known_benchmark(name)) {
      std::fprintf(stderr, "skipping unknown circuit '%s'\n", name.c_str());
      continue;
    }
    Netlist nl = load_benchmark(name);
    if (nl.has_dffs()) nl = full_scan(nl);
    nl.set_name(name);  // paper prints the base circuit name

    for (TestSetKind kind : {TestSetKind::kDiagnostic, TestSetKind::kTenDetect}) {
      if (ttype == "diag" && kind != TestSetKind::kDiagnostic) continue;
      if (ttype == "10det" && kind != TestSetKind::kTenDetect) continue;
      Timer row_timer;
      const ExperimentRow row = run_experiment(nl, kind, cfg);
      std::printf("%s\n", format_experiment_row(row).c_str());
      std::fflush(stdout);
      const auto check = [&](bool ok, const char* rule) {
        if (ok) return;
        std::fprintf(stderr, "FAIL: %s %s breaks %s\n", row.circuit.c_str(),
                     row.ttype.c_str(), rule);
        ++violations;
      };
      check(row.indist_sd_rand <= row.indist_passfail, "s/d <= p/f");
      check(row.indist_full <= row.indist_sd_repl, "full <= s/d");
      check(row.indist_sd_repl <= row.indist_sd_rand, "s/d-repl <= s/d-rand");
      const auto record = [&](const std::string& metric, double value) {
        records.push_back({"bench_table6", row.circuit,
                           cfg.baseline.num_threads,
                           metric + "_" + row.ttype, value});
      };
      record("tests", (double)row.num_tests);
      record("faults", (double)row.num_faults);
      record("indist_full", (double)row.indist_full);
      record("indist_passfail", (double)row.indist_passfail);
      record("indist_sd_p1", (double)row.indist_sd_rand);
      record("indist_sd_p2", (double)row.indist_sd_repl);
      record("sd_bits", (double)row.sizes.same_different_bits);
      std::fprintf(stderr,
                   "  [%s %s: %.1fs total; testgen %.1fs, faultsim %.1fs, "
                   "proc1 %.1fs (%zu calls), proc2 %.1fs; %zu faults, %zu "
                   "undetected]\n",
                   row.circuit.c_str(), row.ttype.c_str(), row_timer.seconds(),
                   row.seconds_testgen, row.seconds_faultsim, row.seconds_proc1,
                   row.proc1_calls, row.seconds_proc2, row.num_faults,
                   row.num_undetected);
    }
  }
  std::fprintf(stderr, "table 6 complete in %.1fs\n", total.seconds());
  if (!json_path.empty()) {
    bench::write_bench_json(json_path, records);
    std::printf("wrote %zu records to %s\n", records.size(),
                json_path.c_str());
  }
  return violations == 0 ? 0 : 1;
}
