#include "core/experiment.h"

#include <sstream>

#include "dict/passfail_dict.h"
#include "fault/collapse.h"
#include "util/log.h"
#include "util/timer.h"

namespace sddict {

const char* test_set_kind_name(TestSetKind k) {
  switch (k) {
    case TestSetKind::kDiagnostic: return "diag";
    case TestSetKind::kTenDetect: return "10det";
  }
  return "?";
}

ExperimentRow run_experiment(const Netlist& nl, TestSetKind kind,
                             const ExperimentConfig& config) {
  ExperimentRow row;
  row.circuit = nl.name();
  row.ttype = test_set_kind_name(kind);

  const CollapseResult collapse = collapsed_fault_list(nl);
  const FaultList& faults = collapse.collapsed;

  Timer timer;
  TestSet tests(nl.num_inputs());
  if (kind == TestSetKind::kDiagnostic) {
    tests = generate_diagnostic(nl, faults, config.diag).tests;
  } else {
    tests = generate_ndetect(nl, faults, config.ndetect).tests;
  }
  row.seconds_testgen = timer.seconds();

  row.num_tests = tests.size();
  row.num_faults = faults.size();
  row.num_outputs = nl.num_outputs();
  row.sizes = dictionary_sizes(tests.size(), faults.size(), nl.num_outputs());

  timer.reset();
  // Fault simulation and Procedure 2 reuse the baseline-selection thread
  // knob; every stage is bit-deterministic at any thread count.
  const ResponseMatrix rm = build_response_matrix(
      nl, faults, tests, {.num_threads = config.baseline.num_threads});
  row.seconds_faultsim = timer.seconds();

  for (std::uint32_t count : rm.detection_counts())
    if (count == 0) ++row.num_undetected;

  Procedure2Config proc2 = config.proc2;
  proc2.num_threads = config.baseline.num_threads;
  const Construction c = construct(rm, config.baseline, proc2);
  row.indist_full = c.full_pairs;
  row.indist_passfail = PassFailDictionary::build(rm).indistinguished_pairs();
  row.seconds_proc1 = c.proc1_s;
  row.seconds_proc2 = c.proc2_s;
  row.indist_sd_rand = c.proc1.indistinguished_pairs;
  row.indist_sd_repl = c.proc2.indistinguished_pairs;
  row.proc1_calls = c.proc1.calls_used;
  row.proc2_improved = row.indist_sd_repl < row.indist_sd_rand;

  LOG_INFO << "table6 " << row.circuit << " " << row.ttype << ": |T|="
           << row.num_tests << " indist full/pf/sd-rand/sd-repl = "
           << row.indist_full << "/" << row.indist_passfail << "/"
           << row.indist_sd_rand << "/" << row.indist_sd_repl << " ("
           << row.num_undetected << " undetected faults)";
  return row;
}

std::string experiment_header() {
  std::ostringstream out;
  out << "                        size (bits)                     indistinguished\n";
  out << "circuit  Ttype   |T|       full        p/f        s/d      full       "
         "p/f   s/d-rand   s/d-repl\n";
  out << "-------- ------ ----- ----------- ---------- ---------- --------- "
         "--------- ---------- ----------";
  return out.str();
}

std::string format_experiment_row(const ExperimentRow& row) {
  char buf[256];
  // The paper omits the s/d-repl entry when Procedure 2 does not improve.
  char repl[24];
  if (row.proc2_improved)
    std::snprintf(repl, sizeof repl, "%10llu",
                  static_cast<unsigned long long>(row.indist_sd_repl));
  else
    std::snprintf(repl, sizeof repl, "%10s", "-");
  std::snprintf(buf, sizeof buf,
                "%-8s %-6s %5zu %11llu %10llu %10llu %9llu %9llu %10llu %s",
                row.circuit.c_str(), row.ttype.c_str(), row.num_tests,
                static_cast<unsigned long long>(row.sizes.full_bits),
                static_cast<unsigned long long>(row.sizes.pass_fail_bits),
                static_cast<unsigned long long>(row.sizes.same_different_bits),
                static_cast<unsigned long long>(row.indist_full),
                static_cast<unsigned long long>(row.indist_passfail),
                static_cast<unsigned long long>(row.indist_sd_rand), repl);
  return buf;
}

}  // namespace sddict
