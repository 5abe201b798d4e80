// End-to-end driver for one row of the paper's Table 6: given a full-scan
// circuit and a test-set type, generate the test set, fault-simulate the
// collapsed fault list, build the full / pass-fail / same-different
// dictionaries, and report sizes and indistinguished-pair counts.
#pragma once

#include <string>

#include "core/baseline.h"
#include "core/procedure2.h"
#include "dict/dictionary.h"
#include "netlist/netlist.h"
#include "tgen/diagset.h"
#include "tgen/ndetect.h"

namespace sddict {

enum class TestSetKind { kDiagnostic, kTenDetect };

const char* test_set_kind_name(TestSetKind k);  // "diag" / "10det"

struct ExperimentConfig {
  BaselineSelectionConfig baseline;
  // construct() sets both targets; run_experiment sets proc2.num_threads
  // to baseline.num_threads.
  Procedure2Config proc2;
  NDetectOptions ndetect;
  DiagSetOptions diag;
};

struct ExperimentRow {
  std::string circuit;
  std::string ttype;
  std::size_t num_tests = 0;
  std::size_t num_faults = 0;
  std::size_t num_outputs = 0;
  // Faults the final test set never detects; C(undetected, 2) pairs are a
  // floor under every dictionary's indistinguished count.
  std::size_t num_undetected = 0;
  DictionarySizes sizes;
  std::uint64_t indist_full = 0;
  std::uint64_t indist_passfail = 0;
  std::uint64_t indist_sd_rand = 0;  // Procedure 1 (best over restarts)
  std::uint64_t indist_sd_repl = 0;  // after Procedure 2
  bool proc2_improved = false;
  std::size_t proc1_calls = 0;
  double seconds_testgen = 0;
  double seconds_faultsim = 0;
  double seconds_proc1 = 0;
  double seconds_proc2 = 0;
};

// `nl` must be the combinational (full-scan) view of the circuit.
ExperimentRow run_experiment(const Netlist& nl, TestSetKind kind,
                             const ExperimentConfig& config = {});

// Table 6 formatting: the paper's column layout.
std::string experiment_header();
std::string format_experiment_row(const ExperimentRow& row);

}  // namespace sddict
