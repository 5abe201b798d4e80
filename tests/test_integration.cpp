// End-to-end integration: the full Table-6 pipeline (test generation,
// fault simulation, dictionary construction, Procedures 1 and 2) on small
// circuits, checking the cross-dictionary invariants the paper's claims
// rest on.
#include <gtest/gtest.h>

#include "bmcirc/embedded.h"
#include "bmcirc/registry.h"
#include "core/experiment.h"
#include "netlist/transform.h"

namespace sddict {
namespace {

ExperimentConfig fast_config() {
  ExperimentConfig cfg;
  cfg.baseline.calls1 = 3;
  cfg.ndetect.n = 5;
  cfg.diag.max_rounds = 20;
  return cfg;
}

void check_row_invariants(const ExperimentRow& row) {
  // Size model (paper Section 2).
  EXPECT_EQ(row.sizes.full_bits,
            std::uint64_t{row.num_tests} * row.num_faults * row.num_outputs);
  EXPECT_EQ(row.sizes.pass_fail_bits,
            std::uint64_t{row.num_tests} * row.num_faults);
  EXPECT_EQ(row.sizes.same_different_bits,
            std::uint64_t{row.num_tests} * (row.num_faults + row.num_outputs));
  // Resolution ordering: full <= s/d(P2) <= s/d(P1) <= pass/fail.
  EXPECT_LE(row.indist_full, row.indist_sd_repl);
  EXPECT_LE(row.indist_sd_repl, row.indist_sd_rand);
  EXPECT_LE(row.indist_sd_rand, row.indist_passfail);
  EXPECT_EQ(row.proc2_improved, row.indist_sd_repl < row.indist_sd_rand);
}

TEST(Experiment, C17DiagnosticRow) {
  const Netlist nl = full_scan(make_c17());
  const ExperimentRow row =
      run_experiment(nl, TestSetKind::kDiagnostic, fast_config());
  EXPECT_EQ(row.ttype, "diag");
  EXPECT_EQ(row.num_faults, 22u);
  EXPECT_GT(row.num_tests, 0u);
  check_row_invariants(row);
  // c17 has no functionally equivalent collapsed fault pairs; a diagnostic
  // test set should reach zero with the full dictionary.
  EXPECT_EQ(row.indist_full, 0u);
}

TEST(Experiment, C17TenDetectRow) {
  const Netlist nl = full_scan(make_c17());
  ExperimentConfig cfg = fast_config();
  cfg.ndetect.n = 10;
  const ExperimentRow row = run_experiment(nl, TestSetKind::kTenDetect, cfg);
  EXPECT_EQ(row.ttype, "10det");
  check_row_invariants(row);
}

TEST(Experiment, S27ScanRows) {
  const Netlist nl = full_scan(make_s27());
  for (TestSetKind kind : {TestSetKind::kDiagnostic, TestSetKind::kTenDetect}) {
    const ExperimentRow row = run_experiment(nl, kind, fast_config());
    EXPECT_EQ(row.circuit, "s27_scan");
    check_row_invariants(row);
  }
}

TEST(Experiment, SyntheticS208Rows) {
  const Netlist nl = full_scan(load_benchmark("s208"));
  for (TestSetKind kind : {TestSetKind::kDiagnostic, TestSetKind::kTenDetect}) {
    const ExperimentRow row = run_experiment(nl, kind, fast_config());
    check_row_invariants(row);
    // Headline claim of the paper: the same/different dictionary has
    // (essentially pass/fail) size but distinguishes at least as much.
    EXPECT_LT(row.sizes.same_different_bits, row.sizes.full_bits);
    EXPECT_LE(row.indist_sd_rand, row.indist_passfail);
  }
}

TEST(Experiment, TenDetectGivesLargerTestSets) {
  const Netlist nl = full_scan(load_benchmark("s208"));
  ExperimentConfig cfg = fast_config();
  cfg.ndetect.n = 10;
  const ExperimentRow diag =
      run_experiment(nl, TestSetKind::kDiagnostic, cfg);
  const ExperimentRow tdet = run_experiment(nl, TestSetKind::kTenDetect, cfg);
  EXPECT_GT(tdet.num_tests, diag.num_tests / 2);  // typically much larger
}

// The s208, s298, s400 and s526 diag rows of Table 6 exactly as
// bench_table6 prints them at its default flags (CALLS1=10, LOWER=10,
// seed 1): the four indistinguished-pair counts, pinned so a change to
// test generation, fault simulation or Procedures 1 and 2 that moves the
// table is seen.
TEST(Experiment, Table6DiagRowsPinned) {
  ExperimentConfig cfg;
  cfg.baseline.calls1 = 10;
  const struct {
    const char* circuit;
    std::uint64_t full, passfail, sd_rand, sd_repl;
  } rows[] = {{"s208", 1088, 1125, 1116, 1115},
              {"s298", 1265, 1385, 1374, 1361},
              {"s400", 3196, 3308, 3281, 3248},
              {"s526", 3368, 3528, 3508, 3476}};
  for (const auto& want : rows) {
    const ExperimentRow row = run_experiment(
        full_scan(load_benchmark(want.circuit)), TestSetKind::kDiagnostic, cfg);
    EXPECT_EQ(row.indist_full, want.full) << want.circuit;
    EXPECT_EQ(row.indist_passfail, want.passfail) << want.circuit;
    EXPECT_EQ(row.indist_sd_rand, want.sd_rand) << want.circuit;
    EXPECT_EQ(row.indist_sd_repl, want.sd_repl) << want.circuit;
  }
}

TEST(Experiment, RowFormatting) {
  const Netlist nl = full_scan(make_c17());
  const ExperimentRow row =
      run_experiment(nl, TestSetKind::kDiagnostic, fast_config());
  const std::string header = experiment_header();
  EXPECT_NE(header.find("indistinguished"), std::string::npos);
  const std::string line = format_experiment_row(row);
  EXPECT_NE(line.find("c17"), std::string::npos);
  EXPECT_NE(line.find("diag"), std::string::npos);
}

TEST(Experiment, KindNames) {
  EXPECT_STREQ(test_set_kind_name(TestSetKind::kDiagnostic), "diag");
  EXPECT_STREQ(test_set_kind_name(TestSetKind::kTenDetect), "10det");
}

}  // namespace
}  // namespace sddict
