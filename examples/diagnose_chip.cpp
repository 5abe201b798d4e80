// End-to-end diagnosis scenario: a "manufactured chip" (the s298-profile
// benchmark with a secretly injected defect) fails on the tester; we
// diagnose it with all three dictionary types and with the two-phase
// (dictionary + simulation) flow, and compare how far each narrows the
// candidate list.
//
// The tester is allowed to be imperfect: --noise corrupts a fraction of
// the observed responses, --drop loses a fraction of the datalog records,
// and the diagnosis runs through the noise-tolerant engine (diag/engine.h)
// with the chosen mismatch tolerance. The observation can be saved to a
// tester datalog (--log) and a diagnosis can be re-run later straight from
// such a file (--from-log), exercising the robust datalog reader.
//
// Session mode (--runs=N > 1, --defects=a,b with several faults, or
// --from-log pointing at a sessionlog): the test set is applied N times
// with independent noise, the runs are aggregated into consensus
// evidence, and the session diagnoser (src/session) reports the
// single-fault consensus ranking plus minimal multi-fault covers as
// ranked ambiguity groups. --log then writes a sessionlog instead of a
// testerlog, and --from-log re-runs a saved session (the format is
// sniffed from the header line).
//
//   $ ./diagnose_chip [--circuit=s298] [--defect=<fault-index>] [--seed=N]
//       [--noise=PCT] [--drop=PCT] [--tolerance=N]
//       [--runs=N] [--defects=a,b,...]
//       [--log=obs.log] [--from-log=obs.log]
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>

#include "bmcirc/registry.h"
#include "core/procedure2.h"
#include "diag/engine.h"
#include "diag/observe.h"
#include "diag/report.h"
#include "diag/testerlog.h"
#include "diag/twophase.h"
#include "fault/collapse.h"
#include "netlist/stats.h"
#include "netlist/transform.h"
#include "session/engine.h"
#include "store/signature_store.h"
#include "tgen/diagset.h"
#include "util/cli.h"
#include "util/strings.h"

#include "../tests/faultinject.h"

using namespace sddict;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: diagnose_chip [--circuit=s298] [--defect=INDEX]\n"
               "  [--seed=N] [--noise=PCT] [--drop=PCT] [--tolerance=N]\n"
               "  [--runs=N] [--defects=a,b,...]\n"
               "  [--log=FILE] [--from-log=FILE]\n");
  return 1;
}

double get_pct(const CliArgs& args, const std::string& name) {
  const double v = args.get_double(name, 0.0);
  if (v < 0 || v > 100)
    throw std::invalid_argument("flag --" + name +
                                " must be a percentage in [0, 100]");
  return v;
}

// Session (multi-run / multi-fault) diagnosis: aggregate repeated test-set
// applications and report consensus single-fault ranking plus minimal
// multi-fault covers.
int run_session_mode(const Netlist& nl, const FaultList& faults,
                     const TestSet& tests, const ResponseMatrix& rm,
                     const SameDifferentDictionary& sd,
                     const EngineOptions& eopt, std::size_t runs_count,
                     std::vector<FaultId> defects, double noise_pct,
                     double drop_pct, std::uint64_t seed,
                     const std::string& log_path, const std::string& from_log) {
  std::vector<SessionRun> runs;
  std::string session_id = "chip";
  if (!from_log.empty()) {
    std::ifstream in(from_log);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", from_log.c_str());
      return 1;
    }
    try {
      const SessionLog log = read_sessionlog(in, {.recover = true});
      for (const auto& d : log.dropped)
        std::fprintf(stderr, "%s:%zu:%zu: dropped record: %s\n",
                     from_log.c_str(), d.line, d.column, d.reason.c_str());
      for (std::size_t r = 0; r < log.runs.size(); ++r) {
        for (const auto& d : log.runs[r].dropped)
          std::fprintf(stderr, "%s:%zu:%zu: dropped record: %s\n",
                       from_log.c_str(), d.line, d.column, d.reason.c_str());
        if (log.runs[r].truncated)
          std::fprintf(stderr, "%s: run %zu truncated (no 'end' trailer)\n",
                       from_log.c_str(), r + 1);
        runs.push_back(
            {log.runs[r].observations, log.runs[r].dropped.size()});
      }
      session_id = log.id;
      if (log.num_tests != tests.size()) {
        std::fprintf(stderr, "%s: log has %zu tests but the test set has %zu\n",
                     from_log.c_str(), log.num_tests, tests.size());
        return 1;
      }
      std::printf("session '%s' read from %s: %zu runs\n\n",
                  session_id.c_str(), from_log.c_str(), runs.size());
    } catch (const TesterLogError& e) {
      std::fprintf(stderr, "%s: %s\n", from_log.c_str(), e.what());
      return 1;
    }
  } else {
    if (defects.empty())
      defects.push_back(static_cast<FaultId>(faults.size() / 2));
    std::printf("injected defect(s) (hidden from diagnosis):");
    std::vector<Injection> inj;
    for (FaultId f : defects) {
      std::printf(" %s", fault_name(nl, faults[f]).c_str());
      inj.push_back(to_injection(faults[f]));
    }
    std::printf("\n\n");
    const std::vector<ResponseId> clean = observe_defect(nl, tests, rm, inj);
    for (std::size_t r = 0; r < runs_count; ++r) {
      testing::NoiseChannel channel;
      channel.flip_rate = noise_pct / 100.0;
      channel.drop_rate = drop_pct / 100.0;
      channel.seed = seed + 17 + 131 * r;  // independent noise per run
      runs.push_back({testing::apply_noise(clean, rm, channel), 0});
    }
  }

  if (!log_path.empty()) {
    std::ofstream out(log_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", log_path.c_str());
      return 1;
    }
    std::vector<std::vector<Observed>> obs;
    for (const SessionRun& r : runs) obs.push_back(r.observed);
    write_sessionlog(out, session_id, obs);
    std::printf("session written to %s\n\n", log_path.c_str());
  }

  const SessionEvidence ev = aggregate_runs(runs);
  const SessionEngine engine(
      std::make_shared<const SignatureStore>(SignatureStore::build(sd)));
  SessionOptions sopt;
  sopt.engine = eopt;
  const SessionDiagnosis d = engine.diagnose(ev, sopt);

  std::printf("session diagnosis (%zu runs, same/different dictionary):\n",
              d.num_runs);
  std::printf("  consensus: %zu failing tests, %zu conflicted across runs\n",
              d.failing_tests, ev.conflicted_tests);
  std::printf("  single-fault: %s, best %u mismatches\n",
              diagnosis_outcome_name(d.single.outcome), d.single.best_mismatches);
  const std::size_t top = d.single.matches.size() < 5 ? d.single.matches.size()
                                                      : std::size_t{5};
  for (std::size_t i = 0; i < top; ++i)
    std::printf("    %s (%u mismatches)\n",
                fault_name(nl, faults[d.single.matches[i].fault]).c_str(),
                d.single.matches[i].mismatches);
  std::printf("  multi-fault: min cover %zu (%s), %zu group(s)%s\n",
              d.min_cover,
              d.cover_minimal ? "provably minimal" : "greedy upper bound",
              d.groups.size(), d.groups_truncated ? " [truncated]" : "");
  if (d.unexplained_failures > 0)
    std::printf("  %zu failing test(s) no modeled fault detects\n",
                d.unexplained_failures);
  if (d.uncovered_failures > 0)
    std::printf("  %zu coverable failure(s) left uncovered\n",
                d.uncovered_failures);
  const std::size_t gtop =
      d.groups.size() < 8 ? d.groups.size() : std::size_t{8};
  for (std::size_t i = 0; i < gtop; ++i) {
    const AmbiguityGroup& g = d.groups[i];
    std::printf("    group %zu:", i + 1);
    for (FaultId f : g.faults)
      std::printf(" %s", fault_name(nl, faults[f]).c_str());
    std::printf("  (conflicts %u, confidence %.4f)\n", g.conflicts,
                g.confidence);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const auto unknown = args.unknown_flags({"circuit", "defect", "seed",
                                           "noise", "drop", "tolerance", "log",
                                           "from-log", "runs", "defects"});
  if (!unknown.empty()) {
    for (const auto& f : unknown)
      std::fprintf(stderr, "unknown flag --%s\n", f.c_str());
    return usage();
  }

  std::string circuit;
  std::uint64_t seed = 0;
  double noise_pct = 0, drop_pct = 0;
  EngineOptions eopt;
  std::string log_path, from_log, defects_list;
  std::size_t runs_count = 1;
  try {
    circuit = args.get("circuit", "s298");
    if (!is_known_benchmark(circuit))
      throw std::invalid_argument("flag --circuit: unknown benchmark '" +
                                  circuit + "'");
    seed = args.get_int("seed", 7, 0);
    noise_pct = get_pct(args, "noise");
    drop_pct = get_pct(args, "drop");
    eopt.tolerance =
        static_cast<std::uint32_t>(args.get_int("tolerance", 2, 0, 1 << 20));
    log_path = args.get("log");
    from_log = args.get("from-log");
    runs_count = static_cast<std::size_t>(args.get_int("runs", 1, 1, 1024));
    defects_list = args.get("defects");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage();
  }

  Netlist nl = load_benchmark(circuit);
  if (nl.has_dffs()) nl = full_scan(nl);
  std::printf("chip under diagnosis: %s\n", format_stats(nl).c_str());

  const FaultList faults = collapsed_fault_list(nl).collapsed;
  DiagSetOptions dopts;
  dopts.seed = seed;
  const TestSet tests = generate_diagnostic(nl, faults, dopts).tests;
  std::printf("diagnostic test set: %zu tests for %zu collapsed faults\n\n",
              tests.size(), faults.size());

  const ResponseMatrix rm = build_response_matrix(nl, faults, tests);
  const FullDictionary full = FullDictionary::build(rm);
  const PassFailDictionary pf = PassFailDictionary::build(rm);

  const SameDifferentDictionary sd = SameDifferentDictionary::build(
      rm, construct(rm, {.calls1 = 10, .seed = seed}).proc2.baselines);

  // Session mode: multiple runs, multiple injected defects, or a saved
  // sessionlog (the file format is sniffed from the header line).
  std::vector<FaultId> defects;
  if (!defects_list.empty()) {
    for (const std::string& tok : split(defects_list, ',')) {
      std::size_t pos = 0;
      unsigned long v = 0;
      try {
        v = std::stoul(trim(tok), &pos);
      } catch (const std::exception&) {
        pos = 0;
      }
      if (pos == 0 || pos != trim(tok).size() || v >= faults.size()) {
        std::fprintf(stderr, "flag --defects: bad fault index '%s'\n",
                     tok.c_str());
        return usage();
      }
      defects.push_back(static_cast<FaultId>(v));
    }
  }
  bool session_mode = runs_count > 1 || defects.size() > 1;
  if (!from_log.empty()) {
    std::ifstream sniff(from_log);
    if (!sniff) {
      std::fprintf(stderr, "cannot open %s\n", from_log.c_str());
      return 1;
    }
    if (sniff_sessionlog(sniff)) session_mode = true;
  }
  if (session_mode)
    return run_session_mode(nl, faults, tests, rm, sd, eopt, runs_count,
                            std::move(defects), noise_pct, drop_pct, seed,
                            log_path, from_log);

  // The defect: by default a modeled single stuck-at fault somewhere in the
  // middle of the fault list (the diagnosis engines don't know which).
  FaultId truth = kNoFault;
  std::vector<Observed> observed;
  std::vector<ResponseId> clean_ids;
  if (!from_log.empty()) {
    std::ifstream in(from_log);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", from_log.c_str());
      return 1;
    }
    try {
      TesterLogOptions lopts;
      lopts.recover = true;
      const TesterLog log = read_testerlog(in, lopts);
      for (const auto& d : log.dropped)
        std::fprintf(stderr, "%s:%zu:%zu: dropped record: %s\n",
                     from_log.c_str(), d.line, d.column, d.reason.c_str());
      if (log.truncated)
        std::fprintf(stderr, "%s: log truncated (no 'end' trailer)\n",
                     from_log.c_str());
      observed = log.observations;
    } catch (const TesterLogError& e) {
      std::fprintf(stderr, "%s: %s\n", from_log.c_str(), e.what());
      return 1;
    }
    if (observed.size() != tests.size()) {
      std::fprintf(stderr,
                   "%s: log has %zu tests but the test set has %zu\n",
                   from_log.c_str(), observed.size(), tests.size());
      return 1;
    }
    std::printf("observation read from %s\n\n", from_log.c_str());
  } else {
    std::int64_t defect = 0;
    try {
      defect = args.get_int("defect",
                            static_cast<std::int64_t>(faults.size() / 2), 0,
                            static_cast<std::int64_t>(faults.size()) - 1);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return usage();
    }
    truth = static_cast<FaultId>(defect);
    std::printf("injected defect (hidden from diagnosis): %s\n\n",
                fault_name(nl, faults[truth]).c_str());
    clean_ids = observe_defect(nl, tests, rm, {to_injection(faults[truth])});
    testing::NoiseChannel channel;
    channel.flip_rate = noise_pct / 100.0;
    channel.drop_rate = drop_pct / 100.0;
    channel.seed = seed + 17;
    observed = testing::apply_noise(clean_ids, rm, channel);
  }

  if (!log_path.empty()) {
    std::ofstream out(log_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", log_path.c_str());
      return 1;
    }
    write_testerlog(out, observed);
    std::printf("observation written to %s\n\n", log_path.c_str());
  }

  // Noise-tolerant diagnosis through the engine, all three dictionaries.
  const RobustDiagnosisComparison rcmp =
      compare_dictionaries_robust(full, pf, sd, observed, eopt);
  std::printf("%s\n", format_robust_diagnosis(nl, faults, rcmp).c_str());

  // With a clean, fully-observed datalog the classical flows apply too:
  // exact dictionary comparison plus two-phase (dictionary narrows,
  // full-response simulation confirms; the figure of merit is phase-2
  // simulations saved).
  if (from_log.empty() && noise_pct == 0 && drop_pct == 0) {
    const DiagnosisComparison cmp =
        compare_dictionaries(full, pf, sd, clean_ids, truth);
    std::printf("%s\n", format_diagnosis(nl, faults, cmp).c_str());
    const auto tp_pf = two_phase_with_passfail(pf, rm, clean_ids);
    const auto tp_sd = two_phase_with_samediff(sd, rm, clean_ids);
    std::printf(
        "two-phase diagnosis (candidate simulations instead of %zu):\n",
        faults.size());
    std::printf("  via pass/fail:      %zu candidates -> %zu exact\n",
                tp_pf.phase1_candidates.size(),
                tp_pf.phase2_candidates.size());
    std::printf("  via same/different: %zu candidates -> %zu exact\n",
                tp_sd.phase1_candidates.size(),
                tp_sd.phase2_candidates.size());
  }
  return 0;
}
