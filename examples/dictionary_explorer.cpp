// Dictionary explorer: run the whole pipeline on any registered benchmark
// or external .bench file, print the resulting dictionary statistics, and
// optionally export or publish the same/different dictionary as a packed
// store.
//
//   $ ./dictionary_explorer s344
//   $ ./dictionary_explorer circuit.bench --ttype=10det --export-store=c.store
//   $ ./dictionary_explorer s298 --ttype=diag --calls1=20 --hybrid=true
//   $ ./dictionary_explorer s1423 --deadline=2.5   # anytime: best-so-far
#include <cstdio>
#include <exception>

#include "bmcirc/registry.h"
#include "compact/compact.h"
#include "core/hybrid.h"
#include "core/procedure2.h"
#include "dict/passfail_dict.h"
#include "dict/samediff_dict.h"
#include "fault/collapse.h"
#include "netlist/bench_io.h"
#include "netlist/stats.h"
#include "netlist/transform.h"
#include "repo/repository.h"
#include "store/signature_store.h"
#include "tgen/diagset.h"
#include "tgen/ndetect.h"
#include "util/budget.h"
#include "util/cli.h"
#include "util/fileio.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace sddict;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: dictionary_explorer <benchmark-or-bench-file>\n"
               "  [--ttype=diag|10det] [--calls1=N] [--lower=N] [--seed=N]\n"
               "  [--threads=N] [--deadline=SECONDS] [--hybrid=true]\n"
               "  [--export-store=FILE [--force]]\n"
               "  [--publish=REPODIR [--append=N]]\n"
               "  [--compact[=lossless|lossy:EPS]]\n\n"
               "registered benchmarks:");
  for (const auto& n : benchmark_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const auto unknown = args.unknown_flags(
      {"ttype", "calls1", "lower", "seed", "threads", "deadline", "hybrid",
       "export-store", "force", "publish", "compact", "append"});
  if (!unknown.empty()) {
    for (const auto& f : unknown)
      std::fprintf(stderr, "unknown flag --%s\n", f.c_str());
    return usage();
  }
  if (args.positional().size() != 1) return usage();

  std::string ttype;
  std::uint64_t seed = 1;
  std::size_t threads = 0, lower = 10, calls1 = 10;
  double deadline = 0;
  bool hybrid = false;
  bool force = false;
  bool do_compact = false;
  std::uint64_t compact_loss = 0;
  std::size_t append_n = 0;
  try {
    ttype = args.get("ttype", "diag");
    seed = static_cast<std::uint64_t>(args.get_int("seed", 1, 0));
    // 0 = hardware concurrency; results are identical at any thread count.
    threads = static_cast<std::size_t>(args.get_int("threads", 0, 0, 4096));
    lower = static_cast<std::size_t>(args.get_int("lower", 10, 1, 1 << 20));
    calls1 = static_cast<std::size_t>(args.get_int("calls1", 10, 1, 1 << 20));
    deadline = args.get_double("deadline", 0);
    if (deadline < 0)
      throw std::invalid_argument("flag --deadline must be >= 0");
    hybrid = args.get_bool("hybrid", false);
    force = args.get_bool("force", false);
    if (args.has("compact")) {
      do_compact = true;
      // Bare --compact means lossless; --compact=lossy:EPS tolerates EPS
      // extra indistinguished fault pairs in the exported store.
      const std::string mode = args.get("compact");
      if (mode != "true" && mode != "lossless") {
        if (mode.rfind("lossy:", 0) != 0)
          throw std::invalid_argument("bad --compact=" + mode +
                                      " (use lossless or lossy:EPS)");
        const std::string eps = mode.substr(6);
        std::size_t consumed = 0;
        compact_loss = static_cast<std::uint64_t>(std::stoll(eps, &consumed));
        if (consumed != eps.size())
          throw std::invalid_argument("bad --compact=" + mode +
                                      " (use lossless or lossy:EPS)");
      }
    }
    append_n =
        static_cast<std::size_t>(args.get_int("append", 0, 0, 1 << 20));
    if (append_n > 0 && !args.has("publish"))
      throw std::invalid_argument("--append needs --publish");
    if (append_n > 0 && do_compact)
      throw std::invalid_argument("--append and --compact are exclusive");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage();
  }

  const std::string target = args.positional()[0];
  Netlist nl;
  try {
    nl = is_known_benchmark(target) ? load_benchmark(target)
                                    : parse_bench_file(target);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage();
  }
  if (nl.has_dffs()) nl = full_scan(nl);
  std::printf("%s\n", format_stats(nl).c_str());

  const FaultList faults = collapsed_fault_list(nl).collapsed;

  // One absolute deadline for the whole pipeline: each stage receives the
  // time remaining when it starts, returns its best-so-far result on
  // expiry, and the stage stop reasons are reported below.
  RunBudget pipeline_budget;
  pipeline_budget.max_seconds = deadline;
  BudgetScope pipeline(pipeline_budget);
  Timer pipeline_timer;  // build wall time, recorded by --publish

  TestSet tests(nl.num_inputs());
  StopReason testgen_reason = StopReason::kCompleted;
  if (ttype == "diag") {
    DiagSetOptions dopts;
    dopts.seed = seed;
    dopts.budget = pipeline.nested();
    const DiagSetResult r = generate_diagnostic(nl, faults, dopts);
    tests = r.tests;
    testgen_reason = r.stop_reason;
  } else if (ttype == "10det") {
    NDetectOptions nopts;
    nopts.n = 10;
    nopts.seed = seed;
    nopts.budget = pipeline.nested();
    const NDetectResult r = generate_ndetect(nl, faults, nopts);
    tests = r.tests;
    testgen_reason = r.stop_reason;
  } else {
    std::fprintf(stderr, "unknown --ttype=%s (use diag or 10det)\n",
                 ttype.c_str());
    return usage();
  }
  if (tests.size() == 0) {
    std::fprintf(stderr, "deadline expired before any test was generated\n");
    return 1;
  }

  ResponseMatrixStatus rm_status;
  const ResponseMatrix rm = build_response_matrix(
      nl, faults, tests,
      {.num_threads = threads, .budget = pipeline.nested()}, &rm_status);
  // A partial matrix reads unsimulated faults as fault-free, so nothing
  // built from it is a dictionary of this test set.
  if (!rm_status.completed) {
    std::fprintf(stderr,
                 "deadline expired during fault simulation (%zu of %zu "
                 "faults simulated)\n",
                 rm_status.faults_simulated, faults.size());
    return 1;
  }
  const PassFailDictionary pf = PassFailDictionary::build(rm);

  BaselineSelectionConfig bcfg;
  bcfg.lower = lower;
  bcfg.calls1 = calls1;
  bcfg.seed = seed;
  bcfg.num_threads = threads;
  bcfg.budget = pipeline.nested();
  const Construction c = construct(
      rm, bcfg, {.num_threads = threads, .budget = pipeline.nested()});
  const SameDifferentDictionary sd =
      SameDifferentDictionary::build(rm, c.proc2.baselines);

  std::printf("\n%zu faults, %zu tests (%s), %zu outputs\n", faults.size(),
              tests.size(), ttype.c_str(), nl.num_outputs());
  std::printf("%-16s %14s %22s\n", "dictionary", "size (bits)",
              "indistinguished pairs");
  std::printf("%-16s %14llu %22llu\n", "full",
              (unsigned long long)dictionary_sizes(tests.size(), faults.size(),
                                                   nl.num_outputs())
                  .full_bits,
              (unsigned long long)c.full_pairs);
  std::printf("%-16s %14llu %22llu\n", "pass/fail",
              (unsigned long long)pf.size_bits(),
              (unsigned long long)pf.indistinguished_pairs());
  std::printf("%-16s %14llu %22llu  (Procedure 1: %llu over %zu calls)\n",
              "same/different", (unsigned long long)sd.size_bits(),
              (unsigned long long)sd.indistinguished_pairs(),
              (unsigned long long)c.proc1.indistinguished_pairs,
              c.proc1.calls_used);
  if (deadline > 0)
    std::printf("deadline %.3fs: testgen=%s faultsim=%s proc1=%s proc2=%s\n",
                deadline, stop_reason_name(testgen_reason),
                stop_reason_name(rm_status.stop_reason),
                stop_reason_name(c.proc1.stop_reason),
                stop_reason_name(c.proc2.stop_reason));

  if (hybrid) {
    const HybridResult hyb = hybridize_baselines(rm, c.proc2.baselines);
    std::printf("%-16s %14llu %22llu  (%zu/%zu baselines stored)\n",
                "s/d hybrid", (unsigned long long)hyb.size_bits,
                (unsigned long long)hyb.indistinguished_pairs,
                hyb.stored_baselines, tests.size());
  }

  // Dictionary-aware test-set compaction (src/compact): drop store columns
  // that distinguish no extra fault pair, lossless by default. Applied to
  // whatever artifact is exported or published below.
  auto maybe_compact = [&](SignatureStore store) {
    if (!do_compact) return store;
    CompactionOptions copts;
    copts.max_resolution_loss = compact_loss;
    CompactionResult cr = compact_store(store, copts);
    std::printf("compacted tests=%zu->%zu dropped=%zu pairs=%llu->%llu "
                "bytes=%zu->%zu\n",
                cr.report.tests_before, cr.report.tests_after,
                cr.report.dropped.size(),
                (unsigned long long)cr.report.pairs_before,
                (unsigned long long)cr.report.pairs_after,
                cr.report.bytes_before, cr.report.bytes_after);
    return std::move(cr.store);
  };

  // Packed serving artifact: what sddict_serve loads (mmap-ready, CRC'd).
  const std::string export_store = args.get("export-store");
  if (!export_store.empty()) {
    try {
      if (!dir_exists(parent_dir(export_store)))
        throw std::runtime_error("output directory " +
                                 parent_dir(export_store) + " does not exist");
      if (!force && file_exists(export_store))
        throw std::runtime_error(export_store +
                                 " already exists (pass --force to overwrite)");
      const SignatureStore store = maybe_compact(SignatureStore::build(sd));
      store.write_file(export_store);
      std::printf("same/different store written to %s (%zu bytes)\n",
                  export_store.c_str(), store.size_bytes());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "failed to write %s: %s\n", export_store.c_str(),
                   e.what());
      return 1;
    }
  }

  // Publish into a repository catalog (sddict_serve --repo serves it).
  const std::string publish = args.get("publish");
  if (!publish.empty()) {
    try {
      // Circuit name: registered benchmark name, or the file's base name.
      std::string circuit = target;
      if (const std::size_t slash = circuit.find_last_of('/');
          slash != std::string::npos)
        circuit = circuit.substr(slash + 1);
      if (const std::size_t dot = circuit.rfind(".bench");
          dot != std::string::npos)
        circuit = circuit.substr(0, dot);

      Provenance prov;
      prov.tests_hash = hash_hex(hash_testset(tests));
      prov.faults_hash = hash_hex(hash_faultlist(faults));
      prov.config = "ttype=" + ttype + ",seed=" + std::to_string(seed) +
                    ",calls1=" + std::to_string(calls1) +
                    ",lower=" + std::to_string(lower);

      DictionaryRepository repo(publish);
      if (append_n > 0) {
        // Incremental maintenance: instead of republishing the whole
        // store, catalog N extra seeded random tests as an added-columns
        // delta on top of the current latest version. Base columns are
        // untouched; only the new columns are simulated and stored.
        const Manifest catalog = repo.manifest();
        const ManifestEntry* base =
            catalog.find(circuit, StoreSource::kSameDifferent);
        if (base == nullptr)
          throw std::runtime_error(
              "--append needs a published base version (run --publish "
              "without --append first)");
        if (!base->provenance.faults_hash.empty() &&
            base->provenance.faults_hash != prov.faults_hash)
          throw std::runtime_error(
              "fault list changed since base version " +
              std::to_string(base->version) + " (full republish required)");
        TestSet extended = tests;
        Rng arng(seed ^ 0xA99E4Dull);
        extended.add_random(append_n, arng);
        std::vector<std::size_t> idx(append_n);
        for (std::size_t i = 0; i < append_n; ++i) idx[i] = tests.size() + i;
        const TestSet appended = extended.subset(idx);
        const ResponseMatrix arm = build_response_matrix(
            nl, faults, appended, {.num_threads = threads});
        const SignatureStore added =
            SignatureStore::build(SameDifferentDictionary::build(
                arm, construct(arm, bcfg, {.num_threads = threads}).proc2.baselines));
        prov.tests_hash = hash_hex(hash_testset(extended));
        prov.config += ",append=" + std::to_string(append_n);
        const ManifestEntry entry = repo.publish_delta(
            circuit, StoreSource::kSameDifferent, &added, {}, prov,
            pipeline_timer.millis());
        std::printf(
            "published %s x %s v%llu to %s (delta base=%llu added=%zu, "
            "%llu bytes, %s)\n",
            entry.circuit.c_str(), store_source_name(entry.kind),
            (unsigned long long)entry.version, publish.c_str(),
            (unsigned long long)entry.base_version, append_n,
            (unsigned long long)entry.bytes, entry.file.c_str());
      } else {
        if (do_compact) prov.config += ",compact=" + std::to_string(compact_loss);
        const SignatureStore store = maybe_compact(SignatureStore::build(sd));
        const ManifestEntry entry =
            repo.publish(circuit, StoreSource::kSameDifferent, store, prov,
                         pipeline_timer.millis());
        std::printf("published %s x %s v%llu to %s (%llu bytes, %s)\n",
                    entry.circuit.c_str(), store_source_name(entry.kind),
                    (unsigned long long)entry.version, publish.c_str(),
                    (unsigned long long)entry.bytes, entry.file.c_str());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "failed to publish to %s: %s\n", publish.c_str(),
                   e.what());
      return 1;
    }
  }
  return 0;
}
