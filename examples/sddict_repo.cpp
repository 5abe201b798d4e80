// sddict_repo: offline repository maintenance CLI. The same catalog
// operations sddict_serve exposes as !list/!stats/!compact/!squash admin
// verbs, runnable against a repository directory without standing up a
// server — for cron jobs, CI smoke flows, and operators inspecting a
// catalog by hand. Output lines deliberately match the serve admin-verb
// shapes so scripts can share their parsers.
//
//   $ ./sddict_repo DIR list
//   $ ./sddict_repo DIR stats
//   $ ./sddict_repo DIR compact CIRCUIT [--kind=KIND] [--lossy=EPS]
//   $ ./sddict_repo DIR squash CIRCUIT [--kind=KIND] [--max-chain=N]
//
// compact plans a test-set compaction of the latest version (lossless by
// default; --lossy=EPS tolerates EPS extra indistinguished fault pairs)
// and publishes it as a drop-only delta. squash collapses the delta chain
// into a fresh full store version; with --max-chain=N it is a no-op while
// the chain is at most N hops deep.
#include <cstdio>
#include <exception>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "compact/repo_compact.h"
#include "repo/repository.h"
#include "store/signature_store.h"
#include "util/cli.h"

using namespace sddict;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: sddict_repo DIR list\n"
               "       sddict_repo DIR stats\n"
               "       sddict_repo DIR compact CIRCUIT [--kind=KIND]"
               " [--lossy=EPS]\n"
               "       sddict_repo DIR squash CIRCUIT [--kind=KIND]"
               " [--max-chain=N]\n");
  return 1;
}

void print_entry(DictionaryRepository& repo, const ManifestEntry& e) {
  std::cout << "artifact circuit=" << e.circuit
            << " kind=" << store_source_name(e.kind)
            << " version=" << e.version << " bytes=" << e.bytes
            << " chain=" << repo.chain_length_of(e.circuit, e.kind, e.version);
  if (e.is_delta)
    std::cout << " base=" << e.base_version << " added=" << e.added_tests
              << " dropped=" << encode_index_ranges(e.dropped);
  std::cout << " file=" << (e.file.empty() ? "-" : e.file) << "\n";
}

int run_list(DictionaryRepository& repo) {
  for (const ManifestEntry& e : repo.manifest().entries) print_entry(repo, e);
  return 0;
}

int run_stats(DictionaryRepository& repo) {
  std::cout << "stats " << format_repository_stats(repo.stats()) << "\n";
  // One maintenance line per (circuit, kind): the latest version, its
  // delta-chain depth, the cataloged artifact bytes along the chain, and
  // the bytes the materialized store actually occupies when served.
  std::map<std::pair<std::string, StoreSource>, std::uint64_t> latest;
  std::map<std::pair<std::string, StoreSource>, std::uint64_t> file_bytes;
  for (const ManifestEntry& e : repo.manifest().entries) {
    const auto k = std::make_pair(e.circuit, e.kind);
    if (e.version > latest[k]) latest[k] = e.version;
    file_bytes[k] += e.bytes;
  }
  for (const auto& [k, version] : latest) {
    const auto store = repo.acquire_version(k.first, k.second, version);
    std::cout << "stats circuit=" << k.first
              << " kind=" << store_source_name(k.second)
              << " version=" << version
              << " chain=" << repo.chain_length_of(k.first, k.second, version)
              << " file_bytes=" << file_bytes[k]
              << " store_bytes=" << store->size_bytes() << "\n";
  }
  return 0;
}

int run_compact(DictionaryRepository& repo, const std::string& circuit,
                StoreSource kind, std::uint64_t lossy) {
  CompactionOptions opts;
  opts.max_resolution_loss = lossy;
  const RepoCompaction rc = compact_published(repo, circuit, kind, opts);
  std::cout << "compacted circuit=" << circuit
            << " kind=" << store_source_name(kind)
            << " version=" << rc.entry.version
            << " tests=" << rc.report.tests_before << "->"
            << rc.report.tests_after << " dropped=" << rc.report.dropped.size()
            << " pairs=" << rc.report.pairs_before << "->"
            << rc.report.pairs_after << " bytes=" << rc.report.bytes_before
            << "->" << rc.report.bytes_after
            << " published=" << (rc.published ? 1 : 0) << "\n";
  return 0;
}

int run_squash(DictionaryRepository& repo, const std::string& circuit,
               StoreSource kind, std::size_t max_chain) {
  const SquashResult r = repo.squash(circuit, kind, max_chain);
  std::cout << "squashed circuit=" << circuit
            << " kind=" << store_source_name(kind)
            << " version=" << r.entry.version
            << " chain_before=" << r.chain_before;
  if (r.squashed) std::cout << " bytes=" << r.entry.bytes;
  std::cout << " skipped=" << (r.squashed ? 0 : 1) << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const auto unknown = args.unknown_flags({"kind", "lossy", "max-chain"});
  if (!unknown.empty()) {
    for (const auto& f : unknown)
      std::fprintf(stderr, "unknown flag --%s\n", f.c_str());
    return usage();
  }
  const std::vector<std::string>& pos = args.positional();
  if (pos.size() < 2) return usage();
  const std::string& dir = pos[0];
  const std::string& verb = pos[1];
  try {
    StoreSource kind = StoreSource::kSameDifferent;
    const std::string kind_token =
        args.get("kind", store_source_name(StoreSource::kSameDifferent));
    if (!parse_store_source(kind_token, &kind))
      throw std::runtime_error("unknown kind '" + kind_token + "'");
    DictionaryRepository repo(dir);
    if (verb == "list" && pos.size() == 2) return run_list(repo);
    if (verb == "stats" && pos.size() == 2) return run_stats(repo);
    if (verb == "compact" && pos.size() == 3) {
      const std::uint64_t lossy = static_cast<std::uint64_t>(
          args.get_int("lossy", 0, 0, std::numeric_limits<std::int64_t>::max()));
      return run_compact(repo, pos[2], kind, lossy);
    }
    if (verb == "squash" && pos.size() == 3) {
      const std::size_t max_chain =
          static_cast<std::size_t>(args.get_int("max-chain", 0, 0, 1 << 20));
      return run_squash(repo, pos[2], kind, max_chain);
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
