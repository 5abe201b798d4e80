// DictionaryRepository: a directory of versioned, CRC-checked dictionary
// artifacts (packed SignatureStore files) described by a human-readable
// MANIFEST (repo/manifest.h), with a byte-budgeted in-memory cache and
// atomic publication of new versions.
//
// Resolution and loading. acquire() maps (circuit, kind) to the
// highest-version cataloged artifact, loads it lazily (mmap-backed by
// default) and hands out std::shared_ptr<const SignatureStore>. Loaded
// stores live in an LRU cache bounded by cache_bytes; eviction drops the
// cache's reference only — clients holding a pointer keep the store (and
// its mapping) alive until their refcount drains, at which point the store
// counts as retired. Every load is validated against the manifest: the
// file's size must equal the cataloged size and (by default) its CRC-32
// must match, so a swapped or torn artifact is a named error, never a
// silently wrong answer.
//
// Publication. publish() assigns the next version number, writes the store
// file with atomic_write_file (temp + fsync + rename), then rewrites the
// manifest the same way. A crash between the two writes leaves an orphaned
// store file and the old manifest — a consistent catalog; readers never
// observe a torn artifact or a manifest pointing at a half-written file.
// Failpoints "repo.publish.store" and "repo.publish.manifest" model a
// crash at each instant.
//
// Refresh. refresh_async() checks staleness (provenance mismatch against
// the cataloged entry) and, when stale, runs the caller's builder on the
// shared ThreadPool under a RunBudget, then publishes the result.
//
// Delta versions (ISSUE 10). publish_delta() catalogs a column edit
// against the current latest version — drop base test columns and/or
// append the columns of a small added-columns store — instead of
// rewriting the whole artifact. acquire() materializes base+delta chains
// back into flat stores through select_tests()/concat_tests(), which
// route through the same image builder as a direct build, so a
// materialized chain is byte-identical to building the same test set from
// scratch (the ctest gate). Materialized versions land in the same LRU
// cache, so a chain is walked once, not per acquire. squash() republishes
// the materialized latest as a fresh full version once its chain is longer
// than a caller's max_chain hops (0: any delta).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "repo/manifest.h"
#include "store/signature_store.h"
#include "util/budget.h"
#include "util/threadpool.h"

namespace sddict {

struct RepositoryOptions {
  std::size_t cache_bytes = 256ull << 20;  // in-memory cache budget
  StoreLoadMode load_mode = StoreLoadMode::kAuto;
  bool verify_file_crc = true;  // check the manifest CRC on every load
};

struct RepositoryStats {
  std::uint64_t loads = 0;      // store files parsed from disk
  std::uint64_t evictions = 0;  // cache entries dropped for the byte budget
  std::uint64_t hits = 0;       // acquire() answered from cache
  std::uint64_t misses = 0;     // acquire() that had to load
  std::uint64_t published = 0;  // versions published by this process
  std::uint64_t retired = 0;    // stores whose last reference has drained
  std::uint64_t cached_bytes = 0;
  std::uint64_t cached_entries = 0;
};

std::string format_repository_stats(const RepositoryStats& s);

// What DictionaryRepository::squash() found and did.
struct SquashResult {
  ManifestEntry entry;  // the new full version, or the unchanged latest
  std::size_t chain_before = 0;  // delta hops of the latest before the call
  bool squashed = false;         // true when a full version was published
};

class DictionaryRepository {
 public:
  static constexpr const char* kManifestName = "MANIFEST";

  // Opens (creating the directory if needed) and reads the manifest.
  // A corrupt manifest throws ManifestError here, not at first acquire.
  explicit DictionaryRepository(std::string dir, RepositoryOptions options = {});

  DictionaryRepository(const DictionaryRepository&) = delete;
  DictionaryRepository& operator=(const DictionaryRepository&) = delete;

  const std::string& dir() const { return dir_; }
  std::string manifest_path() const;

  // Snapshot of the in-memory catalog.
  Manifest manifest() const;

  // Re-reads the manifest from disk (picks up versions published by other
  // processes). Cached stores stay cached; superseded versions age out of
  // the LRU. A missing manifest file resets to an empty catalog.
  void reload();

  // Resolve + lazily load. acquire() serves the highest cataloged version;
  // both throw std::runtime_error when the artifact is absent, fails
  // size/CRC validation against its manifest entry, or fails store
  // parsing. The returned pointer stays valid after eviction and reload.
  std::shared_ptr<const SignatureStore> acquire(std::string_view circuit,
                                                StoreSource kind);
  std::shared_ptr<const SignatureStore> acquire_version(
      std::string_view circuit, StoreSource kind, std::uint64_t version);

  // Highest cataloged version for (circuit, kind); 0 when absent. The
  // cheap query fleet components poll to decide whether a served store is
  // current, without loading anything.
  std::uint64_t latest_version(std::string_view circuit,
                               StoreSource kind) const;

  // True when no version is cataloged or the latest entry's provenance
  // differs from `prov` in any field both sides fill in ("" matches all).
  bool is_stale(std::string_view circuit, StoreSource kind,
                const Provenance& prov) const;

  // Writes the store as the next version of (circuit, kind) and commits it
  // to the manifest, both atomically. Returns the new catalog entry.
  ManifestEntry publish(const std::string& circuit, StoreSource kind,
                        const SignatureStore& store, const Provenance& prov,
                        double build_ms = 0);

  // Background build-or-refresh: when (circuit, kind) is stale w.r.t.
  // `prov`, runs `builder` on the pool under `budget` and publishes the
  // result; otherwise resolves immediately with the existing entry. Builder
  // exceptions surface through the future.
  std::future<ManifestEntry> refresh_async(
      ThreadPool& pool, std::string circuit, StoreSource kind,
      std::function<SignatureStore(const RunBudget&)> builder, Provenance prov,
      RunBudget budget = {});

  // Catalogs a delta version on top of the current latest: drop the listed
  // base test columns (strictly ascending), then append the columns of
  // `added` (nullptr for a drop-only delta). The edit is trial-
  // materialized against the base before anything is written, so an
  // out-of-range drop or an incompatible added store (kind/source/fault
  // mismatch) is a named error and never reaches the catalog. The added
  // columns are written as their own CRC-covered store image; a drop-only
  // delta writes no artifact at all, only the manifest line.
  ManifestEntry publish_delta(const std::string& circuit, StoreSource kind,
                              const SignatureStore* added,
                              std::vector<std::uint64_t> dropped,
                              const Provenance& prov, double build_ms = 0);

  // Delta hops from the latest (or the given) version down to its full
  // base; 0 when the version is a full store or nothing is cataloged.
  std::size_t chain_length(std::string_view circuit, StoreSource kind) const;
  std::size_t chain_length_of(std::string_view circuit, StoreSource kind,
                              std::uint64_t version) const;

  // Chain maintenance: when the latest version sits more than `max_chain`
  // delta hops from its full base, materializes it and republishes it as a
  // full store (the next version), collapsing the chain. Otherwise the
  // latest entry comes back unchanged. Throws when nothing is cataloged.
  SquashResult squash(const std::string& circuit, StoreSource kind,
                      std::size_t max_chain = 0);

  RepositoryStats stats() const;

 private:
  struct CacheSlot {
    std::shared_ptr<const SignatureStore> store;
    std::uint64_t bytes = 0;
    std::list<std::string>::iterator lru;
  };

  std::shared_ptr<const SignatureStore> acquire_entry_locked(
      const ManifestEntry& e);
  SignatureStore load_artifact_locked(const ManifestEntry& e) const;
  SignatureStore materialize_delta_locked(const ManifestEntry& e);
  ManifestEntry commit_entry_locked(ManifestEntry e,
                                    const std::string* artifact_bytes);
  std::size_t chain_length_locked(const ManifestEntry& e) const;
  void evict_to_budget_locked(const std::string& keep_key);
  Manifest read_manifest_file() const;

  std::string dir_;
  RepositoryOptions options_;

  mutable std::mutex mutex_;
  Manifest manifest_;
  std::unordered_map<std::string, CacheSlot> cache_;
  std::list<std::string> lru_;  // front = most recently used
  RepositoryStats stats_;
  // Shared with every handed-out store's deleter; counts drained stores.
  std::shared_ptr<std::atomic<std::uint64_t>> retired_;
};

}  // namespace sddict
