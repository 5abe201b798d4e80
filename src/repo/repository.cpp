#include "repo/repository.h"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <utility>

#include "util/crc32.h"
#include "util/failpoint.h"
#include "util/fileio.h"
#include "util/timer.h"

namespace sddict {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("repo: " + what);
}

std::string cache_key(const ManifestEntry& e) {
  return e.circuit + '\0' + std::to_string(static_cast<int>(e.kind)) + '\0' +
         std::to_string(e.version);
}

// The kind token with '/' flattened so it can live inside a file name
// ("same/different" -> "same-different").
std::string kind_file_token(StoreSource kind) {
  std::string t = store_source_name(kind);
  for (char& c : t)
    if (c == '/') c = '-';
  return t;
}

}  // namespace

std::string format_repository_stats(const RepositoryStats& s) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "repo loads=%llu evictions=%llu hits=%llu misses=%llu "
                "published=%llu retired=%llu cached_entries=%llu "
                "cached_bytes=%llu",
                static_cast<unsigned long long>(s.loads),
                static_cast<unsigned long long>(s.evictions),
                static_cast<unsigned long long>(s.hits),
                static_cast<unsigned long long>(s.misses),
                static_cast<unsigned long long>(s.published),
                static_cast<unsigned long long>(s.retired),
                static_cast<unsigned long long>(s.cached_entries),
                static_cast<unsigned long long>(s.cached_bytes));
  return buf;
}

DictionaryRepository::DictionaryRepository(std::string dir,
                                           RepositoryOptions options)
    : dir_(std::move(dir)),
      options_(options),
      retired_(std::make_shared<std::atomic<std::uint64_t>>(0)) {
  if (dir_.empty()) fail("empty repository directory");
  while (dir_.size() > 1 && dir_.back() == '/') dir_.pop_back();
  if (!dir_exists(dir_)) make_dir(dir_);
  manifest_ = read_manifest_file();
}

std::string DictionaryRepository::manifest_path() const {
  return dir_ + "/" + kManifestName;
}

Manifest DictionaryRepository::read_manifest_file() const {
  const std::string path = manifest_path();
  if (!file_exists(path)) return Manifest{};
  return read_manifest_string(read_file_bytes(path));
}

Manifest DictionaryRepository::manifest() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return manifest_;
}

void DictionaryRepository::reload() {
  Manifest fresh = read_manifest_file();  // parse outside the lock
  std::lock_guard<std::mutex> lock(mutex_);
  manifest_ = std::move(fresh);
}

std::shared_ptr<const SignatureStore> DictionaryRepository::acquire(
    std::string_view circuit, StoreSource kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  const ManifestEntry* e = manifest_.find(circuit, kind);
  if (!e)
    fail("no artifact cataloged for " + std::string(circuit) + " x " +
         store_source_name(kind));
  return acquire_entry_locked(*e);
}

std::shared_ptr<const SignatureStore> DictionaryRepository::acquire_version(
    std::string_view circuit, StoreSource kind, std::uint64_t version) {
  std::lock_guard<std::mutex> lock(mutex_);
  const ManifestEntry* e = manifest_.find_version(circuit, kind, version);
  if (!e)
    fail("no artifact cataloged for " + std::string(circuit) + " x " +
         store_source_name(kind) + " v" + std::to_string(version));
  return acquire_entry_locked(*e);
}

std::shared_ptr<const SignatureStore> DictionaryRepository::acquire_entry_locked(
    const ManifestEntry& e) {
  const std::string key = cache_key(e);
  if (auto it = cache_.find(key); it != cache_.end()) {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    return it->second.store;
  }
  ++stats_.misses;

  SignatureStore loaded =
      e.is_delta ? materialize_delta_locked(e) : load_artifact_locked(e);
  ++stats_.loads;

  // The deleter fires when the LAST reference — cache or client — drains,
  // which is exactly when an old version is fully retired.
  auto retired = retired_;
  std::shared_ptr<const SignatureStore> store(
      new SignatureStore(std::move(loaded)), [retired](const SignatureStore* p) {
        delete p;
        retired->fetch_add(1, std::memory_order_relaxed);
      });

  const std::uint64_t cached_bytes = store->size_bytes();
  lru_.push_front(key);
  cache_.emplace(key, CacheSlot{store, cached_bytes, lru_.begin()});
  stats_.cached_bytes += cached_bytes;
  stats_.cached_entries = cache_.size();
  evict_to_budget_locked(key);
  return store;
}

SignatureStore DictionaryRepository::load_artifact_locked(
    const ManifestEntry& e) const {
  const std::string path = dir_ + "/" + e.file;
  SignatureStore loaded = SignatureStore::load_file(path, options_.load_mode);
  if (loaded.size_bytes() != e.bytes)
    fail("artifact " + e.file + " size mismatch (manifest says " +
         std::to_string(e.bytes) + " bytes, file has " +
         std::to_string(loaded.size_bytes()) + ")");
  if (options_.verify_file_crc) {
    const std::uint32_t crc = crc32(std::string_view(
        reinterpret_cast<const char*>(loaded.data()), loaded.size_bytes()));
    if (crc != e.file_crc) {
      char buf[96];
      std::snprintf(buf, sizeof buf,
                    " checksum mismatch (manifest 0x%08x, file 0x%08x)",
                    e.file_crc, crc);
      fail("artifact " + e.file + buf);
    }
  }
  return loaded;
}

SignatureStore DictionaryRepository::materialize_delta_locked(
    const ManifestEntry& e) {
  const std::string label = e.circuit + " x " +
                            std::string(store_source_name(e.kind)) + " v" +
                            std::to_string(e.version);
  const ManifestEntry* base =
      manifest_.find_version(e.circuit, e.kind, e.base_version);
  if (!base)
    fail("delta " + label + " references missing base v" +
         std::to_string(e.base_version));
  // Walks (and caches) the chain: base < version strictly, so this
  // recursion always terminates at a full store.
  std::shared_ptr<const SignatureStore> base_store =
      acquire_entry_locked(*base);

  std::vector<std::size_t> kept;
  kept.reserve(base_store->num_tests());
  {
    std::size_t d = 0;
    for (std::size_t t = 0; t < base_store->num_tests(); ++t) {
      if (d < e.dropped.size() && e.dropped[d] == t) {
        ++d;
        continue;
      }
      kept.push_back(t);
    }
    if (d != e.dropped.size())
      fail("delta " + label + " drops column " +
           std::to_string(e.dropped[d]) + " out of range (base has " +
           std::to_string(base_store->num_tests()) + " tests)");
  }
  if (kept.empty())
    fail("delta " + label + " drops every base test column");

  if (e.added_tests == 0) return base_store->select_tests(kept);

  SignatureStore added = load_artifact_locked(e);
  if (added.num_tests() != e.added_tests)
    fail("delta artifact " + e.file + " holds " +
         std::to_string(added.num_tests()) + " test columns, manifest says " +
         std::to_string(e.added_tests));
  if (e.dropped.empty())
    return SignatureStore::concat_tests(*base_store, added);
  return SignatureStore::concat_tests(base_store->select_tests(kept), added);
}

void DictionaryRepository::evict_to_budget_locked(const std::string& keep_key) {
  // Never evict the entry just inserted, even when it alone busts the
  // budget — the caller is about to use it.
  while (stats_.cached_bytes > options_.cache_bytes && lru_.size() > 1) {
    const std::string& victim = lru_.back();
    if (victim == keep_key) break;  // keep_key is LRU-last only when alone
    auto it = cache_.find(victim);
    stats_.cached_bytes -= it->second.bytes;
    ++stats_.evictions;
    cache_.erase(it);
    lru_.pop_back();
  }
  stats_.cached_entries = cache_.size();
}

std::uint64_t DictionaryRepository::latest_version(std::string_view circuit,
                                                   StoreSource kind) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const ManifestEntry* e = manifest_.find(circuit, kind);
  return e ? e->version : 0;
}

bool DictionaryRepository::is_stale(std::string_view circuit, StoreSource kind,
                                    const Provenance& prov) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const ManifestEntry* e = manifest_.find(circuit, kind);
  if (!e) return true;
  const Provenance& have = e->provenance;
  const auto differs = [](const std::string& a, const std::string& b) {
    return !a.empty() && !b.empty() && a != b;
  };
  return differs(have.tests_hash, prov.tests_hash) ||
         differs(have.faults_hash, prov.faults_hash) ||
         differs(have.config, prov.config);
}

ManifestEntry DictionaryRepository::publish(const std::string& circuit,
                                            StoreSource kind,
                                            const SignatureStore& store,
                                            const Provenance& prov,
                                            double build_ms) {
  if (circuit.empty()) fail("empty circuit name");
  if (circuit.find_first_of(" \t/\\\r\n") != std::string::npos)
    fail("circuit name '" + circuit + "' has whitespace or path separators");
  const std::string bytes = store.to_bytes();

  std::lock_guard<std::mutex> lock(mutex_);
  ManifestEntry e;
  e.circuit = circuit;
  e.kind = kind;
  e.version = manifest_.next_version(circuit, kind);
  e.file = circuit + "." + kind_file_token(kind) + ".v" +
           std::to_string(e.version) + ".store";
  e.bytes = bytes.size();
  e.file_crc = crc32(bytes);
  e.provenance = prov;
  e.build_ms = build_ms;
  e.built_unix = static_cast<std::uint64_t>(std::time(nullptr));

  return commit_entry_locked(std::move(e), &bytes);
}

ManifestEntry DictionaryRepository::commit_entry_locked(
    ManifestEntry e, const std::string* artifact_bytes) {
  // Artifact file first, manifest second: a crash in between orphans the
  // artifact but never catalogs a missing or torn file. Drop-only deltas
  // carry no artifact and commit with the manifest write alone.
  SDDICT_FAILPOINT("repo.publish.store");
  if (artifact_bytes) atomic_write_file(dir_ + "/" + e.file, *artifact_bytes);

  Manifest next = manifest_;
  next.entries.push_back(e);
  const std::string text = write_manifest_string(next);
  SDDICT_FAILPOINT("repo.publish.manifest");
  atomic_write_file(manifest_path(), text);

  manifest_ = std::move(next);
  ++stats_.published;
  return e;
}

ManifestEntry DictionaryRepository::publish_delta(
    const std::string& circuit, StoreSource kind, const SignatureStore* added,
    std::vector<std::uint64_t> dropped, const Provenance& prov,
    double build_ms) {
  if (circuit.empty()) fail("empty circuit name");
  if (circuit.find_first_of(" \t/\\\r\n") != std::string::npos)
    fail("circuit name '" + circuit + "' has whitespace or path separators");
  if (!added && dropped.empty())
    fail("empty delta (nothing added or dropped)");
  for (std::size_t i = 1; i < dropped.size(); ++i)
    if (dropped[i] <= dropped[i - 1])
      fail("dropped columns must be strictly ascending");

  std::lock_guard<std::mutex> lock(mutex_);
  const ManifestEntry* latest = manifest_.find(circuit, kind);
  if (!latest)
    fail("cannot publish a delta for " + circuit + " x " +
         store_source_name(kind) + ": nothing cataloged");

  ManifestEntry e;
  e.circuit = circuit;
  e.kind = kind;
  e.version = latest->version + 1;
  e.base_version = latest->version;
  e.is_delta = true;
  e.added_tests = added ? added->num_tests() : 0;
  e.dropped = std::move(dropped);
  e.provenance = prov;
  e.build_ms = build_ms;
  e.built_unix = static_cast<std::uint64_t>(std::time(nullptr));

  std::string added_bytes;
  if (added) {
    e.file = circuit + "." + kind_file_token(kind) + ".v" +
             std::to_string(e.version) + ".delta";
    added_bytes = added->to_bytes();
    e.bytes = added_bytes.size();
    e.file_crc = crc32(added_bytes);
  }

  // Trial-materialize against the (cached) base before writing anything:
  // an out-of-range drop, a drop-everything edit, or an added store whose
  // kind/source/shape disagrees with the base dies here with a named
  // error instead of poisoning the catalog. The added columns are checked
  // via the exact concat path acquire() will use.
  {
    const ManifestEntry* base = latest;
    std::shared_ptr<const SignatureStore> base_store =
        acquire_entry_locked(*base);
    for (std::uint64_t d : e.dropped)
      if (d >= base_store->num_tests())
        fail("dropped column " + std::to_string(d) +
             " out of range (base has " +
             std::to_string(base_store->num_tests()) + " tests)");
    if (e.dropped.size() == base_store->num_tests())
      fail("delta drops every base test column");
    if (added) {
      std::vector<std::size_t> kept;
      for (std::size_t t = 0; t < base_store->num_tests(); ++t)
        if (!std::binary_search(e.dropped.begin(), e.dropped.end(), t))
          kept.push_back(t);
      SignatureStore trial =
          e.dropped.empty()
              ? SignatureStore::concat_tests(*base_store, *added)
              : SignatureStore::concat_tests(base_store->select_tests(kept),
                                             *added);
      (void)trial;
    }
  }

  return commit_entry_locked(std::move(e),
                             added ? &added_bytes : nullptr);
}

std::size_t DictionaryRepository::chain_length_locked(
    const ManifestEntry& e) const {
  std::size_t hops = 0;
  const ManifestEntry* cur = &e;
  while (cur && cur->is_delta) {
    ++hops;
    cur = manifest_.find_version(cur->circuit, cur->kind, cur->base_version);
  }
  return hops;
}

std::size_t DictionaryRepository::chain_length(std::string_view circuit,
                                               StoreSource kind) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const ManifestEntry* e = manifest_.find(circuit, kind);
  return e ? chain_length_locked(*e) : 0;
}

std::size_t DictionaryRepository::chain_length_of(std::string_view circuit,
                                                  StoreSource kind,
                                                  std::uint64_t version) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const ManifestEntry* e = manifest_.find_version(circuit, kind, version);
  return e ? chain_length_locked(*e) : 0;
}

SquashResult DictionaryRepository::squash(const std::string& circuit,
                                          StoreSource kind,
                                          std::size_t max_chain) {
  std::lock_guard<std::mutex> lock(mutex_);
  const ManifestEntry* latest = manifest_.find(circuit, kind);
  if (!latest)
    fail("cannot squash " + circuit + " x " + store_source_name(kind) +
         ": nothing cataloged");
  SquashResult r;
  r.chain_before = chain_length_locked(*latest);
  if (r.chain_before <= max_chain) {
    r.entry = *latest;
    return r;
  }

  std::shared_ptr<const SignatureStore> flat = acquire_entry_locked(*latest);
  const std::string bytes = flat->to_bytes();
  ManifestEntry e;
  e.circuit = circuit;
  e.kind = kind;
  e.version = latest->version + 1;
  e.file = circuit + "." + kind_file_token(kind) + ".v" +
           std::to_string(e.version) + ".store";
  e.bytes = bytes.size();
  e.file_crc = crc32(bytes);
  e.provenance = latest->provenance;
  e.built_unix = static_cast<std::uint64_t>(std::time(nullptr));
  r.entry = commit_entry_locked(std::move(e), &bytes);
  r.squashed = true;
  return r;
}

std::future<ManifestEntry> DictionaryRepository::refresh_async(
    ThreadPool& pool, std::string circuit, StoreSource kind,
    std::function<SignatureStore(const RunBudget&)> builder, Provenance prov,
    RunBudget budget) {
  auto prom = std::make_shared<std::promise<ManifestEntry>>();
  std::future<ManifestEntry> fut = prom->get_future();
  pool.submit([this, prom, circuit = std::move(circuit), kind,
               builder = std::move(builder), prov = std::move(prov), budget] {
    try {
      if (!is_stale(circuit, kind, prov)) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (const ManifestEntry* e = manifest_.find(circuit, kind)) {
          prom->set_value(*e);
          return;
        }
      }
      Timer timer;
      SignatureStore built = builder(budget);
      prom->set_value(publish(circuit, kind, built, prov, timer.millis()));
    } catch (...) {
      prom->set_exception(std::current_exception());
    }
  });
  return fut;
}

RepositoryStats DictionaryRepository::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  RepositoryStats s = stats_;
  s.retired = retired_->load(std::memory_order_relaxed);
  return s;
}

}  // namespace sddict
