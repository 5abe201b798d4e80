// Repository suite (ISSUE 5): the DictionaryRepository artifact catalog
// and the hot-swap serving path over it.
//
//  * manifest round-trip, and the corruption gate — byte-flip and
//    truncation fuzz over EVERY manifest byte must yield a named
//    ManifestError, never a crash or a silently wrong catalog;
//  * publish/acquire round-trip with version monotonicity, re-open from
//    disk, and size/CRC validation of the artifact against its entry;
//  * provenance-based stale detection (empty fields are wildcards);
//  * LRU eviction under a tiny byte budget, with load/evict/hit counters
//    and handed-out pointers surviving eviction;
//  * background refresh on the shared ThreadPool (skip when fresh, build
//    and publish when stale);
//  * the hot-swap identity gate — 4 producer threads querying through a
//    repository-backed DiagnosisService while a byte-identical-content
//    version is published and swapped in mid-stream: every future
//    resolves, zero errors, every ranking identical to the direct engine
//    call — plus cache invalidation when a swap actually changes content;
//  * crash-consistency via the publish failpoints: a failure before or
//    between the two atomic writes never corrupts the catalog;
//  * the repository admin verbs of the serving backend (net/backends.h),
//    driven in process through serve_stream: !list, !use, !reload after a
//    republish, !stats, !compact (a malformed lossy budget publishes
//    nothing) and !squash.
//
// Registered under the "serving" ctest label; the tsan preset includes it.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <future>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bmcirc/synth.h"
#include "diag/engine.h"
#include "diag/testerlog.h"
#include "dict/samediff_dict.h"
#include "fault/collapse.h"
#include "faultinject.h"
#include "net/backends.h"
#include "net/server.h"
#include "repo/manifest.h"
#include "repo/repository.h"
#include "serve/diagnosis_service.h"
#include "sim/response.h"
#include "sim/testset.h"
#include "store/signature_store.h"
#include "util/crc32.h"
#include "util/failpoint.h"
#include "util/fileio.h"
#include "util/rng.h"

namespace sddict {
namespace {

using testing::ScopedFailPoint;
using testing::flip_byte;
using testing::truncate_to;

// ------------------------------------------------------------- fixtures --

ResponseMatrix repo_matrix() {
  SynthProfile profile;
  profile.name = "repo";
  profile.inputs = 10;
  profile.outputs = 4;
  profile.dffs = 0;
  profile.gates = 80;
  profile.seed = 0x4e90;
  const Netlist nl = generate_synthetic(profile);
  const FaultList faults = collapsed_fault_list(nl).collapsed;
  TestSet tests(nl.num_inputs());
  Rng rng(11);
  tests.add_random(48, rng);
  ResponseMatrixStatus status;
  return build_response_matrix(nl, faults, tests, {.store_diff_outputs = true},
                               &status);
}

const ResponseMatrix& rm() {
  static const ResponseMatrix m = repo_matrix();
  return m;
}

std::vector<ResponseId> sd_baselines(int phase) {
  std::vector<ResponseId> bl(rm().num_tests(), 0);
  for (std::size_t t = 0; t < rm().num_tests(); ++t)
    if (rm().num_distinct(t) > 1 && t % 2 == static_cast<std::size_t>(phase))
      bl[t] = 1;
  return bl;
}

const SameDifferentDictionary& sd_dict() {
  static const SameDifferentDictionary d =
      SameDifferentDictionary::build(rm(), sd_baselines(0));
  return d;
}

std::vector<std::vector<Observed>> observation_stream(std::size_t count,
                                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Observed>> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto f = static_cast<FaultId>(rng.below(rm().num_faults()));
    std::vector<ResponseId> ids(rm().num_tests());
    for (std::size_t t = 0; t < rm().num_tests(); ++t)
      ids[t] = rm().response(f, t);
    out.push_back(qualify(ids));
  }
  return out;
}

void expect_same_diagnosis(const EngineDiagnosis& a, const EngineDiagnosis& b,
                           const char* what) {
  EXPECT_EQ(a.outcome, b.outcome) << what;
  EXPECT_EQ(a.best_mismatches, b.best_mismatches) << what;
  EXPECT_EQ(a.margin, b.margin) << what;
  EXPECT_EQ(a.effective_tests, b.effective_tests) << what;
  EXPECT_EQ(a.completed, b.completed) << what;
  ASSERT_EQ(a.matches.size(), b.matches.size()) << what;
  for (std::size_t i = 0; i < a.matches.size(); ++i) {
    EXPECT_EQ(a.matches[i].fault, b.matches[i].fault) << what << " #" << i;
    EXPECT_EQ(a.matches[i].mismatches, b.matches[i].mismatches)
        << what << " #" << i;
  }
}

// A fresh, empty repository directory under the test temp dir.
std::string fresh_repo_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "sddict_repo_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

Provenance make_prov(const std::string& tests_hex,
                     const std::string& faults_hex, const std::string& config) {
  Provenance p;
  p.tests_hash = tests_hex;
  p.faults_hash = faults_hex;
  p.config = config;
  return p;
}

// ------------------------------------------------------------- manifest --

Manifest sample_manifest() {
  Manifest m;
  ManifestEntry a;
  a.circuit = "s27";
  a.kind = StoreSource::kSameDifferent;
  a.version = 1;
  a.file = "s27.same-different.v1.store";
  a.bytes = 12288;
  a.file_crc = 0xdeadbeef;
  a.provenance = make_prov("0123456789abcdef0123456789abcdef",
                           "fedcba9876543210fedcba9876543210",
                           "ttype=diag,seed=7");
  a.build_ms = 12.5;
  a.built_unix = 1754524800;
  ManifestEntry b = a;
  b.version = 2;
  b.file = "s27.same-different.v2.store";
  b.provenance = Provenance{};  // all wildcards -> "-" tokens on disk
  ManifestEntry c;
  c.circuit = "s344";
  c.kind = StoreSource::kPassFail;
  c.version = 1;
  c.file = "s344.pass-fail.v1.store";
  c.bytes = 8192;
  c.file_crc = 1;
  // Delta records (ISSUE 10) ride in the same manifest, so the byte-flip
  // and truncation fuzz below covers their line type too: one delta with
  // added columns, one drop-only delta (no artifact file at all).
  ManifestEntry d;
  d.circuit = "s344";
  d.kind = StoreSource::kPassFail;
  d.version = 2;
  d.file = "s344.pass-fail.v2.delta";
  d.bytes = 4096;
  d.file_crc = 0xabad1dea;
  d.is_delta = true;
  d.base_version = 1;
  d.added_tests = 5;
  d.dropped = {4, 8, 9, 10, 12};
  d.provenance = make_prov("00112233445566778899aabbccddeeff", "", "append=5");
  d.build_ms = 3.25;
  d.built_unix = 1754611200;
  ManifestEntry e;
  e.circuit = "s344";
  e.kind = StoreSource::kPassFail;
  e.version = 3;
  e.is_delta = true;
  e.base_version = 2;
  e.added_tests = 0;
  e.dropped = {0, 1, 2, 3, 7};
  m.entries = {a, b, c, d, e};
  return m;
}

TEST(Manifest, RoundTripPreservesEveryField) {
  const Manifest m = sample_manifest();
  const Manifest back = read_manifest_string(write_manifest_string(m));
  ASSERT_EQ(back.entries.size(), m.entries.size());
  for (std::size_t i = 0; i < m.entries.size(); ++i)
    EXPECT_EQ(back.entries[i], m.entries[i]) << "entry #" << i;
}

TEST(Manifest, FindAndVersioning) {
  const Manifest m = sample_manifest();
  const ManifestEntry* latest = m.find("s27", StoreSource::kSameDifferent);
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->version, 2u);
  EXPECT_EQ(m.find_version("s27", StoreSource::kSameDifferent, 1)->file,
            "s27.same-different.v1.store");
  EXPECT_EQ(m.find("s27", StoreSource::kFull), nullptr);
  EXPECT_EQ(m.next_version("s27", StoreSource::kSameDifferent), 3u);
  EXPECT_EQ(m.next_version("s999", StoreSource::kPassFail), 1u);
}

TEST(Manifest, KindTokensRoundTrip) {
  for (std::uint32_t s = 0;
       s <= static_cast<std::uint32_t>(StoreSource::kDetectionList); ++s) {
    StoreSource parsed{};
    ASSERT_TRUE(parse_store_source(
        store_source_name(static_cast<StoreSource>(s)), &parsed));
    EXPECT_EQ(parsed, static_cast<StoreSource>(s));
  }
  StoreSource parsed{};
  EXPECT_FALSE(parse_store_source("bogus", &parsed));
}

TEST(Manifest, StrictSchemaRejectsUnknownAndMissingKeys) {
  const std::string good = write_manifest_string(sample_manifest());
  const auto message_of = [](const std::string& text) -> std::string {
    try {
      read_manifest_string(text);
    } catch (const ManifestError& e) {
      return e.what();
    }
    return "";
  };
  // Rebuild a manifest by hand with an extra key: parse must name it. The
  // trailer has to be recomputed, which write_manifest_string does not
  // expose — splice the body instead.
  std::string body = good.substr(0, good.rfind("crc32"));
  body.insert(body.find(" kind="), " extra=1");
  Manifest bad;
  char buf[32];
  std::snprintf(buf, sizeof buf, "crc32 0x%08x\n", crc32(body));
  EXPECT_NE(message_of(body + buf).find("unknown key 'extra'"),
            std::string::npos);

  std::string missing = good.substr(0, good.rfind("crc32"));
  const std::size_t at = missing.find(" bytes=");
  missing.erase(at, missing.find(' ', at + 1) - at);
  std::snprintf(buf, sizeof buf, "crc32 0x%08x\n", crc32(missing));
  EXPECT_NE(message_of(missing + buf).find("missing key 'bytes'"),
            std::string::npos);
}

// Delta lines carry three extra keys (base/added/dropped) with their own
// validity rules; each violation must be a named ManifestError. Edits are
// applied to the serialized body and the CRC trailer recomputed, so the
// parser sees schema problems, not checksum noise.
TEST(Manifest, DeltaSchemaIsStrict) {
  const std::string good = write_manifest_string(sample_manifest());
  const auto message_after = [&](const std::string& from,
                                 const std::string& to) -> std::string {
    std::string body = good.substr(0, good.rfind("crc32"));
    const std::size_t at = body.find(from);
    if (at == std::string::npos) return "edit target '" + from + "' not found";
    body.replace(at, from.size(), to);
    char buf[32];
    std::snprintf(buf, sizeof buf, "crc32 0x%08x\n", crc32(body));
    try {
      read_manifest_string(body + buf);
    } catch (const ManifestError& e) {
      return e.what();
    }
    return "";
  };
  // The base must exist below the delta's own version.
  EXPECT_NE(message_after("version=2 base=1", "version=2 base=2").find("base"),
            std::string::npos);
  EXPECT_NE(message_after("version=2 base=1", "version=2 base=0").find("base"),
            std::string::npos);
  // added=0 <=> file="-": break each direction.
  EXPECT_FALSE(message_after(" added=5", " added=0").empty());
  EXPECT_FALSE(
      message_after("file=s344.pass-fail.v2.delta", "file=-").empty());
  // Nothing added AND nothing dropped is not a delta.
  EXPECT_NE(message_after("added=0 dropped=0-3,7", "added=0 dropped=-")
                .find("empty delta"),
            std::string::npos);
  // Drop lists must be strictly ascending closed ranges.
  EXPECT_FALSE(message_after("dropped=4,8-10,12", "dropped=4,3").empty());
  EXPECT_FALSE(message_after("dropped=4,8-10,12", "dropped=9-8").empty());
  EXPECT_FALSE(message_after("dropped=4,8-10,12", "dropped=4,x").empty());
  // Absurd range spans are rejected before any allocation.
  EXPECT_FALSE(
      message_after("dropped=4,8-10,12", "dropped=0-18446744073709551615")
          .empty());
  // A full entry line must not carry delta keys.
  EXPECT_NE(message_after("entry circuit=s344 kind=pass/fail version=1",
                          "entry circuit=s344 kind=pass/fail version=1 base=0")
                .find("base"),
            std::string::npos);
}

// The corruption acceptance gate: EVERY single-byte flip and EVERY
// truncation of a valid manifest must surface as ManifestError.
TEST(ManifestFuzz, EveryByteFlipIsANamedError) {
  const std::string bytes = write_manifest_string(sample_manifest());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    try {
      read_manifest_string(flip_byte(bytes, i));
      FAIL() << "flip at byte " << i << " was accepted";
    } catch (const ManifestError& e) {
      EXPECT_EQ(std::string(e.what()).rfind("manifest:", 0), 0u)
          << "flip at byte " << i;
    }
    // Any other exception type escapes and fails the test.
  }
}

TEST(ManifestFuzz, EveryTruncationIsANamedError) {
  const std::string bytes = write_manifest_string(sample_manifest());
  for (std::size_t size = 0; size < bytes.size(); ++size) {
    try {
      read_manifest_string(truncate_to(bytes, size));
      FAIL() << "truncation to " << size << " bytes was accepted";
    } catch (const ManifestError&) {
    }
  }
}

// ----------------------------------------------------- publish / acquire --

TEST(Repository, PublishAcquireRoundTrip) {
  const std::string dir = fresh_repo_dir("roundtrip");
  DictionaryRepository repo(dir);
  const SignatureStore store = SignatureStore::build(sd_dict());
  const ManifestEntry e =
      repo.publish("synth", StoreSource::kSameDifferent, store,
                   make_prov("aa", "bb", "cfg"), 3.25);
  EXPECT_EQ(e.version, 1u);
  EXPECT_EQ(e.bytes, store.size_bytes());
  EXPECT_TRUE(file_exists(dir + "/" + e.file));

  const auto acquired = repo.acquire("synth", StoreSource::kSameDifferent);
  ASSERT_NE(acquired, nullptr);
  EXPECT_EQ(acquired->num_faults(), sd_dict().num_faults());
  for (const auto& obs : observation_stream(4, 0x91)) {
    expect_same_diagnosis(diagnose_observed(*acquired, obs),
                          diagnose_observed(sd_dict(), obs), "acquired");
  }

  // Versions are monotonic, and a re-opened repository sees the catalog.
  const ManifestEntry e2 = repo.publish("synth", StoreSource::kSameDifferent,
                                        store, make_prov("aa", "bb", "cfg"));
  EXPECT_EQ(e2.version, 2u);
  DictionaryRepository reopened(dir);
  EXPECT_EQ(reopened.manifest().entries.size(), 2u);
  EXPECT_NE(reopened.acquire_version("synth", StoreSource::kSameDifferent, 1),
            nullptr);
  EXPECT_THROW(reopened.acquire("absent", StoreSource::kSameDifferent),
               std::runtime_error);
  EXPECT_THROW(
      reopened.acquire_version("synth", StoreSource::kSameDifferent, 99),
      std::runtime_error);
}

TEST(Repository, CorruptArtifactIsANamedErrorNotAWrongAnswer) {
  const std::string dir = fresh_repo_dir("corrupt");
  std::string file;
  {
    DictionaryRepository repo(dir);
    file = repo.publish("synth", StoreSource::kSameDifferent,
                        SignatureStore::build(sd_dict()), Provenance{})
               .file;
  }
  const std::string path = dir + "/" + file;
  const std::string original = read_file_bytes(path);

  // A flipped payload byte fails CRC validation against the manifest.
  atomic_write_file(path, flip_byte(original, original.size() / 2));
  {
    DictionaryRepository repo(dir);
    try {
      repo.acquire("synth", StoreSource::kSameDifferent);
      FAIL() << "corrupt artifact was served";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("mismatch"), std::string::npos);
    }
  }
  // A truncated artifact fails the size check (or the store parser).
  atomic_write_file(path, truncate_to(original, original.size() - 1));
  {
    DictionaryRepository repo(dir);
    EXPECT_THROW(repo.acquire("synth", StoreSource::kSameDifferent),
                 std::runtime_error);
  }
  // Restored bytes serve again.
  atomic_write_file(path, original);
  DictionaryRepository repo(dir);
  EXPECT_NE(repo.acquire("synth", StoreSource::kSameDifferent), nullptr);
}

TEST(Repository, CorruptManifestFailsAtOpen) {
  const std::string dir = fresh_repo_dir("badmanifest");
  {
    DictionaryRepository repo(dir);
    repo.publish("synth", StoreSource::kSameDifferent,
                 SignatureStore::build(sd_dict()), Provenance{});
  }
  const std::string path = dir + "/" + DictionaryRepository::kManifestName;
  atomic_write_file(path, flip_byte(read_file_bytes(path), 3));
  EXPECT_THROW(DictionaryRepository{dir}, ManifestError);
}

// ------------------------------------------------------ stale detection --

TEST(Repository, StaleDetectionComparesProvenance) {
  const std::string dir = fresh_repo_dir("stale");
  DictionaryRepository repo(dir);
  const Provenance prov = make_prov("aaaa", "bbbb", "ttype=diag");

  // Nothing cataloged: everything is stale.
  EXPECT_TRUE(repo.is_stale("synth", StoreSource::kSameDifferent, prov));

  repo.publish("synth", StoreSource::kSameDifferent,
               SignatureStore::build(sd_dict()), prov);
  EXPECT_FALSE(repo.is_stale("synth", StoreSource::kSameDifferent, prov));
  EXPECT_TRUE(repo.is_stale("synth", StoreSource::kSameDifferent,
                            make_prov("cccc", "bbbb", "ttype=diag")));
  EXPECT_TRUE(repo.is_stale("synth", StoreSource::kSameDifferent,
                            make_prov("aaaa", "bbbb", "ttype=10det")));
  // Empty fields are wildcards on either side.
  EXPECT_FALSE(repo.is_stale("synth", StoreSource::kSameDifferent,
                             make_prov("", "", "")));
  EXPECT_FALSE(repo.is_stale("synth", StoreSource::kSameDifferent,
                             make_prov("aaaa", "", "")));
  // A different kind is uncataloged, hence stale.
  EXPECT_TRUE(repo.is_stale("synth", StoreSource::kPassFail, prov));
}

// ------------------------------------------------------------- eviction --

TEST(Repository, EvictionUnderTinyByteBudget) {
  const std::string dir = fresh_repo_dir("evict");
  RepositoryOptions opts;
  opts.cache_bytes = 1;  // every second insert must evict the first
  DictionaryRepository repo(dir, opts);
  const SignatureStore store = SignatureStore::build(sd_dict());
  repo.publish("a", StoreSource::kSameDifferent, store, Provenance{});
  repo.publish("b", StoreSource::kSameDifferent, store, Provenance{});
  repo.publish("c", StoreSource::kSameDifferent, store, Provenance{});

  auto a = repo.acquire("a", StoreSource::kSameDifferent);
  auto b = repo.acquire("b", StoreSource::kSameDifferent);
  auto c = repo.acquire("c", StoreSource::kSameDifferent);
  RepositoryStats s = repo.stats();
  EXPECT_EQ(s.loads, 3u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_EQ(s.cached_entries, 1u);
  EXPECT_EQ(s.cached_bytes, store.size_bytes());

  // Eviction dropped the cache's reference only: handed-out pointers still
  // answer queries.
  const auto obs = observation_stream(1, 0x7)[0];
  expect_same_diagnosis(diagnose_observed(*a, obs),
                        diagnose_observed(sd_dict(), obs), "evicted ptr");

  // Re-acquiring an evicted entry is a fresh load (and evicts "c"); the
  // immediate re-acquire of the now-cached "a" is the one hit.
  repo.acquire("a", StoreSource::kSameDifferent);
  repo.acquire("a", StoreSource::kSameDifferent);
  s = repo.stats();
  EXPECT_EQ(s.loads, 4u);
  EXPECT_EQ(s.hits, 1u);

  // Dropping the last reference retires the store.
  const std::uint64_t retired_before = repo.stats().retired;
  b.reset();  // b was evicted from the cache, so this was the last ref
  EXPECT_EQ(repo.stats().retired, retired_before + 1);
  a.reset();
  c.reset();
}

// ---------------------------------------------------- background refresh --

TEST(Repository, RefreshAsyncSkipsFreshAndBuildsStale) {
  const std::string dir = fresh_repo_dir("refresh");
  DictionaryRepository repo(dir);
  ThreadPool pool(2);
  const Provenance prov = make_prov("aaaa", "bbbb", "cfg");

  bool built = false;
  const auto builder = [&built](const RunBudget&) {
    built = true;
    return SignatureStore::build(sd_dict());
  };

  // Stale (empty catalog): builds and publishes v1.
  ManifestEntry e1 = repo.refresh_async(pool, "synth",
                                        StoreSource::kSameDifferent, builder,
                                        prov)
                         .get();
  EXPECT_TRUE(built);
  EXPECT_EQ(e1.version, 1u);
  EXPECT_GE(e1.build_ms, 0.0);
  EXPECT_EQ(e1.provenance.tests_hash, "aaaa");

  // Fresh: resolves with the existing entry, builder not called.
  built = false;
  ManifestEntry e2 = repo.refresh_async(pool, "synth",
                                        StoreSource::kSameDifferent, builder,
                                        prov)
                         .get();
  EXPECT_FALSE(built);
  EXPECT_EQ(e2.version, 1u);

  // Stale provenance: rebuilds as v2.
  ManifestEntry e3 =
      repo.refresh_async(pool, "synth", StoreSource::kSameDifferent, builder,
                         make_prov("ffff", "bbbb", "cfg"))
          .get();
  EXPECT_TRUE(built);
  EXPECT_EQ(e3.version, 2u);

  // A throwing builder surfaces through the future.
  auto failing = repo.refresh_async(
      pool, "other", StoreSource::kSameDifferent,
      [](const RunBudget&) -> SignatureStore {
        throw std::runtime_error("builder exploded");
      },
      Provenance{});
  EXPECT_THROW(failing.get(), std::runtime_error);
}

// -------------------------------------------------------------- hot swap --

// The acceptance gate: 4 producers query a repository-backed service while
// a byte-identical-content version is published and swapped in mid-stream.
// Zero dropped or errored requests, and every ranking matches the direct
// engine call (equivalently, a single-store DiagnosisService).
TEST(RepositoryHotSwap, IdentityUnderConcurrentSwaps) {
  const std::string dir = fresh_repo_dir("hotswap");
  DictionaryRepository repo(dir);
  const SignatureStore store = SignatureStore::build(sd_dict());
  repo.publish("synth", StoreSource::kSameDifferent, store, Provenance{});

  ServiceOptions opts;
  opts.threads = 2;
  opts.batch = 4;
  opts.cache = 64;
  DiagnosisService service(repo.acquire("synth", StoreSource::kSameDifferent),
                           opts);

  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 24;
  std::vector<std::vector<std::vector<Observed>>> streams;
  for (std::size_t p = 0; p < kProducers; ++p)
    streams.push_back(observation_stream(kPerProducer, 0x1000 + p));

  std::vector<std::vector<std::future<ServiceResponse>>> futures(kProducers);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (const auto& obs : streams[p])
        futures[p].push_back(service.submit(obs));
    });
  }

  // Mid-stream: republish (byte-identical content -> new version) and
  // hot-swap, several times, while the producers are pounding the queue.
  for (int round = 0; round < 3; ++round) {
    repo.publish("synth", StoreSource::kSameDifferent, store, Provenance{});
    repo.reload();
    service.swap_store(repo.acquire("synth", StoreSource::kSameDifferent));
  }

  for (auto& t : producers) t.join();
  std::size_t resolved = 0;
  for (std::size_t p = 0; p < kProducers; ++p) {
    for (std::size_t i = 0; i < futures[p].size(); ++i) {
      const ServiceResponse r = futures[p][i].get();  // throws on any error
      expect_same_diagnosis(r.diagnosis,
                            diagnose_observed(sd_dict(), streams[p][i]),
                            "hot-swap identity");
      ++resolved;
    }
  }
  EXPECT_EQ(resolved, kProducers * kPerProducer);
  EXPECT_EQ(service.stats().swaps, 3u);
  EXPECT_EQ(repo.stats().published, 4u);
}

TEST(RepositoryHotSwap, SwapToChangedContentInvalidatesTheCache) {
  const SameDifferentDictionary other =
      SameDifferentDictionary::build(rm(), sd_baselines(1));
  auto v1 = std::make_shared<const SignatureStore>(
      SignatureStore::build(sd_dict()));
  auto v2 =
      std::make_shared<const SignatureStore>(SignatureStore::build(other));

  ServiceOptions opts;
  opts.threads = 1;
  opts.batch = 1;
  opts.cache = 64;
  DiagnosisService service(v1, opts);
  EXPECT_EQ(service.current_store().get(), v1.get());

  const auto stream = observation_stream(6, 0x77);
  for (const auto& obs : stream)
    expect_same_diagnosis(service.diagnose(obs).diagnosis,
                          diagnose_observed(sd_dict(), obs), "pre-swap");

  service.swap_store(v2);
  EXPECT_EQ(service.current_store().get(), v2.get());
  // Random faults can repeat (or be response-equivalent) within the
  // stream; a repeat may hit the post-swap cache, but the FIRST sighting
  // of each observation after the swap must miss — the pre-swap rankings
  // were flushed — and every answer must come from the new store.
  std::set<std::string> seen;
  for (const auto& obs : stream) {
    std::string key;
    for (const Observed& o : obs) {
      key += std::to_string(o.value);
      key += static_cast<char>('0' + static_cast<int>(o.status));
      key += ',';
    }
    const bool first_sighting = seen.insert(key).second;
    const ServiceResponse r = service.diagnose(obs);
    if (first_sighting) {
      EXPECT_FALSE(r.cache_hit) << "stale ranking served across a swap";
    }
    expect_same_diagnosis(r.diagnosis, diagnose_observed(other, obs),
                          "post-swap");
  }
  EXPECT_EQ(service.stats().swaps, 1u);
}

TEST(RepositoryHotSwap, ByValueServiceSwapsNullSwapThrows) {
  // A service built from a store by value wraps it into a shared_ptr, so
  // hot swap works the same as for a repository-backed service.
  DiagnosisService service(SignatureStore::build(sd_dict()), ServiceOptions{});
  ASSERT_NE(service.current_store(), nullptr);
  auto next = std::make_shared<const SignatureStore>(
      SignatureStore::build(sd_dict()));
  service.swap_store(next);
  EXPECT_EQ(service.current_store().get(), next.get());
  EXPECT_EQ(service.stats().swaps, 1u);
  EXPECT_THROW(service.swap_store(nullptr), std::runtime_error);
  EXPECT_EQ(service.current_store().get(), next.get());
}

// ----------------------------------------------------- crash consistency --

TEST(RepositoryCrash, FailedPublishNeverCorruptsTheCatalog) {
  const std::string dir = fresh_repo_dir("crash");
  DictionaryRepository repo(dir);
  const SignatureStore store = SignatureStore::build(sd_dict());
  repo.publish("synth", StoreSource::kSameDifferent, store, Provenance{});
  const Manifest before = repo.manifest();

  // Crash before anything is written.
  {
    ScopedFailPoint fp("repo.publish.store");
    EXPECT_THROW(repo.publish("synth", StoreSource::kSameDifferent, store,
                              Provenance{}),
                 failpoint::InjectedFault);
  }
  // Crash after the store file, before the manifest: orphaned store file,
  // catalog unchanged.
  {
    ScopedFailPoint fp("repo.publish.manifest");
    EXPECT_THROW(repo.publish("synth", StoreSource::kSameDifferent, store,
                              Provenance{}),
                 failpoint::InjectedFault);
  }
  // Crash inside the atomic store-file write (before its rename): the
  // destination is untouched and no temp file is left behind.
  {
    ScopedFailPoint fp("fileio.rename");
    EXPECT_THROW(repo.publish("synth", StoreSource::kSameDifferent, store,
                              Provenance{}),
                 failpoint::InjectedFault);
  }

  EXPECT_EQ(repo.manifest().entries, before.entries);
  DictionaryRepository reopened(dir);  // the on-disk catalog parses clean
  EXPECT_EQ(reopened.manifest().entries, before.entries);
  EXPECT_NE(reopened.acquire("synth", StoreSource::kSameDifferent), nullptr);

  // And a later publish (failpoints gone) succeeds with the next version.
  const ManifestEntry e = repo.publish("synth", StoreSource::kSameDifferent,
                                       store, Provenance{});
  EXPECT_EQ(e.version, 2u);
  repo.reload();
  EXPECT_NE(repo.acquire_version("synth", StoreSource::kSameDifferent, 2),
            nullptr);
}

// ------------------------------------------------------ admin verbs --

ServiceOptions gate_options() {
  ServiceOptions o;
  o.threads = 1;
  o.batch = 1;
  o.cache = 0;
  return o;
}

// Runs one script through the serial front end sddict_serve's stdio mode
// uses, against a backend that keeps its state between calls.
std::string serve(net::RepoBackend& backend, const std::string& script) {
  std::istringstream in(script);
  std::ostringstream out;
  net::serve_stream(backend, {}, in, out);
  return out.str();
}

bool has_line(const std::string& text, const std::string& pattern) {
  return std::regex_search(text, std::regex("(^|\n)" + pattern + "\n"));
}

TEST(RepoAdminVerbs, ListUseReloadAndStats) {
  const std::string dir = fresh_repo_dir("admin_reload");
  DictionaryRepository repo(dir);
  const SignatureStore store = SignatureStore::build(sd_dict());
  repo.publish("synth", StoreSource::kSameDifferent, store, {});
  net::RepoBackend backend(repo, gate_options(), "");

  const std::string before =
      serve(backend, "!health\n!list\n!use synth\n!health\n");
  EXPECT_TRUE(has_line(before, "error no circuit selected \\(use !use "
                               "CIRCUIT\\)\ndone"))
      << before;
  EXPECT_TRUE(has_line(
      before, "artifact circuit=synth kind=same/different version=1 .*"))
      << before;
  EXPECT_TRUE(has_line(before, "using circuit=synth kind=same/different "
                               "faults=" +
                                   std::to_string(store.num_faults()) +
                                   " tests=" +
                                   std::to_string(store.num_tests())))
      << before;
  EXPECT_TRUE(has_line(before, "health state=ok queue_depth=0 in_flight=0 "
                               "epoch=0 version=1"))
      << before;

  // A republish from another process, then a hot reload.
  DictionaryRepository(dir).publish("synth", StoreSource::kSameDifferent,
                                    store, {});
  const std::string after = serve(backend, "!reload\n!health\n!stats\n");
  EXPECT_TRUE(has_line(after, "reloaded circuit=synth swapped=1")) << after;
  EXPECT_TRUE(has_line(after, "health state=ok queue_depth=0 in_flight=0 "
                              "epoch=1 version=2"))
      << after;
  EXPECT_TRUE(has_line(after, "stats repo loads=.*")) << after;
  EXPECT_TRUE(has_line(after, "stats circuit=synth kind=same/different "
                              "requests=0 .* swaps=1 .* version=2 chain=0 "
                              "store_bytes=" +
                                  std::to_string(store.size_bytes())))
      << after;
  EXPECT_EQ(backend.store_version(), 2u);
}

TEST(RepoAdminVerbs, CompactRejectsBadBudgetsThenCompactsAndSquashes) {
  const std::string dir = fresh_repo_dir("admin_compact");
  DictionaryRepository repo(dir);
  const SignatureStore store = SignatureStore::build(sd_dict());
  // Every column twice, so a lossless compaction has tests to drop.
  repo.publish("synth", StoreSource::kSameDifferent,
               SignatureStore::concat_tests(store, store), {});
  net::RepoBackend backend(repo, gate_options(), "synth");

  // std::stoull used to accept "-1" and wrap it to an unbounded budget.
  for (const std::string eps : {"-1", "", "1x", "+1"}) {
    const std::string reply = serve(backend, "!compact lossy:" + eps + "\n");
    EXPECT_EQ(reply, "error bad lossy budget '" + eps + "'\ndone\n");
    EXPECT_EQ(repo.latest_version("synth", StoreSource::kSameDifferent), 1u);
  }

  const std::string out =
      serve(backend, "!compact\n!squash\n!stats\n!list\n");
  EXPECT_TRUE(has_line(out, "compacted circuit=synth kind=same/different "
                            "version=2 tests=" +
                                std::to_string(2 * store.num_tests()) +
                                "->[0-9]+ .*published=1 swapped=1"))
      << out;
  EXPECT_TRUE(has_line(out, "squashed circuit=synth kind=same/different "
                            "version=3 chain_before=1 .*swapped=1"))
      << out;
  EXPECT_TRUE(has_line(out, "stats circuit=synth .* version=3 chain=0 "
                            "store_bytes=[0-9]+"))
      << out;
  EXPECT_TRUE(has_line(out, "artifact circuit=synth kind=same/different "
                            "version=2 .* chain=1 base=1 added=0 .*"))
      << out;
  EXPECT_EQ(repo.latest_version("synth", StoreSource::kSameDifferent), 3u);
  EXPECT_EQ(backend.store_version(), 3u);
}

TEST(RepoAdminVerbs, ReloadSquashesChainsDeeperThanMaxChain) {
  const std::string dir = fresh_repo_dir("admin_max_chain");
  DictionaryRepository repo(dir);
  const SignatureStore store = SignatureStore::build(sd_dict());
  repo.publish("synth", StoreSource::kSameDifferent, store, {});
  repo.publish_delta("synth", StoreSource::kSameDifferent, nullptr, {0}, {});
  net::RepoBackend backend(repo, gate_options(), "synth",
                           StoreSource::kSameDifferent, /*max_chain=*/1);

  // Chain 1 is within max_chain: the reload swaps without squashing.
  const std::string within = serve(backend, "!health\n!reload\n");
  EXPECT_TRUE(has_line(within, "health state=ok .* version=2")) << within;
  EXPECT_TRUE(has_line(within, "reloaded circuit=synth swapped=1 squashed=0"))
      << within;
  EXPECT_EQ(repo.latest_version("synth", StoreSource::kSameDifferent), 2u);

  // A second delta makes the chain 2: the reload squashes it into a full
  // version 4 first and swaps onto that.
  DictionaryRepository(dir).publish_delta("synth", StoreSource::kSameDifferent,
                                          nullptr, {0}, {});
  const std::string deeper = serve(backend, "!reload\n!health\n");
  EXPECT_TRUE(has_line(deeper, "reloaded circuit=synth swapped=1 squashed=1"))
      << deeper;
  EXPECT_TRUE(has_line(deeper, "health state=ok .* version=4")) << deeper;
  EXPECT_EQ(repo.chain_length("synth", StoreSource::kSameDifferent), 0u);
  EXPECT_EQ(backend.store_version(), 4u);

  // Queries now answer from the squashed store: base tests 2.. only.
  const auto squashed = repo.acquire("synth", StoreSource::kSameDifferent);
  ASSERT_EQ(squashed->num_tests(), store.num_tests() - 2);
  const FaultId f = static_cast<FaultId>(rm().num_faults() / 2);
  std::vector<ResponseId> ids;
  for (std::size_t t = 2; t < rm().num_tests(); ++t)
    ids.push_back(rm().response(f, t));
  const std::vector<Observed> obs = qualify(ids);
  std::ostringstream datalog;
  write_testerlog(datalog, obs);
  ServiceResponse expected;
  expected.diagnosis = diagnose_observed(*squashed, obs);
  std::ostringstream want;
  net::write_response(want, expected, /*dropped=*/0);

  const auto drop_timing = [](const std::string& text) {
    std::istringstream in(text);
    std::string out;
    for (std::string line; std::getline(in, line);)
      if (line.rfind("timing ", 0) != 0) out += line + "\n";
    return out;
  };
  EXPECT_EQ(drop_timing(serve(backend, datalog.str())),
            drop_timing(want.str()));
}

}  // namespace
}  // namespace sddict
