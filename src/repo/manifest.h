// CRC-checked, human-readable catalog of the artifacts in a dictionary
// repository: one line per published store version, keyed
// circuit x dictionary-kind x version, carrying the artifact's file name,
// size and CRC plus its provenance (test-set hash, fault-list hash, build
// config token, build wall time, publish timestamp).
//
// Format (strict, line-based, LF or CRLF):
//
//   sddict-manifest v1
//   entry circuit=s27 kind=same/different version=1 file=s27.same-different.v1.store
//       bytes=12288 crc=0x1a2b3c4d tests=<32 hex> faults=<32 hex>
//       config=ttype=diag,seed=7 build_ms=12.500 built=1754524800
//   delta circuit=s27 kind=same/different version=2 base=1
//       file=s27.same-different.v2.delta bytes=8192 crc=0x55aa55aa
//       added=6 dropped=0-2,9 tests=<32 hex> faults=<32 hex>
//       config=... build_ms=4.000 built=1754524860
//   crc32 0xdeadbeef
//
// (an entry is ONE line; wrapped above for readability). The trailer line
// carries the CRC-32 of every byte before it, so any byte flip or
// truncation anywhere in the file — header, entries, or the trailer
// itself — surfaces as a named ManifestError, never a crash or a silently
// wrong catalog. Unknown key=value pairs on an entry line are rejected
// (strict schema), and so are trailing bytes after the trailer.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "fault/faultlist.h"
#include "sim/testset.h"
#include "store/signature_store.h"
#include "util/hash.h"

namespace sddict {

// Every manifest defect throws this, with a message naming the defect and
// (when line-scoped) the 1-based line number.
struct ManifestError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Provenance of a build: what the dictionary was built FROM. Two entries
// with equal provenance describe interchangeable artifacts; a mismatch is
// what makes a cataloged entry stale. Fields left empty ("-" on disk) are
// wildcards that match anything.
struct Provenance {
  std::string tests_hash;   // hex of hash_testset(); "" = unknown
  std::string faults_hash;  // hex of hash_faultlist(); "" = unknown
  std::string config;       // whitespace-free build-config token; "" = none

  bool operator==(const Provenance&) const = default;
};

struct ManifestEntry {
  std::string circuit;
  StoreSource kind = StoreSource::kSameDifferent;
  std::uint64_t version = 0;  // 1-based, monotonic per (circuit, kind)
  std::string file;           // store file, relative to the repository dir
  std::uint64_t bytes = 0;    // exact size of the store file
  std::uint32_t file_crc = 0;  // CRC-32 of the whole store file
  Provenance provenance;
  double build_ms = 0;          // wall time of the build that produced it
  std::uint64_t built_unix = 0;  // publish time, seconds since the epoch

  // Delta records (line type "delta" instead of "entry"): the artifact is
  // not a full store but a column edit against `base_version` of the same
  // (circuit, kind): drop the listed base test columns, then append the
  // `added_tests` columns held in `file` — itself a complete, CRC-covered
  // SignatureStore image of just the added columns. A drop-only delta has
  // no artifact file: added_tests == 0 <=> file == "-" (bytes and crc 0).
  // The repository materializes base+delta chains back into flat stores.
  bool is_delta = false;
  std::uint64_t base_version = 0;      // must precede `version`
  std::uint64_t added_tests = 0;       // columns in `file`
  std::vector<std::uint64_t> dropped;  // strictly ascending base columns

  bool operator==(const ManifestEntry&) const = default;
};

struct Manifest {
  std::vector<ManifestEntry> entries;

  // Highest-version entry for (circuit, kind); nullptr when absent.
  const ManifestEntry* find(std::string_view circuit, StoreSource kind) const;
  const ManifestEntry* find_version(std::string_view circuit, StoreSource kind,
                                    std::uint64_t version) const;
  // 1 + the highest published version (1 for a first publish).
  std::uint64_t next_version(std::string_view circuit, StoreSource kind) const;
};

// Parse / serialize. read_manifest_string throws ManifestError on any
// defect; write_manifest_string always emits the CRC trailer the reader
// demands.
Manifest read_manifest_string(const std::string& bytes);
std::string write_manifest_string(const Manifest& m);

// The manifest's kind token (same spelling as store_source_name — none of
// the names contain whitespace). Returns false on an unknown token.
bool parse_store_source(std::string_view token, StoreSource* out);

// The `dropped=` wire form of an ascending index list: "-" when empty,
// else comma-joined closed ranges ("0-3,7,9-12"). encode throws
// std::invalid_argument on an unsorted list (the writer's bug, not data).
std::string encode_index_ranges(const std::vector<std::uint64_t>& indices);

// Provenance hashes: order-sensitive content hashes of the inputs a
// dictionary build consumes, rendered as 32 lowercase hex digits.
std::string hash_hex(const Hash128& h);
Hash128 hash_testset(const TestSet& tests);
Hash128 hash_faultlist(const FaultList& faults);

}  // namespace sddict
