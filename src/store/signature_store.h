// Immutable, bit-packed on-disk signature store — the deployment artifact
// of a fault dictionary. Construction (src/core, src/dict) happens once,
// offline; a store is what a tester-floor service loads and serves queries
// from, so the format is built for loading, not editing:
//
//   page 0 (4096 B, little-endian, fixed offsets):
//     0    char[8]  magic "SDSTORE1"
//     8    u32      byte-order marker 0x01020304 (rejects cross-endian files)
//     12   u32      version (2; version-1 files still load)
//     16   u32      kind    (row layout: pass/fail, same/diff, multi, full)
//     20   u32      source  (dictionary type the store was built from)
//     24   u64      num_faults        40  u64  num_outputs
//     32   u64      num_tests         48  u64  rank (1 unless multibaseline)
//     56   u64      signature_bits (bits per row)
//     64   u64      row_stride_bytes (row bytes rounded up to 8; 64 in v1)
//     72   u32      section_count (2)
//     80   2 x {u64 offset, u64 size, u32 crc32, u32 pad}  section table
//     4092 u32      crc32 of bytes [0, 4092)
//   section 0: rows — num_faults rows, row-major, each row_stride_bytes
//     apart; bit i of a row lives in 64-bit word i>>6 at position i&63
//     (BitVec layout), so a row is directly a kernel operand. kFull rows
//     are u32 response-id lanes instead of bits.
//   section 1: baselines — per-test metadata (layout depends on kind).
//   Sections start page-aligned and are padded to a page; each section's
//   CRC covers its padded extent, so EVERY byte of the file is covered by
//   exactly one checksum: any flip or truncation anywhere surfaces as a
//   named std::runtime_error, never a crash or a silent wrong answer.
//
// A row takes ceil(signature_bits / 64) whole 64-bit words, zero past its
// last bit, and nothing more: the rows section holds the dictionary's bits
// plus at most 63 padding bits per row. It starts page-aligned, so a
// zero-copy mmap (POSIX; a portable read-whole-file fallback exists) hands
// out 8-byte-aligned row pointers and the kernel never touches a split
// word; kernels use unaligned loads and read exactly a row's words.
// Version-1 files padded each row to 64 bytes; the loader accepts exactly
// that stride under version 1 and the word stride under version 2, and
// every writer (build, select_tests, concat_tests) emits version 2.
// Stores are buildable from every dictionary type: pass/fail,
// same/different, multi-baseline and full natively; first-fail and
// detection-list via their pass/fail projection (their per-test bit is
// exactly "detects the fault"). The four native kinds reconstruct their
// dictionary objects back (to_passfail() & co), which is what the serving
// layer's equivalence guarantee rests on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dict/detlist_dict.h"
#include "dict/firstfail_dict.h"
#include "dict/full_dict.h"
#include "dict/multibaseline_dict.h"
#include "dict/passfail_dict.h"
#include "dict/samediff_dict.h"

namespace sddict {

// Row layout of a store. kPassFail / kSameDifferent rows are num_tests
// bits, kMultiBaseline rows num_tests*rank bits, kFull rows num_tests u32
// response-id lanes.
enum class StoreKind : std::uint32_t {
  kPassFail = 0,
  kSameDifferent,
  kMultiBaseline,
  kFull,
};

// What the store was built from (provenance; first-fail and detection-list
// stores have kind kPassFail).
enum class StoreSource : std::uint32_t {
  kPassFail = 0,
  kSameDifferent,
  kMultiBaseline,
  kFull,
  kFirstFail,
  kDetectionList,
};

const char* store_kind_name(StoreKind k);
const char* store_source_name(StoreSource s);

enum class StoreLoadMode {
  kAuto,    // mmap when the platform has it, stream otherwise
  kMmap,    // zero-copy mmap; throws where unsupported or on mmap failure
  kStream,  // portable read-whole-file
};

class SignatureStore {
 public:
  static constexpr std::size_t kPageSize = 4096;
  static constexpr std::size_t kRowAlign = 8;  // one 64-bit word

  // Builders. Every defect in the inputs (empty dictionary) throws
  // std::runtime_error. The built store is immediately re-validated
  // through the same parser loads go through, so writer and reader can
  // never disagree about the format.
  static SignatureStore build(const PassFailDictionary& d);
  static SignatureStore build(const SameDifferentDictionary& d);
  static SignatureStore build(const MultiBaselineDictionary& d);
  static SignatureStore build(const FullDictionary& d);
  // Pass/fail projections: entry != 0 / membership of the detection list.
  static SignatureStore build(const FirstFailDictionary& d);
  static SignatureStore build(const DetectionListDictionary& d,
                              std::size_t num_outputs);

  // I/O. write() throws on a failed stream so a torn write is never
  // mistaken for a finished file; write_file() re-checks the stream after
  // the final flush. Loaders validate everything before the first accessor
  // can run.
  void write(std::ostream& out) const;
  void write_file(const std::string& path) const;
  static SignatureStore load(std::istream& in);
  static SignatureStore load_file(const std::string& path,
                                  StoreLoadMode mode = StoreLoadMode::kAuto);
  // In-memory round trip (tests, fuzzers).
  std::string to_bytes() const;
  static SignatureStore from_bytes(const std::string& bytes);

  // Column surgery (src/compact, delta-store repository). Both go through
  // the same image builder as build(), so the result is byte-identical to
  // building the equivalent dictionary over the same test columns
  // directly — the identity the compaction and delta-materialization
  // gates rest on. select_tests keeps the listed columns (strictly
  // ascending, in range, at least one), preserving kind/source/rank and
  // the per-test baseline metadata of the kept columns. concat_tests
  // appends b's columns after a's; kind, source, num_faults, num_outputs
  // and rank must all match. Defects throw std::runtime_error.
  SignatureStore select_tests(const std::vector<std::size_t>& keep) const;
  static SignatureStore concat_tests(const SignatureStore& a,
                                     const SignatureStore& b);

  SignatureStore(SignatureStore&&) noexcept = default;
  SignatureStore& operator=(SignatureStore&&) noexcept = default;
  SignatureStore(const SignatureStore&) = delete;
  SignatureStore& operator=(const SignatureStore&) = delete;

  StoreKind kind() const { return kind_; }
  StoreSource source() const { return source_; }
  bool mapped() const { return mapped_; }
  std::size_t size_bytes() const { return size_; }
  // The whole validated image (repository CRC verification).
  const std::byte* data() const { return base_; }

  std::size_t num_faults() const { return num_faults_; }
  std::size_t num_tests() const { return num_tests_; }
  std::size_t num_outputs() const { return num_outputs_; }
  std::size_t rank() const { return rank_; }
  std::uint64_t signature_bits() const { return sig_bits_; }

  // Zero-copy row access (the kernel operand): ceil(signature_bits / 64)
  // words, 8-byte aligned.
  const std::uint64_t* row_words(FaultId f) const {
    return reinterpret_cast<const std::uint64_t*>(
        rows_ + static_cast<std::uint64_t>(f) * row_stride_);
  }
  bool row_bit(FaultId f, std::size_t i) const {
    return (row_words(f)[i >> 6] >> (i & 63)) & 1u;
  }

  // kSameDifferent: per-test baseline response ids (num_tests of them).
  const ResponseId* baselines() const {
    return reinterpret_cast<const ResponseId*>(baselines_);
  }
  // kMultiBaseline: the (possibly ragged) baseline set of test t.
  std::pair<const ResponseId*, std::size_t> baseline_set(std::size_t t) const {
    const auto* counts = reinterpret_cast<const std::uint32_t*>(baselines_);
    const auto* ids =
        reinterpret_cast<const ResponseId*>(baselines_ + 4 * num_tests_);
    return {ids + t * rank_, counts[t]};
  }
  // kFull: u32 response-id lanes of fault f's row.
  const ResponseId* full_row(FaultId f) const {
    return reinterpret_cast<const ResponseId*>(
        rows_ + static_cast<std::uint64_t>(f) * row_stride_);
  }
  ResponseId entry(FaultId f, std::size_t t) const { return full_row(f)[t]; }

  // Reconstruction (partitions are recomputed by the from_* factories).
  // Throws std::runtime_error when the store's kind does not match.
  PassFailDictionary to_passfail() const;
  SameDifferentDictionary to_samediff() const;
  MultiBaselineDictionary to_multibaseline() const;
  FullDictionary to_full() const;

 private:
  SignatureStore() = default;

  // Parses + validates the image at base_/size_; throws std::runtime_error
  // naming the defect on anything malformed.
  void parse();
  static SignatureStore adopt(std::vector<std::uint64_t> image);

  std::vector<std::uint64_t> owned_;     // built / stream-loaded storage
  std::shared_ptr<const void> mapping_;  // mmap keep-alive
  const std::byte* base_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;

  StoreKind kind_ = StoreKind::kPassFail;
  StoreSource source_ = StoreSource::kPassFail;
  std::size_t num_faults_ = 0;
  std::size_t num_tests_ = 0;
  std::size_t num_outputs_ = 0;
  std::size_t rank_ = 1;
  std::uint64_t sig_bits_ = 0;
  std::uint64_t row_stride_ = 0;
  const std::byte* rows_ = nullptr;
  const std::byte* baselines_ = nullptr;
};

}  // namespace sddict
