#include "store/signature_store.h"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "util/crc32.h"

#if defined(__unix__) || defined(__APPLE__)
#define SDDICT_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace sddict {

namespace {

constexpr char kMagic[8] = {'S', 'D', 'S', 'T', 'O', 'R', 'E', '1'};
constexpr std::uint32_t kByteOrder = 0x01020304;
// Version 2 (the only one written) pads each row to whole 64-bit words;
// version 1 padded it to 64 bytes. Both load.
constexpr std::uint32_t kVersion = 2;
constexpr std::uint32_t kVersionV1 = 1;
constexpr std::uint64_t kV1RowAlign = 64;

// Fixed header offsets (see signature_store.h for the map).
constexpr std::size_t kOffMagic = 0;
constexpr std::size_t kOffByteOrder = 8;
constexpr std::size_t kOffVersion = 12;
constexpr std::size_t kOffKind = 16;
constexpr std::size_t kOffSource = 20;
constexpr std::size_t kOffNumFaults = 24;
constexpr std::size_t kOffNumTests = 32;
constexpr std::size_t kOffNumOutputs = 40;
constexpr std::size_t kOffRank = 48;
constexpr std::size_t kOffSigBits = 56;
constexpr std::size_t kOffRowStride = 64;
constexpr std::size_t kOffSectionCount = 72;
constexpr std::size_t kOffSections = 80;  // 2 x {u64 off, u64 size, u32 crc, u32 pad}
constexpr std::size_t kSectionEntry = 24;
constexpr std::size_t kOffHeaderCrc = 4092;

// Corruption can make header fields arbitrary; these caps keep every size
// computation below free of u64 overflow (and absurd allocations).
constexpr std::uint64_t kMaxDim = std::uint64_t{1} << 32;
constexpr std::uint64_t kMaxRank = std::uint64_t{1} << 20;
constexpr std::uint64_t kMaxSectionBytes = std::uint64_t{1} << 48;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("SignatureStore: " + what);
}

std::uint64_t round_up(std::uint64_t v, std::uint64_t align) {
  return (v + align - 1) / align * align;
}

// Bits per row of a store of this kind (kFull rows are u32 lanes).
std::uint64_t row_bits(StoreKind kind, std::uint64_t num_tests,
                       std::uint64_t rank) {
  switch (kind) {
    case StoreKind::kPassFail:
    case StoreKind::kSameDifferent: return num_tests;
    case StoreKind::kMultiBaseline: return num_tests * rank;
    case StoreKind::kFull: return num_tests * 32;
  }
  return 0;
}

// The one row stride a file of this version may carry for sig_bits-bit
// rows.
std::uint64_t row_stride(std::uint32_t version, std::uint64_t sig_bits) {
  return round_up((sig_bits + 7) / 8, version == kVersionV1
                                          ? kV1RowAlign
                                          : SignatureStore::kRowAlign);
}

void put32(std::byte* p, std::size_t off, std::uint32_t v) {
  std::memcpy(p + off, &v, 4);
}
void put64(std::byte* p, std::size_t off, std::uint64_t v) {
  std::memcpy(p + off, &v, 8);
}
std::uint32_t get32(const std::byte* p, std::size_t off) {
  std::uint32_t v;
  std::memcpy(&v, p + off, 4);
  return v;
}
std::uint64_t get64(const std::byte* p, std::size_t off) {
  std::uint64_t v;
  std::memcpy(&v, p + off, 8);
  return v;
}

struct ImageSpec {
  StoreKind kind{};
  StoreSource source{};
  std::uint64_t num_faults = 0;
  std::uint64_t num_tests = 0;
  std::uint64_t num_outputs = 0;
  std::uint64_t rank = 1;
  std::vector<std::byte> baselines;
};

// Lays out a current-version image; fill_row(f, dst) writes fault f's row
// into its zero-initialized slot.
template <class FillRow>
std::vector<std::uint64_t> make_image(const ImageSpec& spec, FillRow fill_row) {
  if (spec.num_faults == 0 || spec.num_tests == 0)
    fail("cannot build a store from an empty dictionary");
  const std::uint64_t sig_bits =
      row_bits(spec.kind, spec.num_tests, spec.rank);
  const std::uint64_t stride = row_stride(kVersion, sig_bits);
  const std::uint64_t rows_size = spec.num_faults * stride;
  const std::uint64_t rows_pad = round_up(rows_size, SignatureStore::kPageSize);
  const std::uint64_t bl_size = spec.baselines.size();
  const std::uint64_t bl_pad = round_up(bl_size, SignatureStore::kPageSize);
  const std::uint64_t rows_off = SignatureStore::kPageSize;
  const std::uint64_t bl_off = rows_off + rows_pad;
  const std::uint64_t total = bl_off + bl_pad;

  std::vector<std::uint64_t> image(total / 8, 0);
  std::byte* p = reinterpret_cast<std::byte*>(image.data());
  std::memcpy(p + kOffMagic, kMagic, 8);
  put32(p, kOffByteOrder, kByteOrder);
  put32(p, kOffVersion, kVersion);
  put32(p, kOffKind, static_cast<std::uint32_t>(spec.kind));
  put32(p, kOffSource, static_cast<std::uint32_t>(spec.source));
  put64(p, kOffNumFaults, spec.num_faults);
  put64(p, kOffNumTests, spec.num_tests);
  put64(p, kOffNumOutputs, spec.num_outputs);
  put64(p, kOffRank, spec.rank);
  put64(p, kOffSigBits, sig_bits);
  put64(p, kOffRowStride, stride);
  put32(p, kOffSectionCount, 2);
  put64(p, kOffSections + 0, rows_off);
  put64(p, kOffSections + 8, rows_size);
  put64(p, kOffSections + kSectionEntry + 0, bl_off);
  put64(p, kOffSections + kSectionEntry + 8, bl_size);

  for (FaultId f = 0; f < spec.num_faults; ++f)
    fill_row(f, p + rows_off + f * stride);
  if (bl_size > 0) std::memcpy(p + bl_off, spec.baselines.data(), bl_size);

  Crc32 rows_crc;
  rows_crc.update(p + rows_off, rows_pad);
  put32(p, kOffSections + 16, rows_crc.value());
  Crc32 bl_crc;
  bl_crc.update(p + bl_off, bl_pad);
  put32(p, kOffSections + kSectionEntry + 16, bl_crc.value());
  Crc32 header_crc;
  header_crc.update(p, kOffHeaderCrc);
  put32(p, kOffHeaderCrc, header_crc.value());
  return image;
}

void fill_bit_row(const BitVec& row, std::byte* dst) {
  std::memcpy(dst, row.words().data(), row.words().size() * 8);
}

std::vector<std::byte> ids_to_bytes(const ResponseId* ids, std::size_t n) {
  std::vector<std::byte> out(n * 4);
  if (n > 0) std::memcpy(out.data(), ids, n * 4);
  return out;
}

}  // namespace

const char* store_kind_name(StoreKind k) {
  switch (k) {
    case StoreKind::kPassFail: return "pass/fail";
    case StoreKind::kSameDifferent: return "same/different";
    case StoreKind::kMultiBaseline: return "multi-baseline";
    case StoreKind::kFull: return "full";
  }
  return "?";
}

const char* store_source_name(StoreSource s) {
  switch (s) {
    case StoreSource::kPassFail: return "pass/fail";
    case StoreSource::kSameDifferent: return "same/different";
    case StoreSource::kMultiBaseline: return "multi-baseline";
    case StoreSource::kFull: return "full";
    case StoreSource::kFirstFail: return "first-fail";
    case StoreSource::kDetectionList: return "detection-list";
  }
  return "?";
}

SignatureStore SignatureStore::adopt(std::vector<std::uint64_t> image) {
  SignatureStore s;
  s.owned_ = std::move(image);
  s.base_ = reinterpret_cast<const std::byte*>(s.owned_.data());
  s.size_ = s.owned_.size() * 8;
  s.parse();
  return s;
}

SignatureStore SignatureStore::build(const PassFailDictionary& d) {
  ImageSpec spec;
  spec.kind = StoreKind::kPassFail;
  spec.source = StoreSource::kPassFail;
  spec.num_faults = d.num_faults();
  spec.num_tests = d.num_tests();
  spec.num_outputs = d.num_outputs();
  return adopt(make_image(spec, [&d](FaultId f, std::byte* dst) {
    fill_bit_row(d.row(f), dst);
  }));
}

SignatureStore SignatureStore::build(const SameDifferentDictionary& d) {
  ImageSpec spec;
  spec.kind = StoreKind::kSameDifferent;
  spec.source = StoreSource::kSameDifferent;
  spec.num_faults = d.num_faults();
  spec.num_tests = d.num_tests();
  spec.num_outputs = d.num_outputs();
  spec.baselines = ids_to_bytes(d.baselines().data(), d.baselines().size());
  return adopt(make_image(spec, [&d](FaultId f, std::byte* dst) {
    fill_bit_row(d.row(f), dst);
  }));
}

SignatureStore SignatureStore::build(const MultiBaselineDictionary& d) {
  ImageSpec spec;
  spec.kind = StoreKind::kMultiBaseline;
  spec.source = StoreSource::kMultiBaseline;
  spec.num_faults = d.num_faults();
  spec.num_tests = d.num_tests();
  spec.num_outputs = d.num_outputs();
  spec.rank = d.baselines_per_test();
  // Per-test set sizes, then a fixed rank-wide id grid (unused slots 0).
  const std::size_t k = d.num_tests();
  const std::size_t r = d.baselines_per_test();
  std::vector<std::uint32_t> meta(k + k * r, 0);
  for (std::size_t t = 0; t < k; ++t) {
    const auto& bs = d.baselines()[t];
    meta[t] = static_cast<std::uint32_t>(bs.size());
    for (std::size_t l = 0; l < bs.size(); ++l) meta[k + t * r + l] = bs[l];
  }
  spec.baselines = ids_to_bytes(meta.data(), meta.size());
  return adopt(make_image(spec, [&d](FaultId f, std::byte* dst) {
    fill_bit_row(d.row(f), dst);
  }));
}

SignatureStore SignatureStore::build(const FullDictionary& d) {
  ImageSpec spec;
  spec.kind = StoreKind::kFull;
  spec.source = StoreSource::kFull;
  spec.num_faults = d.num_faults();
  spec.num_tests = d.num_tests();
  spec.num_outputs = d.num_outputs();
  return adopt(make_image(spec, [&d](FaultId f, std::byte* dst) {
    for (std::size_t t = 0; t < d.num_tests(); ++t)
      put32(dst, 4 * t, d.entry(f, t));
  }));
}

SignatureStore SignatureStore::build(const FirstFailDictionary& d) {
  ImageSpec spec;
  spec.kind = StoreKind::kPassFail;
  spec.source = StoreSource::kFirstFail;
  spec.num_faults = d.num_faults();
  spec.num_tests = d.num_tests();
  spec.num_outputs = d.num_outputs();
  return adopt(make_image(spec, [&d](FaultId f, std::byte* dst) {
    auto* words = reinterpret_cast<std::uint64_t*>(dst);
    for (std::size_t t = 0; t < d.num_tests(); ++t)
      if (d.entry(f, t) != 0) words[t >> 6] |= std::uint64_t{1} << (t & 63);
  }));
}

SignatureStore SignatureStore::build(const DetectionListDictionary& d,
                                     std::size_t num_outputs) {
  // Transpose the per-test detection lists into per-fault rows up front;
  // the projection is exactly the pass/fail bit matrix.
  std::vector<BitVec> rows(d.num_faults(), BitVec(d.num_tests()));
  for (std::size_t t = 0; t < d.num_tests(); ++t)
    for (FaultId f : d.detected_by(t)) rows[f].set(t, true);
  ImageSpec spec;
  spec.kind = StoreKind::kPassFail;
  spec.source = StoreSource::kDetectionList;
  spec.num_faults = d.num_faults();
  spec.num_tests = d.num_tests();
  spec.num_outputs = num_outputs;
  return adopt(make_image(spec, [&rows](FaultId f, std::byte* dst) {
    fill_bit_row(rows[f], dst);
  }));
}

SignatureStore SignatureStore::select_tests(
    const std::vector<std::size_t>& keep) const {
  if (keep.empty()) fail("select_tests: cannot keep zero test columns");
  for (std::size_t i = 0; i < keep.size(); ++i) {
    if (keep[i] >= num_tests_)
      fail("select_tests: column " + std::to_string(keep[i]) +
           " out of range (store has " + std::to_string(num_tests_) +
           " tests)");
    if (i > 0 && keep[i] <= keep[i - 1])
      fail("select_tests: columns must be strictly ascending");
  }
  const std::size_t nk = keep.size();
  ImageSpec spec;
  spec.kind = kind_;
  spec.source = source_;
  spec.num_faults = num_faults_;
  spec.num_tests = nk;
  spec.num_outputs = num_outputs_;
  spec.rank = rank_;
  if (kind_ == StoreKind::kSameDifferent) {
    std::vector<ResponseId> bl(nk);
    for (std::size_t i = 0; i < nk; ++i) bl[i] = baselines()[keep[i]];
    spec.baselines = ids_to_bytes(bl.data(), bl.size());
  } else if (kind_ == StoreKind::kMultiBaseline) {
    const auto* counts = reinterpret_cast<const std::uint32_t*>(baselines_);
    const auto* grid =
        reinterpret_cast<const ResponseId*>(baselines_ + 4 * num_tests_);
    std::vector<std::uint32_t> meta(nk + nk * rank_, 0);
    for (std::size_t i = 0; i < nk; ++i) {
      meta[i] = counts[keep[i]];
      for (std::size_t l = 0; l < rank_; ++l)
        meta[nk + i * rank_ + l] = grid[keep[i] * rank_ + l];
    }
    spec.baselines = ids_to_bytes(meta.data(), meta.size());
  }
  if (kind_ == StoreKind::kFull)
    return adopt(make_image(spec, [this, &keep](FaultId f, std::byte* dst) {
      const ResponseId* src = full_row(f);
      for (std::size_t i = 0; i < keep.size(); ++i)
        put32(dst, 4 * i, src[keep[i]]);
    }));
  const std::size_t group = kind_ == StoreKind::kMultiBaseline ? rank_ : 1;
  return adopt(
      make_image(spec, [this, &keep, group](FaultId f, std::byte* dst) {
        auto* words = reinterpret_cast<std::uint64_t*>(dst);
        for (std::size_t i = 0; i < keep.size(); ++i)
          for (std::size_t l = 0; l < group; ++l) {
            if (!row_bit(f, keep[i] * group + l)) continue;
            const std::size_t bit = i * group + l;
            words[bit >> 6] |= std::uint64_t{1} << (bit & 63);
          }
      }));
}

SignatureStore SignatureStore::concat_tests(const SignatureStore& a,
                                            const SignatureStore& b) {
  if (a.kind_ != b.kind_)
    fail(std::string("concat_tests: kind mismatch (") +
         store_kind_name(a.kind_) + " vs " + store_kind_name(b.kind_) + ")");
  if (a.source_ != b.source_)
    fail(std::string("concat_tests: source mismatch (") +
         store_source_name(a.source_) + " vs " + store_source_name(b.source_) +
         ")");
  if (a.num_faults_ != b.num_faults_)
    fail("concat_tests: fault count mismatch (" +
         std::to_string(a.num_faults_) + " vs " +
         std::to_string(b.num_faults_) + ")");
  if (a.num_outputs_ != b.num_outputs_)
    fail("concat_tests: output count mismatch (" +
         std::to_string(a.num_outputs_) + " vs " +
         std::to_string(b.num_outputs_) + ")");
  if (a.rank_ != b.rank_)
    fail("concat_tests: rank mismatch (" + std::to_string(a.rank_) + " vs " +
         std::to_string(b.rank_) + ")");
  const std::size_t nt = a.num_tests_ + b.num_tests_;
  ImageSpec spec;
  spec.kind = a.kind_;
  spec.source = a.source_;
  spec.num_faults = a.num_faults_;
  spec.num_tests = nt;
  spec.num_outputs = a.num_outputs_;
  spec.rank = a.rank_;
  if (a.kind_ == StoreKind::kSameDifferent) {
    std::vector<ResponseId> bl(nt);
    for (std::size_t t = 0; t < a.num_tests_; ++t) bl[t] = a.baselines()[t];
    for (std::size_t t = 0; t < b.num_tests_; ++t)
      bl[a.num_tests_ + t] = b.baselines()[t];
    spec.baselines = ids_to_bytes(bl.data(), bl.size());
  } else if (a.kind_ == StoreKind::kMultiBaseline) {
    const std::size_t r = a.rank_;
    std::vector<std::uint32_t> meta(nt + nt * r, 0);
    // By position, not identity: concat_tests(x, x) is a valid call.
    for (const auto& [s, off] : {std::pair{&a, std::size_t{0}},
                                 std::pair{&b, a.num_tests_}}) {
      const auto* counts =
          reinterpret_cast<const std::uint32_t*>(s->baselines_);
      const auto* grid = reinterpret_cast<const ResponseId*>(s->baselines_ +
                                                             4 * s->num_tests_);
      for (std::size_t t = 0; t < s->num_tests_; ++t) {
        meta[off + t] = counts[t];
        for (std::size_t l = 0; l < r; ++l)
          meta[nt + (off + t) * r + l] = grid[t * r + l];
      }
    }
    spec.baselines = ids_to_bytes(meta.data(), meta.size());
  }
  if (a.kind_ == StoreKind::kFull)
    return adopt(make_image(spec, [&a, &b](FaultId f, std::byte* dst) {
      std::memcpy(dst, a.full_row(f), a.num_tests_ * 4);
      std::memcpy(dst + 4 * a.num_tests_, b.full_row(f), b.num_tests_ * 4);
    }));
  const std::size_t group = a.kind_ == StoreKind::kMultiBaseline ? a.rank_ : 1;
  return adopt(make_image(spec, [&a, &b, group](FaultId f, std::byte* dst) {
    auto* words = reinterpret_cast<std::uint64_t*>(dst);
    const std::size_t a_bits = a.num_tests_ * group;
    for (std::size_t i = 0; i < a_bits; ++i)
      if (a.row_bit(f, i)) words[i >> 6] |= std::uint64_t{1} << (i & 63);
    for (std::size_t i = 0; i < b.num_tests_ * group; ++i) {
      if (!b.row_bit(f, i)) continue;
      const std::size_t bit = a_bits + i;
      words[bit >> 6] |= std::uint64_t{1} << (bit & 63);
    }
  }));
}

void SignatureStore::parse() {
  const std::byte* p = base_;
  if (size_ < kPageSize)
    fail("truncated header (" + std::to_string(size_) + " bytes, need " +
         std::to_string(kPageSize) + ")");
  if (std::memcmp(p + kOffMagic, kMagic, 8) != 0)
    fail("bad magic (not a signature store)");
  if (get32(p, kOffByteOrder) != kByteOrder) fail("byte-order mismatch");
  const std::uint32_t version = get32(p, kOffVersion);
  if (version != kVersion && version != kVersionV1)
    fail("unsupported version " + std::to_string(version));
  Crc32 hc;
  hc.update(p, kOffHeaderCrc);
  if (hc.value() != get32(p, kOffHeaderCrc))
    fail("header checksum mismatch (stored " +
         std::to_string(get32(p, kOffHeaderCrc)) + ", computed " +
         std::to_string(hc.value()) + ")");

  const std::uint32_t kind = get32(p, kOffKind);
  if (kind > static_cast<std::uint32_t>(StoreKind::kFull))
    fail("bad kind " + std::to_string(kind));
  kind_ = static_cast<StoreKind>(kind);
  const std::uint32_t source = get32(p, kOffSource);
  if (source > static_cast<std::uint32_t>(StoreSource::kDetectionList))
    fail("bad source " + std::to_string(source));
  source_ = static_cast<StoreSource>(source);

  const std::uint64_t nf = get64(p, kOffNumFaults);
  const std::uint64_t nt = get64(p, kOffNumTests);
  const std::uint64_t m = get64(p, kOffNumOutputs);
  const std::uint64_t rank = get64(p, kOffRank);
  const std::uint64_t sig = get64(p, kOffSigBits);
  const std::uint64_t stride = get64(p, kOffRowStride);
  if (nf == 0 || nt == 0) fail("empty dimensions");
  if (nf > kMaxDim || nt > kMaxDim || m > kMaxDim) fail("dimensions too large");
  if (rank == 0 || rank > kMaxRank) fail("bad rank " + std::to_string(rank));
  if (kind_ != StoreKind::kMultiBaseline && rank != 1)
    fail("rank " + std::to_string(rank) + " on a non-multi-baseline store");

  const std::uint64_t expected_sig = row_bits(kind_, nt, rank);
  if (sig != expected_sig)
    fail("signature width mismatch (header says " + std::to_string(sig) +
         " bits, kind implies " + std::to_string(expected_sig) + ")");
  if (stride != row_stride(version, sig))
    fail("bad row stride " + std::to_string(stride));

  if (get32(p, kOffSectionCount) != 2) fail("bad section count");
  const std::uint64_t rows_off = get64(p, kOffSections + 0);
  const std::uint64_t rows_size = get64(p, kOffSections + 8);
  const std::uint32_t rows_crc = get32(p, kOffSections + 16);
  const std::uint64_t bl_off = get64(p, kOffSections + kSectionEntry + 0);
  const std::uint64_t bl_size = get64(p, kOffSections + kSectionEntry + 8);
  const std::uint32_t bl_crc = get32(p, kOffSections + kSectionEntry + 16);

  if (rows_off != kPageSize)
    fail("bad rows section offset " + std::to_string(rows_off));
  if (rows_size > kMaxSectionBytes || bl_size > kMaxSectionBytes)
    fail("section too large");
  if (rows_size % stride != 0 || rows_size / stride != nf)
    fail("rows section size mismatch (" + std::to_string(rows_size) +
         " bytes for " + std::to_string(nf) + " rows of stride " +
         std::to_string(stride) + ")");

  std::uint64_t expected_bl = 0;
  switch (kind_) {
    case StoreKind::kPassFail:
    case StoreKind::kFull: expected_bl = 0; break;
    case StoreKind::kSameDifferent: expected_bl = 4 * nt; break;
    case StoreKind::kMultiBaseline: expected_bl = 4 * nt + 4 * nt * rank; break;
  }
  if (bl_size != expected_bl)
    fail("baselines section size mismatch (" + std::to_string(bl_size) +
         " bytes, kind implies " + std::to_string(expected_bl) + ")");
  const std::uint64_t rows_pad = round_up(rows_size, kPageSize);
  if (bl_off != kPageSize + rows_pad)
    fail("bad baselines section offset " + std::to_string(bl_off));
  const std::uint64_t total = bl_off + round_up(bl_size, kPageSize);
  if (size_ < total)
    fail("file truncated (" + std::to_string(size_) + " bytes, need " +
         std::to_string(total) + ")");
  if (size_ > total)
    fail("trailing bytes after the last section (" + std::to_string(size_) +
         " bytes, expected " + std::to_string(total) + ")");

  Crc32 rc;
  rc.update(p + rows_off, rows_pad);
  if (rc.value() != rows_crc)
    fail("rows section checksum mismatch (stored " + std::to_string(rows_crc) +
         ", computed " + std::to_string(rc.value()) + ")");
  Crc32 bc;
  bc.update(p + bl_off, round_up(bl_size, kPageSize));
  if (bc.value() != bl_crc)
    fail("baselines section checksum mismatch (stored " +
         std::to_string(bl_crc) + ", computed " + std::to_string(bc.value()) +
         ")");

  num_faults_ = static_cast<std::size_t>(nf);
  num_tests_ = static_cast<std::size_t>(nt);
  num_outputs_ = static_cast<std::size_t>(m);
  rank_ = static_cast<std::size_t>(rank);
  sig_bits_ = sig;
  row_stride_ = stride;
  rows_ = base_ + rows_off;
  baselines_ = base_ + bl_off;
}

void SignatureStore::write(std::ostream& out) const {
  out.write(reinterpret_cast<const char*>(base_),
            static_cast<std::streamsize>(size_));
  if (!out) fail("write failed (stream went bad mid-write)");
}

void SignatureStore::write_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) fail("cannot open " + path + " for writing");
  write(out);
  out.flush();
  if (!out) fail("write to " + path + " failed after flush");
}

std::string SignatureStore::to_bytes() const {
  return std::string(reinterpret_cast<const char*>(base_), size_);
}

SignatureStore SignatureStore::from_bytes(const std::string& bytes) {
  std::vector<std::uint64_t> image((bytes.size() + 7) / 8, 0);
  if (!bytes.empty()) std::memcpy(image.data(), bytes.data(), bytes.size());
  SignatureStore s;
  s.owned_ = std::move(image);
  s.base_ = reinterpret_cast<const std::byte*>(s.owned_.data());
  s.size_ = bytes.size();
  s.parse();
  return s;
}

SignatureStore SignatureStore::load(std::istream& in) {
  std::string bytes;
  char buf[1 << 16];
  while (in.read(buf, sizeof buf) || in.gcount() > 0) {
    bytes.append(buf, static_cast<std::size_t>(in.gcount()));
    if (in.bad()) break;
  }
  if (in.bad()) fail("read failed (stream went bad mid-read)");
  return from_bytes(bytes);
}

SignatureStore SignatureStore::load_file(const std::string& path,
                                         StoreLoadMode mode) {
#ifdef SDDICT_HAS_MMAP
  if (mode != StoreLoadMode::kStream) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      if (mode == StoreLoadMode::kMmap) fail("cannot open " + path);
    } else {
      struct stat st{};
      if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
        ::close(fd);
        if (mode == StoreLoadMode::kMmap)
          fail("truncated header (0 bytes, need " + std::to_string(kPageSize) +
               ")");
      } else {
        const std::size_t size = static_cast<std::size_t>(st.st_size);
        void* m = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
        ::close(fd);
        if (m == MAP_FAILED) {
          if (mode == StoreLoadMode::kMmap) fail("mmap of " + path + " failed");
        } else {
          SignatureStore s;
          s.mapping_ = std::shared_ptr<const void>(
              m, [size](const void* q) { ::munmap(const_cast<void*>(q), size); });
          s.base_ = static_cast<const std::byte*>(m);
          s.size_ = size;
          s.mapped_ = true;
          s.parse();
          return s;
        }
      }
    }
    // kAuto falls through to the portable path on any mmap-side failure.
  }
#else
  if (mode == StoreLoadMode::kMmap)
    fail("mmap is not available on this platform");
#endif
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open " + path);
  return load(in);
}

PassFailDictionary SignatureStore::to_passfail() const {
  if (kind_ != StoreKind::kPassFail)
    fail(std::string("to_passfail on a ") + store_kind_name(kind_) + " store");
  std::vector<BitVec> rows(num_faults_, BitVec(num_tests_));
  for (FaultId f = 0; f < num_faults_; ++f) {
    auto& words = rows[f].mutable_words();
    std::memcpy(words.data(), row_words(f), words.size() * 8);
    rows[f].normalize_tail();
  }
  return PassFailDictionary::from_rows(std::move(rows), num_tests_,
                                       num_outputs_);
}

SameDifferentDictionary SignatureStore::to_samediff() const {
  if (kind_ != StoreKind::kSameDifferent)
    fail(std::string("to_samediff on a ") + store_kind_name(kind_) + " store");
  std::vector<BitVec> rows(num_faults_, BitVec(num_tests_));
  for (FaultId f = 0; f < num_faults_; ++f) {
    auto& words = rows[f].mutable_words();
    std::memcpy(words.data(), row_words(f), words.size() * 8);
    rows[f].normalize_tail();
  }
  std::vector<ResponseId> bl(baselines(), baselines() + num_tests_);
  return SameDifferentDictionary::from_parts(std::move(rows), std::move(bl),
                                             num_outputs_);
}

MultiBaselineDictionary SignatureStore::to_multibaseline() const {
  if (kind_ != StoreKind::kMultiBaseline)
    fail(std::string("to_multibaseline on a ") + store_kind_name(kind_) +
         " store");
  std::vector<BitVec> rows(num_faults_, BitVec(num_tests_ * rank_));
  for (FaultId f = 0; f < num_faults_; ++f) {
    auto& words = rows[f].mutable_words();
    std::memcpy(words.data(), row_words(f), words.size() * 8);
    rows[f].normalize_tail();
  }
  std::vector<std::vector<ResponseId>> bl(num_tests_);
  for (std::size_t t = 0; t < num_tests_; ++t) {
    const auto [ids, count] = baseline_set(t);
    if (count > rank_)
      fail("baseline set of test " + std::to_string(t) + " larger than rank");
    bl[t].assign(ids, ids + count);
  }
  return MultiBaselineDictionary::from_parts(std::move(rows), std::move(bl),
                                             rank_, num_outputs_);
}

FullDictionary SignatureStore::to_full() const {
  if (kind_ != StoreKind::kFull)
    fail(std::string("to_full on a ") + store_kind_name(kind_) + " store");
  std::vector<ResponseId> entries(num_faults_ * num_tests_);
  for (FaultId f = 0; f < num_faults_; ++f)
    std::memcpy(entries.data() + static_cast<std::size_t>(f) * num_tests_,
                full_row(f), num_tests_ * 4);
  return FullDictionary::from_entries(std::move(entries), num_faults_,
                                      num_tests_, num_outputs_);
}

}  // namespace sddict
