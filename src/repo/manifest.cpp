#include "repo/manifest.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "util/crc32.h"
#include "util/strings.h"

namespace sddict {

namespace {

constexpr std::string_view kHeaderLine = "sddict-manifest v1";

[[noreturn]] void fail(const std::string& what) { throw ManifestError("manifest: " + what); }

[[noreturn]] void fail_line(std::size_t line_no, const std::string& what) {
  fail("line " + std::to_string(line_no) + ": " + what);
}

std::uint64_t parse_u64(std::string_view v, std::size_t line_no,
                        const char* key) {
  if (v.empty() || !std::all_of(v.begin(), v.end(),
                                [](char c) { return c >= '0' && c <= '9'; }))
    fail_line(line_no, std::string("malformed ") + key + " value '" +
                           std::string(v) + "'");
  errno = 0;
  char* end = nullptr;
  const std::string s(v);
  const unsigned long long x = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size())
    fail_line(line_no, std::string("out-of-range ") + key + " value '" + s + "'");
  return x;
}

std::uint32_t parse_hex32(std::string_view v, std::size_t line_no,
                          const char* key) {
  if (v.size() < 3 || v.substr(0, 2) != "0x")
    fail_line(line_no, std::string("malformed ") + key + " value '" +
                           std::string(v) + "' (want 0x hex)");
  const std::string s(v.substr(2));
  if (s.size() > 8 || !std::all_of(s.begin(), s.end(), [](char c) {
        return std::isxdigit(static_cast<unsigned char>(c));
      }))
    fail_line(line_no, std::string("malformed ") + key + " value '" +
                           std::string(v) + "'");
  return static_cast<std::uint32_t>(std::strtoull(s.c_str(), nullptr, 16));
}

double parse_ms(std::string_view v, std::size_t line_no, const char* key) {
  const std::string s(v);
  errno = 0;
  char* end = nullptr;
  const double x = std::strtod(s.c_str(), &end);
  if (s.empty() || errno != 0 || end != s.c_str() + s.size() || x < 0)
    fail_line(line_no, std::string("malformed ") + key + " value '" + s + "'");
  return x;
}

// "-" encodes an empty provenance field; anything else must be plain hex
// (hashes) or an arbitrary whitespace-free token (config).
std::string parse_opt_hex(std::string_view v, std::size_t line_no,
                          const char* key) {
  if (v == "-") return "";
  if (v.empty() || !std::all_of(v.begin(), v.end(), [](char c) {
        return std::isxdigit(static_cast<unsigned char>(c));
      }))
    fail_line(line_no, std::string("malformed ") + key + " value '" +
                           std::string(v) + "' (want hex or -)");
  return std::string(v);
}

// The `dropped=` list: "-" or comma-joined closed ranges, strictly
// ascending and non-overlapping ("0-3,7,9-12").
std::vector<std::uint64_t> parse_index_ranges(std::string_view v,
                                              std::size_t line_no,
                                              const char* key) {
  std::vector<std::uint64_t> out;
  if (v == "-") return out;
  if (v.empty())
    fail_line(line_no, std::string("malformed ") + key + " value ''");
  std::size_t pos = 0;
  while (pos <= v.size()) {
    const std::size_t comma = std::min(v.find(',', pos), v.size());
    const std::string_view part = v.substr(pos, comma - pos);
    const std::size_t dash = part.find('-');
    const std::string_view lo_s =
        dash == std::string_view::npos ? part : part.substr(0, dash);
    const std::string_view hi_s =
        dash == std::string_view::npos ? part : part.substr(dash + 1);
    const std::uint64_t lo = parse_u64(lo_s, line_no, key);
    const std::uint64_t hi = parse_u64(hi_s, line_no, key);
    if (hi < lo)
      fail_line(line_no, std::string("malformed ") + key + " range '" +
                             std::string(part) + "' (descending)");
    if (hi - lo >= (std::uint64_t{1} << 32))
      fail_line(line_no, std::string(key) + " range '" + std::string(part) +
                             "' too large");
    if (!out.empty() && lo <= out.back())
      fail_line(line_no, std::string("malformed ") + key + " value '" +
                             std::string(v) + "' (not strictly ascending)");
    for (std::uint64_t i = lo; i <= hi; ++i) out.push_back(i);
    if (comma == v.size()) break;
    pos = comma + 1;
  }
  return out;
}

ManifestEntry parse_entry(const std::vector<std::string>& tokens,
                          std::size_t line_no, bool is_delta) {
  std::map<std::string, std::string> kv;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos || eq == 0)
      fail_line(line_no, "malformed token '" + tok + "' (want key=value)");
    const std::string key = tok.substr(0, eq);
    if (!kv.emplace(key, tok.substr(eq + 1)).second)
      fail_line(line_no, "duplicate key '" + key + "'");
  }
  static const char* kRequired[] = {"circuit", "kind",   "version", "file",
                                    "bytes",   "crc",    "tests",   "faults",
                                    "config",  "build_ms", "built"};
  static const char* kDeltaOnly[] = {"base", "added", "dropped"};
  const auto required = [&](const std::string& key) {
    const bool common =
        std::find_if(std::begin(kRequired), std::end(kRequired),
                     [&](const char* k) { return key == k; }) !=
        std::end(kRequired);
    const bool delta_only =
        std::find_if(std::begin(kDeltaOnly), std::end(kDeltaOnly),
                     [&](const char* k) { return key == k; }) !=
        std::end(kDeltaOnly);
    return common || (is_delta && delta_only);
  };
  for (const char* key : kRequired)
    if (kv.find(key) == kv.end())
      fail_line(line_no, std::string("missing key '") + key + "'");
  if (is_delta)
    for (const char* key : kDeltaOnly)
      if (kv.find(key) == kv.end())
        fail_line(line_no, std::string("missing key '") + key + "'");
  for (const auto& [key, value] : kv) {
    (void)value;
    if (!required(key)) fail_line(line_no, "unknown key '" + key + "'");
  }

  ManifestEntry e;
  e.circuit = kv["circuit"];
  if (e.circuit.empty()) fail_line(line_no, "empty circuit name");
  if (!parse_store_source(kv["kind"], &e.kind))
    fail_line(line_no, "unknown dictionary kind '" + kv["kind"] + "'");
  e.version = parse_u64(kv["version"], line_no, "version");
  if (e.version == 0) fail_line(line_no, "version must be >= 1");
  e.file = kv["file"];
  const bool no_file = is_delta && e.file == "-";
  if (!no_file &&
      (e.file.empty() || e.file.find('/') != std::string::npos ||
       e.file == "." || e.file == ".."))
    fail_line(line_no, "bad file name '" + e.file +
                           "' (must be a plain name in the repository dir)");
  e.bytes = parse_u64(kv["bytes"], line_no, "bytes");
  e.file_crc = parse_hex32(kv["crc"], line_no, "crc");
  e.provenance.tests_hash = parse_opt_hex(kv["tests"], line_no, "tests");
  e.provenance.faults_hash = parse_opt_hex(kv["faults"], line_no, "faults");
  e.provenance.config = kv["config"] == "-" ? "" : kv["config"];
  e.build_ms = parse_ms(kv["build_ms"], line_no, "build_ms");
  e.built_unix = parse_u64(kv["built"], line_no, "built");

  if (is_delta) {
    e.is_delta = true;
    e.base_version = parse_u64(kv["base"], line_no, "base");
    if (e.base_version == 0) fail_line(line_no, "base must be >= 1");
    if (e.base_version >= e.version)
      fail_line(line_no, "delta base v" + std::to_string(e.base_version) +
                             " does not precede version v" +
                             std::to_string(e.version));
    e.added_tests = parse_u64(kv["added"], line_no, "added");
    e.dropped = parse_index_ranges(kv["dropped"], line_no, "dropped");
    if (e.added_tests == 0 && e.dropped.empty())
      fail_line(line_no, "empty delta (nothing added or dropped)");
    if ((e.added_tests == 0) != no_file)
      fail_line(line_no, no_file
                             ? "delta with added tests needs an artifact file"
                             : "drop-only delta must carry file=-");
    if (no_file && (e.bytes != 0 || e.file_crc != 0))
      fail_line(line_no, "drop-only delta must carry bytes=0 crc=0x00000000");
    e.file = no_file ? "" : e.file;
  }
  return e;
}

}  // namespace

std::string encode_index_ranges(const std::vector<std::uint64_t>& indices) {
  if (indices.empty()) return "-";
  std::string out;
  std::size_t i = 0;
  while (i < indices.size()) {
    std::size_t j = i;
    while (j + 1 < indices.size() && indices[j + 1] == indices[j] + 1) ++j;
    if (i > 0 && indices[i] <= indices[i - 1])
      throw std::invalid_argument(
          "encode_index_ranges: indices not strictly ascending");
    if (!out.empty()) out += ',';
    out += std::to_string(indices[i]);
    if (j > i) out += '-' + std::to_string(indices[j]);
    i = j + 1;
  }
  return out;
}

bool parse_store_source(std::string_view token, StoreSource* out) {
  for (std::uint32_t s = 0;
       s <= static_cast<std::uint32_t>(StoreSource::kDetectionList); ++s) {
    if (token == store_source_name(static_cast<StoreSource>(s))) {
      *out = static_cast<StoreSource>(s);
      return true;
    }
  }
  return false;
}

const ManifestEntry* Manifest::find(std::string_view circuit,
                                    StoreSource kind) const {
  const ManifestEntry* best = nullptr;
  for (const ManifestEntry& e : entries)
    if (e.circuit == circuit && e.kind == kind &&
        (!best || e.version > best->version))
      best = &e;
  return best;
}

const ManifestEntry* Manifest::find_version(std::string_view circuit,
                                            StoreSource kind,
                                            std::uint64_t version) const {
  for (const ManifestEntry& e : entries)
    if (e.circuit == circuit && e.kind == kind && e.version == version)
      return &e;
  return nullptr;
}

std::uint64_t Manifest::next_version(std::string_view circuit,
                                     StoreSource kind) const {
  const ManifestEntry* latest = find(circuit, kind);
  return latest ? latest->version + 1 : 1;
}

Manifest read_manifest_string(const std::string& bytes) {
  if (bytes.empty()) fail("empty manifest");

  // Locate the trailer: the file must END with the exact line
  // "crc32 0x<8 hex>\n" (optionally \r\n), and the CRC covers every byte
  // before that line. The shape check is strict on purpose — corruption of
  // any trailer byte, including its line ending, must be a named error.
  if (bytes.back() != '\n')
    fail("missing or malformed crc32 trailer line (no final newline)");
  const std::size_t nl =
      bytes.size() >= 2 ? bytes.rfind('\n', bytes.size() - 2)
                        : std::string::npos;
  const std::size_t trailer_start = nl == std::string::npos ? 0 : nl + 1;
  std::string trailer(bytes, trailer_start,
                      bytes.size() - trailer_start - 1);
  if (!trailer.empty() && trailer.back() == '\r') trailer.pop_back();
  constexpr std::string_view kTrailerPrefix = "crc32 0x";
  if (trailer.size() != kTrailerPrefix.size() + 8 ||
      trailer.compare(0, kTrailerPrefix.size(), kTrailerPrefix) != 0 ||
      !std::all_of(trailer.begin() +
                       static_cast<std::ptrdiff_t>(kTrailerPrefix.size()),
                   trailer.end(), [](char c) {
                     return std::isxdigit(static_cast<unsigned char>(c));
                   }))
    fail("missing or malformed crc32 trailer line");
  const std::uint32_t stored =
      parse_hex32(trailer.substr(kTrailerPrefix.size() - 2), 0, "crc32");
  const std::uint32_t computed =
      crc32(std::string_view(bytes).substr(0, trailer_start));
  if (stored != computed) {
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "checksum mismatch (stored 0x%08x, computed 0x%08x)", stored,
                  computed);
    fail(buf);
  }

  // Behind the checksum: strict line-by-line schema.
  Manifest m;
  std::size_t pos = 0, line_no = 0;
  bool saw_header = false;
  while (pos < trailer_start) {
    std::size_t nl = bytes.find('\n', pos);
    if (nl == std::string::npos || nl >= trailer_start) nl = trailer_start;
    std::string line = bytes.substr(pos, nl - pos);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    pos = nl + 1;
    ++line_no;
    if (line_no == 1) {
      if (line != kHeaderLine)
        fail_line(1, "bad header '" + line + "' (want '" +
                         std::string(kHeaderLine) + "')");
      saw_header = true;
      continue;
    }
    if (line.empty()) continue;  // blank separators are fine
    const std::vector<std::string> tokens = split_ws(line);
    if (tokens.empty()) continue;
    if (tokens[0] != "entry" && tokens[0] != "delta")
      fail_line(line_no, "unknown line '" + tokens[0] + "'");
    ManifestEntry e = parse_entry(tokens, line_no, tokens[0] == "delta");
    if (m.find_version(e.circuit, e.kind, e.version) != nullptr)
      fail_line(line_no, "duplicate entry " + e.circuit + " x " +
                             store_source_name(e.kind) + " v" +
                             std::to_string(e.version));
    m.entries.push_back(std::move(e));
  }
  if (!saw_header) fail("missing header line");
  return m;
}

std::string write_manifest_string(const Manifest& m) {
  std::string out(kHeaderLine);
  out += '\n';
  for (const ManifestEntry& e : m.entries) {
    char buf[160];
    out += e.is_delta ? "delta circuit=" : "entry circuit=";
    out += e.circuit;
    out += std::string(" kind=") + store_source_name(e.kind);
    out += " version=" + std::to_string(e.version);
    if (e.is_delta) out += " base=" + std::to_string(e.base_version);
    out += " file=" + (e.is_delta && e.file.empty() ? "-" : e.file);
    out += " bytes=" + std::to_string(e.bytes);
    std::snprintf(buf, sizeof buf, " crc=0x%08x", e.file_crc);
    out += buf;
    if (e.is_delta) {
      out += " added=" + std::to_string(e.added_tests);
      out += " dropped=" + encode_index_ranges(e.dropped);
    }
    out += " tests=" +
           (e.provenance.tests_hash.empty() ? "-" : e.provenance.tests_hash);
    out += " faults=" +
           (e.provenance.faults_hash.empty() ? "-" : e.provenance.faults_hash);
    out += " config=" + (e.provenance.config.empty() ? "-" : e.provenance.config);
    std::snprintf(buf, sizeof buf, " build_ms=%.3f", e.build_ms);
    out += buf;
    out += " built=" + std::to_string(e.built_unix);
    out += '\n';
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "crc32 0x%08x\n", crc32(out));
  out += buf;
  return out;
}

std::string hash_hex(const Hash128& h) {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(h.hi),
                static_cast<unsigned long long>(h.lo));
  return buf;
}

Hash128 hash_testset(const TestSet& tests) {
  std::vector<std::uint64_t> words;
  words.push_back(tests.num_inputs());
  words.push_back(tests.size());
  for (std::size_t t = 0; t < tests.size(); ++t)
    for (const std::uint64_t w : tests[t].words()) words.push_back(w);
  return hash_words(words.data(), words.size(), /*seed=*/0x7e575e7);
}

Hash128 hash_faultlist(const FaultList& faults) {
  std::vector<std::uint64_t> words;
  words.reserve(faults.size() + 1);
  words.push_back(faults.size());
  for (const StuckFault& f : faults)
    words.push_back(static_cast<std::uint64_t>(f.gate) |
                    (static_cast<std::uint64_t>(
                         static_cast<std::uint16_t>(f.pin))
                     << 32) |
                    (static_cast<std::uint64_t>(f.value) << 48));
  return hash_words(words.data(), words.size(), /*seed=*/0xfa017);
}

}  // namespace sddict
