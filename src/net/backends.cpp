#include "net/backends.h"

#include <charconv>
#include <ostream>
#include <stdexcept>

#include "compact/repo_compact.h"

namespace sddict::net {

ServingBackend::ServingBackend(const SessionServiceOptions& options)
    : sessions_(
          [this, cache = std::make_shared<SessionEngineCache>()] {
            return cache->get(service().current_store());
          },
          options) {}

bool ServingBackend::handle_session(const std::string& frame_text,
                                    std::ostream& out) {
  sessions_.handle(frame_text, out);
  return true;
}

RepoBackend::RepoBackend(DictionaryRepository& repo,
                         const ServiceOptions& options, std::string circuit,
                         StoreSource kind, std::size_t max_chain,
                         const SessionServiceOptions& session_options)
    : ServingBackend(session_options),
      repo_(repo),
      options_(options),
      circuit_(std::move(circuit)),
      kind_(kind),
      max_chain_(max_chain) {}

RepoBackend::~RepoBackend() = default;

RepoBackend::Key RepoBackend::current_key() const {
  return {circuit_, store_source_name(kind_)};
}

RepoBackend::Served& RepoBackend::current() {
  if (circuit_.empty())
    throw std::runtime_error("no circuit selected (use !use CIRCUIT)");
  auto it = served_.find(current_key());
  if (it == served_.end()) {
    auto service = std::make_unique<DiagnosisService>(
        repo_.acquire(circuit_, kind_), options_);
    it = served_
             .emplace(current_key(),
                      Served{kind_, std::move(service),
                             repo_.latest_version(circuit_, kind_)})
             .first;
  }
  return it->second;
}

DiagnosisService& RepoBackend::service() { return *current().service; }

std::uint64_t RepoBackend::store_version() {
  const auto it = served_.find(current_key());
  return it == served_.end() ? 0 : it->second.version;
}

void RepoBackend::swap_to_latest(const std::string& circuit, Served& s) {
  s.service->swap_store(repo_.acquire(circuit, s.kind));
  s.version = repo_.latest_version(circuit, s.kind);
}

bool RepoBackend::handle_admin(const std::vector<std::string>& tokens,
                               std::ostream& out) {
  const std::string& verb = tokens[0];
  if (verb == "!list") {
    for (const ManifestEntry& e : repo_.manifest().entries) {
      // Established fields stay a stable prefix (CI greps them); the
      // chain/delta maintenance fields are appended after.
      out << "artifact circuit=" << e.circuit
          << " kind=" << store_source_name(e.kind) << " version=" << e.version
          << " bytes=" << e.bytes
          << " chain=" << repo_.chain_length_of(e.circuit, e.kind, e.version);
      if (e.is_delta)
        out << " base=" << e.base_version << " added=" << e.added_tests
            << " dropped=" << encode_index_ranges(e.dropped);
      out << " file=" << (e.file.empty() ? "-" : e.file) << "\n";
    }
  } else if (verb == "!use") {
    if (tokens.size() < 2 || tokens.size() > 3)
      throw std::runtime_error("usage: !use CIRCUIT [KIND]");
    StoreSource kind = StoreSource::kSameDifferent;
    if (tokens.size() == 3 && !parse_store_source(tokens[2], &kind))
      throw std::runtime_error("unknown kind '" + tokens[2] + "'");
    circuit_ = tokens[1];
    kind_ = kind;
    DiagnosisService& svc = service();  // load now, so failures land here
    out << "using circuit=" << circuit_
        << " kind=" << store_source_name(kind_)
        << " faults=" << svc.num_faults() << " tests=" << svc.num_tests()
        << "\n";
  } else if (verb == "!reload") {
    if (tokens.size() > 2) throw std::runtime_error("usage: !reload [CIRCUIT]");
    const std::string target = tokens.size() == 2 ? tokens[1] : circuit_;
    if (target.empty())
      throw std::runtime_error("no circuit selected (use !reload CIRCUIT)");
    repo_.reload();
    std::size_t swapped = 0;
    std::size_t squashed = 0;
    for (auto& [key, s] : served_) {
      if (key.first != target) continue;
      // Chain maintenance: a reload of a chain deeper than max_chain
      // squashes it first, so the swap lands on the collapsed store.
      if (max_chain_ > 0 && repo_.squash(target, s.kind, max_chain_).squashed)
        ++squashed;
      swap_to_latest(target, s);
      ++swapped;
    }
    // `swapped=` stays the line's final established field (CI greps the
    // prefix); the maintenance counter only appears when armed.
    out << "reloaded circuit=" << target << " swapped=" << swapped;
    if (max_chain_ > 0) out << " squashed=" << squashed;
    out << "\n";
  } else if (verb == "!stats") {
    out << "stats " << format_repository_stats(repo_.stats()) << "\n";
    for (const auto& [key, s] : served_)
      out << "stats circuit=" << key.first << " kind=" << key.second << " "
          << format_service_stats(s.service->stats())
          << " version=" << s.version << " chain="
          << repo_.chain_length_of(key.first, s.kind, s.version)
          << " store_bytes=" << s.service->current_store()->size_bytes()
          << "\n";
  } else if (verb == "!compact") {
    if (tokens.size() > 2)
      throw std::runtime_error("usage: !compact [lossless|lossy:EPS]");
    CompactionOptions copts;
    if (tokens.size() == 2 && tokens[1] != "lossless") {
      if (tokens[1].rfind("lossy:", 0) != 0)
        throw std::runtime_error("unknown compaction mode '" + tokens[1] +
                                 "' (have lossless lossy:EPS)");
      // Decimal digits only: from_chars takes no sign for an unsigned
      // target, so `lossy:-1` cannot wrap to an unbounded budget.
      const std::string eps = tokens[1].substr(6);
      const char* end = eps.data() + eps.size();
      const auto [ptr, ec] =
          std::from_chars(eps.data(), end, copts.max_resolution_loss);
      if (ec != std::errc() || ptr != end)
        throw std::runtime_error("bad lossy budget '" + eps + "'");
    }
    Served& s = current();  // resolves the target, or throws
    const RepoCompaction rc = compact_published(repo_, circuit_, kind_, copts);
    if (rc.published) swap_to_latest(circuit_, s);
    out << "compacted circuit=" << circuit_
        << " kind=" << store_source_name(kind_)
        << " version=" << rc.entry.version
        << " tests=" << rc.report.tests_before << "->" << rc.report.tests_after
        << " dropped=" << rc.report.dropped.size()
        << " pairs=" << rc.report.pairs_before << "->" << rc.report.pairs_after
        << " bytes=" << rc.report.bytes_before << "->" << rc.report.bytes_after
        << " published=" << (rc.published ? 1 : 0)
        << " swapped=" << (rc.published ? 1 : 0) << "\n";
  } else if (verb == "!squash") {
    if (tokens.size() > 1) throw std::runtime_error("usage: !squash");
    Served& s = current();
    const SquashResult r = repo_.squash(circuit_, kind_);
    if (r.squashed) swap_to_latest(circuit_, s);
    out << "squashed circuit=" << circuit_
        << " kind=" << store_source_name(kind_)
        << " version=" << r.entry.version
        << " chain_before=" << r.chain_before << " bytes=" << r.entry.bytes
        << " swapped=" << (r.squashed ? 1 : 0) << "\n";
  } else {
    throw std::runtime_error(
        "unknown admin verb " + verb +
        " (have !list !use !reload !stats !compact !squash)");
  }
  out << "done\n";
  return true;
}

}  // namespace sddict::net
