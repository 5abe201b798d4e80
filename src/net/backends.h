// The two serving backends behind sddict_serve's front ends (NetServer and
// serve_stream, net/server.h): one packed signature store, or a whole
// repository catalog plus the admin verbs that maintain it. Both answer
// `session ...` frames.
//
// Repository admin verbs (each reply ends with `done`; a failure throws,
// and the front end renders it as `error <message>` + `done`):
//
//   !list                 catalog entries, one `artifact ...` line each
//   !use CIRCUIT [KIND]   switch the query target
//   !reload [CIRCUIT]     re-read the manifest and hot-swap the circuit's
//                         services to the newest version, without dropping
//                         in-flight requests; with max_chain > 0, chains
//                         deeper than it are squashed first
//   !stats                repository + per-service counters (per-version
//                         store bytes and delta-chain length included)
//   !compact [lossless|lossy:EPS]
//                         plan a test-set compaction of the current
//                         target's latest version, publish it as a
//                         drop-only delta, and hot-swap the service
//   !squash               collapse the current target's delta chain into
//                         a fresh full store version and hot-swap
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/server.h"
#include "repo/repository.h"
#include "session/service.h"

namespace sddict::net {

// Session verbs for the backends below: one SessionService diagnosing
// against whatever store service() serves at the time of each verb, so a
// hot swap is picked up (the engine is rebuilt only when the store
// changes).
class ServingBackend : public NetServer::Backend {
 public:
  bool handle_session(const std::string& frame_text,
                      std::ostream& out) override;

 protected:
  explicit ServingBackend(const SessionServiceOptions& options);

 private:
  SessionService sessions_;
};

// One store; admin verbs are refused.
class StoreBackend final : public ServingBackend {
 public:
  StoreBackend(std::shared_ptr<const SignatureStore> store,
               const ServiceOptions& options,
               const SessionServiceOptions& session_options = {})
      : ServingBackend(session_options), service_(std::move(store), options) {}
  DiagnosisService& service() override { return service_; }
  bool handle_admin(const std::vector<std::string>&, std::ostream&) override {
    return false;
  }

 private:
  DiagnosisService service_;
};

// A repository catalog: one hot-swappable DiagnosisService per (circuit,
// kind) the client has targeted, created from the catalog on first use.
class RepoBackend final : public ServingBackend {
 public:
  // An empty `circuit` leaves no target: queries fail until `!use`.
  RepoBackend(DictionaryRepository& repo, const ServiceOptions& options,
              std::string circuit,
              StoreSource kind = StoreSource::kSameDifferent,
              std::size_t max_chain = 0,
              const SessionServiceOptions& session_options = {});
  ~RepoBackend() override;

  // The current target's service, created on first use; throws when no
  // circuit is selected or the catalog cannot serve it.
  DiagnosisService& service() override;
  bool handle_admin(const std::vector<std::string>& tokens,
                    std::ostream& out) override;
  // The manifest version the current target serves; 0 before first use.
  // `!health` reports it so a fleet supervisor can check that every
  // backend flipped to the same version after a republish.
  std::uint64_t store_version() override;

 private:
  struct Served {
    StoreSource kind{};
    std::unique_ptr<DiagnosisService> service;
    std::uint64_t version = 0;
  };
  // (circuit, kind name): iterates in the order `!stats` prints.
  using Key = std::pair<std::string, std::string>;

  Key current_key() const;
  Served& current();
  // Epoch-consistent hot swap to the latest published version: in-flight
  // queries finish on the old store, everything after sees the new one.
  void swap_to_latest(const std::string& circuit, Served& s);

  DictionaryRepository& repo_;
  ServiceOptions options_;
  std::string circuit_;
  StoreSource kind_;
  std::map<Key, Served> served_;
  // Chains deeper than this are squashed on !reload (0 = maintenance off).
  std::size_t max_chain_;
};

}  // namespace sddict::net
