// Event-loop TCP (+ Unix-socket) front end over the DiagnosisService MPMC
// batcher: one poll() loop multiplexes every client session, so the
// serving tier survives bursty concurrent connections, slow-loris peers,
// mid-frame disconnects, and sustained overload. The loop and everything
// client-facing is net::ClientFront (net/client_front.h), shared with the
// fleet proxy; NetServer is its local dispatcher.
//
// Robustness model, in order of the request path:
//
//   accept      EINTR-retried; over max_sessions the connection gets a
//               best-effort `busy` reply and is closed (connection-level
//               admission control).
//   read        nonblocking, short-read/EINTR tolerant (util/fdio.h
//               failpoints inject both); per-session frame-size cap and
//               slow-loris/idle timers; a malformed datalog poisons only
//               its own reply (`error ... done`), never the loop.
//   admit       parsed requests enter a bounded server-side pending queue
//               and are fed to DiagnosisService::try_submit as capacity
//               allows (the loop never blocks in submit()). Three explicit
//               shed points, all answered with `busy retry_after_ms=N`,
//               never a silent drop: per-session in-flight cap, global
//               in-flight cap via the pending-queue overflow — which sheds
//               OLDEST-deadline-first, because under overload the oldest
//               queued request is the one whose client has waited longest
//               and is closest to giving up — and service-queue-full.
//   respond     per-session replies always drain in request order (admin
//               verbs and `stats` are sequenced in-order too); writes are
//               nonblocking with short-write tolerance and a no-progress
//               timeout.
//   shutdown    request_stop() (async-signal-safe) stops accepting and
//               reading, completes every accepted request, flushes every
//               reply, closes each session gracefully (FIN, then discard
//               input, so no reset destroys a reply), then returns from
//               run() — bounded by drain_timeout_ms.
//
// The loop itself is single-threaded; concurrency lives in the service's
// dispatcher/pool. stats() may be called from any thread.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "serve/diagnosis_service.h"

namespace sddict::net {

struct NetServerOptions {
  int tcp_port = -1;           // -1 = no TCP listener; 0 = kernel-assigned
  std::string bind_host = "127.0.0.1";
  std::string unix_path;       // empty = no Unix listener
  int backlog = 64;
  std::size_t max_sessions = 256;
  std::size_t max_inflight = 64;     // requests dispatched into the service
  std::size_t session_inflight = 8;  // unresolved requests per session
  std::size_t max_pending = 128;     // parsed-but-undispatched (shed beyond)
  std::size_t max_frame_bytes = 1 << 20;
  double idle_timeout_ms = 30000;    // connected but silent, nothing owed
  double frame_timeout_ms = 10000;   // an open partial frame (slow loris)
  double write_timeout_ms = 10000;   // reply owed but no write progress
  double drain_timeout_ms = 30000;   // hard bound on shutdown drain
  std::uint32_t busy_retry_ms = 25;  // base retry-after hint, scaled by load
};

// Counter snapshot. Gauges (active_sessions/pending/in_flight) are
// point-in-time; everything else is monotone.
struct NetStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_sessions = 0;  // over max_sessions at accept
  std::uint64_t frames = 0;             // complete datalog frames parsed
  std::uint64_t responses = 0;          // diagnosis/error replies rendered
  std::uint64_t busy_shed = 0;          // explicit busy replies, all causes
  std::uint64_t malformed = 0;          // datalogs the reader rejected
  std::uint64_t oversize = 0;           // frame-size cap closures
  std::uint64_t idle_reaped = 0;
  std::uint64_t frame_reaped = 0;       // slow-loris partial frames
  std::uint64_t write_reaped = 0;       // write-progress timeouts
  std::uint64_t midframe_disconnects = 0;
  std::uint64_t io_errors = 0;          // hard read/write failures
  std::uint64_t active_sessions = 0;
  std::uint64_t pending = 0;
  std::uint64_t in_flight = 0;
};

std::string format_net_stats(const NetStats& s);

class ClientFront;

// The local dispatcher behind the shared client front end
// (net/client_front.h): parsed datalogs queue in a bounded pending deque
// and are fed to DiagnosisService::try_submit as capacity allows.
class NetServer {
 public:
  // How the loop reaches the serving layer. service() resolves the
  // current dispatch target (may throw — the thrown message becomes the
  // reply); handle_admin() services `!verb` lines, returning false when
  // admin is unsupported (single-store mode). Both are called only from
  // the loop thread.
  struct Backend {
    virtual ~Backend() = default;
    virtual DiagnosisService& service() = 0;
    virtual bool handle_admin(const std::vector<std::string>& tokens,
                              std::ostream& out) = 0;
    // Services one complete `session ...` frame (see session/service.h),
    // writing the full reply including its closing `done`. Executed
    // inline on the loop thread, in request order, exactly like admin
    // verbs — session state is loop-thread-owned and needs no locking.
    // Returns false when session verbs are unsupported.
    virtual bool handle_session(const std::string& frame_text,
                                std::ostream& out) {
      (void)frame_text;
      (void)out;
      return false;
    }
    // The store version currently served (repository mode); 0 when the
    // backend has no versioning (single-store mode). Reported by the
    // `!health` verb so fleet supervisors can verify epoch consistency.
    virtual std::uint64_t store_version() { return 0; }
  };

  NetServer(Backend& backend, const NetServerOptions& options);
  ~NetServer();
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  // Binds and listens on the configured endpoints; throws
  // std::runtime_error on failure. Call before run().
  void start();
  // The actually-bound TCP port (after start(); kernel-assigned when the
  // option was 0), or -1 without a TCP listener.
  int tcp_port() const;

  // Runs the event loop until request_stop(), then drains and returns.
  void run();

  // Async-signal-safe stop request; run() drains and returns.
  void request_stop();

  NetStats stats() const;

 private:
  class Local;  // the Dispatcher implementation (server.cpp)

  std::unique_ptr<Local> local_;
  std::unique_ptr<ClientFront> front_;
};

// Serves one request stream serially (sddict_serve's stdio mode) through
// the event loop's framer and command code, so every reply byte matches a
// NetServer connection's except `timing` lines and `stats`, which carries
// no net counters here. Datalogs go through the blocking
// DiagnosisService::submit (backpressure applies; a reply is never
// `busy`), and replies come back in request order, one flush each:
// resolved ones after every datalog, all owed ones before every command,
// session frame, `quit` and EOF. Returns on `quit`, on EOF (an
// unterminated datalog is dropped) or after answering a frame over
// options.max_frame_bytes with the event loop's error.
void serve_stream(NetServer::Backend& backend, const NetServerOptions& options,
                  std::istream& in, std::ostream& out);

}  // namespace sddict::net
