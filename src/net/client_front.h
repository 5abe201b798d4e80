// The client half of every line-protocol server: the poll() loop that
// NetServer (local DiagnosisService) and fleet::FleetProxy (backend pool)
// share. ClientFront owns everything a client sees before a request is
// handed off and after its reply exists:
//
//   accept      listeners (TCP and/or Unix), EINTR-retried accept, the
//               max_sessions cap (an explicit `busy` reply, then close);
//   read        nonblocking bounded reads into a FrameReader, the
//               frame-size cap (`error` reply, then close), `quit`;
//   order       one reply slot per frame; replies leave a session strictly
//               in request order, so a slow reply is never overtaken;
//   shed        the per-session in-flight cap is computed here, and every
//               busy reply is rendered here with one retry-after hint;
//   reap        idle, slow-loris (open partial frame) and stuck-writer
//               timeouts, and force-close on I/O failure;
//   drain       request_stop() stops accepting and reading, lets every
//               accepted request finish, then closes each session
//               gracefully, all bounded by drain_timeout_ms;
//   stats       the dispatcher publishes its counters once per loop tick,
//               before that tick's replies are written: a client that has
//               read a reply finds it counted in stats().
//
// What happens to a frame in between is the Dispatcher's business: it
// admits each command or datalog frame (a reply now, or a key whose reply
// the front polls for when that slot reaches the head of its session), and
// it may add fds of its own to the poll set. Dispatch is one virtual call
// per frame or per loop tick, never per bit or row.
#pragma once

#include <poll.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "net/server.h"
#include "util/fdio.h"

namespace sddict::net {

// Milliseconds on the steady clock since the first call in this process.
double monotonic_ms();

// What a dispatcher makes of one frame: a reply rendered now (key == 0),
// or the key of a reply the front collects later through resolve().
struct Admission {
  std::string reply;
  std::uint64_t key = 0;
};

class Dispatcher {
 public:
  virtual ~Dispatcher() = default;

  // One complete frame: a command other than `quit`, or a datalog (which
  // includes session verbs). session_full says the frame's session already
  // has session_inflight requests owed; the dispatcher decides where in
  // its admission path that cap applies.
  virtual Admission admit(Frame frame, bool session_full) = 0;
  // The reply for `key`, once it can be rendered. Called only for the
  // head slot of a session, so side effects happen in request order.
  virtual bool resolve(std::uint64_t key, std::string* reply) = 0;
  // Whether `key` is an owed request (counts toward the session cap).
  virtual bool owed(std::uint64_t key) const = 0;
  // The session holding `key` is gone; its reply is no longer wanted.
  virtual void abandon(std::uint64_t key) = 0;

  // Requests waiting for capacity (scales the retry-after hint).
  virtual std::size_t queued() const = 0;
  // Nothing admitted is still owed anywhere (drain may finish).
  virtual bool idle() const = 0;

  // Once per tick before poll(): append own fds, return the poll timeout.
  virtual int prepare_poll(double now, std::vector<pollfd>* fds) = 0;
  // Once per tick after the front's reads: `ready` holds the fds appended
  // by prepare_poll(), with their revents.
  virtual void pump(const pollfd* ready, std::size_t n, double now) = 0;
  // Once per tick, after replies are rendered and before they are written.
  virtual void publish() = 0;
};

class ClientFront {
 public:
  // Uses the listener, session, frame, timeout and busy fields of
  // `options`; admission limits past the session cap are the dispatcher's.
  ClientFront(Dispatcher& dispatch, const NetServerOptions& options);
  ~ClientFront();
  ClientFront(const ClientFront&) = delete;
  ClientFront& operator=(const ClientFront&) = delete;

  void start();  // binds and listens; throws std::runtime_error
  int tcp_port() const { return bound_tcp_port_; }
  void run();           // until request_stop(), then drains and returns
  void request_stop();  // async-signal-safe

  // Loop-thread accessors for dispatchers.
  bool draining() const { return draining_; }
  // Front-owned counters plus active_sessions (dispatcher fields zero).
  NetStats counters() const;
  // Counts one shed and renders its `busy retry_after_ms=N` reply.
  std::string busy();

 private:
  struct Session;

  void accept_ready(int listener);
  void read_ready(Session& s);
  void handle_frame(Session& s, Frame frame);
  void resolve_fronts(Session& s);
  void flush_writes(Session& s);
  void enforce_timeouts(Session& s, double now);
  void linger(Session& s);
  void force_close(Session& s, bool count_midframe);
  void close_listeners();

  Dispatcher& dispatch_;
  NetServerOptions options_;
  int tcp_listener_ = -1;
  int unix_listener_ = -1;
  int bound_tcp_port_ = -1;
  fdio::WakePipe wake_;
  std::atomic<bool> stop_requested_{false};
  bool draining_ = false;

  std::vector<std::unique_ptr<Session>> sessions_;  // in accept order
  NetStats live_;  // loop-thread-only
};

}  // namespace sddict::net
