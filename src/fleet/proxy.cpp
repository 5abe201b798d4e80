#include "fleet/proxy.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <set>
#include <sstream>

#include "util/failpoint.h"
#include "util/strings.h"

namespace sddict::fleet {

namespace {

std::uint64_t parse_field(const std::vector<std::string>& tokens,
                          const std::string& name) {
  const std::string prefix = name + "=";
  for (const std::string& t : tokens)
    if (starts_with(t, prefix))
      return std::strtoull(t.c_str() + prefix.size(), nullptr, 10);
  return 0;
}

// The front end takes the client-side fields; the proxy has no Unix
// listener, and its admission limit past the session cap is queue_.
net::NetServerOptions front_options(const ProxyOptions& p) {
  net::NetServerOptions o;
  o.tcp_port = p.tcp_port;
  o.bind_host = p.bind_host;
  o.backlog = p.backlog;
  o.max_sessions = p.max_sessions;
  o.session_inflight = p.session_inflight;
  o.max_pending = p.max_pending;
  o.max_frame_bytes = p.max_frame_bytes;
  o.idle_timeout_ms = p.idle_timeout_ms;
  o.frame_timeout_ms = p.frame_timeout_ms;
  o.write_timeout_ms = p.write_timeout_ms;
  o.drain_timeout_ms = p.drain_timeout_ms;
  o.busy_retry_ms = p.busy_retry_ms;
  return o;
}

}  // namespace

std::string format_proxy_stats(const ProxyStats& s) {
  std::ostringstream out;
  out << "accepted=" << s.accepted << " frames=" << s.frames
      << " responses=" << s.responses
      << " busy_shed=" << s.busy_shed << " failovers=" << s.failovers
      << " backend_disconnects=" << s.backend_disconnects
      << " ejections=" << s.ejections
      << " reinstatements=" << s.reinstatements << " respawns=" << s.respawns
      << " flips=" << s.flips << " rolling_restarts=" << s.rolling_restarts
      << " probes=" << s.probes << " probe_failures=" << s.probe_failures
      << " io_errors=" << s.io_errors << " sessions=" << s.active_sessions
      << " pending=" << s.pending << " proxy_in_flight=" << s.in_flight
      << " backends_healthy=" << s.backends_healthy
      << " backends_total=" << s.backends_total;
  return out.str();
}

// One client request, or the deferred reply of a fleet op (empty frame,
// never queued), until the front collects its reply.
struct FleetProxy::RequestRec {
  std::string frame;  // the complete datalog text, resent verbatim on failover
  int attempts = 0;   // dispatches so far (capped at max_failovers)
  int backend = -1;   // id it is outstanding on; -1 = not on a backend
  bool orphaned = false;  // the client is gone; drop the reply
  bool done = false;      // `reply` is final
  std::string reply;
};

// One connection per backend, carrying datalog requests and admin ops
// (probes, reloads) interleaved. The line protocol replies strictly in
// request order per connection, so replies are matched FIFO against ops.
struct FleetProxy::BackendConn {
  enum class Health {
    kDown,        // no process/port, or waiting out a reconnect delay
    kConnecting,  // nonblocking connect in flight
    kEntering,    // connected; entry !reload sent, ack pending
    kHealthy,     // in rotation
    kDraining,    // in rotation for replies only (rolling restart)
    kEjected,     // circuit open; waiting out probation_ms
    kProbation,   // reconnected; probing toward reinstatement
  };
  struct Op {
    enum class Kind { kRequest, kProbe, kReload };
    Kind kind = Kind::kRequest;
    std::uint64_t key = 0;  // kRequest only
    double sent_ms = 0;
  };

  FleetBackendAddr addr;
  std::uint64_t seen_generation = 0;       // last generation observed
  std::uint64_t connected_generation = 0;  // generation this fd talks to
  int fd = -1;
  bool connecting = false;
  Health health = Health::kDown;
  bool was_ejected = false;  // reinstatement (not first-entry) path
  std::string inbuf;
  std::string outbuf;
  std::string reply;  // accumulating reply for ops.front()
  std::deque<Op> ops;
  double connect_started_ms = 0;
  double reconnect_after_ms = 0;
  double last_probe_ms = -1e18;
  double ejected_at_ms = 0;
  int consecutive_failures = 0;
  int probation_successes = 0;
  // Last parsed !health reply.
  std::uint64_t health_inflight = 0;
  std::uint64_t version = 0;
  double last_health_ms = -1e18;

  std::size_t request_ops() const {
    std::size_t n = 0;
    for (const Op& op : ops)
      if (op.kind == Op::Kind::kRequest) ++n;
    return n;
  }
  bool probe_outstanding() const {
    for (const Op& op : ops)
      if (op.kind == Op::Kind::kProbe) return true;
    return false;
  }
  bool in_rotation() const {
    return health == Health::kHealthy || health == Health::kDraining;
  }
  const char* health_name() const {
    switch (health) {
      case Health::kDown: return "down";
      case Health::kConnecting: return "connecting";
      case Health::kEntering: return "entering";
      case Health::kHealthy: return "healthy";
      case Health::kDraining: return "draining";
      case Health::kEjected: return "ejected";
      case Health::kProbation: return "probation";
    }
    return "?";
  }
};

// At most one fleet-wide operation runs at a time; its reply is deferred
// until the state machine completes (or op_timeout_ms aborts it).
struct FleetProxy::FleetOp {
  enum class Kind { kFlip, kRolling };
  Kind kind = Kind::kFlip;
  std::uint64_t key = 0;  // the RequestRec the reply goes to
  double started_ms = 0;
  // Flip: 1 = quiescing, 2 = reloads outstanding.
  int phase = 1;
  std::set<int> awaiting;  // backend ids whose reload ack is pending
  // Rolling restart.
  enum class RollStage { kPick, kDrain, kAwaitHealthZero, kAwaitRespawn };
  RollStage roll_stage = RollStage::kPick;
  std::vector<int> order;
  std::size_t idx = 0;
  std::uint64_t gen_at_drain = 0;
  double drain_started_ms = 0;
  int restarted = 0;
};

FleetProxy::FleetProxy(BackendSource& source, const ProxyOptions& options)
    : source_(source), options_(options), front_(*this, front_options(options)) {}

FleetProxy::~FleetProxy() {
  for (auto& b : backends_)
    if (b->fd >= 0) ::close(b->fd);
}

void FleetProxy::start() { front_.start(); }
void FleetProxy::request_stop() { front_.request_stop(); }

ProxyStats FleetProxy::stats() const {
  std::lock_guard<std::mutex> lk(stats_mutex_);
  return stats_;
}

void FleetProxy::publish() {
  const ProxyStats s = snapshot_live();
  std::lock_guard<std::mutex> lk(stats_mutex_);
  stats_ = s;
}

ProxyStats FleetProxy::snapshot_live() const {
  const net::NetStats front = front_.counters();
  ProxyStats s = live_;
  s.accepted = front.accepted;
  s.frames = front.frames;
  s.responses = front.responses;
  s.busy_shed = front.busy_shed;
  s.io_errors += front.io_errors;
  s.active_sessions = front.active_sessions;
  s.pending = queue_.size();
  std::uint64_t inflight = 0, healthy = 0;
  for (const auto& b : backends_) {
    inflight += b->request_ops();
    if (b->health == BackendConn::Health::kHealthy) ++healthy;
  }
  s.in_flight = inflight;
  s.backends_healthy = healthy;
  s.backends_total = backends_.size();
  s.respawns = view_.respawns;
  return s;
}

// ------------------------------------------------------- client side --

net::Admission FleetProxy::admit(net::Frame frame, bool session_full) {
  if (frame.type == net::Frame::Type::kCommand) return command(frame.tokens);
  if (session_full || queue_.size() >= options_.max_pending)
    return {front_.busy()};
  auto rec = std::make_unique<RequestRec>();
  rec->frame = std::move(frame.text);
  const std::uint64_t key = next_key_++;
  queue_.push_back(key);
  requests_.emplace(key, std::move(rec));
  return {"", key};
}

bool FleetProxy::resolve(std::uint64_t key, std::string* reply) {
  auto it = requests_.find(key);
  if (!it->second->done) return false;
  *reply = std::move(it->second->reply);
  requests_.erase(it);
  return true;
}

bool FleetProxy::owed(std::uint64_t key) const {
  return !requests_.at(key)->done;
}

// Requests outstanding on a backend become orphans — the backend will
// still answer them (they hold its capacity), and the reply is dropped on
// arrival. Everything else is erased (dispatch() skips missing keys).
void FleetProxy::abandon(std::uint64_t key) {
  auto it = requests_.find(key);
  if (it->second->backend >= 0)
    it->second->orphaned = true;
  else
    requests_.erase(it);
}

net::Admission FleetProxy::command(const std::vector<std::string>& tokens) {
  std::ostringstream os;
  if (tokens.size() == 1 && tokens[0] == "stats") {
    os << "stats " << format_proxy_stats(snapshot_live()) << "\n";
  } else if (tokens.size() == 1 && tokens[0] == "!health") {
    const ProxyStats ps = snapshot_live();
    os << "health state=" << (front_.draining() ? "draining" : "ok")
       << " healthy=" << ps.backends_healthy
       << " total=" << ps.backends_total << " pending=" << ps.pending
       << " in_flight=" << ps.in_flight << "\n";
  } else if (tokens.size() == 1 && tokens[0] == "!fleet") {
    render_fleet(os);
  } else if (tokens.size() == 1 &&
             (tokens[0] == "!reload" || tokens[0] == "!rolling")) {
    if (op_ != nullptr) {
      net::write_error(os, "fleet operation already in progress");
    } else {
      op_ = std::make_unique<FleetOp>();
      op_->kind = tokens[0] == "!reload" ? FleetOp::Kind::kFlip
                                         : FleetOp::Kind::kRolling;
      op_->key = next_key_++;
      op_->started_ms = net::monotonic_ms();
      if (op_->kind == FleetOp::Kind::kFlip) {
        // Phase 1: quiesce. New work queues behind the flip; the flip
        // completes when nothing is running anywhere.
        dispatch_paused_ = true;
      } else {
        for (const auto& b : backends_)
          if (b->health == BackendConn::Health::kHealthy)
            op_->order.push_back(b->addr.id);
      }
      // The reply is deferred until the op completes.
      requests_.emplace(op_->key, std::make_unique<RequestRec>());
      return {"", op_->key};
    }
  } else {
    net::write_error(os, "unknown verb " + (tokens.empty() ? "" : tokens[0]) +
                             " (have stats !health !fleet !reload !rolling"
                             " quit)");
  }
  return {os.str()};
}

void FleetProxy::render_fleet(std::ostream& os) const {
  for (const auto& b : backends_) {
    os << "backend id=" << b->addr.id << " pid=" << b->addr.pid
       << " gen=" << b->addr.generation << " addr=" << b->addr.host << ":"
       << b->addr.port << " state=" << b->health_name()
       << " version=" << b->version << " inflight=" << b->request_ops()
       << " fails=" << b->consecutive_failures << "\n";
  }
  std::uint64_t healthy = 0;
  for (const auto& b : backends_)
    if (b->health == BackendConn::Health::kHealthy) ++healthy;
  os << "fleet healthy=" << healthy << " total=" << backends_.size()
     << " respawns=" << view_.respawns << " failovers=" << live_.failovers
     << " ejections=" << live_.ejections << " flips=" << live_.flips
     << "\n"
     << "done\n";
}

// ------------------------------------------------------ backend side --

void FleetProxy::sync_backends(double now) {
  while (backends_.size() < view_.backends.size()) {
    auto b = std::make_unique<BackendConn>();
    b->addr = view_.backends[backends_.size()];
    backends_.push_back(std::move(b));
  }
  for (std::size_t i = 0; i < view_.backends.size(); ++i) {
    BackendConn& b = *backends_[i];
    b.addr = view_.backends[i];
    if (b.addr.generation != b.seen_generation) {
      // A respawn: any existing connection talks to a corpse, and the
      // fresh process deserves a fresh circuit breaker.
      b.seen_generation = b.addr.generation;
      if (b.fd >= 0 || b.connecting) backend_conn_lost(b, now, true);
      b.consecutive_failures = 0;
      b.was_ejected = false;
      b.health = BackendConn::Health::kDown;
      b.reconnect_after_ms = now;
    }
    if ((b.fd >= 0 || b.connecting) && b.addr.port < 0) {
      // The supervisor says the process is gone; don't wait for EOF.
      backend_conn_lost(b, now, true);
    }
    if (b.fd < 0 && !b.connecting && b.addr.port >= 0 &&
        now >= b.reconnect_after_ms) {
      if (b.health == BackendConn::Health::kEjected) {
        if (now - b.ejected_at_ms >= options_.probation_ms)
          connect_backend(b, now);
      } else {
        connect_backend(b, now);
      }
    }
    if (b.connecting &&
        now - b.connect_started_ms > options_.probe_timeout_ms) {
      backend_conn_lost(b, now, false);  // connect() never completed
    }
  }
}

void FleetProxy::connect_backend(BackendConn& b, double now) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    ++live_.io_errors;
    b.reconnect_after_ms = now + options_.probe_interval_ms;
    return;
  }
  fdio::set_nonblocking(fd);
  fdio::set_cloexec(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(b.addr.port));
  if (::inet_pton(AF_INET, b.addr.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    b.reconnect_after_ms = now + options_.probe_interval_ms;
    return;
  }
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                           sizeof addr);
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    b.reconnect_after_ms = now + options_.probe_interval_ms;
    return;
  }
  b.fd = fd;
  b.connected_generation = b.addr.generation;
  b.connect_started_ms = now;
  b.inbuf.clear();
  b.outbuf.clear();
  b.reply.clear();
  if (rc == 0) {
    b.connecting = false;
    on_backend_connected(b, now);
  } else {
    b.connecting = true;
    b.health = BackendConn::Health::kConnecting;
  }
}

void FleetProxy::on_backend_connected(BackendConn& b, double now) {
  b.connecting = false;
  if (b.was_ejected) {
    // Reinstatement path: earn reinstate_after_successes probe successes
    // before the entry reload readmits it.
    b.health = BackendConn::Health::kProbation;
    b.probation_successes = 0;
    b.last_probe_ms = -1e18;
  } else {
    // Uniform entry rule: every backend joining rotation reloads first,
    // so it provably serves the newest published version no matter when
    // its process last read the manifest.
    b.health = BackendConn::Health::kEntering;
    b.outbuf += "!reload\n";
    b.ops.push_back({BackendConn::Op::Kind::kReload, 0, now});
    backend_flush(b);
  }
}

// Closes the connection (if open) and fails over every request that was
// outstanding on it: keys go back to the FRONT of the queue in their
// original order, so failover never reorders a session's requests.
void FleetProxy::close_backend(BackendConn& b, bool count_disconnect) {
  if (b.fd < 0 && !b.connecting) return;
  if (count_disconnect) ++live_.backend_disconnects;
  ::close(b.fd);
  b.fd = -1;
  b.connecting = false;
  b.inbuf.clear();
  b.outbuf.clear();
  b.reply.clear();
  std::vector<std::uint64_t> keys;  // oldest first
  for (const BackendConn::Op& op : b.ops)
    if (op.kind == BackendConn::Op::Kind::kRequest) keys.push_back(op.key);
  // A pending flip must not wait forever for an ack this backend can no
  // longer send; it re-enters via the entry reload instead.
  if (op_ != nullptr && op_->kind == FleetOp::Kind::kFlip)
    op_->awaiting.erase(b.addr.id);
  b.ops.clear();
  for (auto it = keys.rbegin(); it != keys.rend(); ++it) requeue_or_fail(*it);
}

void FleetProxy::backend_conn_lost(BackendConn& b, double now,
                                   bool count_disconnect) {
  close_backend(b, count_disconnect);
  ++b.consecutive_failures;
  b.probation_successes = 0;
  if (b.was_ejected || b.health == BackendConn::Health::kProbation ||
      b.health == BackendConn::Health::kEjected) {
    b.health = BackendConn::Health::kEjected;
    b.ejected_at_ms = now;
  } else if (b.in_rotation() &&
             b.consecutive_failures >= options_.eject_after_failures) {
    ++live_.ejections;
    b.was_ejected = true;
    b.health = BackendConn::Health::kEjected;
    b.ejected_at_ms = now;
  } else {
    b.health = BackendConn::Health::kDown;
    b.reconnect_after_ms = now + options_.probe_interval_ms;
  }
}

void FleetProxy::requeue_or_fail(std::uint64_t key) {
  auto it = requests_.find(key);
  if (it == requests_.end()) return;
  RequestRec& rec = *it->second;
  rec.backend = -1;
  if (rec.orphaned) {
    requests_.erase(it);  // nobody is owed the reply anymore
    return;
  }
  if (rec.attempts >= options_.max_failovers) {
    std::ostringstream os;
    net::write_error(os, "backend unavailable (gave up after " +
                             std::to_string(rec.attempts) + " attempts)");
    finish_request(key, os.str());
    return;
  }
  ++live_.failovers;
  queue_.push_front(key);
}

void FleetProxy::finish_request(std::uint64_t key, std::string reply_text) {
  auto it = requests_.find(key);
  if (it == requests_.end()) return;
  RequestRec& rec = *it->second;
  if (rec.orphaned) {
    requests_.erase(it);
    return;
  }
  rec.backend = -1;
  rec.done = true;
  rec.reply = std::move(reply_text);
}

void FleetProxy::backend_flush(BackendConn& b) {
  while (!b.outbuf.empty() && b.fd >= 0 && !b.connecting) {
    if (failpoint::triggered("fleet.backend.reset")) {
      // Chaos hook: sever the data path mid-conversation; everything
      // outstanding fails over exactly as it would on a real death.
      backend_conn_lost(b, net::monotonic_ms(), true);
      return;
    }
    const fdio::IoResult r =
        fdio::write_some(b.fd, b.outbuf.data(), b.outbuf.size());
    if (r.would_block) return;
    if (r.failed) {
      ++live_.io_errors;
      backend_conn_lost(b, net::monotonic_ms(), true);
      return;
    }
    if (r.n > 0) b.outbuf.erase(0, static_cast<std::size_t>(r.n));
  }
}

void FleetProxy::backend_read_ready(BackendConn& b, double now) {
  char buf[4096];
  for (int round = 0; round < 8 && b.fd >= 0; ++round) {
    const fdio::IoResult r = fdio::read_some(b.fd, buf, sizeof buf);
    if (r.would_block) break;
    if (r.failed || r.n == 0) {
      if (r.failed) ++live_.io_errors;
      backend_conn_lost(b, now, true);
      return;
    }
    b.inbuf.append(buf, static_cast<std::size_t>(r.n));
    std::size_t nl;
    while (b.fd >= 0 && (nl = b.inbuf.find('\n')) != std::string::npos) {
      std::string line = b.inbuf.substr(0, nl);
      b.inbuf.erase(0, nl + 1);
      consume_backend_line(b, std::move(line), now);
    }
  }
}

void FleetProxy::consume_backend_line(BackendConn& b, std::string line,
                                      double now) {
  if (b.ops.empty()) {
    // A reply nobody asked for: protocol violation; drop the connection.
    ++live_.io_errors;
    backend_conn_lost(b, now, true);
    return;
  }
  BackendConn::Op& front = b.ops.front();
  if (front.kind == BackendConn::Op::Kind::kProbe && b.reply.empty() &&
      starts_with(line, "health ")) {
    b.ops.pop_front();
    probe_success(b, split_ws(line), now);
    return;
  }
  const bool done = line == "done";
  b.reply += line;
  b.reply += '\n';
  if (!done) return;
  std::string reply = std::move(b.reply);
  b.reply.clear();
  const BackendConn::Op op = front;
  b.ops.pop_front();
  switch (op.kind) {
    case BackendConn::Op::Kind::kRequest:
      finish_request(op.key, std::move(reply));
      break;
    case BackendConn::Op::Kind::kProbe:
      // A probe answered with error...done (e.g. no circuit selected yet).
      probe_failure(b, now);
      break;
    case BackendConn::Op::Kind::kReload: {
      const bool ok = starts_with(reply, "reloaded");
      if (b.health == BackendConn::Health::kEntering) {
        if (ok) {
          b.health = BackendConn::Health::kHealthy;
          if (b.was_ejected) {
            ++live_.reinstatements;
            b.was_ejected = false;
          }
        } else {
          // Can't prove it serves the current version; keep it out.
          backend_conn_lost(b, now, false);
        }
      } else if (op_ != nullptr && op_->kind == FleetOp::Kind::kFlip) {
        op_->awaiting.erase(b.addr.id);
        if (!ok) {
          // This backend missed the flip; eject it so the entry reload
          // re-proves its version before it serves again.
          ++live_.ejections;
          b.was_ejected = true;
          backend_conn_lost(b, now, false);
        }
      }
      break;
    }
  }
}

void FleetProxy::probe_success(BackendConn& b,
                               const std::vector<std::string>& tokens,
                               double now) {
  b.consecutive_failures = 0;
  b.health_inflight = parse_field(tokens, "in_flight");
  b.version = parse_field(tokens, "version");
  b.last_health_ms = now;
  if (b.health == BackendConn::Health::kProbation) {
    if (++b.probation_successes >= options_.reinstate_after_successes) {
      b.health = BackendConn::Health::kEntering;
      b.outbuf += "!reload\n";
      b.ops.push_back({BackendConn::Op::Kind::kReload, 0, now});
      backend_flush(b);
    }
  }
}

void FleetProxy::probe_failure(BackendConn& b, double now) {
  ++live_.probe_failures;
  b.probation_successes = 0;
  ++b.consecutive_failures;
  if (b.in_rotation() &&
      b.consecutive_failures >= options_.eject_after_failures) {
    ++live_.ejections;
    b.was_ejected = true;
    close_backend(b, false);
    b.health = BackendConn::Health::kEjected;
    b.ejected_at_ms = now;
  } else if (b.health == BackendConn::Health::kProbation) {
    close_backend(b, false);
    b.health = BackendConn::Health::kEjected;
    b.ejected_at_ms = now;
  }
}

void FleetProxy::probe_backends(double now) {
  for (const auto& bp : backends_) {
    BackendConn& b = *bp;
    if (b.fd < 0 || b.connecting) continue;
    // A wedged backend (alive but silent) must not hold requests hostage:
    // when the OLDEST outstanding op has had no complete reply for
    // probe_timeout_ms, the connection is declared dead and everything
    // on it fails over. Diagnosis replies normally land in microseconds;
    // the deadline only fires for genuine wedges.
    if (!b.ops.empty() &&
        now - b.ops.front().sent_ms > options_.probe_timeout_ms) {
      ++live_.probe_failures;
      backend_conn_lost(b, now, true);
      continue;
    }
    const bool probeable = b.in_rotation() ||
                           b.health == BackendConn::Health::kProbation;
    if (probeable && !b.probe_outstanding() &&
        now - b.last_probe_ms >= options_.probe_interval_ms) {
      b.last_probe_ms = now;
      ++live_.probes;
      b.outbuf += "!health\n";
      b.ops.push_back({BackendConn::Op::Kind::kProbe, 0, now});
      backend_flush(b);
    }
  }
}

void FleetProxy::dispatch(double now) {
  if (dispatch_paused_) return;
  while (!queue_.empty()) {
    // Round-robin over dispatchable backends, resuming after the one the
    // previous request landed on.
    BackendConn* target = nullptr;
    const std::size_t n = backends_.size();
    for (std::size_t probe = 0; probe < n; ++probe) {
      BackendConn& cand = *backends_[(rr_cursor_ + 1 + probe) % n];
      if (cand.health != BackendConn::Health::kHealthy || cand.fd < 0 ||
          cand.connecting)
        continue;
      if (cand.request_ops() >= options_.backend_inflight) continue;
      target = &cand;
      rr_cursor_ = (rr_cursor_ + 1 + probe) % n;
      break;
    }
    if (target == nullptr) return;  // nobody can take work right now
    const std::uint64_t key = queue_.front();
    queue_.pop_front();
    auto it = requests_.find(key);
    if (it == requests_.end()) continue;  // its session died while queued
    RequestRec& rec = *it->second;
    ++rec.attempts;
    rec.backend = target->addr.id;
    target->outbuf += rec.frame;
    target->ops.push_back({BackendConn::Op::Kind::kRequest, key, now});
    backend_flush(*target);
  }
}

// ----------------------------------------------------- fleet ops ------

void FleetProxy::finish_fleet_op(std::string text) {
  const std::uint64_t key = op_->key;
  op_.reset();
  dispatch_paused_ = false;
  finish_request(key, std::move(text));
}

void FleetProxy::step_fleet_op(double now) {
  if (op_ == nullptr) return;
  if (now - op_->started_ms > options_.op_timeout_ms) {
    if (op_->kind == FleetOp::Kind::kRolling) {
      // Put the half-drained backend back to work.
      for (const auto& b : backends_)
        if (b->health == BackendConn::Health::kDraining)
          b->health = BackendConn::Health::kHealthy;
    }
    std::ostringstream os;
    net::write_error(os, "fleet operation timed out");
    finish_fleet_op(os.str());
    return;
  }
  if (op_->kind == FleetOp::Kind::kFlip) {
    if (op_->phase == 1) {
      std::size_t inflight = 0;
      for (const auto& b : backends_) inflight += b->request_ops();
      if (inflight > 0) return;  // still quiescing
      op_->phase = 2;
      for (const auto& b : backends_) {
        if (!b->in_rotation() || b->fd < 0) continue;
        op_->awaiting.insert(b->addr.id);
        b->outbuf += "!reload\n";
        b->ops.push_back({BackendConn::Op::Kind::kReload, 0, now});
        backend_flush(*b);
      }
    }
    if (op_->phase == 2 && op_->awaiting.empty()) {
      ++live_.flips;
      std::size_t in_rotation = 0;
      for (const auto& b : backends_)
        if (b->in_rotation()) ++in_rotation;
      finish_fleet_op("reloaded backends=" + std::to_string(in_rotation) +
                      "\ndone\n");
    }
    return;
  }
  // Rolling restart: one backend at a time, in the order captured when
  // the op started.
  for (;;) {
    if (op_->idx >= op_->order.size()) {
      ++live_.rolling_restarts;
      finish_fleet_op("rolling restarted=" + std::to_string(op_->restarted) +
                      "\ndone\n");
      return;
    }
    const int id = op_->order[op_->idx];
    BackendConn* b = nullptr;
    for (const auto& bp : backends_)
      if (bp->addr.id == id) b = bp.get();
    if (b == nullptr) {
      ++op_->idx;
      continue;
    }
    switch (op_->roll_stage) {
      case FleetOp::RollStage::kPick:
        if (b->health != BackendConn::Health::kHealthy) {
          ++op_->idx;  // died or was ejected since the order was captured
          continue;
        }
        b->health = BackendConn::Health::kDraining;
        op_->gen_at_drain = b->addr.generation;
        op_->drain_started_ms = now;
        op_->roll_stage = FleetOp::RollStage::kDrain;
        return;
      case FleetOp::RollStage::kDrain:
        if (b->health != BackendConn::Health::kDraining) {
          // It fell out of rotation on its own (crash, ejection); the
          // respawn/reinstatement machinery takes it from here.
          op_->roll_stage = FleetOp::RollStage::kAwaitRespawn;
          continue;
        }
        if (b->request_ops() > 0) return;  // proxy-side work still owed
        op_->roll_stage = FleetOp::RollStage::kAwaitHealthZero;
        b->last_probe_ms = -1e18;  // force an immediate fresh probe
        continue;
      case FleetOp::RollStage::kAwaitHealthZero:
        if (b->health != BackendConn::Health::kDraining) {
          op_->roll_stage = FleetOp::RollStage::kAwaitRespawn;
          continue;
        }
        // The backend itself must confirm zero in-flight on a probe taken
        // after the drain began — proxy-side zero plus a stale health
        // line is not proof.
        if (b->last_health_ms < op_->drain_started_ms ||
            b->health_inflight != 0)
          return;
        source_.restart(id);
        op_->roll_stage = FleetOp::RollStage::kAwaitRespawn;
        return;
      case FleetOp::RollStage::kAwaitRespawn:
        if (b->addr.generation > op_->gen_at_drain &&
            b->health == BackendConn::Health::kHealthy) {
          ++op_->restarted;
          ++op_->idx;
          op_->roll_stage = FleetOp::RollStage::kPick;
          continue;
        }
        return;
    }
  }
}

// ----------------------------------------------------------- loop ------

// Probe cadence, reconnect backoff and supervisor reaping all need
// periodic ticks even when no fd fires, hence the fixed 20 ms timeout.
int FleetProxy::prepare_poll(double now, std::vector<pollfd>* fds) {
  source_.tick(now, &view_);
  sync_backends(now);
  probe_backends(now);
  fd_backend_.clear();
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    const BackendConn& b = *backends_[i];
    if (b.fd < 0) continue;
    short events = POLLIN;
    if (b.connecting || !b.outbuf.empty()) events |= POLLOUT;
    fds->push_back(pollfd{b.fd, events, 0});
    fd_backend_.push_back(static_cast<int>(i));
  }
  return 20;
}

void FleetProxy::pump(const pollfd* ready, std::size_t n, double now) {
  for (std::size_t i = 0; i < n; ++i) {
    BackendConn& b = *backends_[static_cast<std::size_t>(fd_backend_[i])];
    if (b.fd != ready[i].fd) continue;  // replaced mid-loop
    if (ready[i].revents & (POLLERR | POLLNVAL)) {
      ++live_.io_errors;
      backend_conn_lost(b, now, true);
      continue;
    }
    if (b.connecting && (ready[i].revents & (POLLOUT | POLLHUP))) {
      int err = 0;
      socklen_t len = sizeof err;
      ::getsockopt(b.fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        backend_conn_lost(b, now, false);
        continue;
      }
      on_backend_connected(b, now);
    }
    if (b.fd >= 0 && (ready[i].revents & (POLLIN | POLLHUP)))
      backend_read_ready(b, now);
    if (b.fd >= 0 && (ready[i].revents & POLLOUT)) backend_flush(b);
  }
  dispatch(now);
  step_fleet_op(now);
}

void FleetProxy::run() {
  front_.run();
  for (auto& b : backends_)
    if (b->fd >= 0) {
      ::close(b->fd);
      b->fd = -1;
      b->connecting = false;
      b->ops.clear();
    }
  publish();
}

}  // namespace sddict::fleet
