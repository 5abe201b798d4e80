#include "net/client_front.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>
#ifdef __linux__
#include <linux/sockios.h>
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <stdexcept>

namespace sddict::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

// Bytes written to `fd` the peer has not acknowledged yet (TCP), or not
// read yet (Unix). 0 where the kernel cannot say.
int unacked_bytes(int fd) {
  int n = 0;
#ifdef SIOCOUTQ
  if (::ioctl(fd, SIOCOUTQ, &n) != 0) n = 0;
#else
  (void)fd;
#endif
  return n;
}

}  // namespace

double monotonic_ms() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::milli>(Clock::now() - epoch)
      .count();
}

struct ClientFront::Session {
  // One reply slot per frame. Only the head slot may render.
  struct Slot {
    enum class State { kWaiting, kText, kQuit };
    State state = State::kText;
    std::uint64_t key = 0;  // kWaiting: the dispatcher's handle
    std::string text;       // kText: the reply
  };

  int fd = -1;
  FrameReader reader;
  std::string outbuf;
  std::deque<Slot> slots;
  double last_read_ms = 0;
  double last_write_progress_ms = 0;
  double frame_open_ms = -1;  // -1 = no partial frame open
  bool closing = false;       // stop reading; drain slots, flush, close
  bool lingering = false;     // drain: FIN sent, discarding input
  bool dead = false;          // fd closed; erase at cleanup

  explicit Session(std::size_t max_frame_bytes) : reader(max_frame_bytes) {}

  void close_fd() {
    ::close(fd);
    fd = -1;
    dead = true;
  }
};

ClientFront::ClientFront(Dispatcher& dispatch, const NetServerOptions& options)
    : dispatch_(dispatch), options_(options) {}

ClientFront::~ClientFront() {
  for (auto& s : sessions_)
    if (!s->dead) ::close(s->fd);
  close_listeners();
}

void ClientFront::close_listeners() {
  if (tcp_listener_ >= 0) ::close(tcp_listener_);
  if (unix_listener_ >= 0) {
    ::close(unix_listener_);
    ::unlink(options_.unix_path.c_str());
  }
  tcp_listener_ = -1;
  unix_listener_ = -1;
}

void ClientFront::start() {
  // A peer that disappears mid-write must surface as EPIPE from write(),
  // not kill the process.
  ::signal(SIGPIPE, SIG_IGN);
  if (options_.tcp_port >= 0) {
    tcp_listener_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_listener_ < 0) throw_errno("socket(AF_INET)");
    const int one = 1;
    ::setsockopt(tcp_listener_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
    if (::inet_pton(AF_INET, options_.bind_host.c_str(), &addr.sin_addr) != 1)
      throw std::runtime_error("bad bind host '" + options_.bind_host + "'");
    if (::bind(tcp_listener_, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0)
      throw_errno("bind tcp port " + std::to_string(options_.tcp_port));
    if (::listen(tcp_listener_, options_.backlog) != 0) throw_errno("listen");
    socklen_t len = sizeof addr;
    if (::getsockname(tcp_listener_, reinterpret_cast<sockaddr*>(&addr),
                      &len) != 0)
      throw_errno("getsockname");
    bound_tcp_port_ = ntohs(addr.sin_port);
    fdio::set_nonblocking(tcp_listener_);
    fdio::set_cloexec(tcp_listener_);
  }
  if (!options_.unix_path.empty()) {
    const std::string& path = options_.unix_path;
    unix_listener_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (unix_listener_ < 0) throw_errno("socket(AF_UNIX)");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path)
      throw std::runtime_error("socket path too long: " + path);
    std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
    // Reclaim a stale socket file from a dead server, but refuse to
    // clobber anything that is not a socket.
    struct stat st{};
    if (::lstat(path.c_str(), &st) == 0) {
      if (!S_ISSOCK(st.st_mode))
        throw std::runtime_error("refusing to replace non-socket " + path);
      ::unlink(path.c_str());
    }
    if (::bind(unix_listener_, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0)
      throw_errno("bind " + path);
    if (::listen(unix_listener_, options_.backlog) != 0) throw_errno("listen");
    fdio::set_nonblocking(unix_listener_);
    fdio::set_cloexec(unix_listener_);
  }
  if (tcp_listener_ < 0 && unix_listener_ < 0)
    throw std::runtime_error("no listener configured");
}

void ClientFront::request_stop() {
  stop_requested_.store(true, std::memory_order_release);
  wake_.notify();
}

NetStats ClientFront::counters() const {
  NetStats s = live_;
  s.active_sessions = static_cast<std::uint64_t>(std::count_if(
      sessions_.begin(), sessions_.end(), [](const auto& p) { return !p->dead; }));
  return s;
}

// Retry-after hint, scaled by how deep the dispatcher's queue already is:
// a client shed at 3x pressure is told to stay away ~4x longer than one
// shed at an instantaneous blip, which spreads the retry herd out.
std::string ClientFront::busy() {
  ++live_.busy_shed;
  const double pressure =
      options_.max_pending > 0
          ? static_cast<double>(dispatch_.queued()) /
                static_cast<double>(options_.max_pending)
          : 1.0;
  const double hint = options_.busy_retry_ms * (1.0 + 3.0 * pressure);
  std::ostringstream os;
  write_busy(os, static_cast<std::uint32_t>(
                     std::min(hint, options_.busy_retry_ms * 16.0)));
  return os.str();
}

void ClientFront::accept_ready(int listener) {
  for (;;) {
    fdio::IoResult r;
    const int fd = fdio::accept_retry(listener, &r);
    if (fd < 0) {
      if (r.failed) ++live_.io_errors;
      return;  // would_block: accepted everything ready
    }
    if (sessions_.size() >= options_.max_sessions) {
      // Connection-level admission control: an explicit busy, never a
      // silent RST. Best effort — the peer may already be gone.
      ++live_.rejected_sessions;
      const std::string text = busy();
      (void)fdio::write_some(fd, text.data(), text.size());
      ::close(fd);
      continue;
    }
    fdio::set_nonblocking(fd);
    fdio::set_cloexec(fd);
    auto s = std::make_unique<Session>(options_.max_frame_bytes);
    s->fd = fd;
    s->last_read_ms = s->last_write_progress_ms = monotonic_ms();
    ++live_.accepted;
    sessions_.push_back(std::move(s));
  }
}

void ClientFront::read_ready(Session& s) {
  char buf[4096];
  // Bounded rounds per poll cycle so one firehose client cannot starve
  // the rest of the loop.
  for (int round = 0; round < 8 && !s.closing && !s.dead; ++round) {
    const fdio::IoResult r = fdio::read_some(s.fd, buf, sizeof buf);
    if (r.would_block) break;
    if (r.failed) {
      ++live_.io_errors;
      force_close(s, s.reader.mid_frame());
      return;
    }
    if (r.n == 0) {  // EOF: drain what was accepted, flush, then close
      if (s.reader.mid_frame()) ++live_.midframe_disconnects;
      s.closing = true;
      break;
    }
    s.last_read_ms = monotonic_ms();
    s.reader.feed(buf, static_cast<std::size_t>(r.n));
    Frame frame;
    while (!s.closing && !s.dead && s.reader.next(&frame))
      handle_frame(s, std::move(frame));
  }
  // Slow-loris bookkeeping: note when a partial frame opened, clear when
  // it completed.
  if (!s.dead) {
    if (s.reader.mid_frame()) {
      if (s.frame_open_ms < 0) s.frame_open_ms = monotonic_ms();
    } else {
      s.frame_open_ms = -1;
    }
  }
}

void ClientFront::handle_frame(Session& s, Frame frame) {
  using Slot = Session::Slot;
  Slot slot;
  switch (frame.type) {
    case Frame::Type::kOversize: {
      ++live_.oversize;
      std::ostringstream os;
      write_error(os, frame.text);
      slot.text = os.str();
      s.slots.push_back(std::move(slot));
      s.closing = true;  // the reader is wedged; reply, flush, close
      return;
    }
    case Frame::Type::kCommand:
      if (frame.tokens.size() == 1 && frame.tokens[0] == "quit") {
        slot.state = Slot::State::kQuit;
        s.slots.push_back(std::move(slot));
        return;
      }
      break;
    case Frame::Type::kDatalog:
      ++live_.frames;
      break;
  }
  std::size_t owed = 0;
  for (const Slot& o : s.slots)
    if (o.state == Slot::State::kWaiting && dispatch_.owed(o.key)) ++owed;
  Admission a =
      dispatch_.admit(std::move(frame), owed >= options_.session_inflight);
  if (a.key != 0) {
    slot.state = Slot::State::kWaiting;
    slot.key = a.key;
  } else {
    slot.text = std::move(a.reply);
  }
  s.slots.push_back(std::move(slot));
}

// Renders every resolvable reply at the head of the slot queue into the
// session's write buffer, preserving request order.
void ClientFront::resolve_fronts(Session& s) {
  using Slot = Session::Slot;
  while (!s.slots.empty()) {
    Slot& head = s.slots.front();
    if (head.state == Slot::State::kQuit) {
      s.closing = true;
    } else {
      if (head.state == Slot::State::kWaiting &&
          !dispatch_.resolve(head.key, &head.text))
        return;
      s.outbuf += head.text;
      ++live_.responses;
    }
    s.slots.pop_front();
  }
}

void ClientFront::flush_writes(Session& s) {
  while (!s.outbuf.empty() && !s.dead) {
    const fdio::IoResult r =
        fdio::write_some(s.fd, s.outbuf.data(), s.outbuf.size());
    if (r.would_block) return;
    if (r.failed) {
      ++live_.io_errors;
      force_close(s, s.reader.mid_frame());
      return;
    }
    if (r.n > 0) {
      s.outbuf.erase(0, static_cast<std::size_t>(r.n));
      s.last_write_progress_ms = monotonic_ms();
    }
  }
}

void ClientFront::enforce_timeouts(Session& s, double now) {
  if (s.dead || s.lingering) return;
  if (!s.outbuf.empty() &&
      now - s.last_write_progress_ms > options_.write_timeout_ms) {
    ++live_.write_reaped;
    force_close(s, s.reader.mid_frame());
    return;
  }
  if (s.frame_open_ms >= 0 && now - s.frame_open_ms > options_.frame_timeout_ms) {
    // Slow loris: a frame has been dribbling in for too long.
    ++live_.frame_reaped;
    force_close(s, /*count_midframe=*/true);
    return;
  }
  if (!s.closing && s.outbuf.empty() && s.slots.empty() &&
      !s.reader.mid_frame() &&
      now - s.last_read_ms > options_.idle_timeout_ms) {
    ++live_.idle_reaped;
    force_close(s, /*count_midframe=*/false);
  }
}

// Graceful close of a drained session that owes nothing: FIN after the
// replies, then read and discard until EOF. Closing with unread input
// makes the kernel answer with a reset (RST), which throws away replies
// still queued towards the peer. A peer that keeps its socket open after
// reading must not hold the drain either, so the session also closes
// once nothing is left to read and the kernel reports every byte written
// as acknowledged: no reset can then destroy a reply.
void ClientFront::linger(Session& s) {
  if (!s.lingering) {
    ::shutdown(s.fd, SHUT_WR);
    s.lingering = true;
  }
  char buf[4096];
  for (int round = 0; round < 8; ++round) {
    const fdio::IoResult r = fdio::read_some(s.fd, buf, sizeof buf);
    if (r.failed || r.n == 0 || (r.would_block && unacked_bytes(s.fd) == 0)) {
      s.close_fd();
      return;
    }
    if (r.would_block) return;
  }
}

// Immediate teardown (timeout, I/O failure, drain deadline). The
// dispatcher learns which replies nobody is waiting for anymore.
void ClientFront::force_close(Session& s, bool count_midframe) {
  if (s.dead) return;
  if (count_midframe) ++live_.midframe_disconnects;
  for (const Session::Slot& slot : s.slots)
    if (slot.state == Session::Slot::State::kWaiting)
      dispatch_.abandon(slot.key);
  s.slots.clear();
  s.outbuf.clear();
  s.close_fd();
}

void ClientFront::run() {
  draining_ = false;
  double drain_start = 0;
  std::vector<pollfd> fds;
  std::vector<Session*> owners;  // per session pollfd
  for (;;) {
    fds.clear();
    owners.clear();
    fds.push_back(pollfd{wake_.read_fd(), POLLIN, 0});
    for (const int listener : {tcp_listener_, unix_listener_})
      if (listener >= 0) fds.push_back(pollfd{listener, POLLIN, 0});
    const std::size_t first_session = fds.size();
    for (auto& sp : sessions_) {
      Session& s = *sp;
      short events = 0;
      if ((!s.closing && !draining_) || s.lingering) events |= POLLIN;
      if (!s.outbuf.empty()) events |= POLLOUT;
      fds.push_back(pollfd{s.fd, events, 0});
      owners.push_back(&s);
    }
    const std::size_t first_extra = fds.size();
    const int timeout = dispatch_.prepare_poll(monotonic_ms(), &fds);
    const int nready = ::poll(fds.data(), fds.size(), timeout);
    if (nready < 0 && errno != EINTR) ++live_.io_errors;
    wake_.drain();

    if (stop_requested_.load(std::memory_order_acquire) && !draining_) {
      draining_ = true;
      drain_start = monotonic_ms();
      close_listeners();
    }

    const double now = monotonic_ms();
    if (!draining_ && nready > 0)
      for (std::size_t i = 1; i < first_session; ++i)
        if (fds[i].revents & POLLIN) accept_ready(fds[i].fd);
    for (std::size_t i = first_session; i < first_extra; ++i) {
      Session& s = *owners[i - first_session];
      if (s.dead) continue;
      if (fds[i].revents & (POLLERR | POLLNVAL)) {
        ++live_.io_errors;
        force_close(s, s.reader.mid_frame());
        continue;
      }
      if (!draining_ && (fds[i].revents & (POLLIN | POLLHUP))) read_ready(s);
    }
    dispatch_.pump(fds.data() + first_extra, fds.size() - first_extra, now);

    for (auto& sp : sessions_)
      if (!sp->dead) resolve_fronts(*sp);
    // Publish before any reply rendered this tick is written, so a client
    // that has read a reply always finds it counted in stats().
    dispatch_.publish();
    for (auto& sp : sessions_) {
      Session& s = *sp;
      if (s.dead) continue;
      flush_writes(s);
      enforce_timeouts(s, now);
      if (s.dead || !s.slots.empty() || !s.outbuf.empty()) continue;
      if (draining_)
        linger(s);
      else if (s.closing)
        s.close_fd();
    }
    std::erase_if(sessions_, [](const auto& s) { return s->dead; });

    if (draining_ && ((sessions_.empty() && dispatch_.idle()) ||
                      now - drain_start > options_.drain_timeout_ms)) {
      for (auto& sp : sessions_) force_close(*sp, false);
      sessions_.clear();
      dispatch_.publish();
      return;
    }
  }
}

}  // namespace sddict::net
