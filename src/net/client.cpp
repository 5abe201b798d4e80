#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "util/fdio.h"
#include "util/rng.h"
#include "util/strings.h"

namespace sddict::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void set_io_timeouts(int fd, double timeout_s) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_s);
  tv.tv_usec = static_cast<suseconds_t>((timeout_s - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

}  // namespace

double compute_backoff_delay_ms(double hint_ms, double backoff_ms,
                                double max_ms, double u) {
  const double target = std::max(hint_ms, backoff_ms);
  const double excess = target - hint_ms;
  double delay = hint_ms + excess * (0.5 + 0.5 * u);
  delay = std::min(delay, max_ms);
  // The hint outranks the cap: sleeping less than the server asked just
  // earns another shed.
  return std::max(delay, hint_ms);
}

Client Client::connect_tcp(const std::string& host, int port,
                           double timeout_s) {
  ::signal(SIGPIPE, SIG_IGN);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_INET)");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("bad host '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    throw_errno("connect " + host + ":" + std::to_string(port));
  }
  set_io_timeouts(fd, timeout_s);
  return Client(fd);
}

Client::Client(Client&& other) noexcept
    : fd_(other.fd_), inbuf_(std::move(other.inbuf_)) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    inbuf_ = std::move(other.inbuf_);
    other.fd_ = -1;
  }
  return *this;
}

Client::~Client() { close(); }

void Client::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void Client::send_raw(const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const fdio::IoResult r =
        fdio::write_some(fd_, bytes.data() + off, bytes.size() - off);
    if (r.would_block)  // SO_SNDTIMEO expired
      throw std::runtime_error("client write timed out");
    if (r.failed)
      throw std::runtime_error(std::string("client write failed: ") +
                               std::strerror(r.errno_value));
    off += static_cast<std::size_t>(r.n);
  }
}

std::string Client::read_line() {
  for (;;) {
    const std::size_t nl = inbuf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = inbuf_.substr(0, nl);
      inbuf_.erase(0, nl + 1);
      return line;
    }
    char buf[4096];
    const fdio::IoResult r = fdio::read_some(fd_, buf, sizeof buf);
    if (r.would_block)  // SO_RCVTIMEO expired
      throw std::runtime_error("client read timed out");
    if (r.failed)
      throw std::runtime_error(std::string("client read failed: ") +
                               std::strerror(r.errno_value));
    if (r.n == 0)
      throw std::runtime_error("server closed connection mid-reply");
    inbuf_.append(buf, static_cast<std::size_t>(r.n));
  }
}

Reply Client::read_reply() {
  Reply reply;
  for (;;) {
    std::string line = read_line();
    const bool done = line == "done";
    reply.lines.push_back(std::move(line));
    if (done) break;
  }
  const std::vector<std::string> head = split_ws(reply.lines.front());
  if (!head.empty() && head[0] == "busy") {
    reply.busy = true;
    for (const std::string& tok : head)
      if (tok.rfind("retry_after_ms=", 0) == 0)
        reply.retry_after_ms = static_cast<std::uint32_t>(
            std::strtoul(tok.c_str() + 15, nullptr, 10));
  } else if (!head.empty() && head[0] == "error") {
    reply.error = true;
    const std::string& first = reply.lines.front();
    reply.error_text = first.size() > 6 ? first.substr(6) : "";
  }
  return reply;
}

Reply Client::request(const std::string& frame) {
  send_raw(frame);
  return read_reply();
}

Reply Client::request_with_retry(const std::string& frame,
                                 const BackoffPolicy& policy) {
  Rng rng(policy.seed);
  double backoff = policy.base_ms;
  for (int attempt = 0;; ++attempt) {
    Reply reply = request(frame);
    reply.busy_retries = attempt;
    if (!reply.busy || attempt >= policy.max_attempts) return reply;
    const double delay = compute_backoff_delay_ms(
        reply.retry_after_ms, backoff, policy.max_ms, rng.uniform01());
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<std::int64_t>(delay * 1000)));
    backoff = std::min<double>(backoff * policy.factor, policy.max_ms);
  }
}

std::string Client::command_line(const std::string& line) {
  send_raw(line + "\n");
  return read_line();
}

}  // namespace sddict::net
