// Blocking TCP client for the sddict_serve line protocol: sends one
// datalog frame, reads the reply up to its closing `done`, and
// understands the explicit `busy retry_after_ms=N` load-shed reply —
// request_with_retry() honors the server's hint with capped, jittered
// exponential backoff, which is the retry discipline the soak generator
// (bench/bench_soak.cpp) drives thousands of requests through.
//
// Deliberately synchronous and single-connection: the concurrency in the
// system lives server-side; clients are testers, chaos probes, and load
// workers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sddict::net {

struct BackoffPolicy {
  std::uint32_t base_ms = 10;
  std::uint32_t max_ms = 2000;
  double factor = 2.0;
  int max_attempts = 12;
  std::uint64_t seed = 1;  // deterministic jitter stream
};

// The retry schedule's delay for one attempt: the server's retry_after_ms
// hint is a hard floor; only the exponential-backoff portion *above* the
// hint is jittered into [50%, 100%] (so a shed herd doesn't return in
// lockstep but nobody comes back before the server asked). `u` is a
// uniform draw in [0, 1). The max_ms cap applies to the jittered excess,
// never to the hint itself. Pure, for unit testing.
double compute_backoff_delay_ms(double hint_ms, double backoff_ms,
                                double max_ms, double u);

struct Reply {
  bool busy = false;                // the server shed this request
  std::uint32_t retry_after_ms = 0; // its suggested delay (busy only)
  bool error = false;               // `error ...` reply
  std::string error_text;
  std::vector<std::string> lines;   // every reply line incl. `done`
  int busy_retries = 0;             // retries request_with_retry spent
};

class Client {
 public:
  // Throw std::runtime_error on connection failure. `timeout_s` bounds
  // every subsequent read/write (SO_RCVTIMEO/SO_SNDTIMEO) so a wedged
  // server surfaces as an exception, not a hang.
  static Client connect_tcp(const std::string& host, int port,
                            double timeout_s = 30);

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  // Sends the frame (must end with its `end\n` line) and reads one reply.
  // Throws std::runtime_error on I/O failure, timeout, or EOF mid-reply.
  Reply request(const std::string& frame);

  // request(), but busy replies are retried with exponential backoff per
  // compute_backoff_delay_ms(): the server's retry_after_ms hint is a
  // hard floor, the exponential excess above it is jittered into
  // [50%, 100%] and capped at max_ms. Returns the first non-busy reply,
  // or the last busy one when max_attempts is exhausted.
  Reply request_with_retry(const std::string& frame,
                           const BackoffPolicy& policy = {});

  // Sends a bare command line ("stats") and reads its single reply line.
  std::string command_line(const std::string& line);

  // Reads one reply (or line) without sending anything — for pipelined
  // use: send_raw several frames, then collect each reply in order.
  Reply read_reply();
  std::string read_line();

  // Chaos helper: raw bytes with no framing.
  void send_raw(const std::string& bytes);

  void close();
  bool connected() const { return fd_ >= 0; }
  int fd() const { return fd_; }

 private:
  explicit Client(int fd) : fd_(fd) {}

  int fd_ = -1;
  std::string inbuf_;
};

}  // namespace sddict::net
