// The sddict_serve line protocol: one framer and one set of renderers for
// both front ends in net/server.h, the event loop (TCP and Unix sockets)
// and the serial stream (stdio), so they answer byte-identically — the
// property the soak harness diffs for.
//
// Request grammar: a tester datalog (diag/testerlog.h) closed by its
// well-formed `end` line is one request; so is a `session ...` frame
// (session/service.h). Outside a datalog, a `!verb` line (`!health`,
// the repository admin verbs of net/backends.h) or a bare `stats` or
// `quit` line is a command.
//
// Response grammar (one reply per request, always closed by `done`):
//
//   diagnosis <outcome> best=... completed=<0|1> stop=<reason> [dropped=N]
//   candidate <rank> fault=<id> mismatches=<n>          (0..max_results)
//   cover fault=<id> ... uncovered=<n>                  (unmodeled only)
//   timing latency_ms=<x> cache_hit=<0|1>               (volatile line)
//   done
//
//   error <message>
//   done
//
//   busy retry_after_ms=<n>        <- load shed: the server explicitly
//   done                              refused this request; retry after
//                                     the suggested delay (client.h backs
//                                     off exponentially from it)
//
// FrameReader is the incremental request framer of both front ends:
// bytes in, complete frames out (a `!verb` or bare `stats`/`quit` line
// outside a datalog is a command; everything else accumulates until a
// well-formed `end` line closes the datalog), with a hard frame-size cap
// so one endless line cannot grow a session buffer without bound.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <ostream>
#include <string>
#include <vector>

#include "serve/diagnosis_service.h"

namespace sddict::net {

// Renders a resolved diagnosis reply. `dropped` is the count of
// recovery-mode datalog records set aside.
void write_response(std::ostream& out, const ServiceResponse& resp,
                    std::size_t dropped);
void write_error(std::ostream& out, const std::string& what);
void write_busy(std::ostream& out, std::uint32_t retry_after_ms);

// True when a complete datalog-type frame is a session verb (first line
// leads with the token `session`). Session verbs deliberately ride the
// datalog frame type — a block closed by a bare `end` line — so they
// traverse the framer, the event loop and the fleet proxy unchanged;
// this is the one routing test the front ends share.
bool is_session_frame(const std::string& frame_text);

struct Frame {
  enum class Type {
    kCommand,   // a bare command or !admin line; `tokens` holds it split
    kDatalog,   // a complete datalog block (incl. its `end` line) in `text`
    kOversize,  // frame-size cap exceeded; `text` is the error message
                // and the session must be closed
  };
  Type type = Type::kDatalog;
  std::vector<std::string> tokens;
  std::string text;
};

class FrameReader {
 public:
  explicit FrameReader(std::size_t max_frame_bytes)
      : max_frame_bytes_(max_frame_bytes) {}

  // Appends raw bytes; complete frames become available via next().
  void feed(const char* data, std::size_t n);

  // Pops the next complete frame; false when none is ready.
  bool next(Frame* out);

  // Partially-accumulated request data is pending (an open datalog block
  // or an unterminated line) — what a mid-frame disconnect abandons and
  // the slow-loris timeout watches.
  bool mid_frame() const { return !buffer_.empty() || !block_.empty(); }

 private:
  void take_line(std::string line);

  std::size_t max_frame_bytes_;
  std::string buffer_;  // bytes since the last '\n'
  std::string block_;   // open datalog block
  bool in_block_ = false;
  bool oversized_ = false;
  std::deque<Frame> ready_;
};

}  // namespace sddict::net
