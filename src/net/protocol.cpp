#include "net/protocol.h"

#include "util/strings.h"

namespace sddict::net {

void write_response(std::ostream& out, const ServiceResponse& resp,
                    std::size_t dropped) {
  const EngineDiagnosis& d = resp.diagnosis;
  out << "diagnosis " << diagnosis_outcome_name(d.outcome)
      << " best=" << d.best_mismatches << " margin=" << d.margin
      << " effective=" << d.effective_tests << " dont_care=" << d.dont_care_tests
      << " unknown=" << d.unknown_tests << " completed=" << (d.completed ? 1 : 0)
      << " stop=" << stop_reason_name(d.stop_reason);
  if (dropped > 0) out << " dropped=" << dropped;
  out << "\n";
  for (std::size_t i = 0; i < d.matches.size(); ++i)
    out << "candidate " << (i + 1) << " fault=" << d.matches[i].fault
        << " mismatches=" << d.matches[i].mismatches << "\n";
  if (d.outcome == DiagnosisOutcome::kUnmodeledDefect && !d.cover.empty()) {
    out << "cover";
    for (FaultId f : d.cover) out << " fault=" << f;
    out << " uncovered=" << d.uncovered_failures << "\n";
  }
  out << "timing latency_ms=" << resp.latency_ms
      << " cache_hit=" << (resp.cache_hit ? 1 : 0) << "\n";
  out << "done\n";
}

void write_error(std::ostream& out, const std::string& what) {
  out << "error " << what << "\n" << "done\n";
}

void write_busy(std::ostream& out, std::uint32_t retry_after_ms) {
  out << "busy retry_after_ms=" << retry_after_ms << "\n" << "done\n";
}

bool is_session_frame(const std::string& frame_text) {
  const std::size_t eol = frame_text.find('\n');
  const std::vector<std::string> toks = split_ws(
      eol == std::string::npos ? frame_text : frame_text.substr(0, eol));
  return !toks.empty() && toks[0] == "session";
}

void FrameReader::feed(const char* data, std::size_t n) {
  if (oversized_) return;  // session is doomed; stop buffering
  for (std::size_t i = 0; i < n; ++i) {
    if (buffer_.size() + block_.size() >= max_frame_bytes_) {
      oversized_ = true;
      buffer_.clear();
      block_.clear();
      in_block_ = false;
      Frame f;
      f.type = Frame::Type::kOversize;
      f.text = "frame exceeds " + std::to_string(max_frame_bytes_) + " bytes";
      ready_.push_back(std::move(f));
      return;
    }
    const char c = data[i];
    if (c == '\n') {
      take_line(std::move(buffer_));
      buffer_.clear();
    } else {
      buffer_.push_back(c);
    }
  }
}

// Command lines are only recognized outside a block; every other line
// (even a blank one) accumulates into the block; a well-formed `end` line
// closes it — the same rule the datalog reader itself uses.
void FrameReader::take_line(std::string line) {
  const std::vector<std::string> tokens = split_ws(line);
  if (!in_block_ && !tokens.empty() &&
      (tokens[0][0] == '!' ||
       (tokens.size() == 1 && (tokens[0] == "stats" || tokens[0] == "quit")))) {
    Frame f;
    f.type = Frame::Type::kCommand;
    f.tokens = tokens;
    f.text = std::move(line);
    ready_.push_back(std::move(f));
    return;
  }
  if (!tokens.empty()) in_block_ = true;
  block_ += line;
  block_ += '\n';
  if (tokens.size() == 1 && tokens[0] == "end") {
    Frame f;
    f.type = Frame::Type::kDatalog;
    f.text = std::move(block_);
    block_.clear();
    in_block_ = false;
    ready_.push_back(std::move(f));
  }
}

bool FrameReader::next(Frame* out) {
  if (ready_.empty()) return false;
  *out = std::move(ready_.front());
  ready_.pop_front();
  return true;
}

}  // namespace sddict::net
