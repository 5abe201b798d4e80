#include "net/server.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <future>
#include <istream>
#include <mutex>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "diag/testerlog.h"
#include "net/client_front.h"
#include "util/failpoint.h"

namespace sddict::net {

std::string format_net_stats(const NetStats& s) {
  std::ostringstream out;
  out << "accepted=" << s.accepted
      << " rejected_sessions=" << s.rejected_sessions << " frames=" << s.frames
      << " responses=" << s.responses << " busy_shed=" << s.busy_shed
      << " malformed=" << s.malformed << " oversize=" << s.oversize
      << " idle_reaped=" << s.idle_reaped << " frame_reaped=" << s.frame_reaped
      << " write_reaped=" << s.write_reaped
      << " midframe_disconnects=" << s.midframe_disconnects
      << " io_errors=" << s.io_errors << " sessions=" << s.active_sessions
      << " pending=" << s.pending << " net_in_flight=" << s.in_flight;
  return out.str();
}

namespace {

// A datalog frame's observations; recovery mode sets malformed records
// aside (counted in the reply's `dropped=`) instead of failing the frame.
TesterLog read_frame_log(const std::string& frame_text) {
  std::istringstream in(frame_text);
  return read_testerlog(in, {.recover = true});
}

void write_result(std::ostream& os, std::future<ServiceResponse>& future,
                  std::size_t dropped) {
  try {
    write_response(os, future.get(), dropped);
  } catch (const std::exception& e) {
    write_error(os, e.what());
  }
}

// The `stats`, `!health` and `!verb` commands of both front ends. `net`
// carries the event loop's counters: `stats` appends them and `!health`
// reports its pending plus dispatched requests as in flight. A stream
// passes null, and nothing is in flight by the time a command runs there.
void run_command(NetServer::Backend& backend,
                 const std::vector<std::string>& tokens, const NetStats* net,
                 bool draining, std::ostream& os) {
  try {
    if (tokens.size() == 1 && tokens[0] == "stats") {
      os << "stats " << format_service_stats(backend.service().stats());
      if (net != nullptr) os << " " << format_net_stats(*net);
      os << "\n";
    } else if (tokens.size() == 1 && tokens[0] == "!health") {
      // Machine-readable one-liner (no `done`): what a supervisor or
      // proxy health probe needs to decide rotation membership and drain
      // completion. Zero in_flight means this backend owes nobody
      // anything.
      const ServiceStats svc = backend.service().stats();
      os << "health state=" << (draining ? "draining" : "ok")
         << " queue_depth=" << svc.queue_depth
         << " in_flight=" << (net ? net->pending + net->in_flight : 0)
         << " epoch=" << svc.swaps
         << " version=" << backend.store_version() << "\n";
    } else if (!backend.handle_admin(tokens, os)) {
      write_error(os, "admin verbs need repository mode (--repo)");
    }
  } catch (const std::exception& e) {
    write_error(os, e.what());
  }
}

void run_session(NetServer::Backend& backend, const std::string& frame_text,
                 std::ostream& os) {
  try {
    if (!backend.handle_session(frame_text, os))
      write_error(os, "session verbs not supported by this server");
  } catch (const std::exception& e) {
    write_error(os, e.what());
  }
}

}  // namespace

// The local dispatcher: datalogs become jobs that wait in pending_ for
// service capacity, then hold a future until the service resolves them;
// admin and session verbs run when their slot reaches the session head.
class NetServer::Local final : public Dispatcher {
 public:
  Local(Backend& backend, const NetServerOptions& options)
      : backend_(backend), options_(options) {}

  ClientFront* front = nullptr;

  Admission admit(Frame frame, bool session_full) override {
    Job job;
    if (frame.type == Frame::Type::kCommand) {
      job.kind = Job::Kind::kAdmin;
      job.tokens = std::move(frame.tokens);
      return {"", add(std::move(job))};
    }
    if (is_session_frame(frame.text)) {
      // Session verbs execute inline on the loop thread when they reach
      // the session head (the admin-verb discipline), so they stay ordered
      // with the replies around them and session state needs no locking.
      job.kind = Job::Kind::kSession;
      job.text = std::move(frame.text);
      return {"", add(std::move(job))};
    }
    try {
      TesterLog log = read_frame_log(frame.text);
      job.dropped = log.dropped.size();
      job.observed = std::move(log.observations);
    } catch (const std::exception& e) {
      // Malformed frame: an error reply on this slot only. The session —
      // and every other session — keeps going.
      ++malformed_;
      std::ostringstream os;
      write_error(os, e.what());
      return {os.str()};
    }
    // Per-session admission: one greedy client cannot occupy the whole
    // service; it gets explicit busy replies past its in-flight cap.
    if (session_full) return {front->busy()};
    job.kind = Job::Kind::kQueued;
    const std::uint64_t key = add(std::move(job));
    pending_.push_back(key);
    pump_admission();
    return {"", key};
  }

  bool resolve(std::uint64_t key, std::string* reply) override {
    auto it = jobs_.find(key);
    Job& job = it->second;
    std::ostringstream os;
    switch (job.kind) {
      case Job::Kind::kQueued:
        return false;  // waiting for admission
      case Job::Kind::kInFlight:
        if (job.future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready)
          return false;
        write_result(os, job.future, job.dropped);
        --inflight_;
        break;
      case Job::Kind::kAdmin: {
        const NetStats net = snapshot();
        run_command(backend_, job.tokens, &net, front->draining(), os);
        break;
      }
      case Job::Kind::kSession:
        run_session(backend_, job.text, os);
        break;
      case Job::Kind::kReady:
        os << job.text;
        break;
    }
    *reply = os.str();
    jobs_.erase(it);
    return true;
  }

  bool owed(std::uint64_t key) const override {
    const Job::Kind k = jobs_.at(key).kind;
    return k == Job::Kind::kQueued || k == Job::Kind::kInFlight;
  }

  // In-flight futures still hold service capacity, so they move to the
  // orphan list and keep being polled until resolution.
  void abandon(std::uint64_t key) override {
    auto it = jobs_.find(key);
    if (it->second.kind == Job::Kind::kInFlight)
      orphans_.push_back(std::move(it->second.future));
    else if (it->second.kind == Job::Kind::kQueued)
      pending_.erase(std::find(pending_.begin(), pending_.end(), key));
    jobs_.erase(it);
  }

  std::size_t queued() const override { return pending_.size(); }
  bool idle() const override { return pending_.empty() && inflight_ == 0; }

  // Futures resolve on the service's dispatcher thread with no fd to
  // poll, so while any are outstanding the loop ticks fast; otherwise it
  // sleeps until the nearest timeout could possibly fire.
  int prepare_poll(double, std::vector<pollfd>*) override {
    return idle() ? 100 : 2;
  }

  void pump(const pollfd*, std::size_t, double) override {
    pump_admission();
    inflight_ -= std::erase_if(
        orphans_, [](const std::future<ServiceResponse>& f) {
          return f.wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready;
        });
  }

  // The loop thread owns every counter lock-free; once per tick it
  // publishes a copy under the mutex, which is all stats() ever reads —
  // so cross-thread observation is at most one tick stale and TSan-clean.
  void publish() override {
    const NetStats s = snapshot();
    std::lock_guard<std::mutex> lk(stats_mutex_);
    stats_ = s;
  }

  NetStats stats() const {
    std::lock_guard<std::mutex> lk(stats_mutex_);
    return stats_;
  }

 private:
  struct Job {
    enum class Kind {
      kQueued,    // parsed, waiting for service capacity (in pending_)
      kInFlight,  // submitted; future pending
      kAdmin,     // admin/stats command, executed at the session head
      kSession,   // `session` verb frame, executed at the session head
      kReady,     // reply text already rendered (shed or submit error)
    };
    Kind kind = Kind::kReady;
    std::vector<Observed> observed;  // kQueued; dropped at dispatch
    std::size_t dropped = 0;
    std::future<ServiceResponse> future;  // kInFlight
    std::vector<std::string> tokens;      // kAdmin
    std::string text;                     // kSession frame / kReady reply
  };

  std::uint64_t add(Job job) {
    jobs_.emplace(next_key_, std::move(job));
    return next_key_++;
  }

  // Live counters plus current gauges.
  NetStats snapshot() const {
    NetStats s = front->counters();
    s.malformed = malformed_;
    s.pending = pending_.size();
    s.in_flight = inflight_;
    return s;
  }

  // Feeds queued requests into the service while capacity lasts, then
  // sheds pending-queue overflow oldest-first with explicit busy replies.
  void pump_admission() {
    while (!pending_.empty() && inflight_ < options_.max_inflight) {
      Job& job = jobs_.at(pending_.front());
      std::optional<std::future<ServiceResponse>> fut;
      try {
        if (failpoint::triggered("net.submit.full"))
          fut = std::nullopt;  // injected service saturation
        else
          // Copied, not moved: a full service queue keeps the request
          // intact for the next pump.
          fut = backend_.service().try_submit(job.observed);
      } catch (const std::exception& e) {
        // No service to dispatch to (e.g. repo mode without a circuit).
        std::ostringstream os;
        write_error(os, e.what());
        job.kind = Job::Kind::kReady;
        job.text = os.str();
        pending_.pop_front();
        continue;
      }
      // Service queue full: the request stays pending until the
      // dispatcher frees capacity; overflow past max_pending is shed below.
      if (!fut.has_value()) break;
      job.kind = Job::Kind::kInFlight;
      job.observed = {};
      job.future = std::move(*fut);
      ++inflight_;
      pending_.pop_front();
    }
    while (pending_.size() > options_.max_pending) {
      // Overload: shed OLDEST first. The front of the queue has waited
      // longest — its deadline expires soonest and its client is the most
      // likely to have given up — so shedding it (with an explicit busy)
      // preserves the requests that still have time to be useful.
      Job& job = jobs_.at(pending_.front());
      pending_.pop_front();
      job.kind = Job::Kind::kReady;
      job.text = front->busy();
    }
  }

  Backend& backend_;
  NetServerOptions options_;
  std::unordered_map<std::uint64_t, Job> jobs_;
  std::uint64_t next_key_ = 1;
  std::deque<std::uint64_t> pending_;  // admission queue, front = oldest
  std::size_t inflight_ = 0;           // dispatched into the service
  // Futures of force-closed sessions: still occupy service capacity, so
  // they are polled until resolution to keep inflight_ honest.
  std::vector<std::future<ServiceResponse>> orphans_;
  std::uint64_t malformed_ = 0;

  mutable std::mutex stats_mutex_;
  NetStats stats_;
};

NetServer::NetServer(Backend& backend, const NetServerOptions& options)
    : local_(std::make_unique<Local>(backend, options)),
      front_(std::make_unique<ClientFront>(*local_, options)) {
  local_->front = front_.get();
}

NetServer::~NetServer() = default;

void NetServer::start() { front_->start(); }
int NetServer::tcp_port() const { return front_->tcp_port(); }
void NetServer::run() { front_->run(); }
void NetServer::request_stop() { front_->request_stop(); }
NetStats NetServer::stats() const { return local_->stats(); }

void serve_stream(NetServer::Backend& backend, const NetServerOptions& options,
                  std::istream& in, std::ostream& out) {
  struct Owed {
    std::future<ServiceResponse> future;
    std::size_t dropped = 0;
  };
  std::deque<Owed> owed;
  // Writes owed replies in request order; without `block`, stops at the
  // first one not yet resolved.
  const auto drain = [&](bool block) {
    while (!owed.empty() &&
           (block || owed.front().future.wait_for(std::chrono::seconds(0)) ==
                         std::future_status::ready)) {
      write_result(out, owed.front().future, owed.front().dropped);
      out.flush();
      owed.pop_front();
    }
  };
  FrameReader reader(options.max_frame_bytes);
  Frame frame;
  // getline strips the newline and a final line may lack one; either way
  // the framer gets a complete line, so a last `end` still closes.
  for (std::string line; std::getline(in, line);) {
    line += '\n';
    reader.feed(line.data(), line.size());
    while (reader.next(&frame)) {
      if (frame.type == Frame::Type::kDatalog &&
          !is_session_frame(frame.text)) {
        try {
          TesterLog log = read_frame_log(frame.text);
          owed.push_back({backend.service().submit(std::move(log.observations)),
                          log.dropped.size()});
          drain(/*block=*/false);
        } catch (const std::exception& e) {
          drain(/*block=*/true);
          write_error(out, e.what());
          out.flush();
        }
        continue;
      }
      // Commands and session verbs are stateful: they run inline, after
      // every reply owed before them.
      drain(/*block=*/true);
      if (frame.type == Frame::Type::kCommand) {
        if (frame.tokens.size() == 1 && frame.tokens[0] == "quit") return;
        run_command(backend, frame.tokens, nullptr, false, out);
      } else if (frame.type == Frame::Type::kDatalog) {
        run_session(backend, frame.text, out);
      } else {
        write_error(out, frame.text);  // oversize: the framer is wedged
        out.flush();
        return;
      }
      out.flush();
    }
  }
  drain(/*block=*/true);
}

}  // namespace sddict::net
