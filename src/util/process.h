// Child-process plumbing for the fleet supervisor and the multi-process
// soak harnesses: fork+exec with selective stdio capture and per-child
// environment overrides, plus blocking and non-blocking reaping.
//
// Deliberately minimal: argv in, pipes out. Anything fancier (pty
// allocation, process groups, cgroups) belongs to the caller. All helpers
// are EINTR-tolerant; none of them throws from the child side of fork()
// (the child _exits 127 on exec failure, after printing to its stderr).
#pragma once

#include <sys/types.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace sddict::proc {

struct SpawnOptions {
  bool capture_stdin = false;   // parent gets a write end as Child::stdin_fd
  bool capture_stdout = false;  // parent gets a read end as Child::stdout_fd
  bool capture_stderr = false;  // parent gets a read end as Child::stderr_fd
  // Environment overrides applied in the child between fork and exec:
  // a value sets the variable, nullopt unsets it. Everything else is
  // inherited.
  std::vector<std::pair<std::string, std::optional<std::string>>> env;
};

struct Child {
  pid_t pid = -1;
  int stdin_fd = -1;   // -1 when not captured
  int stdout_fd = -1;
  int stderr_fd = -1;
};

// fork+exec argv[0] (an executable path, not a shell line). Throws
// std::runtime_error on pipe/fork failure; exec failure surfaces as the
// child exiting 127. Captured fds are close-on-exec in the parent.
Child spawn(const std::vector<std::string>& argv,
            const SpawnOptions& options = {});

// Blocking reap: the child's exit code, or 128+signal when it died on a
// signal, or -1 on a waitpid error other than EINTR.
int wait_exit(pid_t pid);

// Non-blocking reap: nullopt while the child is still running; otherwise
// the same encoding as wait_exit. A pid that was already reaped (ECHILD)
// reports -1 — callers must not poll a pid twice past completion.
std::optional<int> try_wait(pid_t pid);

// kill() that reports success; a dead/reaped pid (ESRCH) counts as false.
bool send_signal(pid_t pid, int sig);

// True while `pid` looks alive (kill(pid, 0) succeeds). A zombie still
// counts as alive until it is reaped.
bool alive(pid_t pid);

// Reads one '\n'-terminated line (the newline is stripped); an empty
// string on EOF. For parsing a child's startup banner line by line.
std::string read_line(int fd);

}  // namespace sddict::proc
