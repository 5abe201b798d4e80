#include "util/process.h"

#include <fcntl.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace sddict::proc {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

void cloexec(int fd) { ::fcntl(fd, F_SETFD, FD_CLOEXEC); }

int decode_status(int status) {
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

}  // namespace

Child spawn(const std::vector<std::string>& argv, const SpawnOptions& options) {
  if (argv.empty()) throw std::runtime_error("proc::spawn: empty argv");
  int in_pipe[2] = {-1, -1}, out_pipe[2] = {-1, -1}, err_pipe[2] = {-1, -1};
  if ((options.capture_stdin && ::pipe(in_pipe) != 0) ||
      (options.capture_stdout && ::pipe(out_pipe) != 0) ||
      (options.capture_stderr && ::pipe(err_pipe) != 0))
    throw_errno("pipe");
  const pid_t pid = ::fork();
  if (pid < 0) throw_errno("fork");
  if (pid == 0) {
    if (options.capture_stdin) {
      ::dup2(in_pipe[0], 0);
      ::close(in_pipe[0]);
      ::close(in_pipe[1]);
    }
    if (options.capture_stdout) {
      ::dup2(out_pipe[1], 1);
      ::close(out_pipe[0]);
      ::close(out_pipe[1]);
    }
    if (options.capture_stderr) {
      ::dup2(err_pipe[1], 2);
      ::close(err_pipe[0]);
      ::close(err_pipe[1]);
    }
    for (const auto& [name, value] : options.env) {
      if (value.has_value())
        ::setenv(name.c_str(), value->c_str(), 1);
      else
        ::unsetenv(name.c_str());
    }
    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string& a : argv)
      cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);
    ::execv(cargv[0], cargv.data());
    std::fprintf(stderr, "exec %s: %s\n", cargv[0], std::strerror(errno));
    ::_exit(127);
  }
  Child child;
  child.pid = pid;
  if (options.capture_stdin) {
    ::close(in_pipe[0]);
    cloexec(in_pipe[1]);
    child.stdin_fd = in_pipe[1];
  }
  if (options.capture_stdout) {
    ::close(out_pipe[1]);
    cloexec(out_pipe[0]);
    child.stdout_fd = out_pipe[0];
  }
  if (options.capture_stderr) {
    ::close(err_pipe[1]);
    cloexec(err_pipe[0]);
    child.stderr_fd = err_pipe[0];
  }
  return child;
}

int wait_exit(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  return decode_status(status);
}

std::optional<int> try_wait(pid_t pid) {
  int status = 0;
  for (;;) {
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == 0) return std::nullopt;
    if (r < 0) {
      if (errno == EINTR) continue;
      return -1;  // ECHILD or worse: already reaped or never ours
    }
    return decode_status(status);
  }
}

bool send_signal(pid_t pid, int sig) {
  return pid > 0 && ::kill(pid, sig) == 0;
}

bool alive(pid_t pid) { return pid > 0 && ::kill(pid, 0) == 0; }

std::string read_line(int fd) {
  std::string line;
  char c;
  for (;;) {
    const ssize_t n = ::read(fd, &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0 || c == '\n') return line;
    line.push_back(c);
  }
}

}  // namespace sddict::proc
