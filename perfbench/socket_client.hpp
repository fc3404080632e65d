#pragma once

// Process and socket plumbing for driving the real aa_serve binary: spawn
// and reap the server, a client connection that timestamps each reply line
// when its terminator arrives, and readers for the server's /proc entries.

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "svc/channel.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// A spawned aa_serve. The destructor kills and reaps a server that is
/// still running, so no child outlives the benchmark.
class ServerProcess {
 public:
  /// Spawns `binary args...` with stdin and stdout on /dev/null and stderr
  /// appended to `stderr_path`. Throws std::runtime_error on failure.
  ServerProcess(const std::string& binary,
                const std::vector<std::string>& args,
                const std::string& stderr_path);
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  /// False once the process has exited (reaps it).
  [[nodiscard]] bool running();
  /// Waits up to `timeout_s` for exit, then SIGKILLs. Returns the exit
  /// status as waitpid reports it, or -1 when it had to be killed.
  int wait_exit(double timeout_s);

 private:
  pid_t pid_ = -1;
  bool reaped_ = false;
  int status_ = 0;
};

/// One client connection. Lines are written whole (blocking); replies are
/// read from a private buffer, and each completed line is stamped with the
/// time its terminator was read.
class Connection {
 public:
  /// Connects, retrying for up to `retry_ms` while the server comes up.
  Connection(const std::string& socket_path, int retry_ms);

  [[nodiscard]] int fd() const noexcept { return fd_.get(); }
  [[nodiscard]] bool send(const std::string& line);
  /// Next complete reply line, waiting up to `timeout_ms`. nullopt on
  /// timeout, EOF or error (eof() tells which).
  [[nodiscard]] std::optional<std::string> read_line(int timeout_ms,
                                                     Clock::time_point* at);
  /// Reads whatever the socket holds now (call after poll() reports it
  /// readable); completed lines then come from pop_line().
  bool fill();
  [[nodiscard]] std::optional<std::string> pop_line(Clock::time_point* at);
  [[nodiscard]] bool eof() const noexcept { return eof_; }

 private:
  aa::svc::FdHandle fd_;
  std::string buffer_;
  std::size_t scanned_ = 0;
  bool eof_ = false;
  Clock::time_point last_read_{};
};

/// /proc/<pid>/status field in kB (e.g. "VmHWM"); 0 when unreadable.
[[nodiscard]] double proc_status_kb(pid_t pid, const char* field);
/// Entries in /proc/<pid>/fd; 0 when unreadable.
[[nodiscard]] std::size_t proc_open_fds(pid_t pid);

}  // namespace perfbench
