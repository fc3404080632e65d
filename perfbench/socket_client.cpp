#include "socket_client.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace perfbench {

ServerProcess::ServerProcess(const std::string& binary,
                             const std::vector<std::string>& args,
                             const std::string& stderr_path) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 2, stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::vector<std::string> storage;
  storage.reserve(args.size() + 1);
  storage.push_back(binary);
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : storage) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    throw std::runtime_error("cannot spawn " + binary + ": " +
                             std::strerror(rc));
  }
}

ServerProcess::~ServerProcess() {
  if (!reaped_ && pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status_, 0);
  }
}

bool ServerProcess::running() {
  if (reaped_) return false;
  if (::waitpid(pid_, &status_, WNOHANG) == pid_) reaped_ = true;
  return !reaped_;
}

int ServerProcess::wait_exit(double timeout_s) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  while (running()) {
    if (Clock::now() >= deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status_, 0);
      reaped_ = true;
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return status_;
}

Connection::Connection(const std::string& socket_path, int retry_ms) {
  // Retries every millisecond: a coarser step would quantize the measured
  // server start-up time.
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(retry_ms);
  for (;;) {
    try {
      fd_ = aa::svc::connect_unix(socket_path, 0);
      return;
    } catch (const std::runtime_error&) {
      if (Clock::now() >= deadline) throw;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

bool Connection::send(const std::string& line) {
  return aa::svc::send_line(fd_.get(), line);
}

bool Connection::fill() {
  char chunk[1 << 16];
  const ssize_t got = ::recv(fd_.get(), chunk, sizeof chunk, 0);
  if (got <= 0) {
    if (got < 0 && (errno == EINTR || errno == EAGAIN)) return true;
    eof_ = true;
    return false;
  }
  last_read_ = Clock::now();
  buffer_.append(chunk, static_cast<std::size_t>(got));
  return true;
}

std::optional<std::string> Connection::pop_line(Clock::time_point* at) {
  const std::size_t newline = buffer_.find('\n', scanned_);
  if (newline == std::string::npos) {
    scanned_ = buffer_.size();
    return std::nullopt;
  }
  std::string line = buffer_.substr(0, newline);
  buffer_.erase(0, newline + 1);
  scanned_ = 0;
  if (at != nullptr) *at = last_read_;
  return line;
}

std::optional<std::string> Connection::read_line(int timeout_ms,
                                                 Clock::time_point* at) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (std::optional<std::string> line = pop_line(at)) return line;
    if (eof_) return std::nullopt;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) return std::nullopt;
    pollfd entry{fd_.get(), POLLIN, 0};
    const int ready = ::poll(&entry, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno != EINTR) return std::nullopt;
    if (ready > 0 && !fill()) {
      if (std::optional<std::string> line = pop_line(at)) return line;
      return std::nullopt;
    }
  }
}

double proc_status_kb(pid_t pid, const char* field) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  const std::string prefix = std::string(field) + ":";
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr);
    }
  }
  return 0.0;
}

std::size_t proc_open_fds(pid_t pid) {
  const std::string path = "/proc/" + std::to_string(pid) + "/fd";
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) return 0;
  std::size_t count = 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  ::closedir(dir);
  return count;
}

}  // namespace perfbench
