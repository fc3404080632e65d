#include "svc/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <istream>
#include <iterator>
#include <ostream>
#include <utility>

#include "support/sync.hpp"
#include "svc/protocol.hpp"

namespace aa::svc {

namespace {

std::string too_large_message(std::size_t max_line_bytes) {
  return "request line exceeds " + std::to_string(max_line_bytes) + " bytes";
}

}  // namespace

/// Shared between the reader thread and reply callbacks: the callbacks may
/// outlive the connection (a worker can still hold one while the batch
/// drains), so the fd lives here and is only closed once the last
/// shared_ptr drops.
struct SocketServer::Connection {
  FdHandle fd;
  /// Set by the reader thread as it exits; the accept loop then joins it.
  std::atomic<bool> finished{false};
  // Lock order: leaf — serializes reply writes; nothing is acquired
  // while held.
  support::Mutex write_mutex;
  bool open AA_GUARDED_BY(write_mutex) = true;

  bool send(const std::string& line) AA_EXCLUDES(write_mutex) {
    const support::MutexLock lock(write_mutex);
    if (!open) return false;
    return send_line(fd.get(), line);
  }

  void close() noexcept AA_EXCLUDES(write_mutex) {
    // Shutdown before taking the mutex: it unblocks a send() stuck on a
    // full socket (which holds the mutex) instead of deadlocking behind it.
    fd.shutdown_both();
    const support::MutexLock lock(write_mutex);
    open = false;
  }
};

SocketServer::SocketServer(Service& service, std::string socket_path,
                           std::size_t max_line_bytes)
    : service_(service),
      socket_path_(std::move(socket_path)),
      max_line_bytes_(max_line_bytes),
      listener_(listen_unix(socket_path_)) {}

SocketServer::~SocketServer() {
  shutdown_connections();
  listener_.reset();
  ::unlink(socket_path_.c_str());
}

void SocketServer::run() {
  pollfd poll_set{};
  poll_set.fd = listener_.get();
  poll_set.events = POLLIN;
  while (!service_.shutdown_requested()) {
    const int ready = ::poll(&poll_set, 1, /*timeout_ms=*/100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    reap_finished();
    if (ready == 0) continue;
    FdHandle client(::accept(listener_.get(), nullptr, nullptr));
    if (!client.valid()) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    auto connection = std::make_shared<Connection>();
    connection->fd = std::move(client);
    const support::MutexLock lock(connections_mutex_);
    std::thread thread(&SocketServer::connection_loop, this, connection);
    readers_.push_back(Reader{std::move(connection), std::move(thread)});
  }
  shutdown_connections();
}

void SocketServer::connection_loop(std::shared_ptr<Connection> connection) {
  LineChannel channel(connection->fd.get(), max_line_bytes_);
  for (;;) {
    const std::optional<std::string> line = channel.read_line();
    if (!line.has_value()) {
      if (channel.too_large()) {
        (void)connection->send(
            make_error_reply(error_code::kTooLarge,
                             too_large_message(max_line_bytes_))
                .dump());
      }
      break;  // EOF (possibly mid-line) or error: clean disconnect.
    }
    service_.submit_line(*line, [connection](const std::string& reply) {
      (void)connection->send(reply);
    });
  }
  connection->close();
  connection->finished.store(true, std::memory_order_release);
}

void SocketServer::reap_finished() {
  std::vector<Reader> finished;
  {
    const support::MutexLock lock(connections_mutex_);
    const auto done = std::partition(
        readers_.begin(), readers_.end(), [](const Reader& reader) {
          return !reader.connection->finished.load(std::memory_order_acquire);
        });
    finished.assign(std::make_move_iterator(done),
                    std::make_move_iterator(readers_.end()));
    readers_.erase(done, readers_.end());
  }
  // The threads have left their loops, so the joins return at once. The
  // fd closes when the last reply still in flight drops its Connection.
  for (Reader& reader : finished) reader.thread.join();
}

void SocketServer::shutdown_connections() {
  std::vector<Reader> readers;
  {
    const support::MutexLock lock(connections_mutex_);
    for (const Reader& reader : readers_) reader.connection->close();
    readers.swap(readers_);
  }
  for (Reader& reader : readers) {
    if (reader.thread.joinable()) reader.thread.join();
  }
}

namespace {

/// Reply sink for stdio mode; shared so replies still in flight during
/// Service::stop() keep a live mutex.
struct StdioWriter {
  explicit StdioWriter(std::ostream& stream) : out(stream) {}

  void write(const std::string& line) AA_EXCLUDES(mutex) {
    const support::MutexLock lock(mutex);
    out << line << '\n' << std::flush;
  }

  // Lock order: leaf — serializes reply writes to the shared stream.
  support::Mutex mutex;
  std::ostream& out;
};

}  // namespace

void serve_stdio(Service& service, std::istream& in, std::ostream& out,
                 std::size_t max_line_bytes) {
  auto writer = std::make_shared<StdioWriter>(out);
  std::string line;
  while (!service.shutdown_requested() && std::getline(in, line)) {
    if (line.size() > max_line_bytes) {
      writer->write(make_error_reply(error_code::kTooLarge,
                                     too_large_message(max_line_bytes))
                        .dump());
      break;
    }
    service.submit_line(line, [writer](const std::string& reply) {
      writer->write(reply);
    });
  }
}

}  // namespace aa::svc
