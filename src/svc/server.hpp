#pragma once

// Transports for the allocation service: a Unix-domain-socket server (the
// normal aa_serve mode) and a stdio loop (the `--stdio` test mode). Both
// only move bytes — parsing, validation, batching, and solving live in
// Service.

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "support/sync.hpp"
#include "svc/channel.hpp"
#include "svc/service.hpp"

namespace aa::svc {

/// Accept loop over a Unix domain stream socket. One reader thread per
/// connection, joined and dropped by the accept loop once its client has
/// gone; replies are written back on the worker threads under a
/// per-connection mutex. When the process runs out of descriptors
/// (EMFILE/ENFILE), further clients wait in the listen backlog until a
/// connection closes; the server keeps running. A request line longer
/// than `max_line_bytes` gets a structured `too_large` error and the
/// connection is closed (the stream cannot be resynchronized); a mid-line
/// EOF is a clean disconnect.
class SocketServer {
 public:
  SocketServer(Service& service, std::string socket_path,
               std::size_t max_line_bytes = kDefaultMaxLineBytes);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Blocks accepting connections until the service reports
  /// shutdown_requested(), then closes every connection and joins the
  /// reader threads.
  void run();

 private:
  struct Connection;

  /// A connection and the thread reading it.
  struct Reader {
    std::shared_ptr<Connection> connection;
    std::thread thread;
  };

  void connection_loop(std::shared_ptr<Connection> connection);
  /// Joins and drops the readers whose client has disconnected.
  void reap_finished() AA_EXCLUDES(connections_mutex_);
  void shutdown_connections() AA_EXCLUDES(connections_mutex_);

  Service& service_;
  std::string socket_path_;
  std::size_t max_line_bytes_;
  FdHandle listener_;

  // Lock order: leaf. Guards the reader registry only; each Connection
  // then has its own leaf write_mutex.
  support::Mutex connections_mutex_;
  std::vector<Reader> readers_ AA_GUARDED_BY(connections_mutex_);
};

/// Reads request lines from `in` until EOF (or the first line after a
/// processed shutdown), echoing replies to `out` (one per line, flushed).
/// `out` must stay valid until the service is stopped: replies still in
/// flight when this returns are written during Service::stop().
void serve_stdio(Service& service, std::istream& in, std::ostream& out,
                 std::size_t max_line_bytes = kDefaultMaxLineBytes);

}  // namespace aa::svc
