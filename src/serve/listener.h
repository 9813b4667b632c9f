// The one socket layer under both daemon planes: the frame server
// (serve/server.h) and the admin HTTP server (serve/admin.h).
//
// A Listener binds one Unix-domain or TCP socket, runs the accept loop, and
// gives every accepted connection its own thread. The protocol lives in the
// handler the owner passes to run(); the Listener owns everything else:
//
//   * bind/listen with close-on-exec fds and one backlog;
//   * a self-pipe for shutdown — request_shutdown() is async-signal-safe
//     (SIGTERM/SIGINT handlers call it) and makes wake_fd() readable for
//     good, so handlers that poll wake_fd() alongside their socket unblock
//     at once;
//   * thread bookkeeping — each accept first joins the connection threads
//     that have finished (glibc only frees a joinable thread's stack on
//     join), so a long-lived daemon tracks the connections in flight, not
//     every connection it ever accepted; run() joins the rest before it
//     returns.
//
// The client half (connect_endpoint, write_all) lives here too, so tests,
// scripts and `jsr_serve --admin-get` dial endpoints the same way.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

namespace jsrev::serve {

class Listener {
 public:
  /// Pending-connection queue length passed to listen(2).
  static constexpr int kBacklog = 64;

  /// Creates the self-pipe and ignores SIGPIPE (a client hanging up
  /// mid-response must not kill the daemon). Throws std::runtime_error.
  Listener();
  /// Closes the listener and the pipe; unlinks a Unix socket path.
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds a Unix-domain listener at `path`, replacing a stale socket file.
  /// Throws std::runtime_error on failure.
  void listen_unix(const std::string& path);
  /// Binds a TCP listener on `bind_addr` (dotted-quad IPv4; empty means
  /// 127.0.0.1). Port 0 picks an ephemeral port; see bound_port(). Throws
  /// std::runtime_error on failure.
  void listen_tcp(std::uint16_t port, const std::string& bind_addr = {});

  /// For TCP listeners: the bound port. 0 otherwise.
  std::uint16_t bound_port() const { return bound_port_; }

  /// Accept loop on the calling thread until request_shutdown(). Runs
  /// `handler(fd)` on one thread per connection and closes `fd` when the
  /// handler returns (an escaping exception is logged and costs only that
  /// connection). Joins every connection thread before returning. Throws
  /// std::logic_error without a listener.
  void run(const std::function<void(int fd)>& handler);

  /// Async-signal-safe (one atomic store, one write to the self-pipe).
  void request_shutdown() noexcept;
  bool shutdown_requested() const noexcept {
    return shutdown_.load(std::memory_order_relaxed);
  }
  /// Readable once shutdown is requested; handlers poll it with their fd.
  int wake_fd() const noexcept { return wake_pipe_[0]; }

  /// Connection threads currently tracked: in flight plus finished but not
  /// yet reaped. Tests pin that this stays bounded under reconnecting
  /// clients.
  std::size_t tracked_connections();

 private:
  struct Conn {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  /// Joins and drops every connection whose handler has returned.
  void reap_finished();

  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::string unix_path_;  // unlinked on destruction when non-empty
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> shutdown_{false};

  std::mutex conns_mu_;
  std::list<Conn> conns_;  // list: each thread holds a pointer to its flag
};

/// Writes all of `data` to `fd`, retrying on EINTR and partial writes.
/// Returns false on a hard error (e.g. the peer hung up).
bool write_all(int fd, std::string_view data);

/// Connects a stream socket to `endpoint` — "host:port" (host empty,
/// "localhost" or a dotted-quad IPv4 address) or "unix:/path". When
/// `timeout_ms` > 0 it bounds the connect and every later read and write
/// on the socket (a wedged peer then fails with EAGAIN instead of blocking).
/// Returns the fd, or -1 with the reason in *error when non-null.
int connect_endpoint(const std::string& endpoint, long timeout_ms,
                     std::string* error = nullptr);

}  // namespace jsrev::serve
