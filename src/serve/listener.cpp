#include "serve/listener.h"

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <system_error>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/log.h"

namespace jsrev::serve {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Fills `addr` for `path`; false when the path does not fit sun_path.
bool unix_address(const std::string& path, sockaddr_un* addr) {
  *addr = sockaddr_un{};
  addr->sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr->sun_path)) return false;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

/// Fills `addr` for `host` ("" and "localhost" mean 127.0.0.1); false when
/// the host is not a dotted-quad IPv4 address.
bool inet_address(const std::string& host, std::uint16_t port,
                  sockaddr_in* addr) {
  *addr = sockaddr_in{};
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  const std::string ip =
      host.empty() || host == "localhost" ? "127.0.0.1" : host;
  return ::inet_pton(AF_INET, ip.c_str(), &addr->sin_addr) == 1;
}

/// socket + bind + listen; returns the listening fd or throws.
int bind_and_listen(int family, const sockaddr* addr, socklen_t len,
                    const std::string& label) {
  const int fd = ::socket(family, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket(" + label + ")");
  const int one = 1;  // TCP: rebind a port still in TIME_WAIT
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, addr, len) != 0 || ::listen(fd, Listener::kBacklog) != 0) {
    const std::string e = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("bind/listen(" + label + "): " + e);
  }
  return fd;
}

}  // namespace

Listener::Listener() {
  ::signal(SIGPIPE, SIG_IGN);
  if (::pipe2(wake_pipe_, O_CLOEXEC) != 0) throw_errno("pipe2");
}

Listener::~Listener() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
}

void Listener::listen_unix(const std::string& path) {
  sockaddr_un addr;
  if (!unix_address(path, &addr)) {
    throw std::runtime_error("unix socket path too long: " + path);
  }
  ::unlink(path.c_str());  // stale socket from a previous run
  listen_fd_ = bind_and_listen(AF_UNIX, reinterpret_cast<sockaddr*>(&addr),
                               sizeof(addr), path);
  unix_path_ = path;
}

void Listener::listen_tcp(std::uint16_t port, const std::string& bind_addr) {
  sockaddr_in addr;
  if (!inet_address(bind_addr, port, &addr)) {
    throw std::runtime_error("bad bind address: " + bind_addr);
  }
  const std::string label = (bind_addr.empty() ? "127.0.0.1" : bind_addr) +
                            ":" + std::to_string(port);
  listen_fd_ = bind_and_listen(AF_INET, reinterpret_cast<sockaddr*>(&addr),
                               sizeof(addr), label);
  sockaddr_in bound{};  // stays zeroed (port 0) if getsockname fails
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  bound_port_ = ntohs(bound.sin_port);
}

void Listener::request_shutdown() noexcept {
  shutdown_.store(true, std::memory_order_relaxed);
  const char byte = 1;
  // The byte is never read, so every later poll() of wake_fd() wakes too.
  // The result is ignored: a full pipe already guarantees a wakeup.
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

void Listener::run(const std::function<void(int fd)>& handler) {
  if (listen_fd_ < 0) {
    throw std::logic_error("Listener::run without listen_unix/listen_tcp");
  }
  while (!shutdown_requested()) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & POLLIN) != 0 || shutdown_requested()) break;
    if ((fds[0].revents & POLLIN) == 0) continue;

    const int client = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (client < 0) continue;

    // Reap before spawning, so the tracked set stays at the connections in
    // flight instead of growing by one thread per accept.
    reap_finished();
    std::lock_guard<std::mutex> lock(conns_mu_);
    Conn& conn = conns_.emplace_back();
    try {
      conn.thread = std::thread([&handler, client, done = &conn.done] {
        // Backstop: an exception escaping a thread is std::terminate, and
        // one connection must never cost the process.
        try {
          handler(client);
        } catch (const std::exception& e) {
          obs::LogRecord(obs::LogLevel::kError, "serve.conn_thread_error")
              .kv("what", e.what());
        }
        ::close(client);
        done->store(true, std::memory_order_release);
      });
    } catch (const std::system_error& e) {
      // Out of threads: shed this one connection, keep accepting.
      conns_.pop_back();
      ::close(client);
      obs::LogRecord(obs::LogLevel::kError, "serve.spawn_failed")
          .kv("what", e.what());
    }
  }

  std::list<Conn> remaining;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    remaining.swap(conns_);
  }
  for (Conn& conn : remaining) conn.thread.join();
}

void Listener::reap_finished() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (it->done.load(std::memory_order_acquire)) {
      it->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

std::size_t Listener::tracked_connections() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return conns_.size();
}

// ---------------------------------------------------------------------------
// Client side

bool write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

int connect_endpoint(const std::string& endpoint, long timeout_ms,
                     std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    return -1;
  };

  sockaddr_un unix_addr;
  sockaddr_in tcp_addr;
  const sockaddr* addr = nullptr;
  socklen_t len = 0;
  if (endpoint.rfind("unix:", 0) == 0) {
    if (!unix_address(endpoint.substr(5), &unix_addr)) {
      return fail("unix socket path too long");
    }
    addr = reinterpret_cast<const sockaddr*>(&unix_addr);
    len = sizeof(unix_addr);
  } else {
    const std::size_t colon = endpoint.rfind(':');
    if (colon == std::string::npos) {
      return fail("endpoint must be host:port or unix:/path");
    }
    const int port = std::atoi(endpoint.c_str() + colon + 1);
    if (port <= 0 || port > 65535) return fail("bad port in endpoint");
    const std::string host = endpoint.substr(0, colon);
    if (!inet_address(host, static_cast<std::uint16_t>(port), &tcp_addr)) {
      return fail("bad host (want a dotted-quad IPv4 address): " + host);
    }
    addr = reinterpret_cast<const sockaddr*>(&tcp_addr);
    len = sizeof(tcp_addr);
  }

  const int fd = ::socket(addr->sa_family, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return fail(std::string("socket: ") + std::strerror(errno));
  if (timeout_ms > 0) {
    // SO_SNDTIMEO also bounds connect() on Linux; SO_RCVTIMEO turns a
    // wedged peer into EAGAIN instead of an indefinite block.
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  if (::connect(fd, addr, len) != 0) {
    const std::string e = std::strerror(errno);
    ::close(fd);
    return fail("connect(" + endpoint + "): " + e);
  }
  return fd;
}

}  // namespace jsrev::serve
