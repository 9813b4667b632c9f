#include "loadgen.h"

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "obs/prometheus.h"
#include "serve/frame.h"
#include "serve/serve.h"
#include "serve/server.h"

extern char** environ;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using jsrev::serve::DecodeStatus;
using jsrev::serve::Frame;
using jsrev::serve::FrameType;

constexpr std::size_t kMaxResponse = 64u << 20;
constexpr double kDrainDeadlineS = 60.0;

const Clock::time_point& epoch() {
  static const Clock::time_point t0 = Clock::now();
  return t0;
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int connect_or_throw(const std::string& path) {
  const int fd = connect_unix(path);
  if (fd < 0) throw std::runtime_error("cannot connect to " + path);
  return fd;
}

bool write_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    off += static_cast<std::size_t>(w);
  }
  return true;
}

std::string request_frame(FrameType type, std::uint32_t id,
                          const std::string& payload) {
  Frame f;
  f.type = type;
  f.id = id;
  f.payload = payload;
  return jsrev::serve::encode_frame(f);
}

/// Incremental frame reader over one socket.
class FrameReader {
 public:
  explicit FrameReader(int fd) : fd_(fd) {}

  /// Decodes the next whole buffered frame; false when none is buffered or
  /// the stream is malformed.
  bool pop(Frame* out) {
    std::size_t consumed = 0;
    const DecodeStatus st = jsrev::serve::decode_frame(
        std::string_view(buf_).substr(pos_), kMaxResponse, out, &consumed);
    if (st != DecodeStatus::kOk) {
      malformed_ = st != DecodeStatus::kNeedMore;
      return false;
    }
    pos_ += consumed;
    if (pos_ > (1u << 16) && pos_ * 2 > buf_.size()) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
    return true;
  }

  /// One read() into the buffer; false on EOF, error or malformed input.
  bool fill() {
    char chunk[64 * 1024];
    ssize_t r = -1;
    do {
      r = ::read(fd_, chunk, sizeof chunk);
    } while (r < 0 && errno == EINTR);
    if (r <= 0 || malformed_) return false;
    buf_.append(chunk, static_cast<std::size_t>(r));
    return true;
  }

  /// Next frame, or false on EOF/error/timeout (timeout_ms < 0: none).
  bool next(Frame* out, int timeout_ms = -1) {
    for (;;) {
      if (pop(out)) return true;
      if (malformed_) return false;
      if (timeout_ms >= 0) {
        pollfd p{fd_, POLLIN, 0};
        if (::poll(&p, 1, timeout_ms) <= 0) return false;
      }
      if (!fill()) return false;
    }
  }

 private:
  int fd_;
  std::string buf_;
  std::size_t pos_ = 0;
  bool malformed_ = false;
};

enum Outcome : std::uint8_t { kNone, kVerdict, kRejected, kErrored };

/// Records one response frame into `r`. Returns false for a frame that does
/// not answer an outstanding request (unknown or repeated id).
bool record(const Frame& f, StepResult* r, std::vector<std::uint8_t>* outcome) {
  if (f.id == 0 || f.id > outcome->size()) return false;
  const std::size_t i = f.id - 1;
  if ((*outcome)[i] != kNone) return false;
  r->timing[i].done = now_s();
  if (f.type == FrameType::kVerdict && f.payload.size() == 1) {
    r->verdict[i] = f.payload[0] - '0';
    (*outcome)[i] = kVerdict;
  } else if (f.type == FrameType::kError &&
             (f.payload == "queue full" || f.payload == "draining")) {
    (*outcome)[i] = kRejected;
  } else {
    (*outcome)[i] = kErrored;
  }
  return true;
}

void tally(StepResult* r, const std::vector<std::uint8_t>& outcome,
           std::size_t stray) {
  for (const std::uint8_t o : outcome) {
    r->answered += o == kVerdict;
    r->rejected += o == kRejected;
    r->errored += o == kErrored;
    r->unanswered += o == kNone;
  }
  r->stray = stray;
  double first = 0.0;
  double last = 0.0;
  bool any = false;
  for (const Timing& t : r->timing) {
    if (!any || t.sent < first) first = t.sent;
    if (t.done > last) last = t.done;
    any = true;
  }
  r->wall_s = any ? last - first : 0.0;
}

StepResult new_step(const Inputs& inputs, std::size_t first, std::size_t n) {
  StepResult r;
  r.script.resize(n);
  r.timing.assign(n, Timing{});
  r.verdict.assign(n, -1);
  for (std::size_t k = 0; k < n; ++k) {
    r.script[k] = inputs.requests[(first + k) % inputs.requests.size()];
  }
  return r;
}

/// Waits for reader threads to finish; past the deadline the sockets are
/// shut down so blocked reads return and the requests count as unanswered.
void join_readers(std::vector<std::thread>* readers,
                  const std::vector<int>& fds,
                  const std::atomic<std::size_t>& finished) {
  const double deadline = now_s() + kDrainDeadlineS;
  while (finished.load() < readers->size() && now_s() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (finished.load() < readers->size()) {
    for (const int fd : fds) ::shutdown(fd, SHUT_RDWR);
  }
  for (std::thread& t : *readers) t.join();
  for (const int fd : fds) ::close(fd);
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now() - epoch()).count();
}

// ---------------------------------------------------------------------------
// Daemon

Daemon::Daemon(const std::string& self_exe, const std::string& artifact,
               const std::string& socket_path)
    : socket_path_(socket_path) {
  std::vector<std::string> args = {self_exe, "--daemon", artifact,
                                   socket_path};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  ::unlink(socket_path.c_str());
  if (::posix_spawn(&pid_, self_exe.c_str(), nullptr, nullptr, argv.data(),
                    environ) != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn daemon");
  }
  const double deadline = now_s() + 30.0;
  for (;;) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("daemon exited during start-up");
    }
    const int fd = connect_unix(socket_path);
    if (fd >= 0) {
      FrameReader in(fd);
      Frame pong;
      const bool ok = write_all(fd, request_frame(FrameType::kPing, 1, "")) &&
                      in.next(&pong, 10000) && pong.type == FrameType::kPong;
      ::close(fd);
      if (ok) return;
    }
    if (now_s() > deadline) {
      stop();
      throw std::runtime_error("daemon did not come up");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

Daemon::~Daemon() { stop(); }

bool Daemon::stop() {
  if (pid_ < 0) return true;
  bool bye = false;
  const int fd = connect_unix(socket_path_);
  if (fd >= 0) {
    FrameReader in(fd);
    Frame f;
    bye = write_all(fd, request_frame(FrameType::kQuit, 1, "")) &&
          in.next(&f, 30000) && f.type == FrameType::kBye;
    ::close(fd);
  }
  int status = 0;
  bool exited = false;
  const double deadline = now_s() + 30.0;
  while (now_s() < deadline) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      exited = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (!exited) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  ::unlink(socket_path_.c_str());
  return bye && exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::vector<jsrev::obs::MetricSample> Daemon::stats() const {
  const int fd = connect_or_throw(socket_path_);
  FrameReader in(fd);
  Frame f;
  const bool ok = write_all(fd, request_frame(FrameType::kStats, 1, "")) &&
                  in.next(&f, 30000) && f.type == FrameType::kStatsJson;
  ::close(fd);
  if (!ok) throw std::runtime_error("daemon did not answer kStats");
  std::vector<jsrev::obs::MetricSample> rows;
  std::string error;
  if (!jsrev::obs::samples_from_metrics_json(f.payload, &rows, &error)) {
    throw std::runtime_error("daemon stats: " + error);
  }
  return rows;
}

int run_daemon(const std::string& artifact, const std::string& socket_path) {
  // Die with the benchmark process, even if it is killed.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() == 1) return 1;
  // Yield to the load generator when both want a CPU, so the client's
  // send and receive timestamps are not delayed behind classify work.
  ::setpriority(PRIO_PROCESS, 0, 10);
  const jsrev::serve::ServeModel model(artifact);
  jsrev::serve::Server server(model, model.options());
  server.listen_unix(socket_path);
  server.run();
  return 0;
}

// ---------------------------------------------------------------------------
// Load generation

StepResult open_loop(const std::string& socket_path, const Inputs& inputs,
                     std::size_t n, double rate, std::size_t conns,
                     double abort_limit_ms) {
  StepResult r = new_step(inputs, 0, n);
  std::vector<std::uint8_t> outcome(n, kNone);
  std::vector<int> fds;
  for (std::size_t c = 0; c < conns; ++c) {
    fds.push_back(connect_or_throw(socket_path));
  }
  const double start = now_s() + 0.005;
  for (std::size_t k = 0; k < n; ++k) {
    r.timing[k].due = start + static_cast<double>(k) / rate;
  }

  // One thread sends on schedule and reads every connection in between, so
  // no thread hand-off sits between a response arriving and its timestamp.
  const std::size_t allowed_late = samples_beyond(n, 0.99);
  std::size_t late = 0;
  std::size_t stray = 0;
  std::vector<FrameReader> readers;
  std::vector<pollfd> polled;
  for (const int fd : fds) {
    readers.emplace_back(fd);
    polled.push_back({fd, POLLIN, 0});
  }
  std::size_t open = conns;
  std::size_t sent = 0;
  bool sending = true;
  double drain_until = 0.0;
  while (open > 0) {
    const double now = now_s();
    if (sending) {
      if (abort_limit_ms > 0.0 && late > allowed_late) r.cut_short = true;
      if (!r.cut_short && sent < n && now >= r.timing[sent].due) {
        const std::string bytes = request_frame(
            FrameType::kClassify, static_cast<std::uint32_t>(sent + 1),
            inputs.scripts[r.script[sent]].source);
        r.timing[sent].sent = now_s();
        if (write_all(fds[sent % conns], bytes)) {
          ++sent;
          continue;
        }
        r.cut_short = true;
      }
      if (r.cut_short || sent == n) {
        sending = false;
        drain_until = now + kDrainDeadlineS;
        for (const int fd : fds) ::shutdown(fd, SHUT_WR);
      }
    }
    if (!sending && now >= drain_until) break;
    const double wait_s =
        std::max(0.0, (sending ? r.timing[sent].due : drain_until) - now);
    const timespec ts{static_cast<time_t>(wait_s),
                      static_cast<long>((wait_s - std::floor(wait_s)) * 1e9)};
    if (::ppoll(polled.data(), polled.size(), &ts, nullptr) <= 0) continue;
    for (std::size_t c = 0; c < conns; ++c) {
      if (polled[c].fd < 0 || polled[c].revents == 0) continue;
      const bool alive = readers[c].fill();
      Frame f;
      while (readers[c].pop(&f)) {
        if (!record(f, &r, &outcome)) {
          ++stray;
        } else if (abort_limit_ms > 0.0 &&
                   latency_ms(r.timing[f.id - 1]) > abort_limit_ms) {
          ++late;
        }
      }
      if (!alive) {
        polled[c].fd = -1;  // poll ignores negative descriptors
        --open;
      }
    }
  }
  for (const int fd : fds) ::close(fd);

  r.script.resize(sent);
  r.timing.resize(sent);
  r.verdict.resize(sent);
  outcome.resize(sent);
  tally(&r, outcome, stray);
  return r;
}

StepResult closed_loop(const std::string& socket_path, const Inputs& inputs,
                       std::size_t first, std::size_t n, std::size_t conns,
                       std::size_t window) {
  StepResult r = new_step(inputs, first, n);
  std::vector<std::uint8_t> outcome(n, kNone);
  std::vector<int> fds;
  for (std::size_t c = 0; c < conns; ++c) {
    fds.push_back(connect_or_throw(socket_path));
  }
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> stray{0};
  std::atomic<std::size_t> finished{0};
  std::vector<std::thread> workers;
  for (std::size_t c = 0; c < conns; ++c) {
    workers.emplace_back([&, c] {
      const int fd = fds[c];
      const auto send_next = [&]() -> bool {
        const std::size_t k = next++;
        if (k >= n) return false;
        r.timing[k].due = r.timing[k].sent = now_s();
        return write_all(fd, request_frame(FrameType::kClassify,
                                           static_cast<std::uint32_t>(k + 1),
                                           inputs.scripts[r.script[k]].source));
      };
      std::size_t in_flight = 0;
      while (in_flight < window && send_next()) ++in_flight;
      FrameReader in(fd);
      Frame f;
      while (in_flight > 0 && in.next(&f)) {
        if (!record(f, &r, &outcome)) {
          ++stray;
          continue;
        }
        --in_flight;
        if (send_next()) ++in_flight;
      }
      ++finished;
    });
  }
  join_readers(&workers, fds, finished);
  tally(&r, outcome, stray.load());
  return r;
}

bool all_accounted(const StepResult& r) {
  return r.answered + r.rejected + r.errored == r.timing.size() &&
         r.unanswered == 0 && r.stray == 0;
}

std::size_t verdict_mismatches(const StepResult& r,
                               const std::vector<int>& library) {
  std::size_t n = 0;
  for (std::size_t k = 0; k < r.verdict.size(); ++k) {
    n += r.verdict[k] >= 0 && r.verdict[k] != library[r.script[k]];
  }
  return n;
}

}  // namespace perfbench
