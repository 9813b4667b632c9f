// Daemon process control and the load generator that drives it over a
// Unix-domain socket (the transport `jsr_serve --unix` listens on).
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"
#include "obs/metrics.h"
#include "stats.h"

namespace perfbench {

/// Seconds on the steady clock since the first call.
double now_s();

/// A serve::Server child process (this executable in --daemon mode) on a
/// Unix socket. The constructor returns once the daemon answers a ping;
/// stop() (also run by the destructor) asks it to quit and reaps it.
class Daemon {
 public:
  Daemon(const std::string& self_exe, const std::string& artifact,
         const std::string& socket_path);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket_path() const { return socket_path_; }

  /// Sends kQuit, waits for kBye and the process to exit (killing it after
  /// a timeout). Returns true when the daemon drained and exited cleanly.
  bool stop();

  /// The daemon's metrics registry (the kStats control frame) as sample rows.
  std::vector<jsrev::obs::MetricSample> stats() const;

 private:
  std::string socket_path_;
  pid_t pid_ = -1;
};

/// Entry point of --daemon mode: serves `artifact` on `socket_path` until a
/// kQuit frame arrives. Returns the process exit code.
int run_daemon(const std::string& artifact, const std::string& socket_path);

/// Outcome of one batch of requests sent to the daemon.
struct StepResult {
  std::vector<std::uint32_t> script; // index into Inputs::scripts per request
  std::vector<Timing> timing;        // per request; done < 0 if unanswered
  std::vector<int> verdict;          // -1 unless answered with a verdict
  std::size_t answered = 0;
  std::size_t rejected = 0;          // admission control turned it away
  std::size_t errored = 0;           // any other kError response
  std::size_t unanswered = 0;        // no response before the drain deadline
  std::size_t stray = 0;             // responses matching no outstanding request
  double wall_s = 0.0;               // first send to last response
  bool cut_short = false;            // stopped sending: limit already missed
};

/// Open loop: sends the first n requests of inputs.requests (wrapping), so
/// every open-loop step of a run sees the same requests. Request k is due at
/// start + k / rate and goes out on connection k % conns whether or not
/// earlier requests were answered. When
/// `abort_limit_ms` is positive the step stops sending once more requests
/// have exceeded it than p99 of n samples allows, since the step has then
/// failed the limit.
StepResult open_loop(const std::string& socket_path, const Inputs& inputs,
                     std::size_t n, double rate, std::size_t conns,
                     double abort_limit_ms);

/// Closed loop: sends the n requests of inputs.requests from index `first`
/// (wrapping); each of `conns` connections keeps `window` requests in flight
/// until all were answered (daemon saturation).
StepResult closed_loop(const std::string& socket_path, const Inputs& inputs,
                       std::size_t first, std::size_t n, std::size_t conns,
                       std::size_t window);

/// True when every request sent got exactly one answer, rejection or error
/// and no response arrived for a request that was not outstanding.
bool all_accounted(const StepResult& r);

/// Answered requests whose daemon verdict differs from `library`, the
/// library's verdict per script index.
std::size_t verdict_mismatches(const StepResult& r,
                               const std::vector<int>& library);

}  // namespace perfbench
