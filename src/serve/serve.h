// Batching classification core of the jsr_serve daemon.
//
// Three pieces, deliberately free of socket code so tests and benches drive
// them in-process (the fd plumbing lives in serve/server.h):
//
//  * ServeModel — the serving handle: it maps a JSRM v3 artifact read-only
//    (core::ModelView, the zero-copy path) and classifies through it; parse
//    limits and the deobfuscate flag are mirrored out so callers build
//    bit-identical ScriptAnalysis inputs.
//
//  * Batcher — the CASCADE-shaped serving loop: producers enqueue requests,
//    one worker coalesces whatever is pending (capped at max_batch) and runs
//    the batch through the analyze_corpus idiom — parallel ScriptAnalysis
//    warm-up, then parallel classification on the shared ThreadPool — so a
//    burst of N scripts costs one fan-out, not N wake-ups. Batching policy
//    is greedy: a batch launches as soon as the worker is free and the queue
//    is non-empty; no artificial accumulation window is ever inserted, so an
//    idle daemon answers a lone request at single-script latency.
//
//  * Admission control — js::ParseLimits is the contract: max_source_bytes
//    bounds accepted payloads (the server rejects larger frames before they
//    buffer), and depth/token bombs inside accepted scripts surface as the
//    ordinary unparseable ⇒ malicious verdict. The bounded queue
//    (max_queue) converts overload into immediate rejected=true responses
//    instead of unbounded memory growth.
//
// Telemetry lands in the process-wide obs registry: serve.requests,
// serve.batch_size, serve.queue_depth, serve.rejected, per-stage
// serve.stage_ms{stage=analyze|classify} and end-to-end serve.latency_ms
// histograms — drainable over the wire via the STATS control frame.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/model_view.h"
#include "js/parse_limits.h"
#include "obs/metrics.h"

namespace jsrev::serve {

struct ServeOptions {
  /// Parallel width inside one batch (0 = hardware concurrency).
  std::size_t threads = 0;
  /// Most requests coalesced into one batch.
  std::size_t max_batch = 64;
  /// Queue capacity; submissions beyond it are rejected immediately.
  std::size_t max_queue = 4096;
  /// Frontend resource bounds; max_source_bytes doubles as the frame payload
  /// cap. Defaulted from the model's own limits by ServeModel::options().
  js::ParseLimits limits;
  /// Normalize scripts through src/deob before classification (defaulted
  /// from the model).
  bool deobfuscate = false;
  /// Requests whose enqueue→completion latency reaches this many
  /// milliseconds draw a structured serve.slow_request log record carrying
  /// the request id. 0 disables the check.
  double slow_ms = 0.0;
};

/// One serving handle over a mapped model artifact.
class ServeModel {
 public:
  /// Maps `path` as a JSRM v3 artifact (read-only, zero-copy). Throws
  /// ser::ModelFormatError on malformed content and std::runtime_error when
  /// the file cannot be mapped.
  explicit ServeModel(const std::string& path);

  std::string name() const { return view_.name(); }

  /// Classifies a pre-built analysis; bit-identical to the view's
  /// classify(source) when the analysis was built with
  /// parse_limits()/deobfuscate().
  int classify(const analysis::ScriptAnalysis& analysis) const {
    return view_.classify(analysis);
  }

  /// The model's frontend bounds / normalization flag, for building
  /// matching analyses.
  js::ParseLimits parse_limits() const { return view_.parse_limits(); }
  bool deobfuscate() const { return view_.deobfuscate(); }

  /// ServeOptions pre-filled from this model's configuration.
  ServeOptions options() const;

  /// Serving format tag (telemetry label, /statusz field).
  std::string format() const { return "jsrm-mapped"; }

  /// The mapped artifact behind this model (header and section table, e.g.
  /// for /statusz).
  const core::ModelView& view() const { return view_; }

 private:
  core::ModelView view_;
};

/// Registers the jsr_build_info / jsr_model_info identity gauges (value 1,
/// identity in labels — the Prometheus idiom for exposing build metadata)
/// in the global obs registry. Called once at daemon startup.
void register_build_info(const ServeModel& model,
                         const std::string& model_path);

struct ServeRequest {
  std::uint32_t id = 0;
  std::string source;
  bool want_provenance = false;
};

struct ServeResponse {
  std::uint32_t id = 0;
  int verdict = -1;
  /// The script did not parse; verdict is the unparseable convention.
  bool parse_failed = false;
  /// Admission control turned the request away (queue full or draining);
  /// `error` carries the reason and no classification ran.
  bool rejected = false;
  std::string error;
  /// Provenance JSON when the request asked for it.
  std::string provenance_json;
};

/// Coalesces concurrent classification requests into parallel batches.
/// Thread-safe: any number of producer threads may submit concurrently.
class Batcher {
 public:
  /// `done` callbacks run on the batch worker thread (rejections run on the
  /// submitting thread); they must not block for long and must not call
  /// back into submit().
  using Completion = std::function<void(ServeResponse)>;

  /// Starts the worker. `model` must outlive the Batcher.
  Batcher(const ServeModel& model, ServeOptions opts);
  ~Batcher();

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Enqueues one request. On admission failure `done` fires inline with
  /// rejected=true.
  void submit(ServeRequest req, Completion done);

  /// Blocks until every accepted request has completed.
  void drain();

  /// Drains accepted work, then stops the worker. Idempotent; subsequent
  /// submissions are rejected with "draining".
  void shutdown();

  std::size_t queue_depth() const;

 private:
  struct Pending {
    ServeRequest req;
    Completion done;
    // Enqueue stamp; serve.latency_ms = completion - enqueue, so queue wait
    // under overload is part of the reported latency, not hidden by it.
    std::chrono::steady_clock::time_point enqueued;
    // Tracer timestamp at enqueue, when tracing was live then; -1 otherwise.
    // Lets run_batch emit a "req N queue" span covering the coalescing wait.
    std::int64_t trace_enqueue_us = -1;
  };

  void worker_loop();
  void run_batch(std::vector<Pending> batch);

  const ServeModel& model_;
  const ServeOptions opts_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // queue became non-empty / stopping
  std::condition_variable drain_cv_;  // queue + in-flight hit zero
  std::deque<Pending> queue_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
  std::thread worker_;

  // Cold-path-created, hot-path-cached metric handles.
  obs::Counter* requests_ = nullptr;
  obs::Counter* rejected_full_ = nullptr;
  obs::Counter* rejected_draining_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Histogram* batch_size_ = nullptr;
  obs::Histogram* stage_analyze_ms_ = nullptr;
  obs::Histogram* stage_classify_ms_ = nullptr;
  obs::Histogram* latency_ms_ = nullptr;
};

}  // namespace jsrev::serve
