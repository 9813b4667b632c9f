// The repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--workdir D]
//
// Generates the workload's inputs from the seed, sets the detector up
// (train, write the artifact, map it, start a jsr_serve-equivalent daemon on
// a Unix socket), measures, checks every output, and prints one JSON line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end ones (BENCHMARK.json
// "end_to_end"); with --trace 1 the run records spans around each call into
// a layer's public functions and reports the per-layer metrics instead.
//
// A failed output check sets "correct": false; it never becomes a metric.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/script_analysis.h"
#include "core/jsrevealer.h"
#include "core/model_view.h"
#include "inputs.h"
#include "lint/linter.h"
#include "loadgen.h"
#include "paths/path_extraction.h"
#include "serve/frame.h"
#include "serve/serve.h"
#include "spans.h"
#include "stats.h"
#include "util/thread_pool.h"

namespace {

using namespace perfbench;
namespace core = jsrev::core;
namespace fs = std::filesystem;

constexpr std::size_t kConnections = 2;     // open-loop client connections
// In flight per connection in the closed loop: together four full batches
// (serve::ServerOptions::max_batch is 64), so the daemon's queue always
// holds a full batch and its saturation never waits on the client.
constexpr std::size_t kClosedWindow = 128;
constexpr double kP99 = 0.99;
constexpr std::size_t kTailSamples = 10;    // samples beyond p99 per step
constexpr int kSetups = 3;                  // set-ups per run (median)
// Throughput passes per run, at least. For serve_mixed the passes take the
// traffic cycle's kMinPasses equal windows in turn, and a run ends on a whole
// number of cycles, so every window counts equally in the median.
constexpr std::size_t kMinPasses = 4;
constexpr double kProbeSeconds = 2.0;       // shortest max-rate probe
constexpr std::size_t kSampleStride = 4;    // width-1 and traced sample
constexpr std::size_t kTracedRequests = 1280;  // traced sample of requests
constexpr int kOverheadRepeats = 3;         // traced/untraced loop pairs
// The traced run's stage sum must match width-1 classify(source) wall time
// within this share of the wall time, and no residual stage may be more
// negative than it.
constexpr double kReconcileTolerance = 0.10;

// Open-loop rates of the served workload, fixed and absolute: shares of the
// daemon capacity its request mix predicts from daemon throughput measured
// on a 4-core machine at width 4 (4800 snippets/s, 243 full scripts/s),
// never from the same run's saturation. The first three shares are the low,
// mid and high rates of the latency metrics.
constexpr double kSnippetsPerS = 4800.0;
constexpr double kFullScriptsPerS = 243.0;
constexpr double kLadderShares[] = {0.10, 0.15, 0.20, 0.25, 0.30,
                                    0.35, 0.40, 0.50, 0.60, 0.70,
                                    0.80, 0.90, 1.00, 1.10, 1.20};
// Assumed service-level limit on p99 latency that max_rate_per_s must meet.
constexpr double kP99LimitMs = 500.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/work";
};

class Checks {
 public:
  void require(bool ok, const std::string& what) {
    if (!ok) {
      ok_ = false;
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    }
  }
  bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

/// Metric rows. A value that is not finite (an infinite percentile where
/// requests failed) is written as null and fails the run's checks.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    rows_.push_back({name, value, unit});
    std::fprintf(stderr, "  %-26s %14.6g %s\n", name.c_str(), value,
                 unit.c_str());
  }
  std::string json(bool correct, std::size_t attempted,
                   std::size_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[128];
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": ",
                    i == 0 ? "" : ", ", rows_[i].name.c_str());
      out += buf;
      if (std::isfinite(rows_[i].value)) {
        std::snprintf(buf, sizeof buf, "%.17g, ", rows_[i].value);
        out += buf;
      } else {
        out += "null, ";
      }
      out += "\"unit\": \"" + rows_[i].unit + "\"}";
    }
    out += "}}";
    return out;
  }
  bool all_finite() const {
    return std::all_of(rows_.begin(), rows_.end(),
                       [](const Row& r) { return std::isfinite(r.value); });
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

/// Total and stolen CPU ticks from /proc/stat ({0, 0} where unavailable).
/// Steal is time the hypervisor ran something else on this machine's CPUs.
std::pair<double, double> cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double total = 0.0;
  double steal = 0.0;
  in >> cpu;
  for (int field = 0; field < 10 && in; ++field) {
    double v = 0.0;
    in >> v;
    total += v;
    if (field == 7) steal = v;
  }
  return {total, steal};
}

/// Share of the CPU time between two cpu_ticks() readings that was stolen.
double steal_share(std::pair<double, double> from,
                   std::pair<double, double> to) {
  const double total = to.first - from.first;
  return total > 0.0 ? (to.second - from.second) / total : 0.0;
}

std::string self_exe() {
  std::error_code ec;
  const fs::path p = fs::read_symlink("/proc/self/exe", ec);
  if (ec) throw std::runtime_error("cannot resolve own executable");
  return p.string();
}

// ---------------------------------------------------------------------------
// Set-up: inputs, training, artifact, verified map, daemon.

struct Setup {
  Inputs inputs;
  std::string artifact;
  core::ModelView view;
  std::unique_ptr<Daemon> daemon;
  double setup_s = 0.0;
  double train_s = 0.0;
  double write_ms = 0.0;
  double map_ms = 0.0;
};

std::unique_ptr<Setup> set_up(const WorkloadSpec& spec, std::uint64_t seed,
                              const std::string& dir, int k) {
  auto s = std::make_unique<Setup>();
  const double t0 = now_s();
  s->inputs = make_inputs(spec, seed);
  {
    core::JsRevealer trainer(model_config(spec));
    double t = now_s();
    trainer.train(s->inputs.train);
    s->train_s = now_s() - t;
    s->artifact = dir + "/model" + std::to_string(k) + ".jsrm";
    t = now_s();
    trainer.save_artifact_file(s->artifact);
    s->write_ms = (now_s() - t) * 1e3;
  }
  double t = now_s();
  s->view.map_file(s->artifact, /*verify_checksums=*/true);
  s->map_ms = (now_s() - t) * 1e3;
  s->daemon = std::make_unique<Daemon>(
      self_exe(), s->artifact, dir + "/d" + std::to_string(k) + ".sock");
  s->setup_s = now_s() - t0;
  return s;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::vector<std::string> sources_of(const Inputs& in, std::size_t from,
                                    std::size_t to) {
  std::vector<std::string> out;
  for (std::size_t i = from; i < to; ++i) out.push_back(in.scripts[i].source);
  return out;
}

// ---------------------------------------------------------------------------
// Daemon steps

/// Requests per open-loop step of the served workload, taken from the start
/// of the request sequence so every step of a run sees the same requests: at
/// least `at_least`, and enough that p99 over all requests and p99 over
/// snippet requests alone each have kTailSamples samples beyond them.
std::size_t step_size(const Inputs& in, std::size_t at_least) {
  const std::size_t need = min_samples_for(kP99, kTailSamples);
  std::size_t n = 0;
  std::size_t snippets = 0;
  while (n < std::max(need, at_least) || snippets < need) {
    const std::uint32_t s = in.requests[n % in.requests.size()];
    snippets += in.scripts[s].kind == Kind::kSnippet;
    ++n;
  }
  return n;
}

/// The served workload's rate ladder (requests/s), ascending.
std::vector<double> ladder(const WorkloadSpec& spec) {
  const double capacity = 1.0 / (spec.snippet_share / kSnippetsPerS +
                                 (1.0 - spec.snippet_share) / kFullScriptsPerS);
  std::vector<double> out;
  for (const double share : kLadderShares) out.push_back(share * capacity);
  return out;
}

std::vector<double> latencies(const StepResult& r, bool snippets_only,
                              const Inputs& in) {
  std::vector<double> out;
  for (std::size_t k = 0; k < r.timing.size(); ++k) {
    if (snippets_only && in.scripts[r.script[k]].kind != Kind::kSnippet) {
      continue;
    }
    // A failed request misses every latency limit.
    out.push_back(r.verdict[k] >= 0 ? latency_ms(r.timing[k]) : INFINITY);
  }
  return out;
}

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

/// Output checks every daemon step must pass: each request accounted for,
/// every verdict equal to the library's verdict on the same artifact.
void check_step(const StepResult& r, const std::vector<int>& library,
                Checks* checks, Tally* tally) {
  checks->require(all_accounted(r),
                  "every request answered, rejected or errored");
  const std::size_t mismatches = verdict_mismatches(r, library);
  checks->require(mismatches == 0,
                  "daemon verdicts equal ModelView::classify_all (" +
                      std::to_string(mismatches) + " differ)");
  tally->attempted += r.timing.size();
  tally->failed += r.rejected + r.errored + r.unanswered;
}

bool step_passes(const StepResult& r, const Inputs& in) {
  return !r.cut_short && r.rejected + r.errored + r.unanswered == 0 &&
         percentile(latencies(r, false, in), kP99) <= kP99LimitMs &&
         !backlog_growing(r.timing, kP99LimitMs);
}

// ---------------------------------------------------------------------------
// Daemon latency at the served workload's fixed rates and the max-rate
// search.

struct ServeLatency {
  double p50[3] = {0.0, 0.0, 0.0};  // low, mid, high
  double p99[3] = {0.0, 0.0, 0.0};
  double snippet_p99_high = 0.0;
  double max_rate = 0.0;
  StepResult mid;  // the step at the mid rate
};

ServeLatency measure_serve_latency(const WorkloadSpec& spec, const Inputs& in,
                                   const std::string& socket,
                                   const std::vector<int>& library,
                                   Checks* checks, Tally* tally) {
  // Probes look for the overload point, so their failures are outcomes of
  // the search, not failed operations of the workload.
  Tally probe_tally;
  std::map<std::size_t, bool> passed;
  const std::vector<double> rates = ladder(spec);
  const auto run_step = [&](std::size_t idx, bool probe) {
    const double rate = rates[idx];
    const std::size_t n = step_size(
        in, probe ? static_cast<std::size_t>(rate * kProbeSeconds) : 0);
    StepResult r = open_loop(socket, in, n, rate, kConnections,
                             probe ? kP99LimitMs : 0.0);
    check_step(r, library, checks, probe ? &probe_tally : tally);
    passed[idx] = step_passes(r, in);
    std::fprintf(stderr, "  step %6.0f/s: n=%zu p50 %.2f p99 %.2f ms %s\n",
                 rate, r.timing.size(),
                 percentile(latencies(r, false, in), 0.5),
                 percentile(latencies(r, false, in), kP99),
                 passed[idx] ? "pass" : "FAIL");
    return r;
  };

  ServeLatency out;
  for (std::size_t level = 0; level < 3; ++level) {
    const StepResult r = run_step(level, false);
    out.p50[level] = percentile(latencies(r, false, in), 0.5);
    out.p99[level] = percentile(latencies(r, false, in), kP99);
    if (level == 1) out.mid = r;
    if (level == 2) {
      out.snippet_p99_high = percentile(latencies(r, true, in), kP99);
    }
  }

  // Gallop up the ladder from the highest passing rate, then bisect.
  const std::size_t L = rates.size();
  std::size_t lo = L;  // highest passing index (L: none)
  for (const auto& [i, p] : passed) {
    if (p && (lo == L || i > lo)) lo = i;
  }
  if (lo != L) {
    std::size_t hi = L;  // lowest failing index above lo
    for (const auto& [i, p] : passed) {
      if (!p && i > lo) hi = std::min(hi, i);
    }
    for (std::size_t stride = 1; hi == L && lo + 1 < L; stride *= 2) {
      const std::size_t i = std::min(lo + stride, L - 1);
      (void)run_step(i, true);
      (passed[i] ? lo : hi) = i;
    }
    while (hi != L && hi - lo > 1) {
      const std::size_t m = (lo + hi) / 2;
      (void)run_step(m, true);
      (passed[m] ? lo : hi) = m;
    }
    out.max_rate = rates[lo];
  }
  std::fprintf(stderr, "perfbench: max-rate probes sent %zu, %zu failed\n",
               probe_tally.attempted, probe_tally.failed);
  return out;
}

// ---------------------------------------------------------------------------
// Untraced run: end-to-end metrics.

int run_end_to_end(const WorkloadSpec& spec, const Args& args,
                   const std::string& dir) {
  Checks checks;
  Report report;
  Tally tally;

  // Set up kSetups times; every set-up must produce the same inputs and the
  // same artifact bytes. The last one is measured.
  std::vector<double> setup_s;
  std::unique_ptr<Setup> s;
  std::uint64_t digest = 0;
  std::string artifact_bytes;
  for (int k = 0; k < kSetups; ++k) {
    if (s) {
      checks.require(s->daemon->stop(), "daemon drained and exited");
      fs::remove(s->artifact);
    }
    s = set_up(spec, args.seed, dir, k);
    setup_s.push_back(s->setup_s);
    const std::string bytes = file_bytes(s->artifact);
    if (k == 0) {
      digest = inputs_digest(s->inputs);
      artifact_bytes = bytes;
    }
    checks.require(inputs_digest(s->inputs) == digest,
                   "same seed gives identical inputs");
    checks.require(bytes == artifact_bytes,
                   "repeated set-up writes identical artifact bytes");
  }
  const Inputs& in = s->inputs;
  std::fprintf(stderr, "perfbench: %s seed %llu: inputs %016llx, %zu full "
               "scripts, %zu snippets\n", std::string(spec.name).c_str(),
               static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(digest), in.full_count,
               in.scripts.size() - in.full_count);

  // Library verdicts for every distinct script at width nproc; every
  // kSampleStride-th full script again at width 1.
  const std::vector<std::string> all = sources_of(in, 0, in.scripts.size());
  s->view.set_threads(0);
  const std::vector<int> library = s->view.classify_all(all);
  std::vector<std::string> sample;
  std::vector<int> sample_verdicts;
  for (std::size_t i = 0; i < in.full_count; i += kSampleStride) {
    sample.push_back(in.scripts[i].source);
    sample_verdicts.push_back(library[i]);
  }
  s->view.set_threads(1);
  checks.require(s->view.classify_all(sample) == sample_verdicts,
                 "width-1 verdicts equal width-nproc verdicts");
  s->view.set_threads(0);

  // Throughput for --seconds, median over the less-stolen half of the
  // passes (median_least_stolen). Batch workloads: classify_all over the
  // full scripts, closed loop. serve_mixed: daemon saturation with a fixed
  // in-flight window per connection.
  const double t_start = now_s();
  std::vector<double> rates;
  std::vector<double> steal;  // per pass
  const auto timed_pass = [&](const std::function<double()>& pass) {
    const auto ticks = cpu_ticks();
    rates.push_back(pass());
    steal.push_back(steal_share(ticks, cpu_ticks()));
  };
  if (spec.served()) {
    const std::size_t window = traffic_cycle(spec) / kMinPasses;
    do {
      timed_pass([&] {
        const StepResult r =
            closed_loop(s->daemon->socket_path(), in,
                        rates.size() % kMinPasses * window, window,
                        kConnections, kClosedWindow);
        check_step(r, library, &checks, &tally);
        return static_cast<double>(r.answered) / r.wall_s;
      });
    } while (now_s() < t_start + args.seconds || rates.size() % kMinPasses);
  } else {
    const std::vector<std::string> full = sources_of(in, 0, in.full_count);
    const std::vector<int> expect(library.begin(),
                                  library.begin() + in.full_count);
    do {
      timed_pass([&] {
        const double t = now_s();
        const std::vector<int> v = s->view.classify_all(full);
        checks.require(v == expect, "classify_all verdicts are stable");
        return static_cast<double>(full.size()) / (now_s() - t);
      });
    } while (now_s() < t_start + args.seconds || rates.size() < kMinPasses);
    // The daemon cross-check every run makes, on the same full scripts.
    check_step(closed_loop(s->daemon->socket_path(), in, 0,
                           traffic_cycle(spec), kConnections, kClosedWindow),
               library, &checks, &tally);
  }
  std::fprintf(stderr, "perfbench: measured %.1f s, %zu passes (%.1f to "
               "%.1f scripts/s), CPU steal per pass %.1f%% to %.1f%%\n",
               now_s() - t_start, rates.size(),
               *std::min_element(rates.begin(), rates.end()),
               *std::max_element(rates.begin(), rates.end()),
               100.0 * *std::min_element(steal.begin(), steal.end()),
               100.0 * *std::max_element(steal.begin(), steal.end()));

  std::vector<int> truth;
  for (std::size_t i = 0; i < in.full_count; ++i) {
    truth.push_back(in.scripts[i].label);
  }
  const std::vector<int> predicted(library.begin(),
                                   library.begin() + in.full_count);

  report.add("setup_s", median(setup_s), "s");
  report.add("scripts_per_s", median_least_stolen(rates, steal), "1/s");
  report.add("served_share",
             tally.attempted == 0
                 ? 0.0
                 : 1.0 - static_cast<double>(tally.failed) /
                             static_cast<double>(tally.attempted),
             "share");
  report.add("detect_f1", f1_score(truth, predicted), "share");
  report.add("model_bytes", static_cast<double>(artifact_bytes.size()),
             "bytes");

  checks.require(report.all_finite(), "every metric value is finite");
  checks.require(s->daemon->stop(), "daemon drained and exited");
  std::printf("%s\n",
              report.json(checks.ok(), tally.attempted, tally.failed).c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics from spans around each layer's public calls.

/// Per-script stage times (ms) from one width-1 staged pass.
struct Stages {
  double parse = 0.0;      // js::parse via ScriptAnalysis (normalizing under deob)
  double raw_parse = 0.0;  // plain parse of the original text
  double dataflow = 0.0;
  double extract = 0.0;
  double vocab = 0.0;
  double cfgs = 0.0;       // ScriptAnalysis::cfgs, which lint needs
  double lint = 0.0;       // lint::Linter::lint on warm CFGs
  double featurize = 0.0;
  double classify = 0.0;   // ModelView::classify on the warm analysis
  double wall = 0.0;       // ModelView::classify(source), width 1
  double paths = 0.0;
  double known = 0.0;

  /// Adds w times every field of x.
  void add(const Stages& x, double w) {
    for (double Stages::*f :
         {&Stages::parse, &Stages::raw_parse, &Stages::dataflow,
          &Stages::extract, &Stages::vocab, &Stages::cfgs, &Stages::lint,
          &Stages::featurize, &Stages::classify, &Stages::wall,
          &Stages::paths, &Stages::known}) {
      this->*f += w * (x.*f);
    }
  }
  Stages scaled(double k) const {
    Stages out;
    out.add(*this, k);
    return out;
  }
};

Stages staged_pass(const Setup& s, const WorkloadSpec& spec,
                   const std::string& source, std::uint32_t request,
                   SpanLog* log, const jsrev::lint::Linter& linter,
                   Checks* checks) {
  Stages st;
  const core::ModelView& view = s.view;
  const jsrev::paths::PathConfig path_cfg =
      model_config(spec).path;  // the workload's model path limits
  const int root = log->open("request", request);

  if (spec.hardened) {
    const int raw = log->open("js.parse", request, root);
    jsrev::analysis::ScriptAnalysis plain(source, view.parse_limits(), false);
    (void)plain.root();
    st.raw_parse = log->close(raw);
  }
  {
    jsrev::analysis::ScriptAnalysis a(source, view.parse_limits(),
                                      view.deobfuscate());
    int sp = log->open(spec.hardened ? "deob.normalizing_parse" : "js.parse",
                       request, root);
    const bool failed = a.parse_failed();
    st.parse = log->close(sp);
    if (!spec.hardened) st.raw_parse = st.parse;
    checks->require(!failed, "workload scripts parse");
    if (failed) {
      log->close(root);
      return st;
    }
    sp = log->open("analysis.dataflow", request, root);
    const jsrev::analysis::DataFlowInfo& flow = a.dataflow();
    st.dataflow = log->close(sp);

    sp = log->open("paths.extract", request, root);
    std::vector<jsrev::paths::PathContext> pcs =
        jsrev::paths::extract_paths(a.root(), &flow, path_cfg);
    st.extract = log->close(sp);

    sp = log->open("paths.vocab", request, root);
    std::size_t known = 0;
    for (const auto& pc : pcs) {
      known += view.vocab().lookup(pc) != jsrev::paths::PathVocabView::kUnknown;
    }
    st.vocab = log->close(sp);
    st.paths = static_cast<double>(pcs.size());
    st.known = static_cast<double>(known);
    pcs = {};

    if (spec.hardened) {
      // The CFGs are memoized: built here in their own span, they are warm
      // for both lint calls below, so the staged lint and featurize's own
      // lint cost the same and the CFG build is charged to lint.ms.
      sp = log->open("lint.cfgs", request, root);
      (void)a.cfgs();
      st.cfgs = log->close(sp);
      sp = log->open("lint.lint", request, root);
      (void)linter.lint(a);
      st.lint = log->close(sp);
    }
    sp = log->open("core.featurize", request, root);
    (void)view.featurize(a);
    st.featurize = log->close(sp);

    sp = log->open("core.classify", request, root);
    (void)view.classify(a);
    st.classify = log->close(sp);
  }
  const int sp = log->open("core.classify_source", request, root);
  (void)view.classify(source);
  st.wall = log->close(sp);
  log->close(root);
  return st;
}

/// The first n requests through an in-process serve::Batcher at `rate`,
/// open loop: Batcher::submit to completion, timed from the scheduled
/// submit time. Checks every verdict against the library's.
std::vector<Timing> batcher_step(const std::string& artifact, const Inputs& in,
                                 std::size_t n, double rate,
                                 const std::vector<int>& library,
                                 Checks* checks) {
  std::vector<Timing> timing(n);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;
  std::vector<int> verdicts(n, -1);
  const jsrev::serve::ServeModel model(artifact);
  jsrev::serve::Batcher b(model, model.options());
  const double start = now_s() + 0.005;
  for (std::size_t k = 0; k < n; ++k) {
    timing[k].due = start + static_cast<double>(k) / rate;
  }
  for (std::size_t k = 0; k < n; ++k) {
    while (now_s() < timing[k].due) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<long>((timing[k].due - now_s()) * 1e6)));
    }
    jsrev::serve::ServeRequest req;
    req.id = static_cast<std::uint32_t>(k);
    req.source = in.scripts[in.requests[k]].source;
    timing[k].sent = now_s();
    b.submit(std::move(req), [&, k](jsrev::serve::ServeResponse resp) {
      const double now = now_s();
      std::lock_guard<std::mutex> lock(mu);
      timing[k].done = now;
      verdicts[k] = resp.rejected ? -1 : resp.verdict;
      ++done;
      cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done == n; });
  for (std::size_t k = 0; k < n; ++k) {
    checks->require(verdicts[k] == library[in.requests[k]],
                    "batcher verdicts equal ModelView::classify_all");
  }
  return timing;
}

int run_traced(const WorkloadSpec& spec, const Args& args,
               const std::string& dir) {
  Checks checks;
  Report report;
  Tally tally;
  std::unique_ptr<Setup> s = set_up(spec, args.seed, dir, 0);
  const Inputs& in = s->inputs;
  const std::vector<std::string> all = sources_of(in, 0, in.scripts.size());
  s->view.set_threads(0);
  const std::vector<int> library = s->view.classify_all(all);

  // Daemon traffic first. serve_mixed: the in-process batcher at the mid
  // rate, the daemon at the three fixed rates (the mid rate on the
  // batcher's requests), then the max-rate search. Batch workloads: the
  // daemon classifies one traffic cycle, each full script once, closed
  // loop, for the verdict cross-check.
  const double t_start = now_s();
  const std::size_t n = spec.served() ? step_size(in, 0) : 0;
  std::vector<Timing> batcher;
  std::vector<double> lag;
  std::vector<double> daemon_ms;
  ServeLatency serve;
  if (spec.served()) {
    batcher = batcher_step(s->artifact, in, n, ladder(spec)[1], library,
                           &checks);
    serve = measure_serve_latency(spec, in, s->daemon->socket_path(), library,
                                  &checks, &tally);
    for (const Timing& x : serve.mid.timing) lag.push_back(lag_ms(x));
    daemon_ms = latencies(serve.mid, false, in);
  } else {
    check_step(closed_loop(s->daemon->socket_path(), in, 0,
                           traffic_cycle(spec), kConnections, kClosedWindow),
               library, &checks, &tally);
  }
  double batch_count = 0.0;
  double batch_sum = 0.0;
  double rejected = 0.0;
  for (const jsrev::obs::MetricSample& row : s->daemon->stats()) {
    if (row.name == "serve.batch_size") {
      batch_count += static_cast<double>(row.count);
      batch_sum += row.sum;
    } else if (row.name == "serve.rejected") {
      rejected += row.value;
    }
  }

  // Frame codec round trip on one traffic cycle of request payloads.
  std::vector<double> codec_us;
  for (std::size_t k = 0; k < traffic_cycle(spec); ++k) {
    jsrev::serve::Frame f;
    f.type = jsrev::serve::FrameType::kClassify;
    f.id = static_cast<std::uint32_t>(k + 1);
    f.payload = in.scripts[in.requests[k]].source;
    const double t0 = now_s();
    const std::string wire = jsrev::serve::encode_frame(f);
    jsrev::serve::Frame back;
    std::size_t consumed = 0;
    const auto st = jsrev::serve::decode_frame(wire, wire.size(), &back,
                                               &consumed);
    codec_us.push_back((now_s() - t0) * 1e6);
    checks.require(st == jsrev::serve::DecodeStatus::kOk &&
                       back.payload == f.payload,
                   "frame codec round-trips");
  }

  // Stage means are weighted by how often the workload's timed loop runs a
  // script, over a sample that keeps the traced run short: every
  // kSampleStride-th full script for the batch workloads (classify_all
  // runs each once), the first kTracedRequests requests for serve_mixed.
  // The staged pass also covers the batcher step's requests.
  std::vector<double> weight(in.scripts.size(), 0.0);
  if (spec.served()) {
    for (std::size_t k = 0; k < kTracedRequests; ++k) {
      weight[in.requests[k]] += 1.0;
    }
  } else {
    for (std::size_t i = 0; i < in.full_count; i += kSampleStride) {
      weight[i] = 1.0;
    }
  }
  std::vector<bool> staged(in.scripts.size(), false);
  for (std::size_t i = 0; i < in.scripts.size(); ++i) {
    staged[i] = weight[i] > 0.0;
  }
  for (std::size_t k = 0; k < n; ++k) staged[in.requests[k]] = true;

  // Pool scaling and tracing overhead over the timed set.
  std::vector<std::string> timed;
  for (std::size_t i = 0; i < in.scripts.size(); ++i) {
    if (weight[i] > 0.0) timed.push_back(in.scripts[i].source);
  }
  s->view.set_threads(1);
  double t = now_s();
  const std::vector<int> v1 = s->view.classify_all(timed);
  const double width1_s = now_s() - t;
  // Tracing overhead: the same width-nproc loop with and without a span
  // around each classify call, alternated, medians of kOverheadRepeats.
  s->view.set_threads(0);
  std::vector<int> vn;
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  for (int rep = 0; rep < kOverheadRepeats; ++rep) {
    t = now_s();
    vn = s->view.classify_all(timed);
    plain_s.push_back(now_s() - t);
    SpanLog overhead_log;
    std::vector<int> vt(timed.size());
    t = now_s();
    jsrev::parallel_for_threads(0, timed.size(), [&](std::size_t i) {
      const int sp =
          overhead_log.open("core.classify", static_cast<std::uint32_t>(i));
      vt[i] = s->view.classify(timed[i]);
      overhead_log.close(sp);
    });
    traced_s.push_back(now_s() - t);
    checks.require(vt == vn, "traced verdicts equal untraced verdicts");
  }
  checks.require(v1 == vn, "width-1 verdicts equal width-nproc verdicts");
  const double widthn_s = median(plain_s);

  // Width-1 staged passes over the sample, repeated until --seconds have
  // passed since the daemon traffic began (at least one pass); a script's
  // stage times are its mean over the passes.
  SpanLog log;
  const jsrev::lint::Linter linter;
  std::vector<Stages> stages(in.scripts.size());
  int passes = 0;
  do {
    for (std::size_t i = 0; i < in.scripts.size(); ++i) {
      if (!staged[i]) continue;
      stages[i].add(staged_pass(*s, spec, in.scripts[i].source,
                                static_cast<std::uint32_t>(i), &log, linter,
                                &checks),
                    1.0);
    }
    ++passes;
  } while (now_s() < t_start + args.seconds);
  for (Stages& x : stages) x = x.scaled(1.0 / passes);
  std::fprintf(stderr, "perfbench: %d staged passes\n", passes);
  // The decomposition must see what the model sees: same path and
  // vocabulary-hit counts as the model's own provenance record.
  for (std::size_t i = 0; i < in.scripts.size(); i += 16) {
    if (!staged[i]) continue;
    const auto prov = s->view.explain(in.scripts[i].source);
    checks.require(static_cast<double>(prov.path_count) == stages[i].paths &&
                       static_cast<double>(prov.known_path_count) ==
                           stages[i].known,
                   "staged path counts match the model's provenance");
  }

  double wsum = 0.0;
  Stages mean;
  double bytes = 0.0;
  for (std::size_t i = 0; i < in.scripts.size(); ++i) {
    const double w = weight[i];
    if (w == 0.0) continue;
    wsum += w;
    bytes += w * static_cast<double>(in.scripts[i].source.size());
    mean.add(stages[i], w);
  }
  mean = mean.scaled(1.0 / wsum);
  bytes /= wsum;
  const double embed_cluster =
      mean.featurize - mean.extract - mean.vocab - mean.lint;
  const double forest = mean.classify - mean.featurize;
  const double stage_sum = mean.parse + mean.dataflow + mean.extract +
                           mean.vocab + embed_cluster + mean.cfgs +
                           mean.lint + forest;
  const double unattributed = mean.wall - stage_sum;
  const double tolerance_ms = kReconcileTolerance * mean.wall;
  std::fprintf(stderr, "perfbench: stage sum %.3f ms vs classify(source) "
               "%.3f ms (tolerance %.0f%%)\n", stage_sum, mean.wall,
               kReconcileTolerance * 100);
  checks.require(std::fabs(unattributed) <= tolerance_ms,
                 "stage self times sum to width-1 per-script wall time");
  // embed_cluster and forest are residuals, so the sum above cannot see an
  // extract, vocab or lint span that took time from them; such a span drives
  // a residual negative.
  checks.require(embed_cluster >= -tolerance_ms && forest >= -tolerance_ms,
                 "residual stages core.embed_cluster and core.forest are not "
                 "negative");

  // Batcher latency and its queue wait: latency less the script's width-1
  // classify(source) time.
  std::vector<double> batcher_ms;
  std::vector<double> queue_ms;
  for (std::size_t k = 0; k < n; ++k) {
    const double l = latency_ms(batcher[k]);
    batcher_ms.push_back(l);
    queue_ms.push_back(l - stages[in.requests[k]].wall);
  }

  std::size_t snippet_requests = 0;
  for (std::size_t k = 0; k < traffic_cycle(spec); ++k) {
    snippet_requests += in.scripts[in.requests[k]].kind == Kind::kSnippet;
  }

  report.add("js.parse_ms", mean.raw_parse, "ms");
  report.add("analysis.dataflow_ms", mean.dataflow, "ms");
  report.add("deob.normalize_ms",
             spec.hardened ? mean.parse - mean.raw_parse : 0.0, "ms");
  report.add("lint.ms", mean.cfgs + mean.lint, "ms");
  report.add("paths.extract_ms", mean.extract, "ms");
  report.add("paths.per_script", mean.paths, "count");
  report.add("paths.vocab_ms", mean.vocab, "ms");
  report.add("paths.vocab_hit_share",
             mean.paths > 0.0 ? mean.known / mean.paths : 0.0, "share");
  report.add("core.embed_cluster_ms", embed_cluster, "ms");
  report.add("core.forest_ms", forest, "ms");
  report.add("core.unattributed_ms", unattributed, "ms");
  report.add("core.classify_ms", mean.wall, "ms");
  report.add("core.train_s", s->train_s, "s");
  report.add("core.artifact_write_ms", s->write_ms, "ms");
  report.add("core.map_ms", s->map_ms, "ms");
  report.add("serve.frame_codec_us", median(codec_us), "us");
  report.add("serve.batcher_ms", median(batcher_ms), "ms");
  report.add("serve.socket_ms", median(daemon_ms) - median(batcher_ms), "ms");
  report.add("serve.queue_wait_ms", median(queue_ms), "ms");
  report.add("serve.batch_size",
             batch_count > 0.0 ? batch_sum / batch_count : 0.0, "count");
  report.add("serve.rejected", rejected, "count");
  report.add("util.pool_speedup", width1_s / widthn_s, "ratio");
  report.add("trace.overhead_share", 1.0 - widthn_s / median(traced_s),
             "share");
  report.add("client.lag_p99_ms", percentile(lag, kP99), "ms");
  report.add("client.sent", static_cast<double>(tally.attempted), "count");
  report.add("client.answered",
             static_cast<double>(tally.attempted - tally.failed), "count");
  report.add("max_rate_per_s", serve.max_rate, "1/s");
  const char* level[3] = {"low", "mid", "high"};
  for (int k = 0; k < 3; ++k) {
    report.add(std::string("latency_p50_ms.") + level[k], serve.p50[k], "ms");
  }
  for (int k = 0; k < 3; ++k) {
    report.add(std::string("latency_p99_ms.") + level[k], serve.p99[k], "ms");
  }
  report.add("snippet_p99_ms.high", serve.snippet_p99_high, "ms");
  report.add("input.bytes_per_script", bytes, "bytes");
  report.add("input.snippet_share",
             static_cast<double>(snippet_requests) /
                 static_cast<double>(traffic_cycle(spec)),
             "share");

  // One file per workload, overwritten by the next traced run.
  const std::string trace_path =
      args.workdir + "/trace-" + std::string(spec.name) + ".json";
  std::ofstream(trace_path) << log.chrome_json();
  std::fprintf(stderr, "perfbench: %zu spans written to %s\n",
               log.spans().size(), trace_path.c_str());

  checks.require(report.all_finite(), "every metric value is finite");
  checks.require(s->daemon->stop(), "daemon drained and exited");
  std::printf("%s\n",
              report.json(checks.ok(), tally.attempted, tally.failed).c_str());
  return 0;
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--workdir") {
      a->workdir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 4 && std::strcmp(argv[1], "--daemon") == 0) {
    try {
      return run_daemon(argv[2], argv[3]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench daemon: %s\n", e.what());
      return 1;
    }
  }
  ::signal(SIGPIPE, SIG_IGN);
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--workdir DIR]\n");
    return 2;
  }
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const std::string dir = args.workdir + "/" + args.workload + "-" +
                          std::to_string(args.seed) + "-" +
                          std::to_string(::getpid());
  fs::create_directories(dir);
  int rc = 1;
  try {
    rc = args.trace ? run_traced(*spec, args, dir)
                    : run_end_to_end(*spec, args, dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    rc = 1;
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  return rc;
}
