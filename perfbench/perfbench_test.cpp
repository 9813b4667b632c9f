// Self-tests of the benchmark's own arithmetic and checks: percentiles,
// open-loop lag, backlog detection, seed determinism, the span export,
// request accounting, and the daemon-versus-library verdict cross-check
// against a real daemon. Exit code 0 when every test passes.
//
//   perfbench_test
#include <signal.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "core/jsrevealer.h"
#include "core/model_view.h"
#include "inputs.h"
#include "loadgen.h"
#include "spans.h"
#include "stats.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
  }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentiles() {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  EXPECT(near(percentile(v, 0.99), 990.0));
  EXPECT(near(percentile(v, 0.5), 500.0));
  EXPECT(near(percentile(v, 1.0), 1000.0));
  EXPECT(near(percentile(v, 0.0), 1.0));
  EXPECT(percentile({}, 0.5) == 0.0);
  EXPECT(samples_beyond(1000, 0.99) == 10);
  EXPECT(samples_beyond(999, 0.99) == 9);
  EXPECT(min_samples_for(0.99, 10) == 1000);
  EXPECT(near(median({3, 1, 2}), 2.0));
  EXPECT(near(median({4, 1, 2, 3}), 2.5));
  // Passes stolen more than the run's median pass are left out.
  EXPECT(near(median_least_stolen({100, 90, 80, 50, 40},
                                  {0.0, 0.01, 0.0, 0.2, 0.3}),
              90.0));
  EXPECT(near(median_least_stolen({3, 1, 2}, {0.0, 0.0, 0.0}), 2.0));
  // A failed request counts as missing every limit.
  EXPECT(std::isinf(percentile({1.0, 2.0, INFINITY}, 1.0)));
}

void test_lag() {
  const Timing t{1.0, 1.002, 1.010};
  EXPECT(near(latency_ms(t), 10.0));
  EXPECT(std::fabs(lag_ms(t) - 2.0) < 1e-9);
}

std::vector<Timing> schedule(std::size_t n, double rate,
                             const std::function<double(double)>& lat_s) {
  std::vector<Timing> out;
  for (std::size_t k = 0; k < n; ++k) {
    const double due = static_cast<double>(k) / rate;
    out.push_back({due, due, due + lat_s(due)});
  }
  return out;
}

void test_backlog() {
  // Steady service with jitter: no backlog.
  const auto steady = schedule(1000, 500.0, [](double t) {
    return 0.004 + 0.002 * std::sin(t * 97.0);
  });
  EXPECT(!backlog_growing(steady, 50.0));
  // Arrivals faster than service: latency grows with time.
  const auto growing = schedule(1000, 500.0, [](double t) {
    return 0.004 + 0.3 * t;
  });
  EXPECT(backlog_growing(growing, 50.0));
  // One unanswered request counts as a growing backlog.
  auto lost = steady;
  lost[500].done = -1.0;
  EXPECT(backlog_growing(lost, 50.0));
}

void test_seed_determinism() {
  for (const WorkloadSpec& spec : workloads()) {
    const Inputs a = make_inputs(spec, 11);
    const Inputs b = make_inputs(spec, 11);
    const Inputs c = make_inputs(spec, 12);
    EXPECT(inputs_digest(a) == inputs_digest(b));
    EXPECT(a.scripts.size() == b.scripts.size());
    bool identical = a.scripts.size() == b.scripts.size();
    for (std::size_t i = 0; identical && i < a.scripts.size(); ++i) {
      identical = a.scripts[i].source == b.scripts[i].source;
    }
    EXPECT(identical);
    EXPECT(inputs_digest(a) != inputs_digest(c));
    EXPECT(a.full_count == kFullScripts);
    EXPECT(a.requests.size() > 4096);
    // One traffic cycle sends every full script to the daemon exactly once,
    // so the verdict cross-check covers the workload's own scripts.
    std::vector<int> sent(a.scripts.size(), 0);
    for (std::size_t k = 0; k < traffic_cycle(spec); ++k) ++sent[a.requests[k]];
    bool each_once = true;
    for (std::size_t i = 0; i < a.full_count; ++i) each_once &= sent[i] == 1;
    EXPECT(each_once);
    EXPECT(spec.served() || a.scripts.size() == a.full_count);
  }
}

void test_spans() {
  SpanLog log;
  const int root = log.add({"request", 0.0, 0.010, -1, 7});
  log.add({"js.parse", 0.001, 0.003, root, 7});
  log.add({"paths.extract", 0.003, 0.008, root, 7});
  EXPECT(log.spans().size() == 3);
  const std::string json = log.chrome_json();
  EXPECT(json.find("\"parent\":0") != std::string::npos);
  EXPECT(json.find("\"request\":7") != std::string::npos);
}

void test_accounting() {
  StepResult r;
  r.script = {0, 1, 2};
  r.timing.assign(3, Timing{0.0, 0.0, 1.0});
  r.verdict = {0, 1, -1};
  r.answered = 2;
  r.rejected = 1;
  EXPECT(all_accounted(r));
  EXPECT(verdict_mismatches(r, {0, 1, 1}) == 0);
  r.verdict[1] = 0;
  EXPECT(verdict_mismatches(r, {0, 1, 1}) == 1);
  r.rejected = 0;
  r.unanswered = 1;
  EXPECT(!all_accounted(r));
}

/// Daemon verdicts over a real Unix socket equal ModelView::classify_all on
/// the same artifact, and a corrupted expectation is caught.
void test_daemon_cross_check(const std::string& self) {
  const WorkloadSpec& spec = workloads().front();
  const Inputs in = make_inputs(spec, 3);
  const std::string dir = "work/selftest-" +
                          std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  const std::string artifact = dir + "/model.jsrm";
  {
    jsrev::core::JsRevealer trainer(model_config(spec));
    trainer.train(in.train);
    trainer.save_artifact_file(artifact);
  }
  jsrev::core::ModelView view;
  view.map_file(artifact);
  std::vector<std::string> sources;
  for (const Script& s : in.scripts) sources.push_back(s.source);
  std::vector<int> library = view.classify_all(sources);
  view.set_threads(1);
  EXPECT(view.classify_all(sources) == library);
  {
    Daemon daemon(self, artifact, dir + "/d.sock");
    const StepResult open =
        open_loop(daemon.socket_path(), in, 300, 400.0, 2, 0.0);
    EXPECT(all_accounted(open));
    EXPECT(open.answered == 300);
    EXPECT(verdict_mismatches(open, library) == 0);
    const StepResult closed =
        closed_loop(daemon.socket_path(), in, 0, 300, 2, 8);
    EXPECT(all_accounted(closed));
    EXPECT(verdict_mismatches(closed, library) == 0);
    for (int& v : library) v = 1 - v;
    EXPECT(verdict_mismatches(open, library) == open.answered);
    // The daemon's own batch-size histogram saw every request once.
    std::uint64_t batches = 0;
    double batched = 0.0;
    for (const jsrev::obs::MetricSample& row : daemon.stats()) {
      if (row.name != "serve.batch_size") continue;
      batches += row.count;
      batched += row.sum;
    }
    EXPECT(batches > 0 && batched == 600.0);
    EXPECT(daemon.stop());
  }
  std::filesystem::remove_all(dir);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 4 && std::strcmp(argv[1], "--daemon") == 0) {
    return run_daemon(argv[2], argv[3]);
  }
  ::signal(SIGPIPE, SIG_IGN);
  test_percentiles();
  test_lag();
  test_backlog();
  test_seed_determinism();
  test_spans();
  test_accounting();
  test_daemon_cross_check(
      std::filesystem::read_symlink("/proc/self/exe").string());
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_test: %d failure(s)\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench_test: all tests passed\n");
  return 0;
}
