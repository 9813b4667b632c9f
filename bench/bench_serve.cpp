// Measures the jsr_serve daemon stack end to end — framing, batching, the
// connection layer, the admin telemetry plane — against the in-process
// library path, and hard-gates what must never regress.
//
// One trained model, one Server on a socketpair (the exact code path of
// `jsr_serve --stdio` and the socket modes, minus the kernel socket type),
// with the admin plane armed on an ephemeral loopback port throughout:
//
//   * saturation pairs — each repeat runs one unscraped and one scraped
//     round back to back (order alternating). A round writes every request
//     back to back and reads until all responses land. The unscraped
//     best-of-N gives sustained daemon scripts/sec, compared with the
//     library's classify_all over the same scripts; the scraped leg polls
//     GET /metrics at 10 Hz for the whole round.
//   * open loop — requests are paced at ~70% of the unscraped saturation
//     rate (the sender never waits for responses, so queueing delay is
//     visible instead of hidden by backpressure), and per-request
//     client-side latency gives p50/p99.
//
// Gates (each makes the binary exit 1):
//   * daemon verdicts bit-identical to the library on every round;
//   * every scraped /metrics body passes validate_prometheus_text;
//   * /readyz answers 503 once QUIT has drained the daemon;
//   * scrape overhead <= 2%, as the minimum paired scraped/unscraped wall
//     ratio. CPU allotment drifts in multi-second epochs, so global best-of-N
//     minima can come from different epochs; adjacent rounds share one and
//     their ratio cancels the drift. Relaxed under JSREV_BENCH_ASAN_RELAX,
//     where sanitizer overhead makes percent-level ratios meaningless.
// The remaining timing numbers are informational. Emits BENCH_serve.json
// through the shared envelope (validated by `jsr_stats --validate`).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "bench_config.h"
#include "core/jsrevealer.h"
#include "core/model_view.h"
#include "dataset/generator.h"
#include "obfuscators/obfuscator.h"
#include "obs/json.h"
#include "obs/prometheus.h"
#include "serve/admin.h"
#include "serve/frame.h"
#include "serve/serve.h"
#include "serve/server.h"
#include "util/timer.h"

namespace {

using namespace jsrev;
using Clock = std::chrono::steady_clock;

std::vector<std::string> build_eval_scripts(std::size_t per_class) {
  dataset::GeneratorConfig gc;
  gc.seed = 727272;
  gc.benign_count = per_class;
  gc.malicious_count = per_class;
  const dataset::Corpus corpus = dataset::generate_corpus(gc);
  std::vector<std::string> scripts;
  for (const auto& s : corpus.samples) scripts.push_back(s.source);
  const std::size_t obf_share = corpus.samples.size() / 2;
  for (auto kind : obf::kAllObfuscators) {
    const auto ob = obf::make_obfuscator(kind);
    for (std::size_t i = 0; i < obf_share; ++i) {
      scripts.push_back(ob->obfuscate(corpus.samples[i].source, 900 + i));
    }
  }
  return scripts;
}

/// One daemon round over `fd`: sends every script as a kClassify frame
/// (paced when `interval` is nonzero), reads until every response arrived.
/// Returns verdicts indexed like `scripts`; fills per-request latencies.
std::vector<int> run_round(int fd, const std::vector<std::string>& scripts,
                           std::chrono::duration<double> interval,
                           std::vector<double>* latency_ms,
                           double* wall_ms_out) {
  const std::size_t n = scripts.size();
  std::vector<int> verdicts(n, -1);
  std::vector<Clock::time_point> sent(n);
  latency_ms->assign(n, 0.0);

  const Timer wall;
  std::thread reader([&] {
    std::string buf;
    char chunk[64 * 1024];
    std::size_t seen = 0;
    while (seen < n) {
      const ssize_t r = ::read(fd, chunk, sizeof(chunk));
      if (r <= 0) break;
      buf.append(chunk, static_cast<std::size_t>(r));
      for (;;) {
        serve::Frame f;
        std::size_t consumed = 0;
        if (serve::decode_frame(buf, buf.size() + (64u << 20), &f,
                                &consumed) != serve::DecodeStatus::kOk) {
          break;
        }
        buf.erase(0, consumed);
        if (f.type != serve::FrameType::kVerdict || f.id == 0 ||
            f.id > n) {
          continue;
        }
        const std::size_t i = f.id - 1;
        verdicts[i] = f.payload.empty() ? -1 : f.payload[0] - '0';
        (*latency_ms)[i] = std::chrono::duration<double, std::milli>(
                               Clock::now() - sent[i])
                               .count();
        ++seen;
      }
    }
  });

  auto next_send = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    if (interval.count() > 0.0) {
      std::this_thread::sleep_until(next_send);
      next_send += std::chrono::duration_cast<Clock::duration>(interval);
    }
    serve::Frame f;
    f.type = serve::FrameType::kClassify;
    f.id = static_cast<std::uint32_t>(i + 1);
    f.payload = scripts[i];
    const std::string bytes = serve::encode_frame(f);
    sent[i] = Clock::now();
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t w = ::write(fd, bytes.data() + off, bytes.size() - off);
      if (w <= 0) break;
      off += static_cast<std::size_t>(w);
    }
  }
  reader.join();
  *wall_ms_out = wall.elapsed_ms();
  return verdicts;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

double scripts_per_sec(std::size_t scripts, double wall_ms) {
  return wall_ms > 0.0 ? static_cast<double>(scripts) / (wall_ms / 1000.0)
                       : 0.0;
}

/// Polls GET /metrics at `hz` until stopped. Bodies are stashed and only
/// validated after join() — a real scraper parses on its own host, so
/// client-side parse CPU must not be charged against daemon throughput.
/// A single failed fetch or malformed exposition poisons the whole bench.
struct Scraper {
  std::string endpoint;
  double hz = 10.0;
  std::atomic<bool> stop{false};
  std::size_t scrapes = 0;
  std::size_t failures = 0;
  std::string first_error;
  std::vector<std::string> bodies;
  std::thread thread;

  void start() {
    thread = std::thread([this] {
      const auto interval = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(1.0 / hz));
      auto next = Clock::now();
      while (!stop.load(std::memory_order_relaxed)) {
        std::string body;
        std::string err;
        const int status =
            serve::admin_http_get(endpoint, "/metrics", &body, &err);
        ++scrapes;
        if (status != 200) {
          if (failures++ == 0) {
            first_error = "status " + std::to_string(status) + " " + err;
          }
        } else {
          bodies.push_back(std::move(body));
        }
        next += interval;
        std::this_thread::sleep_until(next);
      }
    });
  }

  /// Stops the poll loop, then validates every stashed body (untimed).
  void join() {
    stop.store(true);
    if (thread.joinable()) thread.join();
    for (const std::string& body : bodies) {
      std::string err;
      if (!obs::validate_prometheus_text(body, &err)) {
        if (failures++ == 0) first_error = err;
      }
    }
    bodies.clear();
  }
};

}  // namespace

int main() {
  // The scrape gate is a 2% ratio on a CPU whose round-to-round drift is
  // ±15%; the minimum paired ratio only converges with enough pairs.
  const std::size_t repeats = bench::env_or("JSREV_BENCH_REPEATS", 7);
  const std::size_t train_per_class = bench::env_or("JSREV_BENCH_TRAIN", 80);
  const std::size_t eval_per_class = bench::env_or("JSREV_BENCH_CORPUS", 40);
  const bool relax_timing = std::getenv("JSREV_BENCH_ASAN_RELAX") != nullptr;
  const double scrape_hz = 10.0;
  const double overhead_limit = 0.02;

  // --- train + persist the artifact the daemon will map -------------------
  dataset::GeneratorConfig gc;
  gc.seed = 72;
  gc.benign_count = train_per_class;
  gc.malicious_count = train_per_class;
  core::Config cfg;
  cfg.seed = 72;
  std::fprintf(stderr, "[bench_serve] training on %zu+%zu scripts\n",
               gc.benign_count, gc.malicious_count);
  core::JsRevealer trainer(cfg);
  trainer.train(dataset::generate_corpus(gc));
  const std::string artifact_path = "serve_bench.jsrm";
  trainer.save_artifact_file(artifact_path);

  const std::vector<std::string> scripts = build_eval_scripts(eval_per_class);

  // --- library baseline ----------------------------------------------------
  core::ModelView library;
  library.map_file(artifact_path);
  const std::vector<int> library_verdicts = library.classify_all(scripts);
  double library_ms = 0.0;
  for (std::size_t r = 0; r < repeats; ++r) {
    Timer t;
    (void)library.classify_all(scripts);
    const double ms = t.elapsed_ms();
    if (r == 0 || ms < library_ms) library_ms = ms;
  }

  // --- daemon over a socketpair, admin plane armed ------------------------
  const serve::ServeModel model(artifact_path);
  serve::ServeOptions opts = model.options();
  serve::Server server(model, opts);
  serve::register_build_info(model, artifact_path);

  serve::AdminServer admin;
  admin.listen_tcp(0);
  admin.set_ready_check([&server] { return server.ready(); });
  admin.start();
  const std::string endpoint =
      "127.0.0.1:" + std::to_string(admin.bound_port());
  std::printf("bench_serve: admin plane on %s\n", endpoint.c_str());

  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    std::fprintf(stderr, "bench_serve: socketpair failed\n");
    return 1;
  }
  std::thread server_thread([&] { server.serve_fd(sv[0], sv[0]); });

  // Every round checks its verdicts against the library; lat_ms holds the
  // latest round's per-request latencies.
  bool identical = true;
  std::vector<double> lat_ms;
  const auto daemon_round = [&](std::chrono::duration<double> interval,
                                double* wall_ms) {
    const bool same = run_round(sv[1], scripts, interval, &lat_ms,
                                wall_ms) == library_verdicts;
    identical = identical && same;
  };

  // Warmup round: first contact pays allocator and page-cache costs that
  // belong to neither saturation condition.
  double warmup_ms = 0.0;
  daemon_round({}, &warmup_ms);

  // Saturation pairs. Failing only when every pair exceeds the limit is the
  // one-sided test wanted: it fires on real overhead, not on one unlucky
  // round.
  double quiet_ms = 0.0;
  double scraped_ms = 0.0;
  std::vector<double> pair_ratios;
  std::size_t total_scrapes = 0;
  std::size_t scrape_failures = 0;
  std::string scrape_error;
  for (std::size_t r = 0; r < repeats; ++r) {
    double wall_quiet = 0.0;
    double wall_scraped = 0.0;
    Scraper scraper;
    scraper.endpoint = endpoint;
    scraper.hz = scrape_hz;

    const bool quiet_first = r % 2 == 0;
    for (int leg = 0; leg < 2; ++leg) {
      const bool scraped_leg = (leg == 1) == quiet_first;
      if (scraped_leg) scraper.start();
      daemon_round({}, scraped_leg ? &wall_scraped : &wall_quiet);
      if (scraped_leg) scraper.join();
    }

    if (r == 0 || wall_quiet < quiet_ms) quiet_ms = wall_quiet;
    if (r == 0 || wall_scraped < scraped_ms) scraped_ms = wall_scraped;
    pair_ratios.push_back(wall_quiet > 0.0 ? wall_scraped / wall_quiet
                                           : 1.0);
    total_scrapes += scraper.scrapes;
    scrape_failures += scraper.failures;
    if (scrape_error.empty() && !scraper.first_error.empty()) {
      scrape_error = scraper.first_error;
    }
  }
  const double quiet_rate = scripts_per_sec(scripts.size(), quiet_ms);
  const double scraped_rate = scripts_per_sec(scripts.size(), scraped_ms);

  // Open loop at ~70% of saturation: queueing is visible, not saturating.
  const double target_rate = quiet_rate * 0.7;
  double open_wall_ms = 0.0;
  daemon_round(std::chrono::duration<double>(
                   target_rate > 0.0 ? 1.0 / target_rate : 0.0),
               &open_wall_ms);
  const double p50 = percentile(lat_ms, 0.50);
  const double p99 = percentile(lat_ms, 0.99);

  // Graceful stop: QUIT drains, BYE confirms; /readyz must already be 503.
  {
    serve::Frame f;
    f.type = serve::FrameType::kQuit;
    const std::string bytes = serve::encode_frame(f);
    (void)!::write(sv[1], bytes.data(), bytes.size());
  }
  server_thread.join();
  std::string ready_body;
  const int ready_status =
      serve::admin_http_get(endpoint, "/readyz", &ready_body);
  admin.stop();
  ::close(sv[0]);
  ::close(sv[1]);

  // --- gates ---------------------------------------------------------------
  std::sort(pair_ratios.begin(), pair_ratios.end());
  const double min_pair_ratio =
      pair_ratios.empty() ? 1.0 : pair_ratios.front();
  const double median_pair_ratio =
      pair_ratios.empty() ? 1.0 : pair_ratios[pair_ratios.size() / 2];
  const double overhead = min_pair_ratio - 1.0;
  const bool overhead_ok = overhead <= overhead_limit;
  const bool scrapes_clean = scrape_failures == 0 && total_scrapes > 0;
  const bool drained_not_ready = ready_status == 503;

  std::printf("bench_serve: %zu scripts/round, %zu paired rounds\n",
              scripts.size(), repeats);
  std::printf("  library classify_all   %9.1f ms (best of %zu)\n", library_ms,
              repeats);
  std::printf("  unscraped saturation   %9.1f ms  -> %.1f scripts/sec\n",
              quiet_ms, quiet_rate);
  std::printf("  scraped @ %.0f Hz        %9.1f ms  -> %.1f scripts/sec\n",
              scrape_hz, scraped_ms, scraped_rate);
  std::printf("  open loop @ %.0f/sec: p50 %.2f ms, p99 %.2f ms\n",
              target_rate, p50, p99);
  std::printf("  scrape overhead        %+9.2f %%  (min paired ratio; "
              "limit %.0f%%%s)\n",
              overhead * 100.0, overhead_limit * 100.0,
              relax_timing ? ", relaxed" : "");
  std::printf("  median paired ratio    %+9.2f %%\n",
              (median_pair_ratio - 1.0) * 100.0);
  std::printf("  scrapes %zu, failures %zu%s%s\n", total_scrapes,
              scrape_failures, scrape_error.empty() ? "" : " — ",
              scrape_error.c_str());
  std::printf("  /readyz after QUIT: %d (want 503)\n", ready_status);
  std::printf("  verdict bit-identity daemon vs library: %s\n",
              identical ? "ok" : "FAIL");

  // --- envelope -----------------------------------------------------------
  obs::JsonWriter w;
  obs::write_bench_header(w, "serve");
  w.kv("eval_scripts", static_cast<std::uint64_t>(scripts.size()))
      .kv("repeats", static_cast<std::uint64_t>(repeats))
      .kv_fixed("library_classify_ms", library_ms, 2)
      .kv_fixed("daemon_saturation_ms", quiet_ms, 2)
      .kv_fixed("daemon_scripts_per_sec", quiet_rate, 1)
      .kv_fixed("open_loop_rate_per_sec", target_rate, 1)
      .kv_fixed("open_loop_p50_ms", p50, 3)
      .kv_fixed("open_loop_p99_ms", p99, 3)
      .kv_fixed("scrape_hz", scrape_hz, 1)
      .kv_fixed("unscraped_ms", quiet_ms, 2)
      .kv_fixed("scraped_ms", scraped_ms, 2)
      .kv_fixed("unscraped_scripts_per_sec", quiet_rate, 1)
      .kv_fixed("scraped_scripts_per_sec", scraped_rate, 1)
      .kv_fixed("scrape_overhead_pct", overhead * 100.0, 3)
      .kv_fixed("scrape_overhead_median_pct",
                (median_pair_ratio - 1.0) * 100.0, 3)
      .kv("scrapes", static_cast<std::uint64_t>(total_scrapes))
      .kv("scrape_failures", static_cast<std::uint64_t>(scrape_failures))
      .kv("readyz_after_quit", static_cast<std::uint64_t>(
                                   ready_status > 0 ? ready_status : 0))
      .kv("verdicts_bit_identical", identical)
      .kv("overhead_within_limit", overhead_ok)
      .kv("timing_gate_relaxed", relax_timing)
      .end_object();
  std::ofstream json("BENCH_serve.json");
  json << w.str() << "\n";
  std::printf("wrote BENCH_serve.json\n");

  bool ok = true;
  if (!identical) {
    std::printf("GATE FAIL: daemon verdicts not bit-identical to library\n");
    ok = false;
  }
  if (!scrapes_clean) {
    std::printf("GATE FAIL: scrape failures (%zu/%zu): %s\n", scrape_failures,
                total_scrapes, scrape_error.c_str());
    ok = false;
  }
  if (!drained_not_ready) {
    std::printf("GATE FAIL: /readyz after QUIT returned %d, want 503\n",
                ready_status);
    ok = false;
  }
  if (!overhead_ok && !relax_timing) {
    std::printf("GATE FAIL: scrape overhead %.2f%% exceeds %.0f%%\n",
                overhead * 100.0, overhead_limit * 100.0);
    ok = false;
  }
  if (!ok) return 1;
  std::printf("gates ok: bit-identical verdicts, clean exposition, /readyz "
              "503 on drain, %s\n",
              overhead_ok ? "scrape overhead within limit"
                          : "timing waived (relaxed)");
  return 0;
}
