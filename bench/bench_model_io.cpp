// Measures and gates the JSRM v4 zero-copy model artifact (the vocabulary,
// one 16-byte cluster-table record per vocabulary id, the scaler and the
// forest):
//
//   * the open cost of mapping an artifact file, with the per-section
//     checksum pass (verified) and without it (trusted), is reported; both
//     include the structural checks, which scan every cluster-table
//     record (cluster index in range, zero pad, finite logit),
//   * verdicts from the mapped file must be bit-identical to the trainer's
//     own in-memory view over the obfuscated evaluation grid, at thread
//     widths 1, 2, and 8 (hard gate, timing-independent, always enforced),
//   * classify throughput in-memory vs mapped is reported (expected within
//     noise: both run the same code; shared hardware makes a tight ratio
//     gate flaky, so the ratio itself is informational),
//   * resident-set growth of mapping the artifact is reported — the mapped
//     pages are shared page cache, so each extra serving process pays close
//     to zero private bytes.
//
// Emits BENCH_model_io.json through the shared envelope (validated by
// `jsr_stats --validate`).
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_config.h"
#include "core/jsrevealer.h"
#include "core/model_view.h"
#include "dataset/generator.h"
#include "obfuscators/obfuscator.h"
#include "obs/json.h"
#include "util/timer.h"

namespace {

using namespace jsrev;

/// VmRSS of this process in bytes (0 when /proc is unavailable).
std::size_t resident_bytes() {
  std::ifstream in("/proc/self/statm");
  std::size_t total_pages = 0, resident_pages = 0;
  if (!(in >> total_pages >> resident_pages)) return 0;
  return resident_pages * 4096;
}

std::vector<std::string> build_eval_scripts(std::size_t per_class) {
  dataset::GeneratorConfig gc;
  gc.seed = 515151;
  gc.benign_count = per_class;
  gc.malicious_count = per_class;
  const dataset::Corpus corpus = dataset::generate_corpus(gc);
  std::vector<std::string> scripts;
  scripts.reserve(corpus.samples.size() * 3);
  for (const auto& s : corpus.samples) scripts.push_back(s.source);
  const std::size_t obf_share = corpus.samples.size() / 2;
  for (auto kind : obf::kAllObfuscators) {
    const auto ob = obf::make_obfuscator(kind);
    for (std::size_t i = 0; i < obf_share; ++i) {
      scripts.push_back(ob->obfuscate(corpus.samples[i].source, 600 + i));
    }
  }
  return scripts;
}

}  // namespace

int main() {
  const std::size_t repeats = bench::env_or("JSREV_BENCH_REPEATS", 5);
  const std::size_t train_per_class = bench::env_or("JSREV_BENCH_TRAIN", 120);

  // --- train once, persist the artifact ----------------------------------
  dataset::GeneratorConfig gc;
  gc.seed = 515;
  gc.benign_count = train_per_class;
  gc.malicious_count = train_per_class;
  core::Config cfg;
  cfg.seed = 515;
  std::fprintf(stderr, "[bench_model_io] training on %zu+%zu scripts\n",
               gc.benign_count, gc.malicious_count);
  core::JsRevealer trainer(cfg);
  trainer.train(dataset::generate_corpus(gc));

  const std::string artifact_path = "model_io_bench.jsrm";
  trainer.save_artifact_file(artifact_path);
  std::ifstream sz(artifact_path, std::ios::binary | std::ios::ate);
  const double artifact_mb =
      static_cast<double>(sz.tellg()) / (1024.0 * 1024.0);

  std::printf("bench_model_io: %.1f MiB artifact, best of %zu repeats\n",
              artifact_mb, repeats);

  // --- open cost: verified vs trusted map --------------------------------
  // Best-of-N each: a checksum-verified map (touches every page once to FNV
  // it) and the trusted open (header, section table, index bounds and the
  // cluster-table record checks only) —
  // the steady-state path of each extra serving process once the artifact
  // has been verified at publish time.
  double verified_ms = 0.0, trusted_ms = 0.0;
  for (std::size_t r = 0; r < repeats; ++r) {
    core::ModelView view;
    Timer t;
    view.map_file(artifact_path, /*verify_checksums=*/true);
    const double ms = t.elapsed_ms();
    if (r == 0 || ms < verified_ms) verified_ms = ms;
  }
  const std::size_t rss_before_map = resident_bytes();
  core::ModelView view;
  for (std::size_t r = 0; r < repeats; ++r) {
    core::ModelView probe;
    Timer t;
    probe.map_file(artifact_path, /*verify_checksums=*/false);
    const double ms = t.elapsed_ms();
    if (r == 0 || ms < trusted_ms) trusted_ms = ms;
  }
  view.map_file(artifact_path, /*verify_checksums=*/false);
  const std::size_t rss_after_map = resident_bytes();
  const double map_rss_mb =
      static_cast<double>(rss_after_map - rss_before_map) /
      (1024.0 * 1024.0);

  std::printf("open cost (best of %zu):\n", repeats);
  std::printf("  artifact verified  %9.3f ms\n", verified_ms);
  std::printf("  artifact trusted   %9.3f ms  (~%.1f MiB private)\n",
              trusted_ms, map_rss_mb);

  // --- verdict bit-identity across widths (the hard gate) -----------------
  const std::vector<std::string> scripts =
      build_eval_scripts(bench::env_or("JSREV_BENCH_CORPUS", 60));
  const std::vector<int> trainer_verdicts = trainer.classify_all(scripts);
  bool identical = true;
  for (const std::size_t threads :
       {std::size_t(1), std::size_t(2), std::size_t(8)}) {
    view.set_threads(threads);
    if (view.classify_all(scripts) != trainer_verdicts) {
      identical = false;
      std::printf("FAIL: mapped verdicts diverge at threads=%zu\n", threads);
    }
  }
  std::printf("verdict bit-identity in-memory vs mapped (widths 1/2/8, %zu "
              "scripts): %s\n",
              scripts.size(), identical ? "ok" : "FAIL");

  // --- classify throughput in-memory vs mapped, both at width 1 ----------
  core::ModelView memory;
  memory.from_buffer(trainer.save_artifact());
  memory.set_threads(1);
  view.set_threads(1);
  double memory_ms = 0.0, view_ms = 0.0;
  for (std::size_t r = 0; r < repeats; ++r) {
    Timer t;
    (void)memory.classify_all(scripts);
    const double ms = t.elapsed_ms();
    if (r == 0 || ms < memory_ms) memory_ms = ms;
  }
  for (std::size_t r = 0; r < repeats; ++r) {
    Timer t;
    (void)view.classify_all(scripts);
    const double ms = t.elapsed_ms();
    if (r == 0 || ms < view_ms) view_ms = ms;
  }
  const double throughput_ratio = memory_ms > 0.0 ? view_ms / memory_ms : 0.0;
  std::printf("classify %zu scripts: in-memory %.1f ms, mapped %.1f ms "
              "(mapped/in-memory = %.2f, expected ~1.0)\n",
              scripts.size(), memory_ms, view_ms, throughput_ratio);

  // --- envelope -----------------------------------------------------------
  obs::JsonWriter w;
  obs::write_bench_header(w, "model_io");
  w.kv("train_per_class", static_cast<std::uint64_t>(train_per_class))
      .kv("eval_scripts", static_cast<std::uint64_t>(scripts.size()))
      .kv("repeats", static_cast<std::uint64_t>(repeats))
      .kv_fixed("artifact_mib", artifact_mb, 2)
      .kv_fixed("artifact_open_verified_ms", verified_ms, 3)
      .kv_fixed("artifact_open_trusted_ms", trusted_ms, 3)
      .kv_fixed("mapped_private_mib_per_proc", map_rss_mb, 2)
      .kv_fixed("classify_in_memory_ms", memory_ms, 2)
      .kv_fixed("classify_mapped_ms", view_ms, 2)
      .kv_fixed("classify_ratio", throughput_ratio, 3)
      .kv("verdicts_bit_identical", identical)
      .end_object();
  std::ofstream json("BENCH_model_io.json");
  json << w.str() << "\n";
  std::printf("wrote BENCH_model_io.json\n");

  // --- gate ---------------------------------------------------------------
  if (!identical) {
    std::printf("GATE FAIL: mapped verdicts not bit-identical\n");
    return 1;
  }
  std::printf("gate ok: bit-identical verdicts\n");
  return 0;
}
