// Table VIII reproduction: per-module runtime per file (google-benchmark
// based for the per-file detection path, plus the pipeline's own stage
// timers for the training-side modules). The per-file stage rows are
// reconciled against BM_DetectOneFile: the bench prints the gap between
// their sum and the measured per-file detection time.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_config.h"
#include "core/jsrevealer.h"
#include "dataset/generator.h"
#include "util/string_util.h"
#include "util/table.h"

namespace {

using namespace jsrev;

struct Fixture {
  dataset::Corpus test;
  std::unique_ptr<core::JsRevealer> det;

  static Fixture& instance() {
    static Fixture f = [] {
      Fixture fx;
      const auto hc = bench::default_harness_config();
      dataset::GeneratorConfig gc;
      gc.seed = hc.seed;
      gc.benign_count = hc.benign_count / 2;
      gc.malicious_count = hc.malicious_count / 2;
      const dataset::Corpus corpus = dataset::generate_corpus(gc);
      Rng rng(hc.seed);
      const dataset::Split split = dataset::split_corpus(
          corpus, hc.train_per_class / 2, hc.train_per_class / 2, rng);
      fx.test = split.test;
      fx.det = std::make_unique<core::JsRevealer>(hc.jsrevealer);
      fx.det->train(split.train);
      return fx;
    }();
    return f;
  }
};

void BM_DetectOneFile(benchmark::State& state) {
  Fixture& f = Fixture::instance();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& s = f.test.samples[i % f.test.samples.size()];
    benchmark::DoNotOptimize(f.det->classify(s.source));
    ++i;
  }
}
BENCHMARK(BM_DetectOneFile)->Unit(benchmark::kMillisecond);

void BM_FeaturizeOneFile(benchmark::State& state) {
  Fixture& f = Fixture::instance();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& s = f.test.samples[i % f.test.samples.size()];
    benchmark::DoNotOptimize(f.det->featurize(s.source));
    ++i;
  }
}
BENCHMARK(BM_FeaturizeOneFile)->Unit(benchmark::kMillisecond);

/// Console reporter that also keeps BM_DetectOneFile's real time per
/// iteration (ms, the benchmark's unit) for the stage reconciliation.
class DetectTimeReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) {
      if (r.run_type == Run::RT_Iteration &&
          r.benchmark_name() == "BM_DetectOneFile") {
        detect_ms = r.GetAdjustedRealTime();
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }
  double detect_ms = -1.0;  // < 0: the benchmark did not run (filtered)
};

void print_stage_table(double bm_detect_ms) {
  Fixture& f = Fixture::instance();
  const core::StageTimings& t = f.det->timings();

  std::printf("\nTABLE VIII: average time consumed per file (ms)\n");
  std::printf("paper: enhanced AST 221.3 / traversal 348.5 / pre-train 22.5 "
              "/ embed 11.7 / outlier 396.5 / cluster 24.2 / train 0.2 / "
              "classify 0.1 (62 KB avg files, their hardware)\n\n");

  Table table({"Module", "Period", "Avg per file (ms)", "Stddev (ms)"});
  auto row = [&table](const char* module, const char* period,
                      const TimingStats& s, bool with_dev) {
    table.add_row({module, period, fmt(s.mean(), 3),
                   with_dev ? fmt(s.stddev(), 3) : std::string("-")});
  };
  row("Path extraction", "Parse", t.parse, true);
  row("Path extraction", "Enhanced AST", t.enhanced_ast, true);
  row("Path extraction", "Path traversal", t.path_traversal, true);
  row("Path embedding", "Pre-training", t.pretraining, false);
  row("Path embedding", "Embedding + cluster assignment", t.embedding,
      false);
  row("Feature generation", "Outlier detection", t.outlier, false);
  row("Feature generation", "Clustering", t.clustering, false);
  row("Classification", "Training", t.classifier_train, false);
  row("Classification", "Classifying", t.classifying, false);
  std::fputs(table.to_string().c_str(), stdout);

  // parse + enhanced_ast together equal the paper's fused "enhanced AST"
  // figure; the harness samples them separately since the parse moved into
  // the shared ScriptAnalysis artifact.
  const double detect_ms = t.parse.mean() + t.enhanced_ast.mean() +
                           t.path_traversal.mean() + t.embedding.mean() +
                           t.classifying.mean();
  std::printf("\nper-file detection total (extract+embed+classify): %s ms\n",
              fmt(detect_ms, 1).c_str());
  if (bm_detect_ms >= 0.0) {
    std::printf("BM_DetectOneFile: %s ms; not covered by the stage rows "
                "(BM_DetectOneFile - stage sum): %s ms\n",
                fmt(bm_detect_ms, 3).c_str(),
                fmt(bm_detect_ms - detect_ms, 3).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  DetectTimeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  print_stage_table(reporter.detect_ms);
  return 0;
}
