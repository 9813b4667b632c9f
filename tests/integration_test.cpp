// End-to-end integration tests across modules: the full experiment harness
// (generate → split → obfuscate → train → evaluate) exercised at small
// scale, plus cross-module invariants that only appear when the whole
// pipeline runs.
#include <gtest/gtest.h>

#include "harness.h"
#include "js/parser.h"
#include "util/rng.h"

namespace jsrev::bench {
namespace {

HarnessConfig tiny_config() {
  HarnessConfig cfg;
  cfg.benign_count = 70;
  cfg.malicious_count = 70;
  cfg.train_per_class = 48;
  cfg.repeats = 1;
  cfg.jsrevealer.embed_epochs = 6;
  cfg.jsrevealer.cluster_sample_per_class = 500;
  return cfg;
}

TEST(Harness, ObfuscateCorpusPreservesLabelsAndCount) {
  dataset::GeneratorConfig gc;
  gc.benign_count = 30;
  gc.malicious_count = 30;
  const dataset::Corpus corpus = dataset::generate_corpus(gc);
  for (const obf::ObfuscatorKind kind : obf::kAllObfuscators) {
    const dataset::Corpus out = obfuscate_corpus(corpus, kind, 5);
    ASSERT_EQ(out.size(), corpus.size());
    int changed = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out.samples[i].label, corpus.samples[i].label);
      EXPECT_TRUE(js::parses_ok(out.samples[i].source));
      changed += out.samples[i].source != corpus.samples[i].source;
    }
    // The transform must have actually done something on most samples.
    EXPECT_GT(changed, static_cast<int>(out.size() / 2))
        << obf::obfuscator_kind_name(kind);
  }
}

TEST(Harness, RunGridProducesAllCells) {
  const HarnessConfig cfg = tiny_config();
  const ResultGrid grid = run_grid(cfg, {jsrevealer_factory(cfg)});
  ASSERT_EQ(grid.size(), 1u);
  const auto& by_cond = grid.begin()->second;
  ASSERT_EQ(by_cond.size(), condition_names().size());
  for (const auto& cond : condition_names()) {
    const ml::Metrics& m = by_cond.at(cond);
    // Metrics must be self-consistent probabilities.
    EXPECT_GE(m.accuracy, 0.0);
    EXPECT_LE(m.accuracy, 1.0);
    EXPECT_GE(m.f1, 0.0);
    EXPECT_LE(m.f1, 1.0);
    // Rates are internally consistent: accuracy cannot exceed 1 - the two
    // error rates' class-weighted floor; cheap sanity: all in [0,1].
    EXPECT_GE(m.fpr, 0.0);
    EXPECT_LE(m.fpr, 1.0);
    EXPECT_GE(m.fnr, 0.0);
    EXPECT_LE(m.fnr, 1.0);
  }
}

TEST(Harness, BaselineConditionIsEasierThanObfuscated) {
  // A trained detector's clean accuracy should dominate its average
  // obfuscated accuracy — the paper's core premise.
  const HarnessConfig cfg = tiny_config();
  const ResultGrid grid = run_grid(cfg, {jsrevealer_factory(cfg)});
  const auto& by_cond = grid.begin()->second;
  const double clean = by_cond.at("Baseline").accuracy;
  double obf_avg = 0.0;
  for (const auto& cond : condition_names()) {
    if (cond != "Baseline") obf_avg += by_cond.at(cond).accuracy;
  }
  obf_avg /= 4.0;
  EXPECT_GE(clean + 1e-9, obf_avg);
}

TEST(Harness, JsRevealerRowIndependentOfOtherDetectors) {
  // Detectors train on fresh instances over shared analyses, so JSRevealer's
  // row of the five-detector grid must equal a JSRevealer-only run — which
  // lets one grid serve both Table IV's enhanced rows and Tables V/VI.
  const HarnessConfig cfg = tiny_config();
  const ResultGrid alone = run_grid(cfg, {jsrevealer_factory(cfg)});
  const ResultGrid all = run_grid(cfg, standard_factories(cfg));
  ASSERT_EQ(all.size(), 5u);
  const auto& solo = alone.at("JSRevealer");
  const auto& shared = all.at("JSRevealer");
  // The grid averages rates, not counts, so compare the rates bit for bit;
  // on one shared test set, equal accuracy/FPR/FNR pin the confusion matrix.
  for (const auto& cond : condition_names()) {
    const ml::Metrics& a = solo.at(cond);
    const ml::Metrics& b = shared.at(cond);
    EXPECT_EQ(a.accuracy, b.accuracy) << cond;
    EXPECT_EQ(a.precision, b.precision) << cond;
    EXPECT_EQ(a.recall, b.recall) << cond;
    EXPECT_EQ(a.f1, b.f1) << cond;
    EXPECT_EQ(a.fpr, b.fpr) << cond;
    EXPECT_EQ(a.fnr, b.fnr) << cond;
  }
}

TEST(Harness, PctFormatsFractions) {
  EXPECT_EQ(pct(0.994), "99.4");
  EXPECT_EQ(pct(0.0), "0.0");
  EXPECT_EQ(pct(1.0), "100.0");
}

TEST(Integration, ObfuscatedScriptsRemainAnalyzable) {
  // Every obfuscator output must survive the FULL analysis pipeline
  // (parse → scopes → dataflow → paths), not just re-parsing.
  dataset::GeneratorConfig gc;
  gc.benign_count = 12;
  gc.malicious_count = 12;
  const dataset::Corpus corpus = dataset::generate_corpus(gc);

  core::Config det_cfg;
  det_cfg.embed_epochs = 3;
  det_cfg.cluster_sample_per_class = 200;
  core::JsRevealer det(det_cfg);
  det.train(corpus);

  Rng rng(3);
  for (const obf::ObfuscatorKind kind : obf::kAllObfuscators) {
    const auto obfuscator = obf::make_obfuscator(kind);
    for (std::size_t i = 0; i < corpus.samples.size(); i += 5) {
      const std::string out =
          obfuscator->obfuscate(corpus.samples[i].source, rng());
      // featurize throws on analysis failure; classify must not.
      EXPECT_NO_THROW({
        const auto f = det.featurize(out);
        EXPECT_EQ(f.size(), det.feature_count());
      }) << obf::obfuscator_kind_name(kind);
    }
  }
}

TEST(Integration, DoubleObfuscationStillClassifies) {
  // Chained obfuscators (Jshaman then JSObfu) — a stress shape the paper's
  // discussion raises (more targeted obfuscation).
  dataset::GeneratorConfig gc;
  gc.benign_count = 40;
  gc.malicious_count = 40;
  const dataset::Corpus corpus = dataset::generate_corpus(gc);
  core::Config det_cfg;
  det_cfg.embed_epochs = 5;
  det_cfg.cluster_sample_per_class = 400;
  core::JsRevealer det(det_cfg);
  det.train(corpus);

  const auto a = obf::make_obfuscator(obf::ObfuscatorKind::kJshaman);
  const auto b = obf::make_obfuscator(obf::ObfuscatorKind::kJsObfu);
  const std::string once = a->obfuscate(corpus.samples[0].source, 1);
  const std::string twice = b->obfuscate(once, 2);
  EXPECT_TRUE(js::parses_ok(twice));
  const int verdict = det.classify(twice);
  EXPECT_TRUE(verdict == 0 || verdict == 1);
}

}  // namespace
}  // namespace jsrev::bench
