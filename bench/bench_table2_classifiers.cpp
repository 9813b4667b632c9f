// Table II reproduction: JSRevealer's final classifier sweep (SVM, logistic
// regression, decision tree, Gaussian naive Bayes, random forest) trained
// and tested on unobfuscated data.
//
// The detector is always the paper's pick, the random forest. The other
// heads are fitted on the same detector's featurize() rows of the training
// set and scored on its featurize() rows of the test set, so one trained
// pipeline per repeat serves every row: the classifier kind never reaches
// path extraction, embedding or clustering.
#include <cstdio>
#include <map>

#include "bench_config.h"
#include "ml/classifier.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

using namespace jsrev;

/// featurize() of every sample of `corpus`; empty when the script does not
/// parse.
std::vector<std::vector<double>> features(const core::JsRevealer& det,
                                          const dataset::Corpus& corpus) {
  std::vector<std::vector<double>> f(corpus.samples.size());
  parallel_for_threads(det.config().threads, f.size(), [&](std::size_t i) {
    try {
      f[i] = det.featurize(corpus.samples[i].source);
    } catch (const std::exception&) {
    }
  });
  return f;
}

}  // namespace

int main() {
  const auto hc = bench::default_harness_config();
  const ml::ClassifierKind heads[] = {
      ml::ClassifierKind::kSvm, ml::ClassifierKind::kLogisticRegression,
      ml::ClassifierKind::kDecisionTree,
      ml::ClassifierKind::kGaussianNaiveBayes};

  std::printf("TABLE II: classifier choice on unobfuscated data "
              "(K_benign=7, K_malicious=4 as the paper's elbow values)\n");
  std::printf("paper: all close; random forest best (acc 99.4 / F1 99.4)\n\n");

  bench::HarnessConfig cfg = hc;
  // Table II uses the elbow K values (7/4); Table III refines them later.
  cfg.jsrevealer.k_benign = 7;
  cfg.jsrevealer.k_malicious = 4;

  std::map<ml::ClassifierKind, std::vector<ml::Metrics>> runs;
  for (int rep = 0; rep < cfg.repeats; ++rep) {
    const std::uint64_t seed =
        cfg.seed + static_cast<std::uint64_t>(rep) * 7919;
    dataset::GeneratorConfig gc;
    gc.seed = seed;
    gc.benign_count = cfg.benign_count;
    gc.malicious_count = cfg.malicious_count;
    const dataset::Corpus corpus = dataset::generate_corpus(gc);
    Rng rng(seed ^ 0xabcdef);
    const dataset::Split split = dataset::split_corpus(
        corpus, cfg.train_per_class, cfg.train_per_class, rng);
    const dataset::Corpus test = dataset::balance(split.test, rng);

    core::Config jc = cfg.jsrevealer;
    jc.seed = seed;
    core::JsRevealer det(jc);
    det.train(split.train);
    runs[ml::ClassifierKind::kRandomForest].push_back(det.evaluate(test));

    // Every head is fitted on the rows the forest was fitted on.
    std::vector<std::vector<double>> rows;
    std::vector<int> labels;
    const auto train_f = features(det, split.train);
    for (std::size_t i = 0; i < train_f.size(); ++i) {
      if (train_f[i].empty()) continue;
      rows.push_back(train_f[i]);
      labels.push_back(split.train.samples[i].label);
    }
    ml::Matrix x(rows.size(), det.feature_count());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      std::copy(rows[r].begin(), rows[r].end(), x.row(r));
    }
    const auto test_f = features(det, test);
    std::vector<int> truth;
    for (const auto& s : test.samples) truth.push_back(s.label);
    for (const ml::ClassifierKind kind : heads) {
      const auto head = ml::make_classifier(kind, seed, jc.threads);
      head->fit(x, labels);
      std::vector<int> pred;
      for (const auto& f : test_f) {
        // Unparseable ⇒ malicious, as the detector itself decides.
        pred.push_back(f.empty() ? 1 : head->predict(f.data()));
      }
      runs[kind].push_back(ml::compute_metrics(truth, pred));
    }
    std::fprintf(stderr, "  [rep %d/%d]\n", rep + 1, cfg.repeats);
  }

  Table t({"Classifier", "Accuracy", "F1", "FPR", "FNR"});
  for (const ml::ClassifierKind kind :
       {heads[0], heads[1], heads[2], heads[3],
        ml::ClassifierKind::kRandomForest}) {
    const ml::Metrics m = ml::average_metrics(runs[kind]);
    t.add_row({ml::classifier_kind_name(kind), bench::pct(m.accuracy),
               bench::pct(m.f1), bench::pct(m.fpr), bench::pct(m.fnr)});
  }
  std::fputs(t.to_string().c_str(), stdout);
  return 0;
}
