// Tests for trained-model persistence: a detector's artifact written to a
// file and mapped back must reproduce the detector's behaviour bit-for-bit
// on every input, and the flattened forest the artifact stores must score
// exactly like the trained forest. (Malformed artifacts are covered by
// model_artifact_test.)
#include <gtest/gtest.h>

#include "core/jsrevealer.h"
#include "core/model_view.h"
#include "dataset/generator.h"
#include "ml/decision_tree.h"
#include "util/rng.h"

namespace jsrev {
namespace {

class PersistenceFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset::GeneratorConfig gc;
    gc.seed = 31;
    gc.benign_count = 80;
    gc.malicious_count = 80;
    corpus_ = new dataset::Corpus(dataset::generate_corpus(gc));
    Rng rng(32);
    split_ = new dataset::Split(dataset::split_corpus(*corpus_, 56, 56, rng));

    core::Config cfg;
    cfg.embed_epochs = 8;
    cfg.cluster_sample_per_class = 600;
    original_ = new core::JsRevealer(cfg);
    original_->train(split_->train);

    const std::string path = "/tmp/jsrev_persistence_test.jsrm";
    original_->save_artifact_file(path);
    restored_ = new core::ModelView();
    restored_->map_file(path);
  }

  static void TearDownTestSuite() {
    delete restored_;
    delete original_;
    delete split_;
    delete corpus_;
    restored_ = nullptr;
    original_ = nullptr;
    split_ = nullptr;
    corpus_ = nullptr;
  }

  static dataset::Corpus* corpus_;
  static dataset::Split* split_;
  static core::JsRevealer* original_;
  static core::ModelView* restored_;
};

dataset::Corpus* PersistenceFixture::corpus_ = nullptr;
dataset::Split* PersistenceFixture::split_ = nullptr;
core::JsRevealer* PersistenceFixture::original_ = nullptr;
core::ModelView* PersistenceFixture::restored_ = nullptr;

TEST_F(PersistenceFixture, VerdictsIdenticalOnTestSet) {
  for (const auto& s : split_->test.samples) {
    EXPECT_EQ(original_->classify(s.source), restored_->classify(s.source));
  }
}

TEST_F(PersistenceFixture, FeatureVectorsIdentical) {
  for (std::size_t i = 0; i < split_->test.samples.size(); i += 7) {
    EXPECT_EQ(original_->featurize(split_->test.samples[i].source),
              restored_->featurize(split_->test.samples[i].source));
  }
}

TEST_F(PersistenceFixture, MetadataPreserved) {
  EXPECT_EQ(restored_->feature_count(), original_->feature_count());
  EXPECT_EQ(restored_->info().header.clusters_removed,
            original_->clusters_removed());
}

TEST_F(PersistenceFixture, CentralPathsPreserved) {
  const auto report = original_->feature_report(5);
  ASSERT_FALSE(report.empty());
  for (const auto& entry : report) {
    const auto f = static_cast<std::size_t>(entry.feature_index);
    if (f >= original_->feature_count() - original_->lint_feature_count()) {
      continue;  // lint features have no central path
    }
    EXPECT_EQ(restored_->central_path(f), entry.central_path);
  }
}

TEST(Persistence, FlatForestScoresLikeTrainedForest) {
  Rng rng(34);
  ml::Matrix x(60, 3);
  std::vector<int> y(60);
  for (std::size_t i = 0; i < 60; ++i) {
    y[i] = i % 2;
    for (std::size_t j = 0; j < 3; ++j) {
      x(i, j) = rng.normal() + (y[i] == 1 ? 3.0 : 0.0);
    }
  }
  ml::RandomForest forest;
  forest.fit(x, y);
  std::vector<ml::ForestNodeRec> nodes;
  std::vector<std::uint32_t> offsets;
  forest.export_flat(&nodes, &offsets);
  ml::ForestView flat;
  flat.nodes = nodes.data();
  flat.offsets = offsets.data();
  flat.n_trees = static_cast<std::uint32_t>(forest.tree_count());
  flat.n_features = 3;
  for (std::size_t i = 0; i < 60; ++i) {
    EXPECT_EQ(forest.predict(x.row(i)), flat.predict(x.row(i)));
    EXPECT_EQ(forest.predict_proba(x.row(i)), flat.predict_proba(x.row(i)));
  }
}

}  // namespace
}  // namespace jsrev
