// JSRevealer: the paper's detector (path extraction → path embedding →
// feature extraction → classification), implementing detect::Detector so it
// slots into the same evaluation harness as the baselines.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/detector.h"
#include "core/config.h"
#include "core/model_view.h"
#include "lint/linter.h"
#include "ml/attention_model.h"
#include "ml/decision_tree.h"
#include "ml/kmeans.h"
#include "ml/outlier.h"
#include "ml/scaler.h"
#include "paths/vocab.h"

namespace jsrev::core {

/// One row of the Table VII interpretability report.
struct FeatureReportEntry {
  int feature_index = 0;
  double importance = 0.0;
  bool from_benign = false;   // cluster learned from benign vs malicious set
  std::string central_path;   // representative path context of the center
};

/// The paper's detector as a trainer: train() runs the pipeline, builds the
/// JSRM artifact in memory and attaches a ModelView over it. Every inference
/// call (classify, classify_all, featurize, explain, evaluate) forwards to
/// that view, so a trained JsRevealer and a process mapping its saved
/// artifact run the same code over the same bytes.
class JsRevealer final : public detect::Detector {
 public:
  explicit JsRevealer(Config cfg = {});

  void train(const dataset::Corpus& corpus) override;
  int classify(const std::string& source) const override {
    return view_.classify(source);
  }
  /// Classifies a pre-analyzed script, reusing its memoized AST and
  /// analyses (the string overload builds a private ScriptAnalysis with
  /// config().parse_limits / deobfuscate and delegates here).
  int classify(const analysis::ScriptAnalysis& analysis) const override {
    return view_.classify(analysis);
  }
  std::string name() const override { return view_.name(); }

  /// Batch prediction, fanned out per script at the configured thread
  /// width; verdicts are identical to per-source classify().
  std::vector<int> classify_all(const std::vector<std::string>& sources) const {
    return view_.classify_all(sources);
  }
  std::vector<int> classify_all(const analysis::AnalyzedCorpus& corpus) const {
    return view_.classify_all(corpus);
  }

  /// Batched evaluate (same metrics as the base implementation).
  ml::Metrics evaluate(const dataset::Corpus& corpus) const override;
  /// Batched evaluate over a shared AnalyzedCorpus: the detector performs
  /// no parse of its own for scripts whose analysis is already warm.
  ml::Metrics evaluate(const analysis::AnalyzedCorpus& corpus) const override {
    return ml::compute_metrics(corpus.labels, classify_all(corpus));
  }

  /// Width of featurize() output: surviving benign + malicious clusters,
  /// plus the lint summary tail when cfg.lint_features is on.
  std::size_t feature_count() const { return feature_dim_ + lint_dim_; }
  /// The lint tail's width (0 when cfg.lint_features is off).
  std::size_t lint_feature_count() const { return lint_dim_; }
  std::size_t clusters_removed() const { return clusters_removed_; }

  /// The outlier-detection method actually used (after selection, if
  /// cfg.run_outlier_selection is set).
  ml::OutlierMethod outlier_method() const { return outlier_method_; }

  /// The pipeline configuration this detector runs with (serving layers
  /// mirror its parse limits / deobfuscate flag into their own analyses).
  const Config& config() const { return cfg_; }

  /// Top-`n` features by random-forest importance, with their central paths
  /// (Table VII). Empty before train().
  std::vector<FeatureReportEntry> feature_report(int n = 5) const;

  /// See ModelView::explain; the record names this detector "JSRevealer".
  obs::VerdictProvenance explain(const std::string& source) const {
    return view_.explain(source);
  }

  /// Feature vector for one script (see ModelView::featurize).
  std::vector<double> featurize(const std::string& source) const {
    return view_.featurize(source);
  }
  std::vector<double> featurize(
      const analysis::ScriptAnalysis& analysis) const {
    return view_.featurize(analysis);
  }

  /// The view every inference call runs through (unloaded before train()).
  const ModelView& view() const { return view_; }

  /// Trainer-side parameters the artifact does not carry: the embedding
  /// model (W and the attention vector) and the surviving centroids with
  /// their RMS radii. train() folds them into the per-id cluster table.
  const ml::AttentionModel& embedding_model() const { return model_; }
  const ml::Matrix& centroids() const { return centroids_; }
  const std::vector<double>& centroid_radius() const {
    return centroid_radius_;
  }

  const StageTimings& timings() const { return view_.timings(); }

  /// SSE curve helper for the Fig. 5 elbow plot: clusters one class's path
  /// vectors (collected exactly as train() does) at each K in [k_lo, k_hi]
  /// and returns the SSE per K. `label` selects benign (0) / malicious (1).
  std::vector<double> sse_curve(const dataset::Corpus& corpus, int label,
                                int k_lo, int k_hi);

  /// The trained model as a JSRM v4 artifact (core/model_format.h): the
  /// bytes train() built and the view classifies from, page-aligned with
  /// per-section checksums and mappable by ModelView::map_file. Bytes are
  /// deterministic for a deterministic model. Throws std::logic_error
  /// before train().
  std::vector<std::uint8_t> save_artifact() const;
  void save_artifact_file(const std::string& path) const;

 private:
  /// Path contexts of a parsed script under cfg_.path (empty when the
  /// script does not parse).
  std::vector<paths::PathContext> extract(
      const analysis::ScriptAnalysis& analysis) const;

  /// Serializes the trained parameters into JSRM v4 bytes.
  std::vector<std::uint8_t> build_artifact() const;

  Config cfg_;
  lint::Linter linter_;
  std::size_t lint_dim_ = 0;  // kLintFeatureDim when lint features are on
  paths::PathVocab vocab_;
  ml::AttentionModel model_;
  ml::Matrix centroids_;                // feature_dim_ x d (both classes)
  // Per-centroid benign-origin bits, packed 64 per word (feature_ops.h
  // helpers) — the exact words the artifact stores.
  std::vector<std::uint64_t> centroid_benign_;
  std::vector<double> centroid_radius_; // RMS radius per centroid
  // One record per vocabulary id (feature_ops.h): the artifact's
  // paths.cluster_table, built once per train().
  std::vector<PathClusterRec> cluster_table_;
  std::vector<std::string> central_path_;      // Table VII inverse index
  std::size_t feature_dim_ = 0;
  std::size_t clusters_removed_ = 0;
  ml::OutlierMethod outlier_method_ = ml::OutlierMethod::kFastAbod;
  ml::MinMaxScaler scaler_;
  ml::RandomForest forest_;  // the paper's Table II pick
  ModelView view_;
};

}  // namespace jsrev::core
