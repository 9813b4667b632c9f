// Immutable, zero-copy inference over a mapped JSRM model artifact.
//
// ModelView is the read-only half of the trainer/view split and the only
// inference path: JsRevealer trains and builds the artifact
// (core/artifact_io.cpp), then classifies through a ModelView over those
// bytes; serving processes map the same bytes from a file. No parameter is
// parsed into owned storage — the vocabulary probe table, attention matrices,
// cluster geometry, scaler bounds, and forest node pool are all borrowed
// pointers into the mapping, so N detector processes sharing one artifact
// share one page cache copy, and opening a model costs validation (header,
// section table, checksums, index bounds) instead of deserialization.
//
// Aliasing contract: a ModelView keeps its backing storage (the mapped file
// or the from_buffer copy) alive through a shared_ptr; the artifact bytes
// must not be mutated externally while the view is live (the file is mapped
// MAP_SHARED — treat a published artifact as immutable, write a new file
// and swap paths to update).
//
// Malformed input — truncation, bit flips, inconsistent dimensions — always
// surfaces as ser::ModelFormatError at map/attach time, never as a crash or
// a silently wrong verdict later (fuzz oracle O6 in tools/jsr_fuzz.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/detector.h"
#include "core/feature_ops.h"
#include "core/model_format.h"
#include "js/parse_limits.h"
#include "lint/linter.h"
#include "ml/model_view_ops.h"
#include "paths/path_extraction.h"
#include "paths/vocab.h"
#include "util/timer.h"

namespace jsrev::core {

class JsRevealer;

/// Per-module timing aggregates for the Table VIII reproduction.
///
/// Inference records per-script samples (TimingStats::add); each parallel
/// region also records its wall-clock on the stage that dominates it
/// (TimingStats::add_wall), so total()/wall_ms() shows the effective
/// speedup at the width the pipeline ran with. Training books the
/// train-once stages plus the walls of its extraction region (on
/// enhanced_ast) and featurization region (on embedding). parse.mean() +
/// enhanced_ast.mean() equals the paper's fused enhanced-AST figure.
struct StageTimings {
  TimingStats parse{"parse"};          // js::parse (lex + parse + finalize)
  TimingStats enhanced_ast{"enhanced_ast"};  // scope + data-flow augmentation
  TimingStats path_traversal{"path_traversal"};  // path-context enumeration
  TimingStats pretraining{"pretraining"};  // embedding training (per file)
  TimingStats embedding{"embedding"};  // per-file embedding at inference
  TimingStats outlier{"outlier"};      // outlier detection (train once)
  TimingStats clustering{"clustering"};  // bisecting k-means (train once)
  TimingStats classifier_train{"classifier_train"};
  TimingStats classifying{"classifying"};  // classifier predict per file
  std::size_t threads = 1;      // resolved parallel width used by train()

  /// Zeroes the per-script inference stages (parse, enhanced AST, path
  /// traversal, embedding, classifying — the train-once stages are kept).
  /// classify_all calls this on entry so each batch reports only its own
  /// work and wall time: without the reset, a re-evaluated warm corpus
  /// stacks fresh per-item samples onto stale wall totals and the apparent
  /// sum/wall speedup grows past the physical thread count.
  void reset_inference();
};

/// A read-only, shared, page-cache-backed mapping of a whole file.
class MappedFile {
 public:
  /// Maps `path` read-only (PROT_READ, MAP_SHARED); throws
  /// std::runtime_error when the file cannot be opened or mapped.
  explicit MappedFile(const std::string& path);
  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// One row of ModelView::info() (header + section table, for inspection).
/// An attached view's checksums have all matched: map_file/from_buffer
/// verify them, and only the trainer attaches unverified, to bytes it built.
struct ArtifactSectionInfo {
  fmt::SectionRec rec;
  const char* name = "";
};

struct ArtifactInfo {
  fmt::ArtifactHeader header;
  std::vector<ArtifactSectionInfo> sections;
};

class ModelView {
 public:
  ModelView() = default;

  /// Maps an artifact file and validates it (format, checksums, indices).
  /// Throws ser::ModelFormatError on any malformed content.
  /// `verify_checksums` = false skips the per-section FNV pass (touching
  /// every page) for callers that trust the file, e.g. repeated warm opens.
  void map_file(const std::string& path, bool verify_checksums = true);

  /// Attaches to an in-memory artifact (the fuzz oracle's entry point);
  /// takes ownership of the bytes. Same validation as map_file.
  void from_buffer(std::vector<std::uint8_t> bytes,
                   bool verify_checksums = true);

  bool loaded() const { return data_ != nullptr; }

  /// Classifies one script: 1 = malicious, 0 = benign. Unparseable input
  /// and an unloaded view both classify malicious (fail closed). Every
  /// verdict is booked once in detector.verdicts{detector=name()}.
  int classify(const std::string& source) const;
  int classify(const analysis::ScriptAnalysis& analysis) const;
  const std::string& name() const { return name_; }

  /// Batch prediction, fanned out at `threads()` width; verdicts identical
  /// to per-source classify() at any width.
  std::vector<int> classify_all(const std::vector<std::string>& sources) const;
  std::vector<int> classify_all(const analysis::AnalyzedCorpus& corpus) const;

  /// Classifies `source` with provenance capture on and returns the filled
  /// record: verdict, frontend outcome, path/vocabulary counts, per-cluster
  /// attention mass, lint rule hits, and per-stage durations. The JSON shape
  /// is obs::VerdictProvenance::to_json() (surfaced by `jsr_stats --explain`).
  obs::VerdictProvenance explain(const std::string& source) const;

  /// Scaled feature vector for one script: surviving cluster features, then
  /// the lint tail when the model has one. Parses exactly once: path
  /// extraction and the lint tail share the analysis' memoized artifacts.
  /// Throws std::runtime_error when the script does not parse.
  std::vector<double> featurize(const std::string& source) const;
  std::vector<double> featurize(const analysis::ScriptAnalysis& analysis) const;

  std::size_t feature_count() const {
    return header_.feature_dim + header_.lint_dim;
  }
  std::size_t vocab_size() const { return header_.vocab_size; }
  std::size_t tree_count() const { return header_.n_trees; }

  /// Parallel width for classify_all (0 = hardware concurrency).
  std::size_t threads() const { return threads_; }
  void set_threads(std::size_t n) { threads_ = n; }

  /// Inference configuration reconstructed from the artifact header —
  /// serving layers build their ScriptAnalysis with exactly these values so
  /// externally-built analyses classify bit-identically to classify(source).
  const js::ParseLimits& parse_limits() const { return parse_limits_; }
  bool deobfuscate() const { return deobfuscate_; }
  /// Path-extraction limits (length, width, per-script cap, dataflow).
  const paths::PathConfig& path_config() const { return path_cfg_; }

  /// Header of the attached artifact (dims, flags, path limits).
  const fmt::ArtifactHeader& header() const { return header_; }
  /// Header and section table of the attached artifact (jsr_model inspect).
  ArtifactInfo info() const;

  /// Borrowed vocabulary view (tests compare it against the trainer's).
  const paths::PathVocabView& vocab() const { return vocab_; }

  /// Central path of surviving cluster `f` (the Table VII inverse index),
  /// as a view into the mapping.
  std::string_view central_path(std::size_t f) const {
    return {central_blob_ + central_offsets_[f],
            central_offsets_[f + 1] - central_offsets_[f]};
  }

  /// Per-stage timings of this view's inference (and, for a trainer's view,
  /// of its training run).
  const StageTimings& timings() const { return timings_; }

 private:
  // The trainer attaches its own view, names it, mirrors its parse limits
  // and width into it, and books its training stages on its timings.
  friend class JsRevealer;

  void attach(std::shared_ptr<const void> owner, const std::uint8_t* data,
              std::size_t size, bool verify_checksums);
  const std::uint8_t* section_payload(fmt::SectionId id,
                                      std::size_t* size_out) const;
  /// Shared body of both classify_all overloads.
  std::vector<int> classify_batch(
      std::size_t n, const std::function<int(std::size_t)>& classify_one) const;

  // Backing storage: the mapped file or the from_buffer copy. shared_ptr so
  // view copies keep the bytes alive (aliasing contract above).
  std::shared_ptr<const void> owner_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;

  fmt::ArtifactHeader header_;
  std::vector<fmt::SectionRec> sections_;  // validated copy of the table

  // Borrowed views into the mapping (valid while owner_ lives).
  paths::PathVocabView vocab_;
  ml::AttentionParams attn_;
  ClusterParams cluster_;
  ml::ForestView forest_;
  const double* scaler_min_ = nullptr;
  const double* scaler_max_ = nullptr;
  const std::uint32_t* central_offsets_ = nullptr;
  const char* central_blob_ = nullptr;

  // Inference configuration reconstructed from the header.
  paths::PathConfig path_cfg_;
  js::ParseLimits parse_limits_;
  bool deobfuscate_ = false;
  std::size_t threads_ = 0;

  std::string name_ = "JSRevealer[mapped]";
  lint::Linter linter_;
  detect::VerdictCounter verdicts_;
  mutable StageTimings timings_;
  mutable std::mutex timing_mu_;
};

}  // namespace jsrev::core
