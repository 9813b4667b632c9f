// Tests for the JSRM v4 model artifact: the trainer must emit byte-identical
// artifacts at any parallel width, a view of the mapped file must classify
// like one over the in-memory bytes at every batch width, the per-id cluster
// table must reproduce the per-path embedding + nearest-centroid reference
// exactly, and malformed artifacts — truncated, bit-flipped, or crafted and
// re-checksummed — must fail with ser::ModelFormatError, never a crash, a
// hang or a silently different verdict. (Verdicts and feature bytes
// themselves are pinned by fingerprint_test.)
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "core/jsrevealer.h"
#include "core/model_view.h"
#include "dataset/generator.h"
#include "ml/model_view_ops.h"
#include "obfuscators/obfuscator.h"
#include "paths/path_extraction.h"
#include "util/hash.h"
#include "util/serialize.h"

namespace jsrev {
namespace {

core::Config small_config(std::size_t threads) {
  core::Config cfg;
  cfg.seed = 91;
  cfg.threads = threads;
  cfg.embed_epochs = 4;
  cfg.cluster_sample_per_class = 400;
  return cfg;
}

dataset::Corpus train_corpus() {
  dataset::GeneratorConfig gc;
  gc.seed = 91;
  gc.benign_count = 40;
  gc.malicious_count = 40;
  return dataset::generate_corpus(gc);
}

/// >= 200 generator scripts, each additionally pushed through all four
/// obfuscator models — the robustness grid the paper evaluates against.
std::vector<std::string> evaluation_scripts() {
  dataset::GeneratorConfig gc;
  gc.seed = 1907;
  gc.benign_count = 100;
  gc.malicious_count = 100;
  const dataset::Corpus corpus = dataset::generate_corpus(gc);
  std::vector<std::string> scripts;
  scripts.reserve(corpus.samples.size() * 5);
  for (const auto& s : corpus.samples) scripts.push_back(s.source);
  for (const obf::ObfuscatorKind kind : obf::kAllObfuscators) {
    const auto ob = obf::make_obfuscator(kind);
    for (std::size_t i = 0; i < corpus.samples.size(); ++i) {
      scripts.push_back(ob->obfuscate(corpus.samples[i].source, 7000 + i));
    }
  }
  return scripts;
}

class ArtifactFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    trainer_ = new core::JsRevealer(small_config(2));
    trainer_->train(train_corpus());
    artifact_ = new std::vector<std::uint8_t>(trainer_->save_artifact());
    view_ = new core::ModelView();
    view_->from_buffer(*artifact_);
  }

  static void TearDownTestSuite() {
    delete view_;
    delete artifact_;
    delete trainer_;
    view_ = nullptr;
    artifact_ = nullptr;
    trainer_ = nullptr;
  }

  static core::JsRevealer* trainer_;
  static std::vector<std::uint8_t>* artifact_;
  static core::ModelView* view_;
};

core::JsRevealer* ArtifactFixture::trainer_ = nullptr;
std::vector<std::uint8_t>* ArtifactFixture::artifact_ = nullptr;
core::ModelView* ArtifactFixture::view_ = nullptr;

TEST_F(ArtifactFixture, ArtifactBytesIdenticalAcrossThreadWidths) {
  for (const std::size_t threads : {std::size_t(1), std::size_t(8)}) {
    core::JsRevealer det(small_config(threads));
    det.train(train_corpus());
    EXPECT_EQ(det.save_artifact(), *artifact_) << "threads=" << threads;
  }
}

TEST_F(ArtifactFixture, ViewBatchMatchesSerialAtEveryWidth) {
  std::vector<std::string> scripts = evaluation_scripts();
  scripts.resize(60);
  std::vector<int> serial;
  serial.reserve(scripts.size());
  for (const auto& s : scripts) serial.push_back(view_->classify(s));
  for (const std::size_t threads :
       {std::size_t(1), std::size_t(2), std::size_t(8)}) {
    core::ModelView view;
    view.from_buffer(*artifact_);
    view.set_threads(threads);
    EXPECT_EQ(view.classify_all(scripts), serial) << "threads=" << threads;
  }
}

TEST_F(ArtifactFixture, MapFileMatchesFromBuffer) {
  const std::string path = "/tmp/jsrev_artifact_test.jsrm";
  trainer_->save_artifact_file(path);
  core::ModelView mapped;
  mapped.map_file(path);
  EXPECT_EQ(mapped.feature_count(), view_->feature_count());
  EXPECT_EQ(mapped.vocab_size(), view_->vocab_size());
  const std::vector<std::string> scripts = evaluation_scripts();
  for (std::size_t i = 0; i < scripts.size(); i += 101) {
    EXPECT_EQ(mapped.classify(scripts[i]), view_->classify(scripts[i]));
  }
  // Trusted warm open: skipping the checksum pass must not change behavior.
  core::ModelView trusted;
  trusted.map_file(path, /*verify_checksums=*/false);
  EXPECT_EQ(trusted.classify(scripts[0]), view_->classify(scripts[0]));
}

TEST_F(ArtifactFixture, InfoReportsValidatedSections) {
  const core::ArtifactInfo info = view_->info();
  EXPECT_EQ(info.header.version, core::fmt::kFormatVersion);
  EXPECT_EQ(info.header.file_size, artifact_->size());
  EXPECT_EQ(info.sections.size(), std::size_t(core::fmt::kSectionCount));
  for (const core::ArtifactSectionInfo& s : info.sections) {
    EXPECT_EQ(s.rec.offset % core::fmt::kSectionAlign, 0u) << s.name;
  }
}

TEST_F(ArtifactFixture, CentralPathParity) {
  const auto report = trainer_->feature_report(10);
  const std::uint32_t feature_dim = view_->info().header.feature_dim;
  for (const auto& entry : report) {
    const auto f = static_cast<std::uint32_t>(entry.feature_index);
    if (f >= feature_dim) continue;  // lint features have no central path
    EXPECT_EQ(view_->central_path(f), entry.central_path);
  }
}

/// Unscaled cluster features and their provenance by the per-path
/// definition (paper Eq. 1-3, Section III-D): embed every known path with
/// the trainer's W (AttentionModel::embed), then assign each embedding to
/// its nearest centroid unless it lies beyond four of `radius`.
struct ReferenceFeatures {
  std::vector<double> f;
  obs::VerdictProvenance prov;
};

ReferenceFeatures reference_features(const core::JsRevealer& trainer,
                                     const std::vector<double>& radius,
                                     const std::vector<std::int32_t>& ids) {
  const ml::Matrix& centroids = trainer.centroids();
  const std::uint64_t* benign = trainer.view().cluster_table().benign;
  const std::size_t d = centroids.cols();
  const ml::EmbeddedScript emb = trainer.embedding_model().embed(ids);
  ReferenceFeatures out;
  out.f.assign(centroids.rows(), 0.0);
  for (std::size_t i = 0; i < emb.embeddings.rows(); ++i) {
    const double* e = emb.embeddings.row(i);
    const auto c = static_cast<std::size_t>(ml::nearest_centroid_raw(
        centroids.data().data(), centroids.rows(), d, e));
    const double dist = std::sqrt(ml::squared_distance(e, centroids.row(c), d));
    if (radius[c] > 0 && dist > 4.0 * radius[c]) {
      ++out.prov.paths_outside_clusters;
      continue;
    }
    if (trainer.config().binary_cluster_features) {
      out.f[c] = 1.0;
    } else {
      out.f[c] += emb.weights[i];
    }
  }
  for (std::size_t c = 0; c < out.f.size(); ++c) {
    if (out.f[c] == 0.0) continue;
    obs::ClusterAttention ca;
    ca.feature_index = static_cast<int>(c);
    ca.from_benign = core::benign_bit(benign, c);
    ca.mass = out.f[c];
    out.prov.cluster_attention.push_back(ca);
  }
  return out;
}

void expect_same_cluster_provenance(const obs::VerdictProvenance& got,
                                    const obs::VerdictProvenance& want,
                                    std::size_t script) {
  EXPECT_EQ(got.paths_outside_clusters, want.paths_outside_clusters)
      << "script " << script;
  ASSERT_EQ(got.cluster_attention.size(), want.cluster_attention.size())
      << "script " << script;
  for (std::size_t k = 0; k < want.cluster_attention.size(); ++k) {
    const obs::ClusterAttention& g = got.cluster_attention[k];
    const obs::ClusterAttention& w = want.cluster_attention[k];
    EXPECT_EQ(g.feature_index, w.feature_index) << "script " << script;
    EXPECT_EQ(g.from_benign, w.from_benign) << "script " << script;
    EXPECT_EQ(std::memcmp(&g.mass, &w.mass, sizeof(double)), 0)
        << "script " << script;
  }
}

/// Runs the table kernel over `table` for every 7th evaluation script and
/// requires its features to memcmp-equal the per-path reference under
/// `radius`, with equal provenance. With `check_explain`, the view's own
/// explain() record must match too. Returns how many scripts had paths
/// outside every cluster.
std::size_t expect_table_matches_reference(const core::JsRevealer& trainer,
                                           const core::ClusterTable& table,
                                           const std::vector<double>& radius,
                                           bool check_explain) {
  const core::ModelView& view = trainer.view();
  EXPECT_EQ(table.vocab_size, view.vocab_size());
  const std::vector<std::string> scripts = evaluation_scripts();
  std::size_t compared = 0;
  std::size_t with_outside = 0;
  for (std::size_t i = 0; i < scripts.size(); i += 7) {
    const analysis::ScriptAnalysis a(scripts[i], view.parse_limits(),
                                     view.deobfuscate());
    if (a.parse_failed()) continue;
    const std::vector<paths::PathContext> pcs = paths::extract_paths(
        a.root(), view.path_config().use_dataflow ? &a.dataflow() : nullptr,
        view.path_config());
    std::vector<std::int32_t> ids;
    for (const auto& pc : pcs) ids.push_back(view.vocab().lookup(pc));

    const ReferenceFeatures want = reference_features(trainer, radius, ids);
    obs::VerdictProvenance got_prov;
    const std::vector<double> got =
        core::cluster_features(table, ids, &got_prov);
    EXPECT_EQ(got.size(), want.f.size());
    if (got.size() != want.f.size()) break;
    EXPECT_EQ(std::memcmp(got.data(), want.f.data(),
                          got.size() * sizeof(double)),
              0)
        << "script " << i;
    expect_same_cluster_provenance(got_prov, want.prov, i);
    if (check_explain) {
      expect_same_cluster_provenance(view.explain(scripts[i]), want.prov, i);
    }
    ++compared;
    with_outside += want.prov.paths_outside_clusters > 0;
  }
  EXPECT_GT(compared, 100u);
  return with_outside;
}

TEST_F(ArtifactFixture, ClusterTableMatchesPerPathReference) {
  expect_table_matches_reference(*trainer_, view_->cluster_table(),
                                 trainer_->centroid_radius(),
                                 /*check_explain=*/true);
}

TEST(ClusterTable, BinaryAblationMatchesPerPathReference) {
  core::Config cfg = small_config(2);
  cfg.binary_cluster_features = true;
  core::JsRevealer det(cfg);
  det.train(train_corpus());
  expect_table_matches_reference(det, det.view().cluster_table(),
                                 det.centroid_radius(),
                                 /*check_explain=*/true);
}

TEST_F(ArtifactFixture, ClusterTableOutsideRadiusMatchesReference) {
  // Trained models rarely place a path beyond four RMS radii, so shrink the
  // radii to a quarter: many ids then fall outside every cluster, and the
  // table's -1 records must reproduce the reference's outside count.
  std::vector<double> radius = trainer_->centroid_radius();
  for (double& r : radius) r *= 0.25;
  const std::vector<core::PathClusterRec> records = core::build_cluster_table(
      trainer_->embedding_model(), trainer_->centroids(), radius, 1);
  const std::vector<core::PathClusterRec> wide = core::build_cluster_table(
      trainer_->embedding_model(), trainer_->centroids(), radius, 8);
  ASSERT_EQ(records.size(), wide.size());
  EXPECT_EQ(std::memcmp(records.data(), wide.data(),
                        records.size() * sizeof(core::PathClusterRec)),
            0);
  core::ClusterTable table = view_->cluster_table();
  table.records = records.data();
  EXPECT_GT(expect_table_matches_reference(*trainer_, table, radius,
                                           /*check_explain=*/false),
            0u);
}

TEST_F(ArtifactFixture, MappedVocabProbeTableIsConsistent) {
  const paths::PathVocabView& vocab = view_->vocab();
  ASSERT_GT(vocab.size(), 0u);
  const std::uint32_t stride = std::max<std::uint32_t>(1, vocab.size() / 256);
  for (std::uint32_t id = 0; id < vocab.size(); id += stride) {
    paths::PathContext pc;
    pc.source_value = std::string(vocab.source_value(id));
    pc.path = std::string(vocab.path_value(id));
    pc.target_value = std::string(vocab.target_value(id));
    EXPECT_EQ(vocab.lookup(pc), static_cast<std::int32_t>(id));
  }
}

TEST_F(ArtifactFixture, TruncationThrowsModelFormatError) {
  for (const std::size_t cut :
       {std::size_t(0), std::size_t(3), std::size_t(79),
        artifact_->size() / 2, artifact_->size() - 1}) {
    core::ModelView view;
    std::vector<std::uint8_t> bytes(artifact_->begin(),
                                    artifact_->begin() + cut);
    EXPECT_THROW(view.from_buffer(std::move(bytes)), ser::ModelFormatError)
        << "cut=" << cut;
  }
}

TEST_F(ArtifactFixture, PayloadBitFlipThrowsModelFormatError) {
  // Flip a byte inside each section's payload: the per-section checksum must
  // catch every one of them.
  const core::ArtifactInfo info = view_->info();
  for (const core::ArtifactSectionInfo& s : info.sections) {
    if (s.rec.size == 0) continue;
    std::vector<std::uint8_t> bytes = *artifact_;
    bytes[s.rec.offset + s.rec.size / 2] ^= 0x40;
    core::ModelView view;
    EXPECT_THROW(view.from_buffer(std::move(bytes)), ser::ModelFormatError)
        << s.name;
  }
}

TEST_F(ArtifactFixture, CorruptHeaderThrowsModelFormatError) {
  {
    std::vector<std::uint8_t> bytes = *artifact_;
    bytes[0] = 'X';  // magic
    core::ModelView view;
    EXPECT_THROW(view.from_buffer(std::move(bytes)), ser::ModelFormatError);
  }
  for (const std::uint8_t version : {3, 99}) {  // 3: the layout with W
    std::vector<std::uint8_t> bytes = *artifact_;
    bytes[4] = version;
    core::ModelView view;
    EXPECT_THROW(view.from_buffer(std::move(bytes)), ser::ModelFormatError)
        << "version " << int(version);
  }
}

TEST_F(ArtifactFixture, FormatErrorCarriesSectionAndOffset) {
  std::vector<std::uint8_t> bytes = *artifact_;
  const core::ArtifactInfo info = view_->info();
  const auto& first = info.sections.front();
  bytes[first.rec.offset] ^= 0x01;
  core::ModelView view;
  try {
    view.from_buffer(std::move(bytes));
    FAIL() << "corrupt artifact attached";
  } catch (const ser::ModelFormatError& e) {
    EXPECT_EQ(e.section(), first.name);
    EXPECT_NE(std::string(e.what()).find(first.name), std::string::npos);
  }
}

/// Typed reads and writes at byte offsets of an artifact, for crafting
/// structurally malformed artifacts whose checksums still match.
struct ArtifactEditor {
  std::vector<std::uint8_t> bytes;

  template <typename T>
  T get(std::size_t at) const {
    T v;
    std::memcpy(&v, bytes.data() + at, sizeof v);
    return v;
  }
  template <typename T>
  void set(std::size_t at, const T& v) {
    std::memcpy(bytes.data() + at, &v, sizeof v);
  }
  /// Byte offset of section `id`'s record in the section table.
  std::size_t rec_at(core::fmt::SectionId id) const {
    std::size_t at = sizeof(core::fmt::ArtifactHeader);
    const auto want = static_cast<std::uint32_t>(id);
    while (get<core::fmt::SectionRec>(at).id != want) {
      at += sizeof(core::fmt::SectionRec);
    }
    return at;
  }
  core::fmt::SectionRec rec(core::fmt::SectionId id) const {
    return get<core::fmt::SectionRec>(rec_at(id));
  }
  /// Sets a section's payload size and recomputes its checksum.
  void reseal(core::fmt::SectionId id, std::uint64_t size) {
    core::fmt::SectionRec r = rec(id);
    r.size = size;
    r.checksum = fnv1a64(std::string_view(
        reinterpret_cast<const char*>(bytes.data() + r.offset), size));
    set(rec_at(id), r);
  }
};

/// A crafted artifact must be rejected under both verified and trusted open.
void expect_rejected(const std::vector<std::uint8_t>& bytes, const char* what) {
  for (const bool verify : {true, false}) {
    core::ModelView view;
    EXPECT_THROW(view.from_buffer(bytes, verify), ser::ModelFormatError)
        << what << " verify=" << verify;
    EXPECT_FALSE(view.loaded()) << what;
  }
}

using core::fmt::SectionId;

TEST_F(ArtifactFixture, ZeroTreeForestIsRejected) {
  // A consistent zero-tree forest: one-entry offset table, empty node pool.
  // Accepting it would score every script benign.
  ArtifactEditor e{*artifact_};
  auto h = e.get<core::fmt::ArtifactHeader>(0);
  h.n_trees = 0;
  e.set(0, h);
  e.reseal(SectionId::kForestOffsets, sizeof(std::uint32_t));
  e.reseal(SectionId::kForestNodes, 0);
  expect_rejected(e.bytes, "zero trees");
}

TEST_F(ArtifactFixture, EmptyTreeIsRejected) {
  ArtifactEditor e{*artifact_};
  const std::size_t offsets = e.rec(SectionId::kForestOffsets).offset;
  e.set(offsets + 4, e.get<std::uint32_t>(offsets));  // tree 0 owns no nodes
  e.reseal(SectionId::kForestOffsets, e.rec(SectionId::kForestOffsets).size);
  expect_rejected(e.bytes, "empty tree");
}

TEST_F(ArtifactFixture, ChildIndexLoopIsRejected) {
  // The root of tree 0 becomes an internal node whose children are itself:
  // accepted, classify() would never return.
  ArtifactEditor e{*artifact_};
  const core::fmt::SectionRec nodes = e.rec(SectionId::kForestNodes);
  auto root = e.get<ml::ForestNodeRec>(nodes.offset);
  root.feature = 0;
  root.left = 0;
  root.right = 0;
  e.set(nodes.offset, root);
  e.reseal(SectionId::kForestNodes, nodes.size);
  expect_rejected(e.bytes, "self-loop");

  // A back edge deeper in the tree: the last internal node of tree 0
  // points its right child at the root.
  ArtifactEditor back{*artifact_};
  const std::size_t offsets = back.rec(SectionId::kForestOffsets).offset;
  for (std::uint32_t i = back.get<std::uint32_t>(offsets + 4);
       i-- > back.get<std::uint32_t>(offsets);) {
    const std::size_t at = nodes.offset + i * sizeof(ml::ForestNodeRec);
    auto n = back.get<ml::ForestNodeRec>(at);
    if (n.feature < 0) continue;
    n.right = 0;
    back.set(at, n);
    break;
  }
  back.reseal(SectionId::kForestNodes, nodes.size);
  expect_rejected(back.bytes, "back edge");
}

TEST_F(ArtifactFixture, MalformedClusterTableRecordIsRejected) {
  // Re-checksummed records: only structural validation can catch these.
  const std::uint32_t feature_dim = view_->header().feature_dim;
  const std::uint32_t vocab = view_->header().vocab_size;
  ASSERT_GT(vocab, 2u);
  const std::uint32_t entry = vocab / 2;
  struct Mutant {
    const char* what;
    void (*apply)(core::PathClusterRec*, std::uint32_t feature_dim);
  };
  const Mutant mutants[] = {
      {"cluster = feature_dim",
       [](core::PathClusterRec* r, std::uint32_t fd) {
         r->cluster = static_cast<std::int32_t>(fd);
       }},
      {"cluster = -2",
       [](core::PathClusterRec* r, std::uint32_t) { r->cluster = -2; }},
      {"pad != 0", [](core::PathClusterRec* r, std::uint32_t) { r->pad = 1; }},
      {"logit = NaN",
       [](core::PathClusterRec* r, std::uint32_t) {
         r->logit = std::numeric_limits<double>::quiet_NaN();
       }},
  };
  for (const Mutant& m : mutants) {
    ArtifactEditor e{*artifact_};
    const core::fmt::SectionRec table = e.rec(SectionId::kClusterTable);
    const std::size_t at = table.offset + entry * sizeof(core::PathClusterRec);
    auto rec = e.get<core::PathClusterRec>(at);
    m.apply(&rec, feature_dim);
    e.set(at, rec);
    e.reseal(SectionId::kClusterTable, table.size);
    expect_rejected(e.bytes, m.what);
    core::ModelView view;
    try {
      view.from_buffer(e.bytes);
    } catch (const ser::ModelFormatError& err) {
      EXPECT_EQ(err.section(), "paths.cluster_table") << m.what;
      EXPECT_NE(std::string(err.what()).find("entry " + std::to_string(entry)),
                std::string::npos)
          << m.what << ": " << err.what();
    }
  }
}

TEST(ModelViewApi, UnloadedViewIsSafe) {
  core::ModelView view;
  EXPECT_FALSE(view.loaded());
  EXPECT_EQ(view.classify("var x = 1;"), 1);  // fail-closed convention
}

TEST(ModelViewApi, UntrainedSaveArtifactThrows) {
  core::JsRevealer det(core::Config{});
  EXPECT_THROW(det.save_artifact(), std::logic_error);
}

TEST(ModelViewApi, MissingFileThrows) {
  core::ModelView view;
  EXPECT_THROW(view.map_file("/tmp/jsrev_no_such_artifact.jsrm"),
               std::exception);
}

}  // namespace
}  // namespace jsrev
