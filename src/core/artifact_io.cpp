// JSRM v4 artifact writer: serializes a trained JsRevealer into the
// page-aligned, checksummed section layout of core/model_format.h. train()
// builds the bytes once and attaches its ModelView to them; save_artifact()
// hands those same bytes back.
//
// The writer gathers every block inference reads in its flat training-time
// form (the vocabulary's three buffers verbatim, the per-id cluster table,
// the packed benign bitset, the flattened forest) and lays them out back to
// back on 4 KiB boundaries with zero-filled gaps. The embedding matrix and
// the centroids stay in the trainer: the cluster table already holds
// everything inference derived from them. Nothing here is
// sampled, timed, or randomized, so a deterministic model produces
// byte-identical artifacts at any thread width.
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/jsrevealer.h"
#include "core/model_format.h"
#include "ml/decision_tree.h"
#include "util/hash.h"

namespace jsrev::core {

namespace {

void pad_to_align(std::vector<std::uint8_t>* buf) {
  const std::size_t aligned =
      (buf->size() + fmt::kSectionAlign - 1) / fmt::kSectionAlign *
      fmt::kSectionAlign;
  buf->resize(aligned, 0);
}

void add_section(std::vector<std::uint8_t>* buf,
                 std::vector<fmt::SectionRec>* sections, fmt::SectionId id,
                 const void* payload, std::size_t bytes) {
  pad_to_align(buf);
  fmt::SectionRec rec;
  rec.id = static_cast<std::uint32_t>(id);
  rec.offset = buf->size();
  rec.size = bytes;
  rec.checksum = fnv1a64_begin();
  if (bytes != 0) {
    rec.checksum = fnv1a64(
        std::string_view(static_cast<const char*>(payload), bytes));
    const auto* b = static_cast<const std::uint8_t*>(payload);
    buf->insert(buf->end(), b, b + bytes);
  }
  sections->push_back(rec);
}

template <typename T>
void add_vector_section(std::vector<std::uint8_t>* buf,
                        std::vector<fmt::SectionRec>* sections,
                        fmt::SectionId id, const std::vector<T>& v) {
  add_section(buf, sections, id, v.data(), v.size() * sizeof(T));
}

void require_trained(const ModelView& view) {
  if (!view.loaded()) {
    throw std::logic_error("JsRevealer: no artifact before train()");
  }
}

}  // namespace

std::vector<std::uint8_t> JsRevealer::build_artifact() const {
  // Flatten the forest and the interpretability index up front; every other
  // block already lives in its serialized form.
  std::vector<ml::ForestNodeRec> forest_nodes;
  std::vector<std::uint32_t> forest_offsets;
  forest_.export_flat(&forest_nodes, &forest_offsets);

  std::string central_blob;
  std::vector<std::uint32_t> central_offsets;
  central_offsets.reserve(central_path_.size() + 1);
  central_offsets.push_back(0);
  for (const std::string& p : central_path_) {
    central_blob += p;
    central_offsets.push_back(static_cast<std::uint32_t>(central_blob.size()));
  }

  fmt::ArtifactHeader hdr;
  std::memcpy(hdr.magic, fmt::kMagic, sizeof(hdr.magic));
  hdr.section_count = fmt::kSectionCount;
  if (cfg_.path.use_dataflow) hdr.flags |= fmt::kFlagUseDataflow;
  if (cfg_.deobfuscate) hdr.flags |= fmt::kFlagDeobfuscate;
  if (cfg_.binary_cluster_features) {
    hdr.flags |= fmt::kFlagBinaryClusterFeatures;
  }
  hdr.embedding_dim = static_cast<std::uint32_t>(cfg_.embedding_dim);
  hdr.feature_dim = static_cast<std::uint32_t>(feature_dim_);
  hdr.lint_dim = static_cast<std::uint32_t>(lint_dim_);
  hdr.clusters_removed = static_cast<std::uint32_t>(clusters_removed_);
  hdr.vocab_size = static_cast<std::uint32_t>(vocab_.size());
  hdr.vocab_table_size = static_cast<std::uint32_t>(vocab_.table().size());
  hdr.n_trees = static_cast<std::uint32_t>(forest_.tree_count());
  hdr.path_max_length = static_cast<std::uint32_t>(cfg_.path.max_length);
  hdr.path_max_width = static_cast<std::uint32_t>(cfg_.path.max_width);
  // 0 encodes the default cap, so default models keep their exact bytes.
  const std::size_t max_paths = cfg_.path.max_paths;
  if (max_paths == 0 ||
      max_paths > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "JsRevealer: path cap " + std::to_string(max_paths) +
        " does not fit the artifact header (1..2^32-1)");
  }
  if (max_paths != paths::PathConfig{}.max_paths) {
    hdr.path_max_paths = static_cast<std::uint32_t>(max_paths);
  }
  hdr.max_vocab = cfg_.max_vocab;

  std::vector<std::uint8_t> buf(sizeof(fmt::ArtifactHeader) +
                                    fmt::kSectionCount * sizeof(fmt::SectionRec),
                                0);
  std::vector<fmt::SectionRec> sections;
  sections.reserve(fmt::kSectionCount);

  add_vector_section(&buf, &sections, fmt::SectionId::kVocabEntries,
                     vocab_.entries());
  add_vector_section(&buf, &sections, fmt::SectionId::kVocabTable,
                     vocab_.table());
  add_section(&buf, &sections, fmt::SectionId::kVocabBlob,
              vocab_.blob().data(), vocab_.blob().size());
  add_vector_section(&buf, &sections, fmt::SectionId::kClusterTable,
                     cluster_table_);
  add_vector_section(&buf, &sections, fmt::SectionId::kCentroidBenign,
                     centroid_benign_);
  add_vector_section(&buf, &sections, fmt::SectionId::kCentralPathOffsets,
                     central_offsets);
  add_section(&buf, &sections, fmt::SectionId::kCentralPathBlob,
              central_blob.data(), central_blob.size());
  add_vector_section(&buf, &sections, fmt::SectionId::kScalerMin,
                     scaler_.fitted_min());
  add_vector_section(&buf, &sections, fmt::SectionId::kScalerMax,
                     scaler_.fitted_max());
  add_vector_section(&buf, &sections, fmt::SectionId::kForestOffsets,
                     forest_offsets);
  add_vector_section(&buf, &sections, fmt::SectionId::kForestNodes,
                     forest_nodes);

  hdr.file_size = buf.size();
  std::memcpy(buf.data(), &hdr, sizeof(hdr));
  std::memcpy(buf.data() + sizeof(hdr), sections.data(),
              sections.size() * sizeof(fmt::SectionRec));
  return buf;
}

std::vector<std::uint8_t> JsRevealer::save_artifact() const {
  require_trained(view_);
  return {view_.data_, view_.data_ + view_.size_};
}

void JsRevealer::save_artifact_file(const std::string& path) const {
  require_trained(view_);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  out.write(reinterpret_cast<const char*>(view_.data_),
            static_cast<std::streamsize>(view_.size_));
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace jsrev::core
