// Cluster-membership featurization shared by JsRevealer's training stage
// and ModelView's inference.
//
// In paper Eq. 1-3 and Section III-D, a path's embedding tanh(W[id]), its
// attention logit, its nearest centroid and its inside-4x-radius test depend
// only on its vocabulary id. build_cluster_table() therefore folds the
// trainer's embedding matrix and cluster geometry into one PathClusterRec
// per id, once, and cluster_features() turns a script's ids into features
// with a lookup, a softmax and an accumulation. The trainer builds the
// forest's training rows with it over its own table, and ModelView computes
// every inference row with it over the artifact's paths.cluster_table.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/attention_model.h"
#include "ml/matrix.h"
#include "obs/provenance.h"

namespace jsrev::core {

/// Words needed to hold one bit per centroid.
inline std::size_t benign_word_count(std::size_t n_centroids) {
  return (n_centroids + 63) / 64;
}

/// Reads centroid `i`'s benign-origin bit from the packed word array.
inline bool benign_bit(const std::uint64_t* words, std::size_t i) {
  return ((words[i >> 6] >> (i & 63)) & 1ULL) != 0;
}

/// Sets centroid `i`'s benign-origin bit.
inline void set_benign_bit(std::uint64_t* words, std::size_t i) {
  words[i >> 6] |= 1ULL << (i & 63);
}

/// One vocabulary id's precomputed inference values: the on-disk and
/// in-memory unit of the artifact's paths.cluster_table (16 bytes).
struct PathClusterRec {
  double logit = 0.0;         // attention logit tanh(W[id]) . a
  std::int32_t cluster = -1;  // nearest surviving centroid; -1 = outside all
  std::uint32_t pad = 0;      // always zero on disk
};
static_assert(sizeof(PathClusterRec) == 16,
              "cluster-table record must be packed");

/// Folds the trained embedding model and the surviving centroids (with
/// their RMS radii) into one record per vocabulary id, with exactly the
/// arithmetic of AttentionModel::embed and the nearest-centroid scan. An id
/// farther than four radii from its nearest centroid gets cluster -1.
/// Parallel over ids at `threads` width, each id owning its slot, so the
/// table is identical at every width.
std::vector<PathClusterRec> build_cluster_table(
    const ml::AttentionModel& model, const ml::Matrix& centroids,
    const std::vector<double>& radius, std::size_t threads);

/// Borrowed view of a cluster table plus the per-centroid benign bits.
struct ClusterTable {
  const PathClusterRec* records = nullptr;  // vocab_size entries
  const std::uint64_t* benign = nullptr;    // packed benign-origin bits
  std::uint32_t vocab_size = 0;
  std::uint32_t feature_dim = 0;
  bool binary_features = false;  // ablation: occurrence instead of mass
};

/// Cluster-membership features of one script's path ids, before scaling:
/// the softmax of the known ids' logits, in path order, accumulated per
/// cluster (or set to 1.0 under the binary ablation). Ids outside
/// [0, vocab_size) are skipped. When `prov` is non-null the per-cluster
/// mass and the count of paths outside every cluster land in it.
std::vector<double> cluster_features(const ClusterTable& t,
                                     const std::vector<std::int32_t>& ids,
                                     obs::VerdictProvenance* prov = nullptr);

}  // namespace jsrev::core
