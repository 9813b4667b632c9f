// Raw-pointer kernels shared by the trainer and ModelView.
//
// Every parameter block here is a borrowed view over flat little-endian
// arrays — either the training-time std::vector storage or bytes mapped
// straight from a JSRM model artifact. The training classes
// (AttentionModel, KMeans, MinMaxScaler, the cluster-table builder) run
// these kernels over their own storage, so the forest's training rows are
// exactly what ModelView computes from the artifact for the same scripts.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/matrix.h"

namespace jsrev::ml {

/// Numerically-stable softmax, in place. Exposed so the attention trainer
/// and the cluster-feature kernel share one implementation.
void softmax_inplace(std::vector<double>& v);

/// Index of the nearest centroid among `n` rows of `d` doubles (strictly
/// closer wins; ties keep the lower index — the Matrix overload in kmeans.h
/// and the cluster-table builder delegate here).
int nearest_centroid_raw(const double* centroids, std::size_t n,
                         std::size_t d, const double* point);

/// One random-forest node as a fixed-width 32-byte record — the on-disk and
/// in-memory unit of the artifact's preorder node pool. Child indices are
/// 32-bit and tree-relative (an index into the same tree's node range).
struct ForestNodeRec {
  std::int32_t feature = -1;  // -1 = leaf
  std::int32_t left = -1;
  std::int32_t right = -1;
  std::int32_t pad = 0;  // keeps doubles 8-aligned; always zero on disk
  double threshold = 0.0;
  double p_malicious = 0.0;
};
static_assert(sizeof(ForestNodeRec) == 32, "node record must be packed");

/// Borrowed view of a flattened forest: one preorder node pool plus a
/// prefix-offset table (tree t owns nodes [offsets[t], offsets[t+1])).
/// Requires at least one tree, no empty tree, and every child index after
/// its parent — what export_flat writes and ModelView's attach enforces.
struct ForestView {
  const ForestNodeRec* nodes = nullptr;
  const std::uint32_t* offsets = nullptr;  // n_trees + 1 entries
  std::uint32_t n_trees = 0;
  std::uint32_t n_features = 0;

  /// Mean leaf probability across trees, summed in tree order — the exact
  /// arithmetic of RandomForest::predict_proba.
  double predict_proba(const double* row) const;
  int predict(const double* row) const {
    return predict_proba(row) >= 0.5 ? 1 : 0;
  }
};

/// Min-max scaling of one feature row (paper Eq. 6) against raw min/max
/// arrays — the exact arithmetic of MinMaxScaler::transform_row.
void scale_row(double* row, const double* min, const double* max,
               std::size_t n);

}  // namespace jsrev::ml
