#include "ml/model_view_ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace jsrev::ml {

void softmax_inplace(std::vector<double>& v) {
  if (v.empty()) return;
  double mx = v[0];
  for (const double x : v) mx = std::max(mx, x);
  double sum = 0.0;
  for (double& x : v) {
    x = std::exp(x - mx);
    sum += x;
  }
  for (double& x : v) x /= sum;
}

int nearest_centroid_raw(const double* centroids, std::size_t n,
                         std::size_t d, const double* point) {
  int best = 0;
  double best_d = std::numeric_limits<double>::max();
  for (std::size_t c = 0; c < n; ++c) {
    const double d2 = squared_distance(centroids + c * d, point, d);
    if (d2 < best_d) {
      best_d = d2;
      best = static_cast<int>(c);
    }
  }
  return best;
}

double ForestView::predict_proba(const double* row) const {
  double s = 0.0;
  for (std::uint32_t t = 0; t < n_trees; ++t) {
    const ForestNodeRec* base = nodes + offsets[t];
    const ForestNodeRec* cur = base;
    while (cur->feature >= 0) {
      cur = base + (row[static_cast<std::size_t>(cur->feature)] <=
                            cur->threshold
                        ? cur->left
                        : cur->right);
    }
    s += cur->p_malicious;
  }
  return s / static_cast<double>(n_trees);
}

void scale_row(double* row, const double* min, const double* max,
               std::size_t n) {
  for (std::size_t f = 0; f < n; ++f) {
    const double range = max[f] - min[f];
    row[f] = range > 0 ? (row[f] - min[f]) / range : 0.0;
    row[f] = std::clamp(row[f], 0.0, 1.0);
  }
}

}  // namespace jsrev::ml
