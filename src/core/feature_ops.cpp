#include "core/feature_ops.h"

#include <cmath>

#include "ml/model_view_ops.h"
#include "util/thread_pool.h"

namespace jsrev::core {

std::vector<PathClusterRec> build_cluster_table(
    const ml::AttentionModel& model, const ml::Matrix& centroids,
    const std::vector<double>& radius, std::size_t threads) {
  const std::size_t vocab = model.vocab_size();
  const std::size_t n_centroids = centroids.rows();
  const auto d = static_cast<std::size_t>(model.embedding_dim());
  const double* attn = model.attention_vector().data();
  std::vector<PathClusterRec> table(vocab);
  parallel_for_threads(threads, vocab, [&](std::size_t id) {
    const std::vector<double> e =
        model.path_embedding(static_cast<std::int32_t>(id));
    PathClusterRec& rec = table[id];
    rec.logit = ml::dot(e.data(), attn, d);
    if (n_centroids == 0) return;  // no cluster to belong to
    const int c = ml::nearest_centroid_raw(centroids.data().data(),
                                           n_centroids, d, e.data());
    // Paths far from every cluster belong to none of them.
    const double dist = std::sqrt(ml::squared_distance(
        e.data(), centroids.row(static_cast<std::size_t>(c)), d));
    const double r = radius[static_cast<std::size_t>(c)];
    if (!(r > 0 && dist > 4.0 * r)) rec.cluster = c;
  });
  return table;
}

std::vector<double> cluster_features(const ClusterTable& t,
                                     const std::vector<std::int32_t>& ids,
                                     obs::VerdictProvenance* prov) {
  const auto known = [&t](std::int32_t id) {
    return id >= 0 && static_cast<std::uint32_t>(id) < t.vocab_size;
  };
  std::vector<double> weights;
  weights.reserve(ids.size());
  for (const std::int32_t id : ids) {
    if (known(id)) weights.push_back(t.records[id].logit);
  }
  ml::softmax_inplace(weights);

  std::vector<double> f(t.feature_dim, 0.0);
  std::size_t k = 0;
  std::size_t outside = 0;
  for (const std::int32_t id : ids) {
    if (!known(id)) continue;
    const double w = weights[k++];
    const std::int32_t c = t.records[id].cluster;
    if (c < 0) {
      ++outside;
      continue;
    }
    if (t.binary_features) {
      f[static_cast<std::size_t>(c)] = 1.0;  // ablation: occurrence only
    } else {
      f[static_cast<std::size_t>(c)] += w;
    }
  }
  if (prov != nullptr) {
    prov->paths_outside_clusters = outside;
    prov->cluster_attention.clear();
    for (std::size_t c = 0; c < t.feature_dim; ++c) {
      if (f[c] == 0.0) continue;  // record only clusters the script touched
      obs::ClusterAttention ca;
      ca.feature_index = static_cast<int>(c);
      ca.from_benign = benign_bit(t.benign, c);
      ca.mass = f[c];
      prov->cluster_attention.push_back(ca);
    }
  }
  return f;
}

}  // namespace jsrev::core
