#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double median_least_stolen(const std::vector<double>& rates,
                           const std::vector<double>& steal) {
  const double cut = median(steal);
  std::vector<double> kept;
  for (std::size_t i = 0; i < rates.size() && i < steal.size(); ++i) {
    if (steal[i] <= cut) kept.push_back(rates[i]);
  }
  return median(kept);
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const double rank = std::ceil(q * static_cast<double>(n));
  const auto at = static_cast<std::size_t>(std::max(rank, 1.0));
  return n - std::min(at, n);
}

std::size_t min_samples_for(double q, std::size_t beyond) {
  std::size_t n = 1;
  while (samples_beyond(n, q) < beyond) ++n;
  return n;
}

double latency_ms(const Timing& t) { return (t.done - t.due) * 1e3; }

double lag_ms(const Timing& t) { return (t.sent - t.due) * 1e3; }

bool backlog_growing(const std::vector<Timing>& step, double limit_ms) {
  for (const Timing& t : step) {
    if (t.done < 0.0) return true;
  }
  if (step.size() < 8) return false;
  std::vector<Timing> by_due = step;
  std::sort(by_due.begin(), by_due.end(),
            [](const Timing& a, const Timing& b) { return a.due < b.due; });
  const std::size_t quarter = by_due.size() / 4;
  std::vector<double> first;
  std::vector<double> last;
  for (std::size_t i = 0; i < quarter; ++i) {
    first.push_back(latency_ms(by_due[i]));
    last.push_back(latency_ms(by_due[by_due.size() - quarter + i]));
  }
  return median(last) - median(first) > limit_ms / 4.0;
}

double f1_score(const std::vector<int>& truth, const std::vector<int>& pred) {
  std::size_t tp = 0;
  std::size_t fp = 0;
  std::size_t fn = 0;
  for (std::size_t i = 0; i < truth.size() && i < pred.size(); ++i) {
    tp += truth[i] == 1 && pred[i] == 1;
    fp += truth[i] == 0 && pred[i] == 1;
    fn += truth[i] == 1 && pred[i] == 0;
  }
  if (tp == 0) return 0.0;
  return 2.0 * static_cast<double>(tp) /
         static_cast<double>(2 * tp + fp + fn);
}

}  // namespace perfbench
