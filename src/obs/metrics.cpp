#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "obs/json.h"

namespace jsrev::obs {

namespace {

std::atomic<bool> g_metrics_enabled{true};

std::string labels_to_string(const Labels& labels) {
  std::string out;
  for (const auto& [k, v] : labels) {
    if (!out.empty()) out += ',';
    out += k;
    out += '=';
    out += v;
  }
  return out;
}

/// Observations in one histogram bucket snapshot.
std::uint64_t total_count(const std::vector<std::uint64_t>& buckets) {
  return std::accumulate(buckets.begin(), buckets.end(), std::uint64_t{0});
}

}  // namespace

void set_metrics_enabled(bool enabled) noexcept {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

bool metrics_enabled() noexcept {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

namespace detail {

std::size_t shard_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t idx =
      next.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
  return idx;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Counter

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  for (const auto& c : cells_) total += c.v.load(std::memory_order_relaxed);
  return total;
}

void Counter::reset() noexcept {
  for (auto& c : cells_) c.v.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Summary

void Summary::observe(double v) noexcept {
  if (!metrics_enabled()) return;
  Cell& c = cells_[detail::shard_index()];
  c.count.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(c.sum, v);
  detail::atomic_add(c.sumsq, v * v);
  if (!c.any.exchange(true, std::memory_order_relaxed)) {
    c.min.store(v, std::memory_order_relaxed);
    c.max.store(v, std::memory_order_relaxed);
    return;
  }
  double cur = c.min.load(std::memory_order_relaxed);
  while (v < cur &&
         !c.min.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = c.max.load(std::memory_order_relaxed);
  while (v > cur &&
         !c.max.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::uint64_t Summary::count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& c : cells_) {
    total += c.count.load(std::memory_order_relaxed);
  }
  return total;
}

double Summary::sum() const noexcept {
  double total = 0.0;
  for (const auto& c : cells_) total += c.sum.load(std::memory_order_relaxed);
  return total;
}

double Summary::mean() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Summary::stddev() const noexcept {
  const std::uint64_t n = count();
  if (n < 2) return 0.0;
  double sumsq = 0.0;
  for (const auto& c : cells_) {
    sumsq += c.sumsq.load(std::memory_order_relaxed);
  }
  const double s = sum();
  const double var =
      (sumsq - s * s / static_cast<double>(n)) / static_cast<double>(n - 1);
  return var > 0.0 ? std::sqrt(var) : 0.0;
}

double Summary::min() const noexcept {
  double best = 0.0;
  bool any = false;
  for (const auto& c : cells_) {
    if (!c.any.load(std::memory_order_relaxed)) continue;
    const double v = c.min.load(std::memory_order_relaxed);
    best = any ? std::min(best, v) : v;
    any = true;
  }
  return best;
}

double Summary::max() const noexcept {
  double best = 0.0;
  bool any = false;
  for (const auto& c : cells_) {
    if (!c.any.load(std::memory_order_relaxed)) continue;
    const double v = c.max.load(std::memory_order_relaxed);
    best = any ? std::max(best, v) : v;
    any = true;
  }
  return best;
}

void Summary::reset() noexcept {
  for (auto& c : cells_) {
    c.count.store(0, std::memory_order_relaxed);
    c.sum.store(0.0, std::memory_order_relaxed);
    c.sumsq.store(0.0, std::memory_order_relaxed);
    c.min.store(0.0, std::memory_order_relaxed);
    c.max.store(0.0, std::memory_order_relaxed);
    c.any.store(false, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::logic_error("Histogram bounds must be sorted ascending");
  }
  for (auto& c : cells_) {
    c.buckets = std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
  }
}

void Histogram::observe(double v) noexcept {
  if (!metrics_enabled()) return;
  Cell& c = cells_[detail::shard_index()];
  // Bounds are inclusive upper limits (v <= bound), Prometheus "le" style.
  const std::size_t b = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  c.buckets[b].fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(c.sum, v);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1, 0);
  for (const auto& c : cells_) {
    for (std::size_t b = 0; b < out.size(); ++b) {
      out[b] += c.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

std::uint64_t Histogram::count() const { return total_count(bucket_counts()); }

double Histogram::sum() const noexcept {
  double total = 0.0;
  for (const auto& c : cells_) total += c.sum.load(std::memory_order_relaxed);
  return total;
}

void Histogram::reset() noexcept {
  for (auto& c : cells_) {
    for (auto& b : c.buckets) b.store(0, std::memory_order_relaxed);
    c.sum.store(0.0, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Registry

Registry& Registry::global() {
  static Registry r;
  return r;
}

Registry::Entry* Registry::find_or_create(std::string_view name,
                                          const Labels& labels,
                                          MetricKind kind,
                                          const MetricOptions& opts,
                                          std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& e : entries_) {
    if (e->name == name && e->labels == labels) {
      if (e->kind != kind) {
        throw std::logic_error("metric '" + std::string(name) +
                               "' registered with a different kind");
      }
      return e.get();
    }
  }
  auto e = std::make_unique<Entry>();
  e->name = std::string(name);
  e->labels = labels;
  e->kind = kind;
  e->opts = opts;
  switch (kind) {
    case MetricKind::kCounter: e->counter = std::make_unique<Counter>(); break;
    case MetricKind::kGauge: e->gauge = std::make_unique<Gauge>(); break;
    case MetricKind::kSummary: e->summary = std::make_unique<Summary>(); break;
    case MetricKind::kHistogram:
      e->histogram = std::make_unique<Histogram>(std::move(bounds));
      break;
  }
  entries_.push_back(std::move(e));
  return entries_.back().get();
}

Counter* Registry::counter(std::string_view name, const Labels& labels,
                           const MetricOptions& opts) {
  return find_or_create(name, labels, MetricKind::kCounter, opts)->counter.get();
}

Gauge* Registry::gauge(std::string_view name, const Labels& labels,
                       const MetricOptions& opts) {
  return find_or_create(name, labels, MetricKind::kGauge, opts)->gauge.get();
}

Summary* Registry::summary(std::string_view name, const Labels& labels,
                           const MetricOptions& opts) {
  return find_or_create(name, labels, MetricKind::kSummary, opts)->summary.get();
}

Histogram* Registry::histogram(std::string_view name,
                               std::vector<double> bounds,
                               const Labels& labels,
                               const MetricOptions& opts) {
  return find_or_create(name, labels, MetricKind::kHistogram, opts,
                        std::move(bounds))
      ->histogram.get();
}

std::vector<const Registry::Entry*> Registry::sorted_entries() const {
  std::vector<const Entry*> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(entries_.size());
    for (const auto& e : entries_) out.push_back(e.get());
  }
  std::sort(out.begin(), out.end(), [](const Entry* a, const Entry* b) {
    if (a->name != b->name) return a->name < b->name;
    return a->labels < b->labels;
  });
  return out;
}

namespace {

const char* unit_name(Unit u) {
  switch (u) {
    case Unit::kCount: return "count";
    case Unit::kMillis: return "ms";
    case Unit::kBytes: return "bytes";
  }
  return "count";
}

}  // namespace

std::vector<MetricSample> Registry::samples() const {
  std::vector<MetricSample> out;
  for (const Entry* e : sorted_entries()) {
    MetricSample s;
    s.name = e->name;
    s.labels = e->labels;
    s.kind = e->kind;
    s.unit = e->opts.unit;
    s.schedule_dependent = e->opts.schedule_dependent;
    s.help = e->opts.help;
    switch (e->kind) {
      case MetricKind::kCounter:
        s.value = static_cast<double>(e->counter->value());
        break;
      case MetricKind::kGauge:
        s.value = static_cast<double>(e->gauge->value());
        break;
      case MetricKind::kSummary:
        s.count = e->summary->count();
        s.sum = e->summary->sum();
        break;
      case MetricKind::kHistogram:
        // Count from the same bucket snapshot, so the exposition's
        // cumulative buckets always end at _count.
        s.buckets = e->histogram->bucket_counts();
        s.count = total_count(s.buckets);
        s.sum = e->histogram->sum();
        s.bounds = e->histogram->bounds();
        break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::string Registry::export_json(bool deterministic_only) const {
  JsonWriter w;
  w.begin_object();
  w.key("metrics");
  w.begin_array();
  for (const Entry* e : sorted_entries()) {
    if (deterministic_only &&
        (e->opts.unit == Unit::kMillis || e->opts.schedule_dependent)) {
      continue;
    }
    w.begin_object();
    w.kv("name", e->name);
    if (!e->labels.empty()) {
      w.key("labels");
      w.begin_object();
      for (const auto& [k, v] : e->labels) w.kv(k, v);
      w.end_object();
    }
    w.kv("unit", unit_name(e->opts.unit));
    switch (e->kind) {
      case MetricKind::kCounter:
        w.kv("type", "counter");
        w.kv("value", e->counter->value());
        break;
      case MetricKind::kGauge:
        w.kv("type", "gauge");
        w.kv("value", e->gauge->value());
        break;
      case MetricKind::kSummary: {
        w.kv("type", "summary");
        const Summary& s = *e->summary;
        w.kv("count", s.count());
        if (!deterministic_only) {
          w.kv("sum", s.sum());
          w.kv("mean", s.mean());
          w.kv("stddev", s.stddev());
          w.kv("min", s.min());
          w.kv("max", s.max());
        }
        break;
      }
      case MetricKind::kHistogram: {
        w.kv("type", "histogram");
        const Histogram& h = *e->histogram;
        const std::vector<std::uint64_t> buckets = h.bucket_counts();
        w.kv("count", total_count(buckets));
        w.kv("sum", h.sum());
        w.key("bounds");
        w.begin_array();
        for (const double b : h.bounds()) w.value(b);
        w.end_array();
        w.key("buckets");
        w.begin_array();
        for (const std::uint64_t c : buckets) w.value(c);
        w.end_array();
        break;
      }
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string Registry::to_json() const { return export_json(false); }

std::string Registry::deterministic_json() const { return export_json(true); }

std::string Registry::to_table() const {
  std::string out;
  auto line = [&out](const std::string& name, const std::string& labels,
                     const std::string& value) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%-40s %-36s %s\n", name.c_str(),
                  labels.c_str(), value.c_str());
    out += buf;
  };
  line("name", "labels", "value");
  for (const Entry* e : sorted_entries()) {
    char value[160];
    switch (e->kind) {
      case MetricKind::kCounter:
        std::snprintf(value, sizeof value, "%llu",
                      static_cast<unsigned long long>(e->counter->value()));
        break;
      case MetricKind::kGauge:
        std::snprintf(value, sizeof value, "%lld",
                      static_cast<long long>(e->gauge->value()));
        break;
      case MetricKind::kSummary:
        std::snprintf(value, sizeof value,
                      "n=%llu mean=%.3f%s stddev=%.3f min=%.3f max=%.3f",
                      static_cast<unsigned long long>(e->summary->count()),
                      e->summary->mean(), unit_name(e->opts.unit),
                      e->summary->stddev(), e->summary->min(),
                      e->summary->max());
        break;
      case MetricKind::kHistogram:
        std::snprintf(value, sizeof value, "n=%llu sum=%.1f buckets=%zu",
                      static_cast<unsigned long long>(e->histogram->count()),
                      e->histogram->sum(),
                      e->histogram->bounds().size() + 1);
        break;
    }
    line(e->name, labels_to_string(e->labels), value);
  }
  return out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& e : entries_) {
    switch (e->kind) {
      case MetricKind::kCounter: e->counter->reset(); break;
      case MetricKind::kGauge: e->gauge->reset(); break;
      case MetricKind::kSummary: e->summary->reset(); break;
      case MetricKind::kHistogram: e->histogram->reset(); break;
    }
  }
}

}  // namespace jsrev::obs
