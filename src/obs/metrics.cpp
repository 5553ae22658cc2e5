#include "obs/metrics.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace artsparse::obs {

namespace detail {

std::size_t this_thread_shard() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return shard;
}

}  // namespace detail

std::uint64_t Counter::value() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::reset() {
  for (auto& shard : shards_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)) {
  artsparse::detail::require(
      std::is_sorted(bounds_.begin(), bounds_.end()),
      "histogram bucket bounds must be ascending");
  for (auto& shard : shards_) {
    shard.buckets =
        std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
  }
}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t bucket =
      static_cast<std::size_t>(it - bounds_.begin());
  Shard& shard = shards_[detail::this_thread_shard()];
  shard.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add_double(shard.sum, value);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> counts(bounds_.size() + 1, 0);
  for (const auto& shard : shards_) {
    for (std::size_t i = 0; i < counts.size(); ++i) {
      counts[i] += shard.buckets[i].load(std::memory_order_relaxed);
    }
  }
  return counts;
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard.count.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::sum() const {
  double total = 0.0;
  for (const auto& shard : shards_) {
    total += shard.sum.load(std::memory_order_relaxed);
  }
  return total;
}

void Histogram::reset() {
  for (auto& shard : shards_) {
    for (auto& bucket : shard.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
    shard.count.store(0, std::memory_order_relaxed);
    shard.sum.store(0.0, std::memory_order_relaxed);
  }
}

const std::vector<double>& default_time_buckets_ns() {
  // 1µs .. ~4.3s in powers of four: wide enough that a cache hit and a
  // throttled multi-second commit both land inside the bounded range.
  static const std::vector<double> buckets = [] {
    std::vector<double> bounds;
    double bound = 1e3;  // 1µs
    for (int i = 0; i < 12; ++i) {
      bounds.push_back(bound);
      bound *= 4.0;
    }
    return bounds;
  }();
  return buckets;
}

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

namespace {

/// Registry map key: name plus the sorted label pairs, rendered so equal
/// label sets always collide and different ones never do.
std::string metric_key(std::string_view name, const Labels& labels) {
  std::string key(name);
  for (const auto& [label, value] : labels) {
    key += '\x1f';
    key += label;
    key += '\x1e';
    key += value;
  }
  return key;
}

Labels sorted_labels(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

}  // namespace

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* instance = new MetricsRegistry();  // never dies
  return *instance;
}

MetricsRegistry::Entry& MetricsRegistry::find_or_create(
    MetricKind kind, std::string_view name, std::string_view help,
    const Labels& labels, const std::vector<double>* bounds) {
  const Labels ordered = sorted_labels(labels);
  const std::string key = metric_key(name, ordered);
  const MutexLock lock(mutex_);
  auto it = metrics_.find(key);
  if (it != metrics_.end()) {
    if (it->second.kind != kind) [[unlikely]] {
      artsparse::detail::throw_format_error(
          "metric '" + std::string(name) + "' already registered as " +
          std::string(to_string(it->second.kind)));
    }
    if (it->second.help.empty() && !help.empty()) {
      it->second.help = std::string(help);
    }
    return it->second;
  }
  Entry entry;
  entry.kind = kind;
  entry.name = std::string(name);
  entry.help = std::string(help);
  entry.labels = ordered;
  switch (kind) {
    case MetricKind::kCounter:
      entry.counter = std::make_unique<Counter>();
      break;
    case MetricKind::kGauge:
      entry.gauge = std::make_unique<Gauge>();
      break;
    case MetricKind::kHistogram:
      entry.histogram = std::make_unique<Histogram>(*bounds);
      break;
  }
  return metrics_.emplace(key, std::move(entry)).first->second;
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  std::string_view help,
                                  const Labels& labels) {
  return *find_or_create(MetricKind::kCounter, name, help, labels, nullptr)
              .counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help,
                              const Labels& labels) {
  return *find_or_create(MetricKind::kGauge, name, help, labels, nullptr)
              .gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::string_view help,
                                      const Labels& labels,
                                      const std::vector<double>& bounds) {
  return *find_or_create(MetricKind::kHistogram, name, help, labels,
                         &bounds)
              .histogram;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snapshot;
  const MutexLock lock(mutex_);
  snapshot.samples.reserve(metrics_.size());
  for (const auto& [key, entry] : metrics_) {
    MetricSample sample;
    sample.name = entry.name;
    sample.help = entry.help;
    sample.kind = entry.kind;
    sample.labels = entry.labels;
    switch (entry.kind) {
      case MetricKind::kCounter:
        sample.value = static_cast<double>(entry.counter->value());
        break;
      case MetricKind::kGauge:
        sample.value = static_cast<double>(entry.gauge->value());
        break;
      case MetricKind::kHistogram:
        sample.bucket_bounds = entry.histogram->bounds();
        sample.bucket_counts = entry.histogram->bucket_counts();
        sample.observation_count = entry.histogram->count();
        sample.observation_sum = entry.histogram->sum();
        break;
    }
    snapshot.samples.push_back(std::move(sample));
  }
  return snapshot;
}

void MetricsRegistry::reset() {
  const MutexLock lock(mutex_);
  for (auto& [key, entry] : metrics_) {
    switch (entry.kind) {
      case MetricKind::kCounter:
        entry.counter->reset();
        break;
      case MetricKind::kGauge:
        break;  // live state owned by the instrument; see header
      case MetricKind::kHistogram:
        entry.histogram->reset();
        break;
    }
  }
}

std::size_t MetricsRegistry::metric_count() const {
  const MutexLock lock(mutex_);
  return metrics_.size();
}

const MetricSample* MetricsSnapshot::find(std::string_view name,
                                          const Labels& labels) const {
  const Labels ordered = sorted_labels(labels);
  for (const MetricSample& sample : samples) {
    if (sample.name != name) continue;
    if (!labels.empty() && sample.labels != ordered) continue;
    return &sample;
  }
  return nullptr;
}

double MetricsSnapshot::value(std::string_view name,
                              const Labels& labels) const {
  const MetricSample* sample = find(name, labels);
  return sample == nullptr ? 0.0 : sample->value;
}

}  // namespace artsparse::obs
