#include "util/metrics.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace npd::metrics {

namespace {

constexpr std::string_view kSchema = "npd.metrics/1";
constexpr int kBucketCount = kHistogramBuckets + 1;  // + overflow

/// One thread's shard of one counter.  Mutated lock-free by exactly one
/// thread; read concurrently (relaxed) by `snapshot()`.
struct CounterCell {
  std::atomic<std::int64_t> value{0};
};

struct GaugeCell {
  std::atomic<std::int64_t> value{0};
  std::atomic<bool> set{false};
};

struct HistogramCell {
  std::atomic<std::int64_t> count{0};
  std::atomic<double> min{0.0};
  std::atomic<double> max{0.0};
  std::array<std::atomic<std::int64_t>, kBucketCount> buckets{};
};

/// Name → per-thread cells, one map per metric kind (the kinds are
/// separate namespaces, so a name can never change kind).  std::map
/// keeps the names sorted, which is the snapshot's emission order.
template <typename Cell>
using CellMap =
    std::map<std::string, std::vector<std::unique_ptr<Cell>>, std::less<>>;

struct Registry {
  std::mutex mutex;  ///< guards the map structure, never the cells
  CellMap<CounterCell> counters;
  CellMap<GaugeCell> gauges;
  CellMap<HistogramCell> histograms;
};

std::atomic<bool> g_enabled{false};
std::atomic<bool> g_ever_enabled{false};

Registry& registry() {
  static Registry instance;
  return instance;
}

/// Resolve `name` to this thread's cell, registering a new cell (under
/// the registry lock) on first touch per thread per name.  The cache
/// and the cells live for the process lifetime — `reset()` zeroes cells
/// but never frees them, so cached pointers stay valid.
template <typename Cell>
Cell& local_cell(CellMap<Cell> Registry::*map, std::string_view name) {
  thread_local std::map<std::string, Cell*, std::less<>> cache;
  const auto it = cache.find(name);
  if (it != cache.end()) {
    return *it->second;
  }
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  auto& cells = (reg.*map)[std::string(name)];
  cells.push_back(std::make_unique<Cell>());
  Cell* cell = cells.back().get();
  cache.emplace(std::string(name), cell);
  return *cell;
}

/// Smallest finite bucket whose bound holds `value`, else the overflow
/// bucket.  A ≤ 40-step doubling loop — branch-predictable, exact, and
/// identical on every platform (doubling a double is lossless).
int bucket_index(double value) {
  double bound = 1e-6;
  int bucket = 0;
  while (bucket < kHistogramBuckets && value > bound) {
    bound *= 2.0;
    ++bucket;
  }
  return bucket;
}

/// The telemetry layer's sanctioned wall-clock read (this TU is
/// allowlisted by npd_lint's no-wall-clock rule): stamps the capture
/// time into the snapshot so a metrics file is attributable to a run.
/// Never feeds results, keys or fingerprints.
double wall_unix_seconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

Json histogram_to_json(const HistogramValue& histogram) {
  Json buckets = Json::array();
  for (const std::int64_t count : histogram.buckets) {
    buckets.push_back(count);
  }
  Json doc = Json::object();
  doc.set("count", histogram.count)
      .set("min", histogram.min)
      .set("max", histogram.max)
      .set("buckets", std::move(buckets));
  return doc;
}

std::int64_t require_int(const Json* value, const char* what) {
  if (value == nullptr || !value->is_number()) {
    throw std::invalid_argument(std::string("npd.metrics: missing numeric ") +
                                what);
  }
  return value->as_int();
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  if (on) {
    g_ever_enabled.store(true, std::memory_order_relaxed);
  }
  g_enabled.store(on, std::memory_order_relaxed);
}

void counter(std::string_view name, std::int64_t delta) {
  if (!enabled()) {
    return;
  }
  local_cell(&Registry::counters, name)
      .value.fetch_add(delta, std::memory_order_relaxed);
}

void gauge(std::string_view name, std::int64_t value) {
  if (!enabled()) {
    return;
  }
  GaugeCell& cell = local_cell(&Registry::gauges, name);
  cell.value.store(value, std::memory_order_relaxed);
  cell.set.store(true, std::memory_order_relaxed);
}

void observe(std::string_view name, double value) {
  if (!enabled()) {
    return;
  }
  HistogramCell& cell = local_cell(&Registry::histograms, name);
  // Only this thread mutates the cell, so load-compare-store is safe;
  // the atomics exist for concurrent snapshot() readers.
  if (cell.count.load(std::memory_order_relaxed) == 0) {
    cell.min.store(value, std::memory_order_relaxed);
    cell.max.store(value, std::memory_order_relaxed);
  } else {
    if (value < cell.min.load(std::memory_order_relaxed)) {
      cell.min.store(value, std::memory_order_relaxed);
    }
    if (value > cell.max.load(std::memory_order_relaxed)) {
      cell.max.store(value, std::memory_order_relaxed);
    }
  }
  cell.buckets[static_cast<std::size_t>(bucket_index(value))].fetch_add(
      1, std::memory_order_relaxed);
  cell.count.fetch_add(1, std::memory_order_relaxed);
}

double histogram_bound(int bucket) {
  double bound = 1e-6;
  for (int i = 0; i < bucket; ++i) {
    bound *= 2.0;
  }
  return bound;
}

MetricsSnapshot snapshot() {
  MetricsSnapshot snap;
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& [name, cells] : reg.counters) {
    std::int64_t total = 0;
    for (const auto& cell : cells) {
      total += cell->value.load(std::memory_order_relaxed);
    }
    if (total != 0) {  // a metric exists once it has recorded something
      snap.counters.push_back(CounterValue{name, total});
    }
  }
  for (const auto& [name, cells] : reg.gauges) {
    bool any = false;
    std::int64_t level = 0;
    for (const auto& cell : cells) {
      if (!cell->set.load(std::memory_order_relaxed)) {
        continue;
      }
      const std::int64_t value = cell->value.load(std::memory_order_relaxed);
      level = any ? std::max(level, value) : value;
      any = true;
    }
    if (any) {
      snap.gauges.push_back(GaugeValue{name, level});
    }
  }
  for (const auto& [name, cells] : reg.histograms) {
    HistogramValue folded;
    folded.name = name;
    folded.buckets.assign(kBucketCount, 0);
    for (const auto& cell : cells) {
      const std::int64_t count = cell->count.load(std::memory_order_relaxed);
      if (count == 0) {
        continue;
      }
      const double lo = cell->min.load(std::memory_order_relaxed);
      const double hi = cell->max.load(std::memory_order_relaxed);
      if (folded.count == 0) {
        folded.min = lo;
        folded.max = hi;
      } else {
        folded.min = std::min(folded.min, lo);
        folded.max = std::max(folded.max, hi);
      }
      folded.count += count;
      for (int i = 0; i < kBucketCount; ++i) {
        folded.buckets[static_cast<std::size_t>(i)] +=
            cell->buckets[static_cast<std::size_t>(i)].load(
                std::memory_order_relaxed);
      }
    }
    if (folded.count != 0) {
      snap.histograms.push_back(std::move(folded));
    }
  }
  if (g_ever_enabled.load(std::memory_order_relaxed)) {
    snap.captured_unix = wall_unix_seconds();
  }
  return snap;
}

std::int64_t MetricsSnapshot::counter(std::string_view name) const {
  for (const CounterValue& value : counters) {
    if (value.name == name) {
      return value.value;
    }
  }
  return 0;
}

Json snapshot_json(const MetricsSnapshot& snapshot) {
  Json doc = Json::object();
  doc.set("schema", std::string(kSchema))
      .set("captured_unix", snapshot.captured_unix);
  Json bounds = Json::array();
  for (int i = 0; i < kHistogramBuckets; ++i) {
    bounds.push_back(histogram_bound(i));
  }
  doc.set("histogram_bounds", std::move(bounds));
  Json counters = Json::object();
  for (const CounterValue& counter : snapshot.counters) {
    counters.set(counter.name, counter.value);
  }
  doc.set("counters", std::move(counters));
  Json gauges = Json::object();
  for (const GaugeValue& gauge : snapshot.gauges) {
    gauges.set(gauge.name, gauge.value);
  }
  doc.set("gauges", std::move(gauges));
  Json histograms = Json::object();
  for (const HistogramValue& histogram : snapshot.histograms) {
    histograms.set(histogram.name, histogram_to_json(histogram));
  }
  doc.set("histograms", std::move(histograms));
  return doc;
}

MetricsSnapshot snapshot_from_json(const Json& doc) {
  const Json* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kSchema) {
    throw std::invalid_argument("npd.metrics: wrong or missing schema tag");
  }
  MetricsSnapshot snap;
  if (const Json* captured = doc.find("captured_unix");
      captured != nullptr && captured->is_number()) {
    snap.captured_unix = captured->as_double();
  }
  if (const Json* counters = doc.find("counters");
      counters != nullptr && counters->is_object()) {
    for (std::size_t i = 0; i < counters->size(); ++i) {
      const std::string& name = counters->key_at(i);
      snap.counters.push_back(
          CounterValue{name, require_int(&counters->at(name), "counter")});
    }
  }
  if (const Json* gauges = doc.find("gauges");
      gauges != nullptr && gauges->is_object()) {
    for (std::size_t i = 0; i < gauges->size(); ++i) {
      const std::string& name = gauges->key_at(i);
      snap.gauges.push_back(
          GaugeValue{name, require_int(&gauges->at(name), "gauge")});
    }
  }
  if (const Json* histograms = doc.find("histograms");
      histograms != nullptr && histograms->is_object()) {
    for (std::size_t i = 0; i < histograms->size(); ++i) {
      const std::string& name = histograms->key_at(i);
      const Json& value = histograms->at(name);
      HistogramValue histogram;
      histogram.name = name;
      histogram.count = require_int(value.find("count"), "histogram count");
      const Json* min = value.find("min");
      const Json* max = value.find("max");
      const Json* buckets = value.find("buckets");
      if (min == nullptr || !min->is_number() || max == nullptr ||
          !max->is_number() || buckets == nullptr || !buckets->is_array() ||
          buckets->size() != static_cast<std::size_t>(kBucketCount)) {
        throw std::invalid_argument("npd.metrics: malformed histogram");
      }
      histogram.min = min->as_double();
      histogram.max = max->as_double();
      histogram.buckets.reserve(kBucketCount);
      for (std::size_t j = 0; j < buckets->size(); ++j) {
        histogram.buckets.push_back(require_int(&buckets->at(j), "bucket"));
      }
      snap.histograms.push_back(std::move(histogram));
    }
  }
  return snap;
}

Json merge_snapshot_docs(const std::vector<Json>& docs) {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramValue> histograms;
  double captured_unix = 0.0;
  for (const Json& doc : docs) {
    const MetricsSnapshot snap = snapshot_from_json(doc);
    captured_unix = std::max(captured_unix, snap.captured_unix);
    for (const CounterValue& counter : snap.counters) {
      counters[counter.name] += counter.value;
    }
    for (const GaugeValue& gauge : snap.gauges) {
      const auto it = gauges.find(gauge.name);
      if (it == gauges.end()) {
        gauges.emplace(gauge.name, gauge.value);
      } else {
        it->second = std::max(it->second, gauge.value);
      }
    }
    for (const HistogramValue& histogram : snap.histograms) {
      if (histogram.count == 0) {
        continue;
      }
      auto [it, inserted] = histograms.emplace(histogram.name, histogram);
      if (inserted) {
        continue;
      }
      HistogramValue& folded = it->second;
      folded.min = std::min(folded.min, histogram.min);
      folded.max = std::max(folded.max, histogram.max);
      folded.count += histogram.count;
      for (int i = 0; i < kBucketCount; ++i) {
        folded.buckets[static_cast<std::size_t>(i)] +=
            histogram.buckets[static_cast<std::size_t>(i)];
      }
    }
  }
  MetricsSnapshot merged;
  merged.captured_unix = captured_unix;
  for (const auto& [name, value] : counters) {
    if (value != 0) {
      merged.counters.push_back(CounterValue{name, value});
    }
  }
  for (const auto& [name, value] : gauges) {
    merged.gauges.push_back(GaugeValue{name, value});
  }
  for (auto& [name, histogram] : histograms) {
    merged.histograms.push_back(std::move(histogram));
  }
  return snapshot_json(merged);
}

void reset() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (auto& [name, cells] : reg.counters) {
    for (auto& cell : cells) {
      cell->value.store(0, std::memory_order_relaxed);
    }
  }
  for (auto& [name, cells] : reg.gauges) {
    for (auto& cell : cells) {
      cell->value.store(0, std::memory_order_relaxed);
      cell->set.store(false, std::memory_order_relaxed);
    }
  }
  for (auto& [name, cells] : reg.histograms) {
    for (auto& cell : cells) {
      cell->count.store(0, std::memory_order_relaxed);
      cell->min.store(0.0, std::memory_order_relaxed);
      cell->max.store(0.0, std::memory_order_relaxed);
      for (auto& bucket : cell->buckets) {
        bucket.store(0, std::memory_order_relaxed);
      }
    }
  }
}

}  // namespace npd::metrics
