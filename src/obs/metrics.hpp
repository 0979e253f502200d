// Metrics registry — the quantitative half of the observability layer.
//
// The paper's claims are numbers (search rate, Table 2; search efficiency,
// Theorem 1), so the reproduction needs first-class counters rather than
// bespoke printf in every tool. This registry holds three metric kinds:
//
//   * Counter   — monotonic uint64; the hot path pays exactly one relaxed
//                 atomic add (no lock; each series owns its cache line, so
//                 two series never share one);
//   * Gauge     — a last-written double (pool best energy, fill levels);
//   * Histogram — fixed log2 buckets (bucket b holds values with
//                 bit_width == b, i.e. v ∈ [2^(b-1), 2^b)), one relaxed
//                 add per bucket, count and sum.
//
// Every series is one set of cells that all writers share. Writes come
// once per block iteration (thousands of flips), so even a device-wide
// series written by every worker is far from contended; docs/
// observability.md has the measured cost.
//
// Series are identified by (family name, label set) with hierarchical
// labels such as {device="0", block="17"}. Registration returns a stable
// reference that the instrumented code caches — lookups happen once at
// construction time, never per event. Scrapes (MetricsRegistry::scrape)
// copy every series into an immutable MetricsSnapshot that the
// Prometheus text exporter and the JSONL run-report sink both consume.
//
// Thread-safety: registration and scraping take the registry mutex;
// add/set/observe are lock-free and safe concurrently with scrapes
// (relaxed atomics — totals are exact once the writers are quiescent,
// and monotonically approximate while they run).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace absq::obs {

/// A sorted, duplicate-free set of key=value labels. Keys and values are
/// plain strings; ordering is lexicographic by key so that equal label
/// sets compare equal regardless of construction order.
class Labels {
 public:
  Labels() = default;
  Labels(std::initializer_list<std::pair<std::string, std::string>> kv);

  /// Adds or replaces one label; chainable.
  Labels& set(const std::string& key, std::string value);

  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  pairs() const {
    return kv_;
  }
  [[nodiscard]] bool empty() const { return kv_.empty(); }

  /// Prometheus form: `{a="x",b="y"}`, or "" when empty. `extra` appends
  /// one more pair (used for the histogram `le` label).
  [[nodiscard]] std::string prometheus() const;

  friend bool operator<(const Labels& a, const Labels& b) {
    return a.kv_ < b.kv_;
  }
  friend bool operator==(const Labels& a, const Labels& b) {
    return a.kv_ == b.kv_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> kv_;  // sorted by key
};

/// Monotonic counter. add() is wait-free: one relaxed fetch_add.
class alignas(64) Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Exact once writers are quiescent.
  [[nodiscard]] std::uint64_t value() const { return value_.load(); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written double value.
class Gauge {
 public:
  // absq-lint: allow(atomic-audit) last-writer-wins sample; no ordering use
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    // absq-lint: allow(atomic-audit) cold read of a last-writer-wins sample
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Log2-bucketed histogram of uint64 observations.
class alignas(64) Histogram {
 public:
  /// Bucket b < kBuckets-1 holds values with bit_width(v) == b — upper
  /// bound 2^b - 1. The last bucket is the overflow.
  static constexpr std::size_t kBuckets = 32;

  void observe(std::uint64_t v);

  /// Per-bucket totals (not cumulative), plus count and sum.
  [[nodiscard]] std::array<std::uint64_t, kBuckets> buckets() const;
  [[nodiscard]] std::uint64_t count() const { return count_.load(); }
  [[nodiscard]] std::uint64_t sum() const { return sum_.load(); }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// An immutable scrape of the whole registry: families sorted by name,
/// series within a family sorted by labels.
struct MetricsSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Series {
    Labels labels;
    std::uint64_t counter_value = 0;  ///< counters
    double gauge_value = 0.0;         ///< gauges
    std::vector<std::uint64_t> buckets;  ///< histograms (non-cumulative)
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
  };

  struct Family {
    std::string name;
    Kind kind = Kind::kCounter;
    std::vector<Series> series;
  };

  std::vector<Family> families;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the series for (name, labels), creating it on first call.
  /// Re-registering an existing name with a different metric kind throws.
  /// The returned reference stays valid for the registry's lifetime.
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  Histogram& histogram(const std::string& name, const Labels& labels = {});

  [[nodiscard]] MetricsSnapshot scrape() const;

 private:
  struct Family {
    MetricsSnapshot::Kind kind = MetricsSnapshot::Kind::kCounter;
    std::map<Labels, std::unique_ptr<Counter>> counters;
    std::map<Labels, std::unique_ptr<Gauge>> gauges;
    std::map<Labels, std::unique_ptr<Histogram>> histograms;
  };

  Family& family(const std::string& name, MetricsSnapshot::Kind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Family> families_;
};

/// Prometheus text exposition of a snapshot (deterministic ordering; log2
/// histogram buckets exported cumulatively with `le="2^b - 1"` bounds up
/// to the highest non-empty bucket, then `le="+Inf"`).
[[nodiscard]] std::string to_prometheus(const MetricsSnapshot& snapshot);

}  // namespace absq::obs
