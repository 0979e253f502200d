#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>

#include "util/check.hpp"

namespace absq::obs {

Labels::Labels(
    std::initializer_list<std::pair<std::string, std::string>> kv) {
  for (const auto& [key, value] : kv) set(key, value);
}

Labels& Labels::set(const std::string& key, std::string value) {
  const auto pos = std::lower_bound(
      kv_.begin(), kv_.end(), key,
      [](const auto& pair, const std::string& k) { return pair.first < k; });
  if (pos != kv_.end() && pos->first == key) {
    pos->second = std::move(value);
  } else {
    kv_.insert(pos, {key, std::move(value)});
  }
  return *this;
}

namespace {

/// Prometheus label-value escaping (exposition-format grammar): backslash,
/// double quote, and line feed must be escaped inside `label="..."` or the
/// scrape is unparseable.
std::string escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

std::string Labels::prometheus() const {
  if (kv_.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < kv_.size(); ++i) {
    if (i != 0) out += ",";
    out += kv_[i].first + "=\"" + escape_label_value(kv_[i].second) + "\"";
  }
  out += "}";
  return out;
}

void Histogram::observe(std::uint64_t v) {
  const std::uint64_t width = std::bit_width(v);
  const auto bucket = std::min<std::size_t>(width, kBuckets - 1);
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

std::array<std::uint64_t, Histogram::kBuckets> Histogram::buckets() const {
  std::array<std::uint64_t, kBuckets> totals{};
  for (std::size_t b = 0; b < kBuckets; ++b) totals[b] = buckets_[b].load();
  return totals;
}

MetricsRegistry::Family& MetricsRegistry::family(const std::string& name,
                                                 MetricsSnapshot::Kind kind) {
  auto [it, inserted] = families_.try_emplace(name);
  if (inserted) {
    it->second.kind = kind;
  } else {
    ABSQ_CHECK(it->second.kind == kind,
               "metric family '" << name
                                 << "' re-registered with a different kind");
  }
  return it->second;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& series =
      family(name, MetricsSnapshot::Kind::kCounter).counters[labels];
  if (series == nullptr) series = std::make_unique<Counter>();
  return *series;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& series = family(name, MetricsSnapshot::Kind::kGauge).gauges[labels];
  if (series == nullptr) series = std::make_unique<Gauge>();
  return *series;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& series =
      family(name, MetricsSnapshot::Kind::kHistogram).histograms[labels];
  if (series == nullptr) series = std::make_unique<Histogram>();
  return *series;
}

MetricsSnapshot MetricsRegistry::scrape() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snapshot;
  snapshot.families.reserve(families_.size());
  for (const auto& [name, fam] : families_) {
    MetricsSnapshot::Family out;
    out.name = name;
    out.kind = fam.kind;
    switch (fam.kind) {
      case MetricsSnapshot::Kind::kCounter:
        for (const auto& [labels, series] : fam.counters) {
          MetricsSnapshot::Series s;
          s.labels = labels;
          s.counter_value = series->value();
          out.series.push_back(std::move(s));
        }
        break;
      case MetricsSnapshot::Kind::kGauge:
        for (const auto& [labels, series] : fam.gauges) {
          MetricsSnapshot::Series s;
          s.labels = labels;
          s.gauge_value = series->value();
          out.series.push_back(std::move(s));
        }
        break;
      case MetricsSnapshot::Kind::kHistogram:
        for (const auto& [labels, series] : fam.histograms) {
          MetricsSnapshot::Series s;
          s.labels = labels;
          const auto buckets = series->buckets();
          s.buckets.assign(buckets.begin(), buckets.end());
          s.count = series->count();
          s.sum = series->sum();
          out.series.push_back(std::move(s));
        }
        break;
    }
    snapshot.families.push_back(std::move(out));
  }
  return snapshot;
}

namespace {

const char* kind_text(MetricsSnapshot::Kind kind) {
  switch (kind) {
    case MetricsSnapshot::Kind::kCounter: return "counter";
    case MetricsSnapshot::Kind::kGauge: return "gauge";
    case MetricsSnapshot::Kind::kHistogram: return "histogram";
  }
  return "untyped";
}

std::string format_double(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

/// Upper bound of log2 bucket b as a decimal string (2^b - 1).
std::string bucket_bound(std::size_t b) {
  return std::to_string((std::uint64_t{1} << b) - 1);
}

}  // namespace

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& fam : snapshot.families) {
    out += "# TYPE " + fam.name + " " + kind_text(fam.kind) + "\n";
    for (const auto& series : fam.series) {
      switch (fam.kind) {
        case MetricsSnapshot::Kind::kCounter:
          out += fam.name + series.labels.prometheus() + " " +
                 std::to_string(series.counter_value) + "\n";
          break;
        case MetricsSnapshot::Kind::kGauge:
          out += fam.name + series.labels.prometheus() + " " +
                 format_double(series.gauge_value) + "\n";
          break;
        case MetricsSnapshot::Kind::kHistogram: {
          std::size_t top = 0;
          for (std::size_t b = 0; b < series.buckets.size(); ++b) {
            if (series.buckets[b] != 0) top = b;
          }
          std::uint64_t cumulative = 0;
          for (std::size_t b = 0; b <= top && b + 1 < series.buckets.size();
               ++b) {
            cumulative += series.buckets[b];
            Labels with_le = series.labels;
            with_le.set("le", bucket_bound(b));
            out += fam.name + "_bucket" + with_le.prometheus() + " " +
                   std::to_string(cumulative) + "\n";
          }
          Labels inf = series.labels;
          inf.set("le", "+Inf");
          out += fam.name + "_bucket" + inf.prometheus() + " " +
                 std::to_string(series.count) + "\n";
          out += fam.name + "_sum" + series.labels.prometheus() + " " +
                 std::to_string(series.sum) + "\n";
          out += fam.name + "_count" + series.labels.prometheus() + " " +
                 std::to_string(series.count) + "\n";
          break;
        }
      }
    }
  }
  return out;
}

}  // namespace absq::obs
