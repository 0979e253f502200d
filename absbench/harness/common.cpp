#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace absbench {

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

namespace {

double timespec_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

double process_cpu_s() { return timespec_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return timespec_s(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

int thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return 0;
}

std::uint64_t l3_bytes() {
  std::ifstream size("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string text;
  if (!(size >> text) || text.empty()) return 0;
  std::uint64_t value = std::stoull(text);
  const char unit = text.back();
  if (unit == 'K') value <<= 10;
  if (unit == 'M') value <<= 20;
  return value;
}

namespace {

// Continued fraction of the incomplete beta function (modified Lentz).
double beta_fraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  double c = 1.0, d = 1.0 - (a + b) * x / (a + 1.0);
  d = 1.0 / (std::fabs(d) < kTiny ? kTiny : d);
  double h = d;
  for (int m = 1; m <= 300; ++m) {
    const double m2 = 2.0 * m;
    for (const double num :
         {m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
          -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0))}) {
      d = 1.0 + num * d;
      d = 1.0 / (std::fabs(d) < kTiny ? kTiny : d);
      c = 1.0 + num / c;
      if (std::fabs(c) < kTiny) c = kTiny;
      h *= d * c;
    }
    if (std::fabs(d * c - 1.0) < 1e-12) break;
  }
  return h;
}

// Regularized incomplete beta function I_x(a, b).
double incomplete_beta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double front =
      std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
               a * std::log(x) + b * std::log1p(-x));
  if (x < (a + 1.0) / (a + b + 2.0)) return front * beta_fraction(a, b, x) / a;
  return 1.0 - front * beta_fraction(b, a, 1.0 - x) / b;
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double a = q * (n + 1.0), b = (1.0 - q) * (n + 1.0);
  double estimate = 0.0, below = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double upto =
        incomplete_beta(a, b, static_cast<double>(i + 1) / n);
    estimate += (upto - below) * values[i];
    below = upto;
  }
  return estimate;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

int tail_percentile(std::size_t count, std::size_t beyond) {
  for (int p = 99; p >= 50; --p) {
    const auto at = static_cast<std::size_t>(
        std::ceil(static_cast<double>(p) / 100.0 * static_cast<double>(count)));
    if (count >= at + beyond) return p;
  }
  return 50;
}

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Sheet::set(const std::string& name, double value,
                const std::string& unit) {
  for (Entry& entry : entries_) {
    if (entry.name == name) {
      entry.value = value;
      entry.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

double Sheet::get(const std::string& name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return entry.value;
  }
  return 0.0;
}

bool Sheet::has(const std::string& name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.name == name; });
}

void Sheet::note(const std::string& key, const std::string& value) {
  std::string quoted = escape(value);
  quoted.insert(quoted.begin(), '"');
  quoted.push_back('"');
  env_.emplace_back(key, std::move(quoted));
}

void Sheet::note(const std::string& key, double value) {
  env_.emplace_back(key, number(value));
}

std::string Sheet::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    out << (i == 0 ? "" : ", ") << '"' << e.name << "\": {\"value\": "
        << number(e.value) << ", \"unit\": \"" << e.unit << "\"}";
  }
  out << "}, \"env\": {";
  for (std::size_t i = 0; i < env_.size(); ++i) {
    out << (i == 0 ? "" : ", ") << '"' << env_[i].first
        << "\": " << env_[i].second;
  }
  out << "}}";
  return out.str();
}

namespace {

thread_local std::vector<int> t_stack;
thread_local int t_thread = -1;

}  // namespace

SpanLog& spans() {
  static SpanLog log;
  return log;
}

int SpanLog::begin(const char* name, const char* layer, std::uint64_t op) {
  const double start = now_s();
  std::lock_guard<std::mutex> lock(mutex_);
  const int parent = t_stack.empty() ? -1 : t_stack.back();
  records_.push_back({name, layer, start, start, parent, op, t_thread});
  const int index = static_cast<int>(records_.size()) - 1;
  t_stack.push_back(index);
  return index;
}

void SpanLog::end(int index) {
  const double end = now_s();
  std::lock_guard<std::mutex> lock(mutex_);
  records_[static_cast<std::size_t>(index)].end = end;
  if (!t_stack.empty() && t_stack.back() == index) t_stack.pop_back();
}

void SpanLog::thread_begin() {
  if (!on_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  t_thread = static_cast<int>(threads_.size());
  threads_.emplace_back(now_s(), 0.0);
}

void SpanLog::thread_end() {
  if (!on_ || t_thread < 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  threads_[static_cast<std::size_t>(t_thread)].second = now_s();
  t_thread = -1;
}

void SpanLog::attribute(Sheet& sheet) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> child(records_.size(), 0.0);
  for (const Record& r : records_) {
    if (r.parent < 0) continue;
    child[static_cast<std::size_t>(r.parent)] += r.end - r.start;
  }
  double attributed = 0.0;
  for (const char* layer : kLayers) {
    double self = 0.0;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      if (std::string(records_[i].layer) != layer) continue;
      self += (records_[i].end - records_[i].start) - child[i];
    }
    attributed += self;
    sheet.set(std::string("self.") + layer + "_s", self, "s");
  }
  double wall = 0.0;
  for (const auto& [start, end] : threads_) {
    if (end > start) wall += end - start;
  }
  sheet.set("self.wall_s", wall, "s");
  sheet.set("self.unattributed_s", std::max(0.0, wall - attributed), "s");
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  if (path.empty()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << r.name
        << "\", \"cat\": \"" << r.layer << "\", \"ph\": \"X\", \"ts\": "
        << number(r.start * 1e6) << ", \"dur\": "
        << number((r.end - r.start) * 1e6) << ", \"pid\": 1, \"tid\": "
        << r.thread << ", \"args\": {\"op\": " << r.op
        << ", \"parent\": " << r.parent << ", \"index\": " << i << "}}";
  }
  out << "\n]}\n";
}

}  // namespace absbench
