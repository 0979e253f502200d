// Shared pieces of the benchmark harness: options, clocks, order
// statistics, the metric sheet printed as the run's result, and the span
// log the traced run keeps in memory.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace absbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  double cap_seconds = 0.0;         // solve workloads: a trial's time limit
  std::string work_dir = ".";       // scratch space inside the build tree
  std::string trace_out;            // where the traced run writes its spans
  std::uint64_t instance_seed = 1;  // solve workloads: pinned instance
};

// Monotonic seconds since an arbitrary process-wide epoch.
double now_s();
// User+sys CPU seconds of the whole process / of the calling thread.
double process_cpu_s();
double thread_cpu_s();
// Peak resident set of this process in MB (10^6 bytes).
double peak_rss_mb();
// Threads of this process right now (from /proc/self/status).
int thread_count();
// Last-level cache size in bytes (0 when the host does not say).
std::uint64_t l3_bytes();

// Harrell-Davis estimate of the q-quantile of an unsorted sample, q in
// (0, 1): a beta-weighted mean of the order statistics around rank q*n,
// which reads a tail percentile with less run-to-run noise than the single
// nearest-rank sample does.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
// The highest whole percentile that still leaves at least `beyond` samples
// above it in a sample of `count` (the "tail" of the metric sheet).
int tail_percentile(std::size_t count, std::size_t beyond = 10);

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b);

// Ordered name → (value, unit) sheet plus the operation tally.
class Sheet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] double get(const std::string& name) const;
  [[nodiscard]] bool has(const std::string& name) const;
  void note(const std::string& key, const std::string& value);
  void note(const std::string& key, double value);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  // {"correct":..,"attempted":..,"failed":..,"metrics":{..},"env":{..}}
  [[nodiscard]] std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  std::vector<std::pair<std::string, std::string>> env_;  // raw JSON values
};

// Spans the harness records around its own calls into each layer. Off
// unless the run is traced; then every span is kept in memory and written
// once, when the run ends.
class SpanLog {
 public:
  struct Record {
    const char* name;
    const char* layer;
    double start;
    double end;
    int parent;  // index into the log, -1 at the top of a thread
    std::uint64_t op;
    int thread;
  };

  void enable(bool on) { on_ = on; }
  [[nodiscard]] bool enabled() const { return on_; }

  int begin(const char* name, const char* layer, std::uint64_t op);
  void end(int index);
  // Harness threads mark their lifetime so that thread time not covered by
  // any span shows up as the unattributed remainder.
  void thread_begin();
  void thread_end();

  // Self time (span minus its children) summed per layer, plus the
  // unattributed remainder of the harness threads' wall time.
  void attribute(Sheet& sheet) const;
  void write_chrome_trace(const std::string& path) const;

 private:
  bool on_ = false;
  mutable std::mutex mutex_;
  std::vector<Record> records_;
  std::vector<std::pair<double, double>> threads_;  // [start, end] per thread
};

SpanLog& spans();

// RAII span; free when tracing is off.
class Span {
 public:
  Span(const char* name, const char* layer, std::uint64_t op = 0)
      : index_(spans().enabled() ? spans().begin(name, layer, op) : -1) {}
  ~Span() {
    if (index_ >= 0) spans().end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_;
};

// Layers the harness calls directly, in report order. The others (search,
// sim, ga, portfolio, obs) run inside AbsSolver::run on the solver's own
// threads; the replay pass times them.
inline constexpr const char* kLayers[] = {"qubo", "problems", "abs", "serve",
                                          "harness"};

// End-to-end metrics, in report order.
inline constexpr const char* kEndToEnd[] = {
    "tts_s", "search_rate", "setup_s", "cpu_per_op_s", "peak_rss_mb",
    "e2e_p50_ms", "e2e_tail_ms", "admit_p50_ms", "admit_tail_ms"};

inline double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

// Relative overhead of the traced value over the untraced one.
inline double overhead(double traced, double untraced) {
  return untraced != 0.0 ? (traced - untraced) / untraced : 0.0;
}

}  // namespace absbench
