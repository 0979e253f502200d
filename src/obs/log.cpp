#include "obs/log.hpp"

#include <chrono>
#include <cstring>

#include "util/check.hpp"
#include "util/json_text.hpp"

namespace absq::obs {
namespace {

/// Wall-clock seconds since the Unix epoch, millisecond precision. The
/// tracer uses a steady clock (durations); the log uses wall time so lines
/// correlate with external systems.
double wall_seconds() {
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(now).count();
  return static_cast<double>(ms) / 1000.0;
}

void append_field(std::string& line, const LogField& field) {
  line += ",\"";
  line += json_escape(field.key);
  line += "\":";
  switch (field.kind) {
    case LogField::Kind::kString:
      line += '"';
      line += json_escape(field.text);
      line += '"';
      break;
    case LogField::Kind::kInt:
      line += std::to_string(field.integer);
      break;
    case LogField::Kind::kDouble:
      line += json_number(field.number);
      break;
    case LogField::Kind::kBool:
      line += field.boolean ? "true" : "false";
      break;
  }
}

}  // namespace

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "unknown";
}

LogLevel log_level_from_string(const std::string& text) {
  if (text == "debug") return LogLevel::kDebug;
  if (text == "info") return LogLevel::kInfo;
  if (text == "warn") return LogLevel::kWarn;
  if (text == "error") return LogLevel::kError;
  if (text == "off") return LogLevel::kOff;
  ABSQ_CHECK(false, "unknown log level '"
                        << text << "' (debug|info|warn|error|off)");
}

Logger::~Logger() {
  if (owned_ != nullptr) std::fclose(owned_);
}

Logger& Logger::global() {
  static Logger logger;
  return logger;
}

void Logger::open_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "ae");
  ABSQ_CHECK(file != nullptr,
             "cannot open log file '" << path
                                      << "': " << std::strerror(errno));
  const std::lock_guard<std::mutex> lock(sink_mutex_);
  if (owned_ != nullptr) std::fclose(owned_);
  owned_ = file;
  stream_ = file;
}

void Logger::set_stream(std::FILE* stream) {
  const std::lock_guard<std::mutex> lock(sink_mutex_);
  if (owned_ != nullptr) std::fclose(owned_);
  owned_ = nullptr;
  stream_ = stream;
}

void Logger::log(LogLevel level, const char* component,
                 const std::string& message,
                 std::initializer_list<LogField> fields, std::int64_t job) {
  if (!enabled(level) || level == LogLevel::kOff) return;

  // Format the whole line off-lock; one fwrite keeps lines atomic.
  std::string line = "{\"ts\":";
  line += json_number(wall_seconds());
  line += ",\"level\":\"";
  line += to_string(level);
  line += "\",\"component\":\"";
  line += json_escape(component);
  line += "\",\"msg\":\"";
  line += json_escape(message);
  line += '"';
  if (job >= 0) {
    line += ",\"job\":";
    line += std::to_string(job);
  }
  for (const LogField& field : fields) append_field(line, field);
  line += "}\n";

  const std::lock_guard<std::mutex> lock(sink_mutex_);
  std::FILE* out = stream_ != nullptr ? stream_ : stderr;
  std::fwrite(line.data(), 1, line.size(), out);
  std::fflush(out);
  // absq-lint: allow(atomic-audit) monotonic line counter under sink_mutex_
  lines_.fetch_add(1, std::memory_order_relaxed);
}

void log_debug(const char* component, const std::string& message,
               std::initializer_list<LogField> fields, std::int64_t job) {
  Logger::global().log(LogLevel::kDebug, component, message, fields, job);
}

void log_info(const char* component, const std::string& message,
              std::initializer_list<LogField> fields, std::int64_t job) {
  Logger::global().log(LogLevel::kInfo, component, message, fields, job);
}

void log_warn(const char* component, const std::string& message,
              std::initializer_list<LogField> fields, std::int64_t job) {
  Logger::global().log(LogLevel::kWarn, component, message, fields, job);
}

void log_error(const char* component, const std::string& message,
               std::initializer_list<LogField> fields, std::int64_t job) {
  Logger::global().log(LogLevel::kError, component, message, fields, job);
}

}  // namespace absq::obs
