#include "qubo/io.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/check.hpp"
#include "util/text_scan.hpp"

namespace absq {

void write_qubo(std::ostream& out, const WeightMatrix& w,
                const std::string& comment) {
  if (!comment.empty()) {
    std::istringstream lines(comment);
    std::string line;
    while (std::getline(lines, line)) out << "# " << line << '\n';
  }
  out << "qubo " << w.size() << '\n';
  // One "<i> <j> <w>" line per stored upper-triangle entry, formatted into
  // a buffer that is handed to the stream in large writes.
  std::array<char, 1 << 16> buffer{};
  std::size_t used = 0;
  const auto put = [&](auto value, char separator) {
    char digits[16] = {};
    const std::size_t len = static_cast<std::size_t>(
        std::to_chars(std::begin(digits), std::end(digits), value).ptr -
        digits);
    std::memcpy(buffer.data() + used, digits, len);
    used += len;
    buffer[used++] = separator;
  };
  w.for_each_upper([&](BitIndex i, BitIndex j, Weight v) {
    // A line is at most 10 + 1 + 10 + 1 + 6 + 1 = 29 characters.
    if (buffer.size() - used < 32) {
      out.write(buffer.data(), static_cast<std::streamsize>(used));
      used = 0;
    }
    put(i, ' ');
    put(j, ' ');
    put(v, '\n');
  });
  out.write(buffer.data(), static_cast<std::streamsize>(used));
}

void write_qubo_file(const std::string& path, const WeightMatrix& w,
                     const std::string& comment) {
  std::ofstream out(path);
  ABSQ_CHECK(out.good(), "cannot open '" << path << "' for writing");
  write_qubo(out, w, comment);
  ABSQ_CHECK(out.good(), "write to '" << path << "' failed");
}

namespace {

/// One parsed entry line: W_ij at packed key i·n + j (i ≤ j).
struct Entry {
  std::uint64_t key;
  Weight w;
  int line_no;
};

/// Throws for the first line, in file order, that repeats an earlier
/// entry's (i, j) — what a lookup per line would report. Entries in
/// strictly ascending key order (write_qubo's order) cannot repeat, so only
/// out-of-order input pays for a sort.
void check_duplicates(std::vector<Entry>& entries, BitIndex n) {
  if (std::adjacent_find(entries.begin(), entries.end(),
                         [](const Entry& a, const Entry& b) {
                           return a.key >= b.key;
                         }) == entries.end()) {
    return;
  }
  // Stable: within one key the entries stay in line order, so every entry
  // equal to its predecessor is a repeat, and the earliest repeat line is
  // the one to report.
  std::stable_sort(
      entries.begin(), entries.end(),
      [](const Entry& a, const Entry& b) { return a.key < b.key; });
  const Entry* first_repeat = nullptr;
  for (std::size_t p = 1; p < entries.size(); ++p) {
    if (entries[p].key != entries[p - 1].key) continue;
    if (first_repeat == nullptr ||
        entries[p].line_no < first_repeat->line_no) {
      first_repeat = &entries[p];
    }
  }
  if (first_repeat == nullptr) return;
  ABSQ_CHECK(false, "line " << first_repeat->line_no << ": duplicate entry ("
                            << first_repeat->key / n << ", "
                            << first_repeat->key % n << ")");
}

/// Splits `text` into lines the way std::getline does: a final line
/// without '\n' still counts, a final '\n' opens no empty line.
class Lines {
 public:
  explicit Lines(std::string_view text) : rest_(text) {}
  bool next(std::string_view& line) {
    if (rest_.empty()) return false;
    const std::size_t nl = rest_.find('\n');
    line = rest_.substr(0, nl);
    rest_ = nl == std::string_view::npos ? std::string_view{}
                                         : rest_.substr(nl + 1);
    return true;
  }

 private:
  std::string_view rest_;
};

}  // namespace

WeightMatrix read_qubo(std::istream& in) {
  const std::string text = read_all(in);
  Lines lines(text);
  std::string_view line;
  int line_no = 0;
  BitIndex n = 0;
  bool have_header = false;

  // Header: first non-comment, non-blank line must be "qubo <n>".
  while (lines.next(line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    TextScanner fields(line);
    long long size = 0;
    ABSQ_CHECK(fields.read_token() == "qubo" && fields.read_int(size),
               "line " << line_no << ": expected 'qubo <n>' header");
    ABSQ_CHECK(size >= 1 && size <= static_cast<long long>(kMaxBits),
               "line " << line_no << ": size " << size << " out of range");
    n = static_cast<BitIndex>(size);
    have_header = true;
    break;
  }
  ABSQ_CHECK(have_header, "missing 'qubo <n>' header");

  std::vector<Entry> entries;
  // A malformed line is reported only after any repeat above it, so the
  // first bad line in file order is the one named.
  const auto fail = [&](const std::string& what) {
    check_duplicates(entries, n);
    ABSQ_CHECK(false, "line " << line_no << ": " << what);
  };
  while (lines.next(line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    TextScanner fields(line);
    long long i = 0;
    long long j = 0;
    long long v = 0;
    if (!(fields.read_int(i) && fields.read_int(j) && fields.read_int(v))) {
      fail("expected '<i> <j> <w>'");
    }
    if (!fields.at_end()) fail("trailing tokens after entry");
    if (i < 0 || j < 0 || i >= n || j >= n) {
      fail("index out of range for n=" + std::to_string(n));
    }
    if (i > j) fail("entries must be upper-triangle (i <= j)");
    if (v < kMinWeight || v > kMaxWeight) {
      fail("weight " + std::to_string(v) + " outside 16-bit");
    }
    entries.push_back(Entry{static_cast<std::uint64_t>(i) * n +
                                static_cast<std::uint64_t>(j),
                            static_cast<Weight>(v), line_no});
  }
  check_duplicates(entries, n);

  WeightMatrixBuilder builder(n);
  for (const Entry& e : entries) {
    const auto i = static_cast<BitIndex>(e.key / n);
    const auto j = static_cast<BitIndex>(e.key % n);
    // A symmetric entry pair (W_ij, W_ji) contributes 2·W_ij to the pair
    // coefficient of x_i·x_j; the builder splits it back evenly.
    builder.add(i, j, i == j ? e.w : 2 * Energy{e.w});
  }
  return builder.build();
}

WeightMatrix read_qubo_file(const std::string& path) {
  std::ifstream in(path);
  ABSQ_CHECK(in.good(), "cannot open '" << path << "' for reading");
  return read_qubo(in);
}

void write_solution(std::ostream& out, const BitVector& bits, Energy energy) {
  out << "solution " << bits.size() << ' ' << energy << '\n'
      << bits.to_string() << '\n';
}

void write_solution_file(const std::string& path, const BitVector& bits,
                         Energy energy) {
  std::ofstream out(path);
  ABSQ_CHECK(out.good(), "cannot open '" << path << "' for writing");
  write_solution(out, bits, energy);
  ABSQ_CHECK(out.good(), "write to '" << path << "' failed");
}

StoredSolution read_solution(std::istream& in) {
  std::string tag;
  long long size = 0;
  Energy energy = 0;
  ABSQ_CHECK(in >> tag >> size >> energy && tag == "solution",
             "expected 'solution <n> <energy>' header");
  ABSQ_CHECK(size >= 1 && size <= static_cast<long long>(kMaxBits),
             "solution size " << size << " out of range");
  std::string bits;
  ABSQ_CHECK(static_cast<bool>(in >> bits), "missing solution bit string");
  ABSQ_CHECK(bits.size() == static_cast<std::size_t>(size),
             "bit string has " << bits.size() << " characters, header says "
                               << size);
  return StoredSolution{BitVector::from_string(bits), energy};
}

StoredSolution read_solution_file(const std::string& path) {
  std::ifstream in(path);
  ABSQ_CHECK(in.good(), "cannot open '" << path << "' for reading");
  return read_solution(in);
}

}  // namespace absq
