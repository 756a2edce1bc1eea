#pragma once
// The bench mains' one JSON module: the writer behind every BENCH_*.json and
// the one host-clock gate behind every `--gate <baseline.json>`. The layout
// is byte-stable (bench/baselines/ holds its output): one top-level field per
// line, arrays of one-line row objects.

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cyclops::bench {

/// Streams one JSON object to a file and places every comma and brace.
/// Fields land in the row opened by the last row() of the open array, else
/// in the top-level object.
class JsonWriter {
 public:
  explicit JsonWriter(const char* path) : f_(std::fopen(path, "w")) {
    if (f_ == nullptr) std::fprintf(stderr, "cannot write %s\n", path);
    if (f_ != nullptr) std::fputc('{', f_);
  }
  ~JsonWriter() {
    if (f_ != nullptr) std::fputs("\n}\n", f_);
    if (f_ != nullptr) std::fclose(f_);
  }
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  [[nodiscard]] bool ok() const noexcept { return f_ != nullptr; }

  /// `"key": <value>`, the value printed by `fmt`.
  __attribute__((format(printf, 3, 4))) JsonWriter& num(const char* key, const char* fmt,
                                                        ...) {
    std::fprintf(f_, "%s\"%s\": ", sep_, key);
    sep_ = next_sep_;
    va_list args;
    va_start(args, fmt);
    std::vfprintf(f_, fmt, args);
    va_end(args);
    return *this;
  }
  JsonWriter& count(const char* key, unsigned long long v) { return num(key, "%llu", v); }
  JsonWriter& flag(const char* key, bool v) { return num(key, "%s", v ? "true" : "false"); }
  JsonWriter& str(const char* key, std::string_view v) {
    return num(key, "\"%.*s\"", static_cast<int>(v.size()), v.data());
  }

  JsonWriter& begin_array(const char* key) {
    std::fprintf(f_, "%s\"%s\": [", sep_, key);
    row_sep_ = "\n    {";
    return *this;
  }
  /// Closes the previous row of the array, if any, and opens the next one.
  JsonWriter& row() {
    std::fputs(row_sep_, f_);
    row_sep_ = "},\n    {";
    sep_ = "";
    next_sep_ = ", ";
    return *this;
  }
  JsonWriter& end_array() {
    std::fputs(*row_sep_ == '}' ? "}\n  ]" : "\n  ]", f_);
    sep_ = next_sep_ = ",\n  ";
    return *this;
  }

 private:
  std::FILE* f_;
  const char* sep_ = "\n  ";  ///< printed before the next field
  const char* next_sep_ = ",\n  ";
  const char* row_sep_ = "";  ///< printed by the next row()
};

/// Host-clock rows pass at this fraction of their baseline or better:
/// generous, to absorb host noise, so the gate catches order-of-magnitude
/// regressions (an accidental O(n) re-decode), not percent-level jitter.
/// Modeled numbers are not gated here; bench_paper's figure goldens pin them
/// byte for byte.
inline constexpr double kHostGateSlack = 0.15;

/// One host-clock row to gate: the baseline row whose string fields equal
/// every (key, value) in `match`, and this run's value of the gated field
/// (higher is better).
struct GateRow {
  std::vector<std::pair<std::string, std::string>> match;
  double current = 0;
};

/// The numeric `field` of the first flat `{...}` row of `json` whose string
/// fields equal every (key, value) in `match`, read within that row only;
/// nullopt when no row matches or the row lacks the field.
inline std::optional<double> baseline_value(
    const std::string& json, const std::vector<std::pair<std::string, std::string>>& match,
    std::string_view field) {
  const auto key_of = [](std::string_view key) {
    std::string out = "\"";
    return (out += key) += "\": ";
  };
  for (std::size_t close = json.find('}'); close != std::string::npos;
       close = json.find('}', close + 1)) {
    const std::size_t open = json.rfind('{', close);
    if (open == std::string::npos) break;
    const std::string_view row = std::string_view(json).substr(open, close - open);
    bool matches = true;
    for (const auto& [key, value] : match) {
      std::string want = key_of(key);
      matches = matches && row.find(((want += '"') += value) += '"') != row.npos;
    }
    if (!matches) continue;
    const std::string key = key_of(field);
    const std::size_t at = row.find(key);
    if (at == row.npos) return std::nullopt;
    return std::strtod(json.c_str() + open + at + key.size(), nullptr);
  }
  return std::nullopt;
}

/// The `--gate <baseline.json>` check of every host-clock bench: each row's
/// `field` must reach kHostGateSlack x its baseline value. Prints one line
/// per row. Returns 1 if any row falls short, has no baseline row, or the
/// baseline cannot be read, so a renamed engine or store cannot slip out of
/// the gate; 0 otherwise.
inline int host_gate(const std::string& baseline_path, std::string_view field,
                     const std::vector<GateRow>& rows) {
  std::ifstream in(baseline_path);
  if (!in.good()) {
    std::fprintf(stderr, "gate: cannot read baseline %s\n", baseline_path.c_str());
    return 1;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  const int width = static_cast<int>(field.size());
  bool all_ok = true;
  for (const GateRow& r : rows) {
    std::string label;
    for (const auto& [key, value] : r.match) label += (label.empty() ? "" : "/") + value;
    const std::optional<double> base = baseline_value(json, r.match, field);
    if (!base) {
      std::printf("gate: %-15s no baseline row with %.*s: FAIL\n", label.c_str(), width,
                  field.data());
      all_ok = false;
      continue;
    }
    const double floor = kHostGateSlack * *base;
    const bool ok = r.current >= floor;
    std::printf("gate: %-15s %.3g %.*s vs baseline %.3g (floor %.3g) %s\n", label.c_str(),
                r.current, width, field.data(), *base, floor, ok ? "ok" : "FAIL");
    all_ok = all_ok && ok;
  }
  return all_ok ? 0 : 1;
}

}  // namespace cyclops::bench
