#pragma once
// The bench mains' one JSON module: the writer behind every BENCH_*.json and
// the row lookup behind every `--gate <baseline.json>`. The layout is byte-
// stable (bench/baselines/ holds its output): one top-level field per line,
// arrays of one-line row objects.

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

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

/// The text of a gate baseline file, or nullopt (with the gate error
/// printed) when it cannot be read.
inline std::optional<std::string> read_baseline(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "gate: cannot read baseline %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The numeric `field` of the first flat `{...}` row of `json` whose string
/// fields equal every (key, value) in `match`, read within that row only;
/// 0 when no row matches or the row lacks the field.
inline double baseline_value(
    const std::string& json,
    std::initializer_list<std::pair<std::string_view, std::string_view>> match,
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
    return at == row.npos ? 0 : std::strtod(json.c_str() + open + at + key.size(), nullptr);
  }
  return 0;
}

}  // namespace cyclops::bench
