#pragma once
// Core data model for cyclops-analyze: findings, the rule registry, the
// path classes that exempt directories from rules, and the per-file unit
// (token stream + raw lines + suppression markers) every pass consumes.

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "lexer.hpp"

namespace cyclops::analyze {

struct FileClass {
  bool in_common = false;   ///< under common/: raw primitives are allowed here
  bool in_graph = false;    ///< under graph/: the one home of concrete stores
  bool in_runtime = false;  ///< under runtime/: owns the logged send path
  bool in_sim = false;      ///< under sim/: owns the fabric itself
  bool in_core = false;     ///< under core/: TopologyDelta's own home
  bool in_ingest = false;   ///< under ingest/: owns the batching front door
  bool in_tests = false;    ///< under tests/: exercises concrete layers
};

[[nodiscard]] inline FileClass classify_path(std::string_view path) {
  const auto under = [path](std::string_view dir) {
    return path.find(std::string(dir) + '/') != std::string_view::npos ||
           path.find(std::string(dir) + '\\') != std::string_view::npos;
  };
  FileClass fc;
  fc.in_common = under("common");
  fc.in_graph = under("graph");
  fc.in_runtime = under("runtime");
  fc.in_sim = under("sim");
  fc.in_core = under("core");
  fc.in_ingest = under("ingest");
  // Tests verify the concrete layers directly (test_graph_store.cpp *is*
  // the Csr/CompactCsr test), so the ownership rules do not apply to them —
  // but lint_fixtures/ simulate engine code and stay fully checked.
  fc.in_tests = under("tests") && path.find("lint_fixtures") == std::string_view::npos;
  return fc;
}

struct Finding {
  std::string file;
  int line = 0;  // 1-based
  std::string rule;
  std::string message;
};

[[nodiscard]] inline bool finding_less(const Finding& a, const Finding& b) {
  if (a.file != b.file) return a.file < b.file;
  if (a.line != b.line) return a.line < b.line;
  if (a.rule != b.rule) return a.rule < b.rule;
  return a.message < b.message;
}

/// One file to analyze: `path` is used for reporting, layer classification,
/// and include resolution; tests feed virtual paths with in-memory content.
struct SourceFile {
  std::string path;
  std::string content;
};

struct RuleInfo {
  std::string_view id;
  std::string_view summary;
};

/// Registry of every rule the analyzer can emit: the 8 token rules, the
/// include and frozen-view passes, and the marker validator. SARIF output
/// and `--rules` both render from here; allow() markers are validated
/// against it.
inline constexpr RuleInfo kRules[] = {
    {"determinism",
     "no rand()/srand()/time()/std::random_device in engine code"},
    {"unordered-wire", "no unordered_{map,set} iteration feeding the wire"},
    {"raw-thread",
     "no std::thread/std::mutex/std::condition_variable outside common/"},
    {"wire-narrowing", "no 8/16-bit narrowing casts on wire calls"},
    {"lock-across-wire", "no wire calls while a lock may still be held"},
    {"csr-outside-graph", "no concrete graph::Csr outside src/cyclops/graph/"},
    {"outbox-outside-runtime",
     "no direct fabric outbox() access outside runtime/ and sim/"},
    {"delta-outside-ingest",
     "no TopologyDelta::apply() outside core/ and ingest/"},
    {"include-layering",
     "includes must follow the architecture layer map (no upward or "
     "undeclared skip-layer edges)"},
    {"include-cycle", "no cycles in the repo include graph"},
    {"frozen-view",
     "no writes, mutator calls, or const_cast through a frozen compute-phase "
     "view (const GraphStore&/snapshot bindings)"},
    {"bad-suppression", "allow() markers must name a known rule"},
};

[[nodiscard]] inline bool known_rule(std::string_view id) {
  for (const RuleInfo& r : kRules) {
    if (r.id == id) return true;
  }
  return false;
}

/// A suppression marker found on a raw source line:
/// `cyclops-analyze: allow(<rule>)`.
struct AllowMarker {
  int line = 0;  // 1-based
  std::string rule;
};

namespace detail {

[[nodiscard]] inline bool rule_name_char(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-';
}

/// Scans one raw line for allow() markers. Text that merely looks like a
/// marker but does not carry a plausible rule name (e.g. the documentation
/// placeholder `allow(<rule>)`) is ignored rather than rejected.
inline void scan_markers(std::string_view line, int line_no,
                         std::vector<AllowMarker>& out) {
  constexpr std::string_view kPrefix = "cyclops-analyze: allow(";
  std::size_t pos = 0;
  while ((pos = line.find(kPrefix, pos)) != std::string_view::npos) {
    const std::size_t start = pos + kPrefix.size();
    std::size_t end = start;
    while (end < line.size() && rule_name_char(line[end])) ++end;
    if (end > start && end < line.size() && line[end] == ')') {
      out.push_back(AllowMarker{line_no, std::string(line.substr(start, end - start))});
    }
    pos = start;
  }
}

}  // namespace detail

/// Everything the passes need about one file, computed once: the token
/// stream, include directives, path class, and suppression markers.
class FileUnit {
 public:
  FileUnit(std::string path, const std::string& content)
      : path_(std::move(path)),
        fc_(classify_path(path_)),
        lexed_(lex(content)) {
    int line_no = 1;
    std::size_t start = 0;
    while (start <= content.size()) {
      const std::size_t nl = content.find('\n', start);
      const std::string_view line =
          nl == std::string::npos
              ? std::string_view(content).substr(start)
              : std::string_view(content).substr(start, nl - start);
      detail::scan_markers(line, line_no, markers_);
      if (nl == std::string::npos) break;
      start = nl + 1;
      ++line_no;
    }
  }

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] const FileClass& file_class() const noexcept { return fc_; }
  [[nodiscard]] const std::vector<Token>& tokens() const noexcept {
    return lexed_.tokens;
  }
  [[nodiscard]] const std::vector<IncludeDirective>& includes() const noexcept {
    return lexed_.includes;
  }
  [[nodiscard]] const std::vector<AllowMarker>& markers() const noexcept {
    return markers_;
  }

  /// True when `rule` is allowed on `line` (marker on the same line or the
  /// line above).
  [[nodiscard]] bool suppressed(int line, std::string_view rule) const {
    for (const AllowMarker& m : markers_) {
      if (m.rule == rule && (m.line == line || m.line + 1 == line)) return true;
    }
    return false;
  }

  /// Appends a finding unless a marker suppresses it.
  void add(std::vector<Finding>& out, int line, std::string_view rule,
           std::string message) const {
    if (suppressed(line, rule)) return;
    out.push_back(Finding{path_, line, std::string(rule), std::move(message)});
  }

 private:
  std::string path_;
  FileClass fc_;
  LexedFile lexed_;
  std::vector<AllowMarker> markers_;
};

/// Validates allow() markers: a well-formed marker naming a rule the
/// registry does not know is itself a finding — a typo in a suppression
/// silently un-suppresses nothing and must not pass review unnoticed.
/// Emission goes through FileUnit::add so bad-suppression is itself
/// suppressible: test sources that quote a deliberately-broken marker can
/// acknowledge it with an adjacent allow(bad-suppression).
inline void check_markers(const FileUnit& u, std::vector<Finding>& out) {
  for (const AllowMarker& m : u.markers()) {
    if (!known_rule(m.rule)) {
      u.add(out, m.line, "bad-suppression",
            "allow(" + m.rule + ") names no known rule; run --rules for the "
            "list (the marker suppresses nothing)");
    }
  }
}

/// Strips everything before the repo-root component so findings, baselines,
/// and SARIF artifacts agree on paths regardless of where the analyzer ran.
/// `/root/repo/src/cyclops/x.hpp` and `src/cyclops/x.hpp` both normalize to
/// the latter.
[[nodiscard]] inline std::string repo_relative(std::string_view path) {
  std::string p(path);
  std::replace(p.begin(), p.end(), '\\', '/');
  for (const std::string_view root :
       {std::string_view("src/"), std::string_view("tools/"),
        std::string_view("tests/"), std::string_view("bench/"),
        std::string_view("examples/")}) {
    const std::size_t at = p.find(root);
    if (at == 0) return p;
    if (at != std::string::npos && p[at - 1] == '/') return p.substr(at);
  }
  return p;
}

}  // namespace cyclops::analyze
