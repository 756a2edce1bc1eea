// cyclops-analyze — token-level multi-pass static analyzer for the repo's
// architecture and phase/ownership disciplines: 8 repo-invariant rules on a
// real token stream (multi-line declarations, true brace scopes), plus the
// include-layering DAG pass, file-granularity include cycle detection, and
// the static frozen-view pass mirroring the CYCLOPS_VERIFY EngineChecker.
//
//   cyclops-analyze [options] <path>...   analyze files / recurse directories
//     --rules              list rules and exit
//     --jobs=N             scanning threads (0 = hardware, default; 1 = serial)
//     --sarif=FILE         also write findings as SARIF 2.1.0 to FILE
//     --baseline=FILE      suppress findings acknowledged in FILE
//     --write-baseline=FILE  write current findings to FILE and exit 0
//     --budget-ms=N        fail (exit 3) when analysis wall time exceeds N
//
// Exit codes: 0 clean, 1 unbaselined findings, 2 usage/IO error (including
// a --jobs/--budget-ms value that is not a non-negative integer), 3 budget
// exceeded. Text findings print as `file:line: [rule] message` in path
// order. The ctest gate `analyze_tree` runs this binary over src/ tools/
// tests/ with the checked-in tools/analyze_baseline.txt and a runtime
// budget, so the analyzer stays both clean and fast enough to run on every
// PR.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyzer.hpp"

namespace fs = std::filesystem;

namespace {

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc";
}

bool skipped_dir(const fs::path& p) {
  const std::string name = p.filename().string();
  return name == "build" || name.rfind("build-", 0) == 0 || name == ".git" ||
         name == "lint_fixtures" || name == "third_party";
}

std::vector<std::string> collect(const std::string& arg) {
  std::vector<std::string> files;
  const fs::path root(arg);
  if (fs::is_regular_file(root)) {
    files.push_back(root.string());
    return files;
  }
  if (!fs::is_directory(root)) return files;
  for (auto it = fs::recursive_directory_iterator(root);
       it != fs::recursive_directory_iterator(); ++it) {
    if (it->is_directory() && skipped_dir(it->path())) {
      it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file() && lintable(it->path())) {
      files.push_back(it->path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

void print_rules() {
  for (const cyclops::analyze::RuleInfo& r : cyclops::analyze::kRules) {
    std::printf("%-22s  %.*s\n", std::string(r.id).c_str(),
                static_cast<int>(r.summary.size()), r.summary.data());
  }
  std::printf(
      "\nsuppress with: // cyclops-analyze: allow(<rule>)   (same line or "
      "line above)\n"
      "baseline: --baseline=FILE with lines `path:line: [rule]`\n");
}

bool parse_flag(const char* arg, const char* name, std::string& value) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  value = arg + n + 1;
  return true;
}

/// `--name=N` as a non-negative integer; the whole value must parse, so
/// `--budget-ms=abc` cannot silently become 0 (no budget).
bool parse_count(const char* arg, const char* name, long& out) {
  std::string value;
  if (!parse_flag(arg, name, value)) return false;
  char* end = nullptr;
  out = std::strtol(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0' || out < 0) {
    std::fprintf(stderr, "cyclops-analyze: invalid value '%s' for %s\n",
                 value.c_str(), name);
    std::exit(2);  // NOLINT(concurrency-mt-unsafe) — parse-time fail path
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const auto t0 = std::chrono::steady_clock::now();

  std::vector<std::string> roots;
  std::string sarif_path, baseline_path, write_baseline_path;
  long jobs = 0;
  long budget_ms = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--rules") {
      print_rules();
      return 0;
    }
    if (parse_count(argv[i], "--jobs", jobs)) continue;
    if (parse_flag(argv[i], "--sarif", value)) {
      sarif_path = value;
      continue;
    }
    if (parse_flag(argv[i], "--baseline", value)) {
      baseline_path = value;
      continue;
    }
    if (parse_flag(argv[i], "--write-baseline", value)) {
      write_baseline_path = value;
      continue;
    }
    if (parse_count(argv[i], "--budget-ms", budget_ms)) continue;
    if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "cyclops-analyze: unknown option %s\n", arg.c_str());
      return 2;
    }
    if (!fs::exists(arg)) {
      std::fprintf(stderr, "cyclops-analyze: no such path: %s\n", arg.c_str());
      return 2;
    }
    roots.push_back(arg);
  }
  if (roots.empty()) {
    std::fprintf(stderr,
                 "usage: cyclops-analyze [--rules] [--jobs=N] [--sarif=FILE] "
                 "[--baseline=FILE]\n"
                 "                       [--write-baseline=FILE] "
                 "[--budget-ms=N] <path>...\n");
    return 2;
  }

  std::vector<cyclops::analyze::SourceFile> files;
  for (const std::string& root : roots) {
    for (std::string& f : collect(root)) {
      std::ifstream in(f, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "cyclops-analyze: cannot read %s\n", f.c_str());
        return 2;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      files.push_back(cyclops::analyze::SourceFile{std::move(f), buf.str()});
    }
  }

  cyclops::analyze::AnalyzeOptions opt;
  opt.jobs = static_cast<std::size_t>(jobs);
  std::vector<cyclops::analyze::Finding> findings =
      cyclops::analyze::analyze_files(files, opt);

  if (!write_baseline_path.empty()) {
    std::ofstream out(write_baseline_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cyclops-analyze: cannot write %s\n",
                   write_baseline_path.c_str());
      return 2;
    }
    out << cyclops::analyze::write_baseline(findings);
    std::fprintf(stderr, "cyclops-analyze: wrote %zu baseline entr%s to %s\n",
                 findings.size(), findings.size() == 1 ? "y" : "ies",
                 write_baseline_path.c_str());
    return 0;
  }

  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cyclops-analyze: cannot read baseline %s\n",
                   baseline_path.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    cyclops::analyze::Baseline baseline =
        cyclops::analyze::parse_baseline(buf.str());
    for (const std::string& err : baseline.parse_errors) {
      std::fprintf(stderr, "cyclops-analyze: %s\n", err.c_str());
    }
    if (!baseline.parse_errors.empty()) return 2;
    findings = cyclops::analyze::apply_baseline(findings, baseline);
    for (const cyclops::analyze::BaselineEntry* e :
         cyclops::analyze::stale_entries(baseline)) {
      std::fprintf(stderr,
                   "cyclops-analyze: stale baseline entry %s:%d: [%s] — the "
                   "finding no longer occurs; delete the line\n",
                   e->path.c_str(), e->line, e->rule.c_str());
    }
  }

  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cyclops-analyze: cannot write %s\n",
                   sarif_path.c_str());
      return 2;
    }
    out << cyclops::analyze::to_sarif(findings);
  }

  for (const cyclops::analyze::Finding& f : findings) {
    std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                f.message.c_str());
  }

  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  std::fprintf(stderr,
               "cyclops-analyze: %zu finding%s in %zu file%s, %lld ms\n",
               findings.size(), findings.size() == 1 ? "" : "s", files.size(),
               files.size() == 1 ? "" : "s",
               static_cast<long long>(elapsed));
  if (budget_ms > 0 && elapsed > budget_ms) {
    std::fprintf(stderr,
                 "cyclops-analyze: budget exceeded (%lld ms > %ld ms); the "
                 "analyzer must stay fast enough to run on every PR\n",
                 static_cast<long long>(elapsed), budget_ms);
    return 3;
  }
  return findings.empty() ? 0 : 1;
}
