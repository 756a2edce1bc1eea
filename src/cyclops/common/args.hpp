#pragma once
// Minimal command-line flag parsing shared by the CLI and the bench mains.
// Consume-style: each query marks the matching argv tokens as consumed;
// finish() rejects anything left over, so callers get unknown-flag errors
// without maintaining a central flag table.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace cyclops::args {

class Parser {
 public:
  Parser(int argc, char** argv) {
    tokens_.reserve(argc > 0 ? static_cast<std::size_t>(argc) - 1 : 0);
    for (int i = 1; i < argc; ++i) tokens_.emplace_back(argv[i]);
    consumed_.assign(tokens_.size(), false);
  }

  /// True iff `name` appears as a bare flag; consumes every occurrence.
  bool flag(std::string_view name) {
    bool found = false;
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      if (!consumed_[i] && tokens_[i] == name) {
        consumed_[i] = true;
        found = true;
      }
    }
    return found;
  }

  /// Raw value of `name VALUE`; consumes both tokens. Last occurrence wins.
  std::optional<std::string> value(std::string_view name) {
    std::optional<std::string> out;
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      if (consumed_[i] || tokens_[i] != name) continue;
      if (i + 1 >= tokens_.size() || consumed_[i + 1]) {
        fail("missing value for " + std::string(name));
      }
      consumed_[i] = consumed_[i + 1] = true;
      out = tokens_[i + 1];
    }
    return out;
  }

  /// Typed `name VALUE` with a default. Supports std::string and arithmetic
  /// types; numeric parses must consume the whole token, and floating-point
  /// values must be finite (no nan, no inf).
  template <typename T>
  T get(std::string_view name, T dflt) {
    const auto v = value(name);
    if (!v) return dflt;
    return parse_as<T>(name, *v);
  }
  std::string get(std::string_view name, const char* dflt) {
    return get<std::string>(name, std::string(dflt));
  }

  /// Tokens not consumed by any flag()/value()/get() call so far.
  [[nodiscard]] std::vector<std::string> unconsumed() const {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      if (!consumed_[i]) out.push_back(tokens_[i]);
    }
    return out;
  }

  /// Errors out (exit 2) on any unconsumed argument.
  void finish() const {
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
      if (!consumed_[i]) fail("unknown argument: " + tokens_[i]);
    }
  }

  [[noreturn]] static void fail(const std::string& msg) {
    std::fprintf(stderr, "%s\n", msg.c_str());
    std::exit(2);  // NOLINT(concurrency-mt-unsafe) — parse-time fail path
  }

 private:
  template <typename T>
  static T parse_as(std::string_view name, const std::string& raw) {
    if constexpr (std::is_same_v<T, std::string>) {
      return raw;
    } else {
      static_assert(std::is_arithmetic_v<T>, "unsupported flag type");
      char* end = nullptr;
      T out{};
      if constexpr (std::is_floating_point_v<T>) {
        out = static_cast<T>(std::strtod(raw.c_str(), &end));
      } else if constexpr (std::is_signed_v<T>) {
        out = static_cast<T>(std::strtoll(raw.c_str(), &end, 10));
      } else {
        out = static_cast<T>(std::strtoull(raw.c_str(), &end, 10));
      }
      bool ok = end != raw.c_str() && *end == '\0';
      if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(out);
      if (!ok) fail("invalid value '" + raw + "' for " + std::string(name));
      return out;
    }
  }

  std::vector<std::string> tokens_;
  std::vector<bool> consumed_;
};

/// Graph-store selection flags shared by the CLI and the bench mains. Kept
/// as raw strings/numbers here (common/ sits below graph/); callers convert
/// with graph::parse_store_kind + graph::StoreOptions.
struct StoreArgs {
  std::string kind = "memory";    ///< memory | compact | stream
  std::uint64_t mem_cap_mb = 64;  ///< stream-backend resident budget
  std::string spill_dir;          ///< stream scratch dir; empty = /tmp
};

inline StoreArgs store_args(Parser& p) {
  StoreArgs s;
  s.kind = p.get("--store", s.kind);
  s.mem_cap_mb = p.get("--mem-cap", s.mem_cap_mb);
  s.spill_dir = p.get("--spill-dir", s.spill_dir);
  if (s.mem_cap_mb == 0) Parser::fail("--mem-cap must be a positive MB count");
  return s;
}

/// The CLI's recovery-mode selection. Raw strings here for the same layering
/// reason as StoreArgs; callers convert with runtime::parse_recovery_mode and
/// sim::LogStoreKind.
struct RecoveryArgs {
  std::string recovery = "rollback";  ///< rollback | log | log-parallel
  std::string log_store = "memory";   ///< memory | spill (message-log backing)
  double detection_timeout_us = 500000.0;  ///< failure-detection timeout
};

inline RecoveryArgs recovery_args(Parser& p) {
  RecoveryArgs r;
  r.recovery = p.get("--recovery", r.recovery);
  r.log_store = p.get("--log-store", r.log_store);
  r.detection_timeout_us = p.get("--detection-timeout-us", r.detection_timeout_us);
  if (r.recovery != "rollback" && r.recovery != "log" && r.recovery != "log-parallel") {
    Parser::fail("--recovery must be rollback, log, or log-parallel");
  }
  if (r.log_store != "memory" && r.log_store != "spill") {
    Parser::fail("--log-store must be memory or spill");
  }
  if (r.detection_timeout_us < 0) {
    Parser::fail("--detection-timeout-us must be non-negative");
  }
  return r;
}

}  // namespace cyclops::args
