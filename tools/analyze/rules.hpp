#pragma once
// The 8 repo-invariant rules over the token stream (lexer.hpp). Each is a
// textual discipline this repo keeps so simulated runs stay bit-deterministic
// and the concurrency surface stays auditable:
//
//   determinism      rand()/srand()/time()/std::random_device — randomness
//                    flows from seeded std::mt19937 instances only.
//   unordered-wire   iterating an unordered_{map,set} in a loop that feeds
//                    the wire lets hash order decide wire layout.
//   raw-thread       std::thread/mutex/condition_variable outside common/ —
//                    raw primitives live behind common/sync.hpp.
//   wire-narrowing   an 8/16-bit cast on a wire call truncates the value.
//   lock-across-wire a wire call while a lock may still be held serializes
//                    wire traffic behind host contention (§2.2.2).
//   csr-outside-graph  the concrete graph::Csr named above the graph layer,
//                    which must go through the GraphStore interface.
//   outbox-outside-runtime  fabric.outbox() outside runtime/ and sim/
//                    bypasses SyncChannel, so the message log misses it.
//   delta-outside-ingest  TopologyDelta::apply() outside core/ and ingest/
//                    bypasses batched epoch publication.
//
// Working on tokens rather than lines:
//
//   * declaration capture (unordered-wire ident sets, TopologyDelta idents,
//     frozen-view bindings) works across line breaks, because a declaration
//     is a token run, not a line;
//   * lock-across-wire and unordered-wire scopes are tracked by real brace
//     depth to the end of the enclosing scope, not a 60-line cap;
//   * identifier matches are exact tokens, so `resend(` never matches
//     `send(` the way a substring scan would.

#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "model.hpp"

namespace cyclops::analyze {

namespace rules_detail {

inline constexpr std::string_view kWireIdents[] = {"send", "send_record",
                                                   "write_vector", "serialize"};

[[nodiscard]] inline bool is_punct(const Token& t, std::string_view text) {
  return t.kind == Tok::kPunct && t.text == text;
}
[[nodiscard]] inline bool is_ident(const Token& t, std::string_view text) {
  return t.kind == Tok::kIdent && t.text == text;
}
[[nodiscard]] inline bool is_member_access(const Token& t) {
  return is_punct(t, ".") || is_punct(t, "->");
}

/// True when tokens[i] begins a wire call: `send(`, `send_record(`,
/// `write_vector(`, `serialize(`, or a member `.write(` / `->write(`.
[[nodiscard]] inline bool is_wire_call(const std::vector<Token>& toks,
                                       std::size_t i) {
  if (toks[i].kind != Tok::kIdent) return false;
  if (i + 1 >= toks.size() || !is_punct(toks[i + 1], "(")) return false;
  for (const std::string_view w : kWireIdents) {
    if (toks[i].text == w) return true;
  }
  return toks[i].text == "write" && i > 0 && is_member_access(toks[i - 1]);
}

/// Collects names declared as std::unordered_{map,set}<...> anywhere in the
/// file. Multi-line declarations are captured naturally: the matching `>`
/// is found by template-bracket counting over tokens, wherever it lives.
[[nodiscard]] inline std::unordered_set<std::string> unordered_idents(
    const std::vector<Token>& toks) {
  std::unordered_set<std::string> names;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "unordered_map") && !is_ident(toks[i], "unordered_set"))
      continue;
    if (!is_punct(toks[i + 1], "<")) continue;
    std::size_t close = match_angle(toks, i + 1);
    if (close >= toks.size()) continue;
    std::size_t j = close + 1;
    while (j < toks.size() && (is_punct(toks[j], "&") || is_punct(toks[j], "*") ||
                               is_ident(toks[j], "const"))) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == Tok::kIdent) names.insert(toks[j].text);
  }
  return names;
}

/// Collects names declared (or bound as parameters/references) with type
/// TopologyDelta. `TopologyDelta::Canonical` contributes nothing — the next
/// token is `::`, not a declared name.
[[nodiscard]] inline std::unordered_set<std::string> delta_idents(
    const std::vector<Token>& toks) {
  std::unordered_set<std::string> names;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "TopologyDelta")) continue;
    std::size_t j = i + 1;
    if (is_punct(toks[j], "::")) continue;
    while (j < toks.size() && (is_punct(toks[j], "&") || is_punct(toks[j], "*"))) ++j;
    if (j < toks.size() && toks[j].kind == Tok::kIdent) names.insert(toks[j].text);
  }
  return names;
}

/// Joins the tokens of a template argument / type into canonical text:
/// `std :: uint8_t` -> "std::uint8_t", `unsigned char` -> "unsigned char".
[[nodiscard]] inline std::string type_text(const std::vector<Token>& toks,
                                           std::size_t begin, std::size_t end) {
  std::string out;
  for (std::size_t i = begin; i < end; ++i) {
    if (!out.empty() && toks[i].kind == Tok::kIdent &&
        toks[i - 1].kind == Tok::kIdent) {
      out += ' ';
    }
    out += toks[i].text;
  }
  return out;
}

inline constexpr std::string_view kNarrowTypes[] = {
    "std::uint8_t",  "std::int8_t",  "std::uint16_t", "std::int16_t",
    "uint8_t",       "int8_t",       "uint16_t",      "int16_t",
    "char",          "unsigned char", "short",        "unsigned short"};

inline constexpr std::string_view kGuardIdents[] = {
    "LockGuard", "lock_guard", "UniqueLock", "unique_lock", "ScopedLock",
    "scoped_lock"};

/// True when tokens[i] acquires a lock: an RAII guard template name followed
/// by `<`, or a member `.lock()` / `->lock()` call.
[[nodiscard]] inline bool takes_lock(const std::vector<Token>& toks,
                                     std::size_t i) {
  if (toks[i].kind != Tok::kIdent) return false;
  if (i + 1 < toks.size() && is_punct(toks[i + 1], "<")) {
    for (const std::string_view g : kGuardIdents) {
      if (toks[i].text == g) return true;
    }
  }
  return toks[i].text == "lock" && i > 0 && is_member_access(toks[i - 1]) &&
         i + 1 < toks.size() && is_punct(toks[i + 1], "(");
}

[[nodiscard]] inline bool is_unlock_call(const std::vector<Token>& toks,
                                         std::size_t i) {
  return is_ident(toks[i], "unlock") && i > 0 && is_member_access(toks[i - 1]) &&
         i + 1 < toks.size() && is_punct(toks[i + 1], "(");
}

}  // namespace rules_detail

/// Runs the 8 token rules over one file's token stream.
inline void run_token_rules(const FileUnit& u, std::vector<Finding>& out) {
  namespace rd = rules_detail;
  const std::vector<Token>& toks = u.tokens();
  const FileClass& fc = u.file_class();

  const std::unordered_set<std::string> unordered = rd::unordered_idents(toks);
  const std::unordered_set<std::string> deltas = rd::delta_idents(toks);

  // At most one finding per rule and line.
  std::unordered_set<int> det_lines, thread_lines, csr_lines, narrow_lines;
  std::unordered_set<int> wire_under_lock;  // lines already attributed

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    const int line = t.line;

    // determinism: rand( / srand( / time( and std::random_device.
    if (t.kind == Tok::kIdent &&
        (t.text == "rand" || t.text == "srand" || t.text == "time") &&
        i + 1 < toks.size() && rd::is_punct(toks[i + 1], "(") &&
        det_lines.insert(line).second) {
      u.add(out, line, "determinism",
            t.text + "() is wall-clock/global-state randomness; use a seeded "
                     "std::mt19937 so runs stay reproducible");
    }
    if (rd::is_ident(t, "std") && i + 2 < toks.size() &&
        rd::is_punct(toks[i + 1], "::") &&
        rd::is_ident(toks[i + 2], "random_device")) {
      u.add(out, line, "determinism",
            "std::random_device is nondeterministic; seed a std::mt19937 from "
            "config instead");
    }

    // raw-thread: std::{thread,mutex,condition_variable} outside common/.
    if (!fc.in_common && rd::is_ident(t, "std") && i + 2 < toks.size() &&
        rd::is_punct(toks[i + 1], "::") && toks[i + 2].kind == Tok::kIdent) {
      const std::string& name = toks[i + 2].text;
      if ((name == "thread" || name == "mutex" || name == "condition_variable") &&
          thread_lines.insert(line).second) {
        u.add(out, line, "raw-thread",
              "std::" + name + " outside common/; use the cyclops::Thread / "
                               "Mutex / CondVar aliases from common/sync.hpp");
      }
    }

    // outbox-outside-runtime: `.outbox(` / `->outbox(` grabs a raw OutBox.
    if (!fc.in_runtime && !fc.in_sim && !fc.in_tests &&
        rd::is_ident(t, "outbox") && i > 0 &&
        rd::is_member_access(toks[i - 1]) && i + 1 < toks.size() &&
        rd::is_punct(toks[i + 1], "(")) {
      u.add(out, line, "outbox-outside-runtime",
            "direct fabric outbox() access outside src/cyclops/runtime/ and "
            "src/cyclops/sim/; sends must flow through SyncChannel so the "
            "message log sees every package and replay stays faithful");
    }

    // delta-outside-ingest: `<ident>.apply(` on a TopologyDelta ident.
    if (!fc.in_core && !fc.in_ingest && !fc.in_tests &&
        rd::is_ident(t, "apply") && i >= 2 &&
        rd::is_member_access(toks[i - 1]) && toks[i - 2].kind == Tok::kIdent &&
        i + 1 < toks.size() && rd::is_punct(toks[i + 1], "(") &&
        deltas.count(toks[i - 2].text) != 0) {
      u.add(out, line, "delta-outside-ingest",
            "TopologyDelta::apply() on '" + toks[i - 2].text +
                "' outside src/cyclops/core/ and src/cyclops/ingest/ mutates "
                "an edge list in place, bypassing batched epoch publication; "
                "use applied() for a const-preserving copy or route the delta "
                "through MutationIngestor / SnapshotStore::apply");
    }

    // csr-outside-graph: the exact identifier Csr.
    if (!fc.in_graph && !fc.in_tests && rd::is_ident(t, "Csr") &&
        csr_lines.insert(line).second) {
      u.add(out, line, "csr-outside-graph",
            "concrete graph::Csr named outside src/cyclops/graph/; code above "
            "the graph layer must use the GraphStore interface "
            "(graph/store.hpp) so all store backends stay interchangeable");
    }

    // wire-narrowing: a narrowing static_cast on the same line as a wire
    // call (the line is the unit of co-occurrence).
    if (rd::is_ident(t, "static_cast") && i + 1 < toks.size() &&
        rd::is_punct(toks[i + 1], "<") && !narrow_lines.count(line)) {
      const std::size_t close = match_angle(toks, i + 1);
      if (close < toks.size()) {
        const std::string type = rd::type_text(toks, i + 2, close);
        bool narrow = false;
        for (const std::string_view nt : rd::kNarrowTypes) {
          if (type == nt) {
            narrow = true;
            break;
          }
        }
        if (narrow) {
          bool wire_on_line = false;
          for (std::size_t j = 0; j < toks.size(); ++j) {
            if (toks[j].line == line && rd::is_wire_call(toks, j)) {
              wire_on_line = true;
              break;
            }
          }
          if (wire_on_line) {
            narrow_lines.insert(line);
            u.add(out, line, "wire-narrowing",
                  "static_cast<" + type +
                      "> on a wire call truncates the value on the wire; "
                      "widen the wire field or suppress if the narrowing is "
                      "the format");
          }
        }
      }
    }

    // unordered-wire: a range-for over an unordered container whose body
    // feeds the wire. The body is the real brace scope (or the single
    // statement of a braceless for) — no line cap.
    if (rd::is_ident(t, "for") && i + 1 < toks.size() &&
        rd::is_punct(toks[i + 1], "(")) {
      const std::size_t open = i + 1;
      const std::size_t close = match_paren(toks, open);
      if (close < toks.size()) {
        // The ':' of a range-for sits at the header's own paren depth — the
        // depth the `(` token itself reports (the lexer increments before
        // pushing an opener), so nested call parens never match.
        std::size_t colon = toks.size();
        for (std::size_t j = open + 1; j < close; ++j) {
          if (rd::is_punct(toks[j], ":") &&
              toks[j].paren_depth == toks[open].paren_depth) {
            colon = j;
            break;
          }
        }
        if (colon < close) {
          // Target: the last identifier of the range expression.
          std::string target;
          for (std::size_t j = close; j > colon; --j) {
            if (toks[j - 1].kind == Tok::kIdent) {
              target = toks[j - 1].text;
              break;
            }
          }
          if (!target.empty() && unordered.count(target) != 0) {
            std::size_t body_end;
            if (close + 1 < toks.size() && rd::is_punct(toks[close + 1], "{")) {
              body_end = match_brace(toks, close + 1);
            } else {
              body_end = close + 1;
              while (body_end < toks.size() && !rd::is_punct(toks[body_end], ";"))
                ++body_end;
            }
            for (std::size_t j = close + 1;
                 j < body_end && j < toks.size(); ++j) {
              if (rd::is_wire_call(toks, j)) {
                u.add(out, line, "unordered-wire",
                      "iteration over unordered container '" + target +
                          "' feeds the wire; hash order is not deterministic "
                          "across runs — drain into a sorted vector first");
                break;
              }
            }
          }
        }
      }
    }

    // lock-across-wire: from a lock acquisition forward, flag every wire
    // call while the guard can still be held — until the enclosing scope
    // closes (real brace depth) or an .unlock() on a later line.
    if (rd::takes_lock(toks, i)) {
      const int guard_depth = t.brace_depth;
      for (std::size_t j = i + 1; j < toks.size(); ++j) {
        if (toks[j].brace_depth < guard_depth) break;  // scope exited
        if (toks[j].line > line && rd::is_unlock_call(toks, j)) break;
        if (rd::is_wire_call(toks, j) && wire_under_lock.insert(toks[j].line).second) {
          u.add(out, toks[j].line, "lock-across-wire",
                "wire call while a lock taken at line " + std::to_string(line) +
                    " may still be held; sending under a lock serializes wire "
                    "traffic behind host contention — stage the payload and "
                    "send after releasing");
        }
      }
    }
  }
}

}  // namespace cyclops::analyze
