#pragma once
// Shared C++ token lexer for cyclops-analyze (tools/cyclops_analyze.cpp).
//
// A real token stream rather than per-line text scans: string literals
// (ordinary, char, and raw with encoding prefixes), line and block comments,
// multi-character punctuators, and preprocessor directives are all lexed
// properly, and every token carries the brace/paren depth it was seen at.
// That is what lets the passes layered on top do the things a line scanner
// structurally could not:
//
//   * multi-line declarations (an `unordered_map<K,\n V> name` split across
//     lines is one token run, not two unrelated lines),
//   * real scope tracking (a lock guard's critical section ends where its
//     brace depth says it ends, not at a 60-line cap),
//   * `#include` extraction with <>-header names that never collide with
//     less-than tokens.
//
// The lexer is deliberately not a parser: no preprocessing, no template
// disambiguation beyond `>>` splitting in the template-depth helpers. Every
// pass that consumes the stream documents the approximations it makes.

#include <cctype>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace cyclops::analyze {

enum class Tok {
  kIdent,    ///< identifier or keyword
  kNumber,   ///< pp-number (we never interpret the value)
  kString,   ///< ordinary or raw string literal; text is the marker `"`
  kChar,     ///< character literal; text is the marker `'`
  kPunct,    ///< operator / punctuator, longest-match (`::`, `->`, `>>`, ...)
  kHeader,   ///< <...> header-name inside an #include directive
};

struct Token {
  Tok kind = Tok::kPunct;
  std::string text;
  int line = 0;         ///< 1-based
  int col = 0;          ///< 0-based byte offset in the line
  int brace_depth = 0;  ///< `{` depth *before* this token
  int paren_depth = 0;  ///< `(` depth *before* this token
};

/// One `#include` directive. `target` is the header path without delimiters;
/// `angled` distinguishes `<...>` (system/library) from `"..."` (repo).
struct IncludeDirective {
  std::string target;
  int line = 0;
  bool angled = false;
};

struct LexedFile {
  std::vector<Token> tokens;
  std::vector<IncludeDirective> includes;
};

namespace detail {

[[nodiscard]] inline bool ident_start(char c) noexcept {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
[[nodiscard]] inline bool ident_char(char c) noexcept {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Multi-character punctuators, longest first so greedy matching is correct.
inline constexpr std::string_view kPuncts[] = {
    "...", "->*", "<<=", ">>=", "<=>", "::", "->", "<<", ">>", "<=", ">=",
    "==",  "!=",  "&&",  "||",  "+=", "-=", "*=", "/=", "%=", "&=", "|=",
    "^=",  "++",  "--",  "##"};

}  // namespace detail

/// Lexes `content` into a token stream plus the file's #include directives.
/// Comments vanish; string/char literals collapse to a one-character marker
/// token so adjacency survives but literal bodies can never feed a rule.
inline LexedFile lex(std::string_view content) {
  LexedFile out;
  const std::size_t n = content.size();
  std::size_t i = 0;
  int line = 1;
  int line_start = 0;  // byte offset of the current line's first char
  int brace = 0;
  int paren = 0;
  bool line_fresh = true;  // only whitespace seen on this line so far

  const auto newline = [&](std::size_t at) {
    ++line;
    line_start = static_cast<int>(at) + 1;
    line_fresh = true;
  };

  const auto push = [&](Tok kind, std::string text, int tok_line, int tok_col) {
    Token t;
    t.kind = kind;
    t.text = std::move(text);
    t.line = tok_line;
    t.col = tok_col;
    t.brace_depth = brace;
    t.paren_depth = paren;
    out.tokens.push_back(std::move(t));
  };

  while (i < n) {
    const char c = content[i];
    if (c == '\n') {
      newline(i);
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }

    // Comments.
    if (c == '/' && i + 1 < n && content[i + 1] == '/') {
      while (i < n && content[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && content[i + 1] == '*') {
      i += 2;
      while (i + 1 < n && !(content[i] == '*' && content[i + 1] == '/')) {
        if (content[i] == '\n') newline(i);
        ++i;
      }
      i = (i + 1 < n) ? i + 2 : n;
      continue;
    }

    // Preprocessor directive at start of line: extract #include, then lex the
    // rest of the directive as ordinary tokens (rules still see e.g. #define
    // bodies).
    if (c == '#' && line_fresh) {
      std::size_t j = i + 1;
      while (j < n && (content[j] == ' ' || content[j] == '\t')) ++j;
      std::size_t w = j;
      while (w < n && detail::ident_char(content[w])) ++w;
      if (content.substr(j, w - j) == "include") {
        std::size_t h = w;
        while (h < n && (content[h] == ' ' || content[h] == '\t')) ++h;
        if (h < n && (content[h] == '"' || content[h] == '<')) {
          const char close = content[h] == '<' ? '>' : '"';
          const std::size_t start = h + 1;
          std::size_t e = start;
          while (e < n && content[e] != close && content[e] != '\n') ++e;
          if (e < n && content[e] == close) {
            IncludeDirective inc;
            inc.target = std::string(content.substr(start, e - start));
            inc.line = line;
            inc.angled = close == '>';
            if (inc.angled) {
              push(Tok::kHeader, inc.target, line,
                   static_cast<int>(h) - line_start);
            }
            out.includes.push_back(std::move(inc));
            i = e + 1;
            line_fresh = false;
            continue;
          }
        }
      }
      push(Tok::kPunct, "#", line, static_cast<int>(i) - line_start);
      ++i;
      line_fresh = false;
      continue;
    }

    line_fresh = false;
    const int tok_line = line;
    const int tok_col = static_cast<int>(i) - line_start;

    // Raw string literal, with optional encoding prefix (R, uR, u8R, UR, LR).
    if (detail::ident_start(c)) {
      std::size_t e = i;
      while (e < n && detail::ident_char(content[e])) ++e;
      const std::string_view word = content.substr(i, e - i);
      const bool raw_prefix = (word == "R" || word == "uR" || word == "u8R" ||
                               word == "UR" || word == "LR");
      if (raw_prefix && e < n && content[e] == '"') {
        // R"delim( ... )delim" — the only terminator is the exact close.
        std::size_t open = e + 1;
        while (open < n && content[open] != '(' && content[open] != '\n') ++open;
        const std::string delim(content.substr(e + 1, open - (e + 1)));
        const std::string close = ")" + delim + "\"";
        std::size_t body = (open < n) ? open + 1 : n;
        std::size_t end = content.find(close, body);
        if (end == std::string_view::npos) end = n;
        for (std::size_t k = i; k < end && k < n; ++k) {
          if (content[k] == '\n') newline(k);
        }
        push(Tok::kString, "\"", tok_line, tok_col);
        i = (end == n) ? n : end + close.size();
        continue;
      }
      // Ordinary string with encoding prefix (u8"...", L"...", ...): treat the
      // prefix as part of the literal so `u8"x"` is one marker token.
      const bool str_prefix =
          (word == "u" || word == "u8" || word == "U" || word == "L");
      if (str_prefix && e < n && (content[e] == '"' || content[e] == '\'')) {
        i = e;  // fall through to the literal scanner below
      } else {
        push(Tok::kIdent, std::string(word), tok_line, tok_col);
        i = e;
        continue;
      }
    }

    const char lit = content[i];
    if (lit == '"' || lit == '\'') {
      std::size_t e = i + 1;
      while (e < n && content[e] != lit) {
        if (content[e] == '\n') {
          newline(e);
          ++e;
        } else if (content[e] == '\\') {
          e += 2;  // the escaped char can never close the literal
        } else {
          ++e;
        }
      }
      push(lit == '"' ? Tok::kString : Tok::kChar, std::string(1, lit),
           tok_line, tok_col);
      i = (e < n) ? e + 1 : n;
      continue;
    }

    if (std::isdigit(static_cast<unsigned char>(lit)) != 0 ||
        (lit == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(content[i + 1])) != 0)) {
      // pp-number: digits, idents, dots, and sign chars after e/E/p/P.
      std::size_t e = i + 1;
      while (e < n) {
        const char d = content[e];
        if (detail::ident_char(d) || d == '.' || d == '\'') {
          ++e;
        } else if ((d == '+' || d == '-') &&
                   (content[e - 1] == 'e' || content[e - 1] == 'E' ||
                    content[e - 1] == 'p' || content[e - 1] == 'P')) {
          ++e;
        } else {
          break;
        }
      }
      push(Tok::kNumber, std::string(content.substr(i, e - i)), tok_line, tok_col);
      i = e;
      continue;
    }

    // Punctuator, longest match first.
    std::string_view matched;
    for (const std::string_view p : detail::kPuncts) {
      if (content.substr(i, p.size()) == p) {
        matched = p;
        break;
      }
    }
    if (matched.empty()) matched = content.substr(i, 1);
    if (matched == "{") ++brace;
    if (matched == "(") ++paren;
    push(Tok::kPunct, std::string(matched), tok_line, tok_col);
    // Depth-before semantics: the closing token itself still belongs to the
    // scope it closes, so decrement after pushing.
    if (matched == "}") {
      --brace;
      out.tokens.back().brace_depth = brace;  // `}` reports the outer depth
    }
    if (matched == ")") {
      --paren;
      out.tokens.back().paren_depth = paren;
    }
    i += matched.size();
  }
  return out;
}

/// Finds the index of the `>` matching the `<` at `open` (tokens[open] must
/// be "<"). Counts `<`/`>` and splits `>>`/`<<` as two template brackets.
/// Returns tokens.size() when unbalanced.
[[nodiscard]] inline std::size_t match_angle(const std::vector<Token>& tokens,
                                             std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < tokens.size(); ++i) {
    const std::string& t = tokens[i].text;
    if (tokens[i].kind != Tok::kPunct) continue;
    if (t == "<") ++depth;
    if (t == "<<") depth += 2;
    if (t == ">") --depth;
    if (t == ">>") depth -= 2;
    if (t == ";") return tokens.size();  // a declaration never crosses `;`
    if (depth <= 0) return i;
  }
  return tokens.size();
}

/// Finds the index of the `)` matching the `(` at `open`.
[[nodiscard]] inline std::size_t match_paren(const std::vector<Token>& tokens,
                                             std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < tokens.size(); ++i) {
    if (tokens[i].kind != Tok::kPunct) continue;
    if (tokens[i].text == "(") ++depth;
    if (tokens[i].text == ")" && --depth == 0) return i;
  }
  return tokens.size();
}

/// Finds the index of the `}` matching the `{` at `open`.
[[nodiscard]] inline std::size_t match_brace(const std::vector<Token>& tokens,
                                             std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < tokens.size(); ++i) {
    if (tokens[i].kind != Tok::kPunct) continue;
    if (tokens[i].text == "{") ++depth;
    if (tokens[i].text == "}" && --depth == 0) return i;
  }
  return tokens.size();
}

}  // namespace cyclops::analyze
