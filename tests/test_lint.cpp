// Unit tests for cyclops-analyze (tools/analyze/), the repo's static
// analyzer: the 8 repo-invariant rules, the include-layering, include-cycle,
// and frozen-view passes, SARIF output, and baselines. Most rules are pinned
// against the fixture files in tests/lint_fixtures/; each fixture documents
// its expected findings inline, and the goldens below are the reference.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analyze/analyzer.hpp"

namespace {

namespace az = cyclops::analyze;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string fixture_path(const std::string& name) {
  return std::string(CYCLOPS_LINT_FIXTURE_DIR) + "/" + name;
}

using Golden = std::vector<std::pair<int, std::string>>;

/// Analyzes one fixture (per-file passes only) and returns sorted
/// (line, rule) pairs — the shape the golden assertions compare against.
Golden analyze_fixture(const std::string& name) {
  const std::string path = fixture_path(name);
  Golden got;
  for (const az::Finding& f : az::analyze_file(path, slurp(path))) {
    got.emplace_back(f.line, f.rule);
  }
  std::sort(got.begin(), got.end());
  return got;
}

/// The expected findings of every fixture the 8 token rules are pinned on.
const std::vector<std::pair<std::string, Golden>>& fixture_goldens() {
  static const std::vector<std::pair<std::string, Golden>> kGoldens = {
      {"bad_determinism.cpp",
       {{9, "determinism"}, {10, "determinism"}, {11, "determinism"}, {12, "determinism"}}},
      {"bad_unordered_wire.cpp", {{19, "unordered-wire"}, {23, "unordered-wire"}}},
      {"bad_raw_thread.cpp", {{11, "raw-thread"}, {12, "raw-thread"}, {13, "raw-thread"}}},
      {"bad_narrowing.cpp", {{13, "wire-narrowing"}, {14, "wire-narrowing"}}},
      {"bad_lock_across_wire.cpp", {{29, "lock-across-wire"}, {35, "lock-across-wire"}}},
      {"bad_csr_outside_graph.cpp",
       {{7, "csr-outside-graph"},
        {12, "csr-outside-graph"},
        {13, "csr-outside-graph"},
        {15, "csr-outside-graph"}}},
      {"bad_outbox_escape.cpp",
       {{12, "outbox-outside-runtime"}, {13, "outbox-outside-runtime"}}},
      {"bad_delta_escape.cpp", {{13, "delta-outside-ingest"}, {14, "delta-outside-ingest"}}},
      {"bad_multiline_decls.cpp", {{22, "unordered-wire"}, {30, "delta-outside-ingest"}}},
      {"bad_lock_long_scope.cpp", {{87, "lock-across-wire"}, {93, "unordered-wire"}}},
      {"clean.cpp", {}},
  };
  return kGoldens;
}

const Golden& golden(const std::string& name) {
  for (const auto& [fixture, expected] : fixture_goldens()) {
    if (fixture == name) return expected;
  }
  ADD_FAILURE() << "no golden for " << name;
  static const Golden kNone;
  return kNone;
}

/// The message of the finding at `line` in fixture `name`, or "" if none.
std::string fixture_message(const std::string& name, int line) {
  const std::string path = fixture_path(name);
  for (const az::Finding& f : az::analyze_file(path, slurp(path))) {
    if (f.line == line) return f.message;
  }
  return {};
}

/// Identifier tokens of `src`, in order: what the rules can see once
/// comments and literal bodies are gone.
std::vector<std::string> idents(const std::string& src) {
  std::vector<std::string> out;
  for (const az::Token& t : az::lex(src).tokens) {
    if (t.kind == az::Tok::kIdent) out.push_back(t.text);
  }
  return out;
}

using Idents = std::vector<std::string>;

TEST(Lint, DeterminismFixture) {
  EXPECT_EQ(analyze_fixture("bad_determinism.cpp"), golden("bad_determinism.cpp"));
}

TEST(Lint, UnorderedWireFixture) {
  EXPECT_EQ(analyze_fixture("bad_unordered_wire.cpp"), golden("bad_unordered_wire.cpp"));
}

TEST(Lint, RawThreadFixture) {
  EXPECT_EQ(analyze_fixture("bad_raw_thread.cpp"), golden("bad_raw_thread.cpp"));
}

TEST(Lint, NarrowingFixtureHonoursSuppression) {
  // Line 15 carries `// cyclops-analyze: allow(wire-narrowing)` and must not
  // appear; lines 17/18 split the cast and the wire call across lines.
  EXPECT_EQ(analyze_fixture("bad_narrowing.cpp"), golden("bad_narrowing.cpp"));
}

TEST(Lint, LockAcrossWireFixture) {
  // Lines 29/35: a send under an RAII guard and under a manual .lock().
  // The release patterns (send after .unlock(), after the guard's scope
  // closes, staged-drain) must stay silent.
  EXPECT_EQ(analyze_fixture("bad_lock_across_wire.cpp"), golden("bad_lock_across_wire.cpp"));
}

TEST(Lint, LockAcrossWireHonoursSuppression) {
  const std::string body =
      "mu.lock();\n"
      "sender.send(0, x);  // cyclops-analyze: allow(lock-across-wire)\n"
      "mu.unlock();\n";
  EXPECT_TRUE(az::analyze_file("x.cpp", body).empty());
}

TEST(Lint, CleanFixtureHasZeroFindings) {
  // Through the whole multi-file driver, include pass and all.
  const std::string path = fixture_path("clean.cpp");
  EXPECT_TRUE(az::analyze_files({az::SourceFile{path, slurp(path)}}).empty());
}

TEST(Lint, CsrOutsideGraphFixture) {
  EXPECT_EQ(analyze_fixture("bad_csr_outside_graph.cpp"), golden("bad_csr_outside_graph.cpp"));
}

TEST(Lint, OutboxEscapeFixture) {
  // Lines 12/13: raw OutBox grabs via '.' and '->'. Line 20 is suppressed;
  // a declaration of a method named outbox and a string literal stay silent.
  EXPECT_EQ(analyze_fixture("bad_outbox_escape.cpp"), golden("bad_outbox_escape.cpp"));
}

TEST(Lint, DeltaEscapeFixture) {
  // Lines 13/14: in-place apply() via '.' and '->'. The applied() copy,
  // apply() on non-delta receivers (SnapshotStore, a GAS program), and the
  // suppressed harness call all stay silent.
  EXPECT_EQ(analyze_fixture("bad_delta_escape.cpp"), golden("bad_delta_escape.cpp"));
}

TEST(Lint, CoreAndIngestPathsExemptDeltaApply) {
  const std::string body =
      "core::TopologyDelta delta;\ndelta.apply(edges);\n";
  EXPECT_TRUE(az::analyze_file("src/cyclops/core/mutation.cpp", body).empty());
  EXPECT_TRUE(az::analyze_file("src/cyclops/ingest/ingestor.cpp", body).empty());
  const auto findings = az::analyze_file("src/cyclops/service/snapshot.cpp", body);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "delta-outside-ingest");
}

TEST(Lint, RuntimeAndSimPathsExemptOutbox) {
  const std::string body = "auto& box = fabric.outbox(from, lane);\n";
  EXPECT_TRUE(az::analyze_file("src/cyclops/runtime/sync_channel.hpp", body).empty());
  EXPECT_TRUE(az::analyze_file("src/cyclops/sim/fabric.hpp", body).empty());
  const auto findings = az::analyze_file("src/cyclops/bsp/engine.hpp", body);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "outbox-outside-runtime");
}

TEST(Lint, GraphPathExemptsCsr) {
  const std::string body = "graph::Csr g = graph::Csr::build(e);\n";
  EXPECT_TRUE(az::analyze_file("src/cyclops/graph/store.cpp", body).empty());
  const auto findings = az::analyze_file("src/cyclops/core/engine.hpp", body);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "csr-outside-graph");
}

TEST(Lint, CommonPathExemptsRawThread) {
  const std::string body = "std::mutex m;\nstd::thread t;\n";
  EXPECT_TRUE(az::analyze_file("src/cyclops/common/sync.hpp", body).empty());
  EXPECT_EQ(az::analyze_file("src/cyclops/core/engine.hpp", body).size(), 2u);
}

TEST(Lint, ClassifyPath) {
  EXPECT_TRUE(az::classify_path("src/cyclops/common/thread_pool.cpp").in_common);
  EXPECT_FALSE(az::classify_path("src/cyclops/runtime/engine_shell.hpp").in_common);
  EXPECT_TRUE(az::classify_path("src/cyclops/graph/compact_csr.cpp").in_graph);
  EXPECT_FALSE(az::classify_path("src/cyclops/gas/gas_layout.cpp").in_graph);
  EXPECT_TRUE(az::classify_path("src/cyclops/runtime/sync_channel.hpp").in_runtime);
  EXPECT_TRUE(az::classify_path("src/cyclops/sim/fabric.cpp").in_sim);
  EXPECT_FALSE(az::classify_path("src/cyclops/bsp/engine.hpp").in_runtime);
  EXPECT_FALSE(az::classify_path("src/cyclops/bsp/engine.hpp").in_sim);
  EXPECT_TRUE(az::classify_path("src/cyclops/core/mutation.cpp").in_core);
  EXPECT_TRUE(az::classify_path("src/cyclops/ingest/ingestor.cpp").in_ingest);
  EXPECT_FALSE(az::classify_path("src/cyclops/service/snapshot.cpp").in_core);
  EXPECT_FALSE(az::classify_path("src/cyclops/service/snapshot.cpp").in_ingest);
  // tests/ is exempt from the ownership rules (it exercises the concrete
  // layers), but lint_fixtures/ simulate engine code and stay checked.
  EXPECT_TRUE(az::classify_path("tests/test_graph_store.cpp").in_tests);
  EXPECT_FALSE(az::classify_path("tests/lint_fixtures/bad_csr_outside_graph.cpp").in_tests);
  EXPECT_FALSE(az::classify_path("src/cyclops/core/engine.hpp").in_tests);
}

TEST(Lint, TestsPathExemptsOwnershipRulesOnly) {
  const std::string body =
      "graph::Csr g;\n"
      "auto& box = fabric.outbox(0, 0);\n"
      "core::TopologyDelta d;\n"
      "d.apply(edges);\n"
      "std::thread t;\n";
  // Ownership rules are exempt under tests/, but raw-thread still fires —
  // test code shares the engine's concurrency discipline.
  const auto findings = az::analyze_file("tests/test_graph_store.cpp", body);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "raw-thread");
}

TEST(Lint, SuppressionOnPreviousLine) {
  const std::string body =
      "// cyclops-analyze: allow(determinism)\n"
      "long t = time(nullptr);\n"
      "long u = time(nullptr);\n";
  const auto findings = az::analyze_file("x.cpp", body);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3);  // only the unsuppressed second call
}

TEST(LintDetail, CodeOnlyStripsCommentsAndStrings) {
  EXPECT_EQ(idents("x = 1; // rand()"), Idents({"x"}));
  EXPECT_EQ(idents("s = \"rand()\";"), Idents({"s"}));
  EXPECT_EQ(idents("a /* rand() */ b"), Idents({"a", "b"}));
  // A block comment left open runs on to the next line's close.
  EXPECT_EQ(idents("a /* open\nstill closed */ tail"), Idents({"a", "tail"}));
}

TEST(LintDetail, CodeOnlyHandlesEscapedQuotes) {
  // An escaped quote must not close the literal early: rand() stays hidden.
  EXPECT_EQ(idents("s = \"\\\"rand()\\\"\";"), Idents({"s"}));
  EXPECT_EQ(idents("c = '\\''; t = time(0);"), Idents({"c", "t", "time"}));
  EXPECT_EQ(idents("s = \"tail\\\\\"; rand();"), Idents({"s", "rand"}));
}

TEST(LintDetail, CodeOnlyHandlesRawStrings) {
  // The inner quote of a raw literal is not a terminator: everything up to
  // )" is literal body.
  EXPECT_EQ(idents("s = R\"(a \" b rand() c)\";"), Idents({"s"}));
  // Custom delimiter: )x" inside the body is not the close for )delim".
  EXPECT_EQ(idents("s = R\"delim(x)\" rand() )delim\";"), Idents({"s"}));
  // Encoding prefixes still open a raw literal.
  EXPECT_EQ(idents("s = u8R\"(time(0))\";"), Idents({"s"}));
  // Multi-line raw literal: the body never reaches the rules, and code after
  // the close on the final line does.
  EXPECT_EQ(idents("s = R\"(first\nrand() \" /* neither */\n)\"; t = time(0);"),
            Idents({"s", "t", "time"}));
  // An identifier ending in R is not a raw-string prefix.
  EXPECT_EQ(idents("x = VAR\"s\";"), Idents({"x", "VAR"}));
}

TEST(Lint, RawStringBodyDoesNotTriggerRules) {
  // A raw literal's inner `"` must not end the literal early and leak the
  // rest of the body into code — time( here would false-positive.
  const std::string body =
      "const char* doc = R\"(call \" time(now) \" anywhere)\";\n"
      "const char* multi = R\"(spans\n"
      "time(lines) rand()\n"
      ")\";\n";
  EXPECT_TRUE(az::analyze_file("x.cpp", body).empty());
}

TEST(LintDetail, HasTokenRespectsIdentifierBoundary) {
  const auto determinism_hits = [](const std::string& line) {
    return az::analyze_file("x.cpp", line + "\n").size();
  };
  EXPECT_EQ(determinism_hits("t = time(nullptr);"), 1u);
  EXPECT_EQ(determinism_hits("std::rand();"), 1u);
  EXPECT_EQ(determinism_hits("elapsed_time(x);"), 0u);
  EXPECT_EQ(determinism_hits("strand(x);"), 0u);
}

TEST(LintDetail, RangeForTarget) {
  // `header` is followed by a body that sends; unordered-wire fires only when
  // it is a range-for whose range expression ends in the unordered `target`.
  const auto fires = [](const std::string& target, const std::string& header) {
    const std::string body = "std::unordered_set<int> " + target + ";\n" + header +
                             " {\n  sender.send(0, 1);\n}\n";
    const auto findings = az::analyze_file("x.cpp", body);
    return findings.size() == 1 && findings[0].rule == "unordered-wire" &&
           findings[0].line == 2;
  };
  EXPECT_TRUE(fires("combined", "for (const auto& [k, v] : bucket.combined)"));
  EXPECT_TRUE(fires("ys", "for (auto x : ys)"));
  EXPECT_FALSE(fires("n", "for (int i = 0; i < n; ++i)"));
  EXPECT_FALSE(fires("c", "x = a ? b : c;"));
}

TEST(Lint, MultilineDeclsFixture) {
  // A declaration split across lines is one token run, so its name is
  // captured.
  EXPECT_EQ(analyze_fixture("bad_multiline_decls.cpp"), golden("bad_multiline_decls.cpp"));
  EXPECT_NE(fixture_message("bad_multiline_decls.cpp", 22).find("'ranks_by_owner'"),
            std::string::npos);
}

TEST(Lint, LockLongScopeFixture) {
  // The lock-scope and range-for body scans run to the end of the scope by
  // real brace tracking, however long it is.
  EXPECT_EQ(analyze_fixture("bad_lock_long_scope.cpp"), golden("bad_lock_long_scope.cpp"));
  EXPECT_NE(fixture_message("bad_lock_long_scope.cpp", 87).find("lock taken at line 20"),
            std::string::npos);
}

// --- lexer ----------------------------------------------------------------
TEST(AnalyzeLexer, TokensCarryKindsAndDepths) {
  const az::LexedFile lf = az::lex("int f(int a) {\n  return g(a);\n}\n");
  ASSERT_GE(lf.tokens.size(), 12u);
  EXPECT_EQ(lf.tokens[0].kind, az::Tok::kIdent);
  EXPECT_EQ(lf.tokens[0].text, "int");
  EXPECT_EQ(lf.tokens[0].line, 1);
  // Openers report the depth they create; closers report the outer depth.
  const az::Token& open_brace = lf.tokens[6];
  ASSERT_EQ(open_brace.text, "{");
  EXPECT_EQ(open_brace.brace_depth, 1);
  const az::Token& close_brace = lf.tokens.back();
  ASSERT_EQ(close_brace.text, "}");
  EXPECT_EQ(close_brace.brace_depth, 0);
  // `return g(a);` sits inside the body at brace depth 1.
  EXPECT_EQ(lf.tokens[7].text, "return");
  EXPECT_EQ(lf.tokens[7].brace_depth, 1);
  EXPECT_EQ(lf.tokens[7].line, 2);
}

TEST(AnalyzeLexer, CommentsVanishAndLiteralsCollapse) {
  const az::LexedFile lf =
      az::lex("x = 1; // rand()\ns = \"time(0)\"; /* srand(7) */ y = '\\'';\n");
  for (const az::Token& t : lf.tokens) {
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "time");
    EXPECT_NE(t.text, "srand");
  }
  bool saw_string = false, saw_char = false;
  for (const az::Token& t : lf.tokens) {
    if (t.kind == az::Tok::kString) saw_string = true;
    if (t.kind == az::Tok::kChar) saw_char = true;
  }
  EXPECT_TRUE(saw_string);
  EXPECT_TRUE(saw_char);
}

TEST(AnalyzeLexer, RawStringsWithDelimitersAndPrefixes) {
  // The inner quote and the fake close of a custom-delimiter raw literal are
  // body text; code after the real close is lexed again.
  const az::LexedFile lf = az::lex(
      "s = R\"delim(x)\" rand() )delim\";\n"
      "t = u8R\"(spans\nlines rand())\";\nu = time(0);\n");
  int idents_named_rand = 0, idents_named_time = 0;
  for (const az::Token& t : lf.tokens) {
    if (t.kind == az::Tok::kIdent && t.text == "rand") ++idents_named_rand;
    if (t.kind == az::Tok::kIdent && t.text == "time") ++idents_named_time;
  }
  EXPECT_EQ(idents_named_rand, 0);
  EXPECT_EQ(idents_named_time, 1);
  // Line counting survives the multi-line raw body: time( is on line 4.
  for (const az::Token& t : lf.tokens) {
    if (t.text == "time") {
      EXPECT_EQ(t.line, 4);
    }
  }
}

TEST(AnalyzeLexer, IncludeDirectivesExtracted) {
  const az::LexedFile lf = az::lex(
      "#include \"cyclops/graph/store.hpp\"\n"
      "#include <vector>\n"
      "int x = 1 < 2;  // not an include, not a header-name\n");
  ASSERT_EQ(lf.includes.size(), 2u);
  EXPECT_EQ(lf.includes[0].target, "cyclops/graph/store.hpp");
  EXPECT_FALSE(lf.includes[0].angled);
  EXPECT_EQ(lf.includes[0].line, 1);
  EXPECT_EQ(lf.includes[1].target, "vector");
  EXPECT_TRUE(lf.includes[1].angled);
  int headers = 0;
  for (const az::Token& t : lf.tokens) {
    if (t.kind == az::Tok::kHeader) ++headers;
  }
  EXPECT_EQ(headers, 1);  // only the angled form emits a kHeader token
}

TEST(AnalyzeLexer, MatchAngleSplitsShiftAndStopsAtSemicolon) {
  const az::LexedFile lf =
      az::lex("std::unordered_map<K, std::vector<V>> m;\nint a = x < y; b;\n");
  // Find the first '<' and match it: must land on the '>>' token.
  std::size_t open = 0;
  while (lf.tokens[open].text != "<") ++open;
  const std::size_t close = az::match_angle(lf.tokens, open);
  ASSERT_LT(close, lf.tokens.size());
  EXPECT_EQ(lf.tokens[close].text, ">>");
  EXPECT_EQ(lf.tokens[close + 1].text, "m");
  // The comparison on line 2 never closes before the ';' — unbalanced.
  std::size_t cmp = close;
  while (lf.tokens[cmp].text != "<" || lf.tokens[cmp].line != 2) ++cmp;
  EXPECT_EQ(az::match_angle(lf.tokens, cmp), lf.tokens.size());
}

// --- the 8 token rules: fixture goldens through the multi-file driver ----

TEST(AnalyzeParity, BothEnginesAgreeOnEverySharedFixture) {
  // One analyze_files call over every golden fixture must report exactly the
  // union of the per-file goldens: the multi-file driver neither adds nor
  // drops findings.
  std::vector<az::SourceFile> files;
  std::vector<std::tuple<std::string, int, std::string>> expected;
  for (const auto& [name, lines] : fixture_goldens()) {
    const std::string path = fixture_path(name);
    files.push_back(az::SourceFile{path, slurp(path)});
    for (const auto& [line, rule] : lines) expected.emplace_back(path, line, rule);
  }
  std::vector<std::tuple<std::string, int, std::string>> got;
  for (const az::Finding& f : az::analyze_files(files)) {
    got.emplace_back(f.file, f.line, f.rule);
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(got, expected);
}

TEST(Analyze, MultilineDeclsFixture) {
  EXPECT_EQ(analyze_fixture("bad_multiline_decls.cpp"), golden("bad_multiline_decls.cpp"));
}

TEST(Analyze, LockLongScopeFixture) {
  EXPECT_EQ(analyze_fixture("bad_lock_long_scope.cpp"), golden("bad_lock_long_scope.cpp"));
}

TEST(Analyze, CleanFixtureHasZeroFindings) {
  EXPECT_TRUE(analyze_fixture("clean.cpp").empty());
}

TEST(Analyze, ExactTokenMatchingBeatsSubstrings) {
  // `resend(` and `elapsed_time(` must not fire; real calls must.
  EXPECT_TRUE(az::analyze_file("x.cpp", "resend(0, v); elapsed_time(x);\n").empty());
  const auto findings =
      az::analyze_file("x.cpp", "mu.lock();\nsender.send(0, v);\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "lock-across-wire");
}

// --- frozen-view pass -----------------------------------------------------

TEST(AnalyzeFrozenView, Fixture) {
  const Golden expected = {{24, "frozen-view"},
                           {28, "frozen-view"},
                           {32, "frozen-view"},
                           {37, "frozen-view"}};
  EXPECT_EQ(analyze_fixture("bad_frozen_view.cpp"), expected);
}

TEST(AnalyzeFrozenView, BindingExpiresWithItsScope) {
  // The regression that motivated scope tracking: a const view pointer in
  // one function must not taint an unrelated local of the same name in the
  // next function (service/snapshot.cpp had exactly this shape).
  const std::string body =
      "void a(const graph::GraphStore* s) {\n"
      "  (void)s;\n"
      "}\n"
      "void b() {\n"
      "  Stats s;\n"
      "  s.swap(other);\n"   // swap is a mutator, but s is not a view here
      "  s.epochs = 3;\n"
      "}\n";
  EXPECT_TRUE(az::analyze_file("x.cpp", body).empty());
}

TEST(AnalyzeFrozenView, ConstCastOnTrackedIdentifier) {
  const std::string body =
      "void f(const graph::GraphStore& view) {\n"
      "  auto* w = const_cast<Store*>(&view);\n"  // cast names no view type,
      "  (void)w;\n"                              // but the argument does
      "}\n";
  const auto findings = az::analyze_file("x.cpp", body);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "frozen-view");
  EXPECT_EQ(findings[0].line, 2);
}

TEST(AnalyzeFrozenView, AssignmentThroughMemberChain) {
  const std::string body =
      "void f(const graph::Snapshot* snap) {\n"
      "  snap->stats.epochs = 7;\n"
      "  snap->slots[i] = x;\n"
      "}\n";
  const auto findings = az::analyze_file("x.cpp", body);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "frozen-view");
  EXPECT_EQ(findings[1].rule, "frozen-view");
}

TEST(AnalyzeFrozenView, PrototypeParameterBindsNothing) {
  const std::string body =
      "void f(const graph::GraphStore& view);\n"
      "void g() {\n"
      "  Buffer view;\n"
      "  view.clear();\n"  // unrelated local after a prototype-only binding
      "}\n";
  EXPECT_TRUE(az::analyze_file("x.cpp", body).empty());
}

// --- include-layering + cycle pass ----------------------------------------

std::vector<az::SourceFile> include_tree_files() {
  const char* rel[] = {
      "include_tree/src/cyclops/graph/upward.hpp",
      "include_tree/src/cyclops/runtime/skip.hpp",
      "include_tree/src/cyclops/core/cycle_a.hpp",
      "include_tree/src/cyclops/core/cycle_b.hpp",
  };
  std::vector<az::SourceFile> files;
  for (const char* r : rel) {
    const std::string path = fixture_path(r);
    files.push_back(az::SourceFile{path, slurp(path)});
  }
  return files;
}

TEST(AnalyzeInclude, LayerAndCycleFindingsOnFixtureTree) {
  az::AnalyzeOptions opt;
  opt.jobs = 1;
  const std::vector<az::Finding> findings =
      az::analyze_files(include_tree_files(), opt);
  Golden got;
  for (const az::Finding& f : findings) {
    got.emplace_back(f.line, f.rule);
  }
  std::sort(got.begin(), got.end());
  const Golden expected = {
      {1, "include-cycle"},      // anchored at cycle_a.hpp line 1
      {3, "include-layering"},   // graph -> runtime: upward
      {4, "include-layering"},   // runtime -> graph: undeclared skip edge
  };
  EXPECT_EQ(got, expected);
  // The two layering messages must name the violation class.
  for (const az::Finding& f : findings) {
    if (f.line == 3) {
      EXPECT_NE(f.message.find("upward include"), std::string::npos);
    }
    if (f.line == 4) {
      EXPECT_NE(f.message.find("skip-layer include"), std::string::npos);
    }
  }
}

TEST(AnalyzeInclude, LayerMapIsSelfConsistent) {
  for (const az::LayerSpec& layer : az::layer_map()) {
    for (const std::string_view dep : layer.allowed) {
      const az::LayerSpec* target = nullptr;
      for (const az::LayerSpec& other : az::layer_map()) {
        if (other.name == dep) target = &other;
      }
      ASSERT_NE(target, nullptr)
          << layer.name << " allows unknown layer " << dep;
      // Declared dependencies never point up the DAG; the only same-rank
      // edges are the common <-> verify instrumentation pair.
      EXPECT_LE(target->rank, layer.rank)
          << layer.name << " -> " << dep << " would be an upward edge";
    }
  }
}

TEST(AnalyzeInclude, RealTreeLayersAreClean) {
  // The real src/cyclops/ tree must satisfy its own layer map. (The ctest
  // gate analyze_tree checks the full tree through the CLI; this keeps the
  // property unit-testable without the binary.)
  namespace fs = std::filesystem;
  std::vector<az::SourceFile> files;
  const fs::path root = fs::path(CYCLOPS_LINT_FIXTURE_DIR).parent_path().parent_path() /
                        "src" / "cyclops";
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".hpp" && ext != ".cpp") continue;
    files.push_back(az::SourceFile{entry.path().string(), slurp(entry.path().string())});
  }
  ASSERT_GT(files.size(), 40u);  // the whole engine tree, not a subset
  az::AnalyzeOptions opt;
  opt.jobs = 1;
  for (const az::Finding& f : az::analyze_files(files, opt)) {
    EXPECT_TRUE(f.rule != "include-layering" && f.rule != "include-cycle")
        << f.file << ":" << f.line << ": " << f.message;
  }
}

// --- suppression markers --------------------------------------------------

TEST(AnalyzeSuppression, SameLineAndLineAbove) {
  const std::string same_line =
      "long t = time(nullptr);  // cyclops-analyze: allow(determinism)\n";
  EXPECT_TRUE(az::analyze_file("x.cpp", same_line).empty());

  const std::string line_above =
      "// cyclops-analyze: allow(determinism)\n"
      "long t = time(nullptr);\n"
      "long u = time(nullptr);\n";
  const auto findings = az::analyze_file("x.cpp", line_above);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3);  // only the marker-adjacent line is covered

  // The retired marker spelling is not a marker and suppresses nothing.
  const std::string old_spelling =
      "long t = time(nullptr);  // cyclops-lint: allow(determinism)\n";
  const auto unsuppressed = az::analyze_file("x.cpp", old_spelling);
  ASSERT_EQ(unsuppressed.size(), 1u);
  EXPECT_EQ(unsuppressed[0].rule, "determinism");
}

TEST(AnalyzeSuppression, AnalyzeSpelledMarkerWorksToo) {
  // The marker is found on the raw line, so a block comment carries it too.
  const std::string body =
      "long t = time(nullptr);  /* cyclops-analyze: allow(determinism) */\n";
  EXPECT_TRUE(az::analyze_file("x.cpp", body).empty());
}

TEST(AnalyzeSuppression, UnknownRuleMarkerIsItselfAFinding) {
  // The deliberately-typoed marker in this string literal is visible to the
  // raw-line marker scan when the analyzer runs over this file, so the line
  // carries a real allow(bad-suppression) acknowledging it.
  const std::string body =  // cyclops-analyze: allow(bad-suppression)
      "long t = time(nullptr);  // cyclops-analyze: allow(determinsm)\n";
  const auto findings = az::analyze_file("x.cpp", body);
  // The typoed marker suppresses nothing AND is flagged as bad-suppression.
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "bad-suppression");
  EXPECT_EQ(findings[1].rule, "determinism");
}

TEST(AnalyzeSuppression, DocumentationPlaceholderIsIgnored) {
  // `allow(<rule>)` in prose must neither suppress nor fire bad-suppression:
  // `<` is not a rule-name character, so it is not a marker at all.
  const std::string body =
      "// suppress with: cyclops-analyze: allow(<rule>)\n"
      "int x = 0;\n";
  EXPECT_TRUE(az::analyze_file("x.cpp", body).empty());
}

TEST(AnalyzeSuppression, FrozenViewMarkerSuppresses) {
  const std::string body =
      "void f(const graph::GraphStore& view) {\n"
      "  // cyclops-analyze: allow(frozen-view)\n"
      "  view.clear();\n"
      "}\n";
  EXPECT_TRUE(az::analyze_file("x.cpp", body).empty());
}

// --- SARIF ----------------------------------------------------------------

TEST(AnalyzeSarif, GoldenRoundTrip) {
  // Byte-for-byte against the checked-in golden: key order, indentation,
  // and sort order are all part of the contract (CI diffs the artifact).
  const std::vector<az::Finding> findings = az::analyze_file(
      "tests/lint_fixtures/bad_frozen_view.cpp",
      slurp(fixture_path("bad_frozen_view.cpp")));
  EXPECT_EQ(az::to_sarif(findings), slurp(fixture_path("sarif_golden.json")));
}

TEST(AnalyzeSarif, ShapeCarriesSchemaRulesAndLocations) {
  std::vector<az::Finding> findings;
  findings.push_back(az::Finding{"/abs/checkout/src/cyclops/core/engine.hpp", 42,
                                 "determinism", "a \"quoted\" message"});
  const std::string s = az::to_sarif(findings);
  EXPECT_NE(s.find("\"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\""),
            std::string::npos);
  EXPECT_NE(s.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(s.find("\"ruleId\": \"determinism\""), std::string::npos);
  // Paths normalize repo-relative; JSON strings escape.
  EXPECT_NE(s.find("\"uri\": \"src/cyclops/core/engine.hpp\""), std::string::npos);
  EXPECT_NE(s.find("\"startLine\": 42"), std::string::npos);
  EXPECT_NE(s.find("a \\\"quoted\\\" message"), std::string::npos);
  // Every registered rule is described in the driver block.
  for (const az::RuleInfo& r : az::kRules) {
    EXPECT_NE(s.find("\"id\": \"" + std::string(r.id) + "\""), std::string::npos);
  }
}

TEST(AnalyzeSarif, EmptyRunIsValidJsonShape) {
  const std::string s = az::to_sarif({});
  EXPECT_NE(s.find("\"results\": [\n      ]"), std::string::npos);
}

// --- baselines ------------------------------------------------------------

TEST(AnalyzeBaseline, ParsesEntriesCommentsAndErrors) {
  const az::Baseline b = az::parse_baseline(
      "# a comment\n"
      "\n"
      "src/cyclops/core/engine.hpp:42: [determinism]\n"
      "  tests/test_sim.cpp:7: [outbox-outside-runtime]  \n"
      "not a baseline line\n");
  ASSERT_EQ(b.entries.size(), 2u);
  EXPECT_EQ(b.entries[0].path, "src/cyclops/core/engine.hpp");
  EXPECT_EQ(b.entries[0].line, 42);
  EXPECT_EQ(b.entries[0].rule, "determinism");
  EXPECT_EQ(b.entries[1].path, "tests/test_sim.cpp");
  ASSERT_EQ(b.parse_errors.size(), 1u);
  EXPECT_NE(b.parse_errors[0].find("line 5"), std::string::npos);
}

TEST(AnalyzeBaseline, FiltersByRepoRelativeSuffixAndReportsStale) {
  std::vector<az::Finding> findings;
  findings.push_back(az::Finding{"/ci/checkout/src/cyclops/core/engine.hpp", 42,
                                 "determinism", "m"});
  findings.push_back(az::Finding{"/ci/checkout/src/cyclops/core/engine.hpp", 43,
                                 "determinism", "m"});
  az::Baseline b = az::parse_baseline(
      "src/cyclops/core/engine.hpp:42: [determinism]\n"   // matches 42
      "src/cyclops/core/engine.hpp:99: [determinism]\n"); // stale
  const std::vector<az::Finding> rest = az::apply_baseline(findings, b);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].line, 43);
  const auto stale = az::stale_entries(b);
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0]->line, 99);
}

TEST(AnalyzeBaseline, WriteParseRoundTripCoversEverything) {
  const std::string path = fixture_path("bad_frozen_view.cpp");
  const std::vector<az::Finding> findings = az::analyze_file(path, slurp(path));
  ASSERT_FALSE(findings.empty());
  az::Baseline b = az::parse_baseline(az::write_baseline(findings));
  EXPECT_TRUE(b.parse_errors.empty());
  EXPECT_TRUE(az::apply_baseline(findings, b).empty());
  EXPECT_TRUE(az::stale_entries(b).empty());
}

// --- driver ---------------------------------------------------------------

TEST(AnalyzeDriver, FindingsAreIdenticalAcrossJobCounts) {
  std::vector<az::SourceFile> files;
  for (const char* name :
       {"bad_determinism.cpp", "bad_unordered_wire.cpp", "bad_raw_thread.cpp",
        "bad_narrowing.cpp", "bad_lock_across_wire.cpp",
        "bad_csr_outside_graph.cpp", "bad_outbox_escape.cpp",
        "bad_delta_escape.cpp", "bad_multiline_decls.cpp",
        "bad_lock_long_scope.cpp", "bad_frozen_view.cpp", "clean.cpp"}) {
    const std::string path = fixture_path(name);
    files.push_back(az::SourceFile{path, slurp(path)});
  }
  az::AnalyzeOptions serial, parallel;
  serial.jobs = 1;
  parallel.jobs = 4;
  const std::vector<az::Finding> a = az::analyze_files(files, serial);
  const std::vector<az::Finding> b = az::analyze_files(files, parallel);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].file, b[i].file);
    EXPECT_EQ(a[i].line, b[i].line);
    EXPECT_EQ(a[i].rule, b[i].rule);
    EXPECT_EQ(a[i].message, b[i].message);
  }
}

TEST(AnalyzeDriver, RepoRelativeNormalizesPrefixes) {
  EXPECT_EQ(az::repo_relative("/ci/checkout/src/cyclops/x.hpp"),
            "src/cyclops/x.hpp");
  EXPECT_EQ(az::repo_relative("src/cyclops/x.hpp"), "src/cyclops/x.hpp");
  EXPECT_EQ(az::repo_relative("tools/analyze/model.hpp"), "tools/analyze/model.hpp");
  EXPECT_EQ(az::repo_relative("../repo/tests/test_lint.cpp"),
            "tests/test_lint.cpp");
}

}  // namespace
