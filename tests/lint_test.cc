// Tests for tools/ddgms_lint: every rule must fire on a violating
// fixture and stay quiet on a conforming one, and the real src/ tree
// must pass clean (the same gate CI runs).

#include "ddgms_lint/lint.h"

#include <algorithm>
#include <string>
#include <vector>

#include "ddgms_lint/analyzer.h"
#include "ddgms_lint/tokenizer.h"
#include "gtest/gtest.h"

namespace ddgms::lint {
namespace {

std::vector<std::string> RulesOf(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  rules.reserve(findings.size());
  for (const Finding& f : findings) rules.push_back(f.rule);
  return rules;
}

TEST(StripTest, RemovesCommentsAndStringsButKeepsLines) {
  const std::string src =
      "int a; // std::mutex in a comment\n"
      "/* std::mutex\n"
      "   in a block */ int b;\n"
      "const char* s = \"std::mutex in a string\";\n"
      "char c = 'x';\n";
  const std::string stripped = StripCommentsAndStrings(src);
  EXPECT_EQ(stripped.find("mutex"), std::string::npos);
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'),
            std::count(src.begin(), src.end(), '\n'));
  EXPECT_NE(stripped.find("int a;"), std::string::npos);
  EXPECT_NE(stripped.find("int b;"), std::string::npos);
}

TEST(StripTest, RawStringLiteral) {
  const std::string src =
      "const char* s = R\"(std::lock_guard here)\"; int x;\n";
  const std::string stripped = StripCommentsAndStrings(src);
  EXPECT_EQ(stripped.find("lock_guard"), std::string::npos);
  EXPECT_NE(stripped.find("int x;"), std::string::npos);
}

TEST(NakedMutexTest, FlagsRawPrimitives) {
  SourceFile file{"warehouse/cache.h",
                  "#include <mutex>\n"
                  "class C {\n"
                  "  std::mutex mu_;\n"
                  "  void F() { std::lock_guard<std::mutex> l(mu_); }\n"
                  "  std::condition_variable_any cv_;\n"
                  "};\n"};
  std::vector<Finding> findings = CheckNakedMutex(file);
  ASSERT_EQ(findings.size(), 4u);  // mutex, lock_guard, mutex, condvar
  EXPECT_EQ(findings[0].rule, "naked-mutex");
  EXPECT_EQ(findings[0].line, 3u);
  EXPECT_EQ(findings[1].line, 4u);
  EXPECT_EQ(findings[3].line, 5u);
  EXPECT_NE(findings[3].message.find("condition_variable_any"),
            std::string::npos);
}

TEST(NakedMutexTest, SyncHeaderItselfIsExempt) {
  SourceFile file{"common/sync.h", "std::mutex mu_;\n"};
  EXPECT_TRUE(CheckNakedMutex(file).empty());
  // ...but a sync.h in another directory is not.
  SourceFile impostor{"etl/sync.h", "std::mutex mu_;\n"};
  EXPECT_EQ(CheckNakedMutex(impostor).size(), 1u);
}

TEST(NakedMutexTest, QuietOnAnnotatedWrappersAndProse) {
  SourceFile file{"common/metrics.cc",
                  "// prefer std::mutex? no: see common/sync.h\n"
                  "#include \"common/sync.h\"\n"
                  "void F() { MutexLock lock(mu_); }\n"};
  EXPECT_TRUE(CheckNakedMutex(file).empty());
}

TEST(HeaderGuardTest, AcceptsPathDerivedGuard) {
  SourceFile file{"common/metrics.h",
                  "#ifndef DDGMS_COMMON_METRICS_H_\n"
                  "#define DDGMS_COMMON_METRICS_H_\n"
                  "#endif  // DDGMS_COMMON_METRICS_H_\n"};
  EXPECT_TRUE(CheckHeaderGuard(file, file.path).empty());
}

TEST(HeaderGuardTest, FlagsWrongName) {
  SourceFile file{"common/metrics.h",
                  "#ifndef DDGMS_METRICS_H\n"
                  "#define DDGMS_METRICS_H\n"
                  "#endif\n"};
  std::vector<Finding> findings = CheckHeaderGuard(file, file.path);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "header-guard");
  EXPECT_NE(findings[0].message.find("DDGMS_COMMON_METRICS_H_"),
            std::string::npos);
}

TEST(HeaderGuardTest, FlagsMissingGuardAndPragmaOnce) {
  SourceFile missing{"etl/cleaner.h", "class Cleaner {};\n"};
  std::vector<Finding> findings = CheckHeaderGuard(missing, missing.path);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("missing include guard"),
            std::string::npos);

  SourceFile pragma{"etl/cleaner.h", "#pragma once\nclass Cleaner {};\n"};
  findings = CheckHeaderGuard(pragma, pragma.path);
  // #pragma once plus the missing guard itself.
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_NE(findings[0].message.find("#pragma once"), std::string::npos);
}

TEST(HeaderGuardTest, FlagsMismatchedDefine) {
  SourceFile file{"mdx/ast.h",
                  "#ifndef DDGMS_MDX_AST_H_\n"
                  "#define DDGMS_MDX_AST_H\n"
                  "#endif\n"};
  std::vector<Finding> findings = CheckHeaderGuard(file, file.path);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("does not match #ifndef"),
            std::string::npos);
}

TEST(BannedCallTest, FlagsRandAndStrtok) {
  SourceFile file{"mining/clustering.cc",
                  "int a = rand();\n"
                  "int b = std::rand();\n"
                  "char* t = strtok(buf, \",\");\n"};
  std::vector<Finding> findings = CheckBannedCalls(file);
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].rule, "banned-call");
  EXPECT_NE(findings[0].message.find("Rng"), std::string::npos);
  EXPECT_EQ(findings[2].line, 3u);
}

TEST(BannedCallTest, QuietOnLookalikes) {
  SourceFile file{"mining/clustering.cc",
                  "int strand(int);\n"            // different identifier
                  "int x = strand(1);\n"          // call to it
                  "int y = rng.rand();\n"         // member
                  "int z = mylib::rand();\n"      // other namespace
                  "// rand() in a comment\n"
                  "const char* s = \"rand()\";\n"  // in a string
                  "int rando = 3;\n"};
  EXPECT_TRUE(CheckBannedCalls(file).empty());
}

TEST(IncludeCycleTest, FlagsDirectoryCycle) {
  std::vector<SourceFile> files = {
      {"alpha/a.h", "#include \"beta/b.h\"\n"},
      {"beta/b.h", "#include \"gamma/c.h\"\n"},
      {"gamma/c.h", "#include \"alpha/a.h\"\n"},
  };
  std::vector<Finding> findings = CheckIncludeCycles(files);
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings[0].rule, "include-cycle");
  EXPECT_NE(findings[0].message.find("alpha"), std::string::npos);
  EXPECT_NE(findings[0].message.find("->"), std::string::npos);
}

TEST(IncludeCycleTest, QuietOnDagAndSelfIncludes) {
  std::vector<SourceFile> files = {
      {"common/status.h", "#include <string>\n"},
      {"common/result.h", "#include \"common/status.h\"\n"},
      {"table/value.cc", "#include \"table/value.h\"\n"
                         "#include \"common/status.h\"\n"},
      {"etl/pipeline.cc", "#include \"table/table.h\"\n"},
  };
  EXPECT_TRUE(CheckIncludeCycles(files).empty());
}

TEST(InstrumentNameTest, AcceptsConformingNames) {
  SourceFile file{
      "olap/cube.cc",
      "void F() {\n"
      "  DDGMS_METRIC_INC(\"ddgms.olap.cache.hits\");\n"
      "  DDGMS_METRIC_INC(\"ddgms.olap.ops:dice\");\n"
      "  registry.GetCounter(\"ddgms.retry.attempts:\" + op);\n"
      "  TraceSpan span(\"olap.cube.execute\",\n"
      "                 \"ddgms.olap.execute_latency_us\");\n"
      "  olap::Stage scan(plan, \"olap.cube.scan\");\n"
      "  DDGMS_LOG_WARN(\"quarantine.row\");\n"
      "  LogEvent slow(LogLevel::kWarn, \"mdx.slow_query\");\n"
      "  ScopedAccounting accounting(\"olap.cube\");\n"
      "  meter.GetPool(\"other\");\n"
      "  DDGMS_FAULT_POINT(\"persist.commit\");\n"
      "}\n"};
  std::vector<Finding> findings = CheckInstrumentNames(file);
  for (const Finding& f : findings) ADD_FAILURE() << f.ToString();
}

TEST(InstrumentNameTest, FlagsBadNames) {
  SourceFile file{
      "olap/cube.cc",
      "void F() {\n"
      "  DDGMS_METRIC_INC(\"olap.cache.hits\");\n"           // no ddgms.
      "  DDGMS_METRIC_INC(\"ddgms.nolayer.hits\");\n"        // bad layer
      "  DDGMS_METRIC_INC(\"ddgms.olap\");\n"                // too short
      "  TraceSpan span(\"fault.injected\");\n"              // bad layer
      "  DDGMS_LOG_WARN(\"olap.CamelCase\");\n"              // bad seg
      "  TraceSpan span(\"olap.a.b.c.d\");\n"                // too deep
      "  ScopedAccounting accounting(\"olap.cube:hot\");\n"  // ':' pool
      // Histogram names follow the metric grammar.
      "  TraceSpan span(\"olap.rollup\", \"olap.rollup_us\");\n"
      "  olap::Stage s(&plan, \"mdx.parse\", \"ddgms.mdx\");\n"
      "}\n"};
  std::vector<Finding> findings = CheckInstrumentNames(file);
  EXPECT_EQ(findings.size(), 9u);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "instrument-name");
  }
}

TEST(InstrumentNameTest, AcceptsServerAndQueriesLayers) {
  SourceFile file{
      "common/http.cc",
      "void F() {\n"
      "  DDGMS_METRIC_INC(\"ddgms.server.requests\");\n"
      "  DDGMS_METRIC_GAUGE_SET(\"ddgms.queries.active\", 1.0);\n"
      "  TraceSpan span(\"server.request\",\n"
      "                 \"ddgms.server.request_latency_us\");\n"
      "  DDGMS_LOG_WARN(\"queries.watchdog_start\");\n"
      "  DDGMS_FAULT_POINT(\"server.accept\");\n"
      "}\n"};
  std::vector<Finding> findings = CheckInstrumentNames(file);
  for (const Finding& f : findings) ADD_FAILURE() << f.ToString();
}

TEST(InstrumentNameTest, AcceptsSloAndAnomalyLayers) {
  SourceFile file{
      "common/slo.cc",
      "void F() {\n"
      "  DDGMS_METRIC_INC(\"ddgms.slo.transitions\");\n"
      "  DDGMS_METRIC_INC(\"ddgms.slo.firing_total\");\n"
      "  DDGMS_METRIC_INC(\"ddgms.anomaly.detections\");\n"
      "  DDGMS_METRIC_INC(\"ddgms.anomaly.scans\");\n"
      "  DDGMS_LOG_WARN(\"slo.firing\");\n"
      "  DDGMS_LOG_WARN(\"anomaly.detected\");\n"
      "}\n"};
  std::vector<Finding> findings = CheckInstrumentNames(file);
  for (const Finding& f : findings) ADD_FAILURE() << f.ToString();
}

TEST(EndpointPathTest, AcceptsConformingRoutes) {
  SourceFile file{
      "server/observability.cc",
      "void F(HttpServer& s, HttpHandler h) {\n"
      "  s.Handle(\"GET\", \"/\", h);\n"
      "  s.Handle(\"GET\", \"/statusz\", h);\n"
      "  s.Handle(\"GET\", \"/healthz\", h);\n"
      "  s.Handle(\"GET\", \"/debug/queryz\", h);\n"
      "  s.Handle(\"POST\", \"/metrics\", h);\n"  // sanctioned exception
      "}\n"};
  std::vector<Finding> findings = CheckEndpointPaths(file);
  for (const Finding& f : findings) ADD_FAILURE() << f.ToString();
}

TEST(EndpointPathTest, FlagsBadRoutes) {
  SourceFile file{
      "server/observability.cc",
      "void F(HttpServer& s, HttpHandler h) {\n"
      "  s.Handle(\"get\", \"/statusz\", h);\n"    // lower-case method
      "  s.Handle(\"GET\", \"statusz\", h);\n"     // no leading slash
      "  s.Handle(\"GET\", \"/statusz/\", h);\n"   // trailing slash
      "  s.Handle(\"GET\", \"/Statusz\", h);\n"    // upper-case segment
      "  s.Handle(\"GET\", \"/status\", h);\n"     // no trailing 'z'
      "}\n"};
  std::vector<Finding> findings = CheckEndpointPaths(file);
  EXPECT_EQ(findings.size(), 5u);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "endpoint-path");
  }
}

TEST(EndpointPathTest, IgnoresDynamicArgsAndOtherHandles) {
  SourceFile file{
      "server/observability.cc",
      "// s.Handle(\"GET\", \"/bad\") in prose is not a route.\n"
      "void F(HttpServer& s, HttpHandler h, std::string p) {\n"
      "  s.Handle(\"GET\", p, h);\n"           // dynamic path
      "  s.Handle(method, \"/whoz\", h);\n"    // dynamic method
      "  file.Handle(42);\n"                   // unrelated Handle()
      "  s.PreHandle(\"GET\", \"/bad\", h);\n"  // not the Handle token
      "}\n"};
  EXPECT_TRUE(CheckEndpointPaths(file).empty());
}

TEST(InstrumentNameTest, IgnoresCommentsAndDynamicNames) {
  SourceFile file{
      "common/faults.h",
      "// Use DDGMS_FAULT_POINT(\"name\") to add a fault point.\n"
      "#define DDGMS_FAULT_POINT(name) Hit(name)\n"
      "void F(const std::string& n) { registry.GetCounter(n); }\n"};
  EXPECT_TRUE(CheckInstrumentNames(file).empty());
}

TEST(LintSourcesTest, AggregatesAcrossRules) {
  std::vector<SourceFile> files = {
      {"alpha/a.h",
       "#ifndef WRONG_GUARD_H_\n"
       "#define WRONG_GUARD_H_\n"
       "#include \"beta/b.h\"\n"
       "std::mutex mu;\n"
       "int r = rand();\n"
       "#endif\n"},
      {"beta/b.h",
       "#ifndef DDGMS_BETA_B_H_\n"
       "#define DDGMS_BETA_B_H_\n"
       "#include \"alpha/a.h\"\n"
       "#endif\n"},
  };
  std::vector<std::string> rules = RulesOf(LintSources(files));
  EXPECT_NE(std::find(rules.begin(), rules.end(), "naked-mutex"),
            rules.end());
  EXPECT_NE(std::find(rules.begin(), rules.end(), "banned-call"),
            rules.end());
  EXPECT_NE(std::find(rules.begin(), rules.end(), "header-guard"),
            rules.end());
  EXPECT_NE(std::find(rules.begin(), rules.end(), "include-cycle"),
            rules.end());
}

// The gate itself: the real src/ tree must pass every textual rule.
// (That every header compiles standalone is checked by the build,
// which compiles one stub TU per src/ header.)
TEST(SelfCheckTest, RealSourceTreeIsClean) {
  LintOptions options;
  options.src_root = std::string(DDGMS_SOURCE_ROOT) + "/src";
  Result<std::vector<Finding>> result = RunLint(options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const Finding& f : result.value()) {
    ADD_FAILURE() << f.ToString();
  }
}

TEST(SelfCheckTest, RunLintRejectsMissingRoot) {
  LintOptions options;
  options.src_root = "/nonexistent/ddgms/src";
  Result<std::vector<Finding>> result = RunLint(options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
}

// ---------------------------------------------------------------------
// Tokenizer: the shared lexical layer every pass consumes.
// ---------------------------------------------------------------------

std::vector<std::string> TextsOf(const TokenFile& tf) {
  std::vector<std::string> out;
  out.reserve(tf.tokens.size());
  for (const Token& t : tf.tokens) out.push_back(t.text);
  return out;
}

TEST(TokenizerTest, RawStringsAreSingleStringTokens) {
  // The close-paren inside the raw body must not terminate the
  // literal: only the matching )delim" does.
  TokenFile tf = Tokenize(
      "const char* s = R\"x(a \"quote\" and )\" inside)x\"; int z;\n");
  std::vector<std::string> texts = TextsOf(tf);
  auto it = std::find(texts.begin(), texts.end(),
                      "a \"quote\" and )\" inside");
  ASSERT_NE(it, texts.end());
  EXPECT_EQ(tf.tokens[static_cast<size_t>(it - texts.begin())].kind,
            TokenKind::kString);
  EXPECT_NE(std::find(texts.begin(), texts.end(), "z"), texts.end());
}

TEST(TokenizerTest, LineContinuationsSpliceButKeepStartLine) {
  // `lock_\<newline>guard` is ONE identifier starting on line 2.
  TokenFile tf = Tokenize(
      "int a;\n"
      "std::lock_\\\n"
      "guard x;\n");
  auto it = std::find_if(tf.tokens.begin(), tf.tokens.end(),
                         [](const Token& t) {
                           return t.text == "lock_guard";
                         });
  ASSERT_NE(it, tf.tokens.end());
  EXPECT_EQ(it->kind, TokenKind::kIdentifier);
  EXPECT_EQ(it->line, 2u);
  // The token after the spliced identifier is back on line 3.
  auto x = std::find_if(tf.tokens.begin(), tf.tokens.end(),
                        [](const Token& t) { return t.text == "x"; });
  ASSERT_NE(x, tf.tokens.end());
  EXPECT_EQ(x->line, 3u);
}

TEST(TokenizerTest, BlockCommentsWithEmbeddedOpeners) {
  // An embedded "/*" must not restart the comment (C++ block comments
  // do not nest); the first "*/" closes it.
  TokenFile tf = Tokenize("int a; /* one /* still one */ int b;\n");
  std::vector<std::string> texts = TextsOf(tf);
  EXPECT_NE(std::find(texts.begin(), texts.end(), "a"), texts.end());
  EXPECT_NE(std::find(texts.begin(), texts.end(), "b"), texts.end());
  EXPECT_EQ(std::find(texts.begin(), texts.end(), "one"), texts.end());
  EXPECT_EQ(std::find(texts.begin(), texts.end(), "still"), texts.end());
}

TEST(TokenizerTest, MultiCharPunctAndPreprocessorFlag) {
  TokenFile tf = Tokenize(
      "#include \"common/sync.h\"\n"
      "a->b; std::mutex m;\n");
  std::vector<std::string> texts = TextsOf(tf);
  EXPECT_NE(std::find(texts.begin(), texts.end(), "->"), texts.end());
  EXPECT_NE(std::find(texts.begin(), texts.end(), "::"), texts.end());
  // The include target is a string token carrying the pp flag; code
  // tokens on line 2 are not pp.
  bool saw_include_target = false;
  for (const Token& t : tf.tokens) {
    if (t.kind == TokenKind::kString && t.text == "common/sync.h") {
      saw_include_target = true;
      EXPECT_TRUE(t.pp);
    }
    if (t.text == "mutex") {
      EXPECT_FALSE(t.pp);
    }
  }
  EXPECT_TRUE(saw_include_target);
}

TEST(TokenizerTest, NolintMarkersPerLineAndPerRule) {
  TokenFile tf = Tokenize(
      "int a;  // NOLINT(ddgms-hot-path-alloc)\n"
      "int b;  // NOLINT\n"
      "int c;\n");
  EXPECT_TRUE(tf.IsSuppressed(1, "hot-path-alloc"));
  EXPECT_FALSE(tf.IsSuppressed(1, "naked-mutex"));
  EXPECT_TRUE(tf.IsSuppressed(2, "hot-path-alloc"));  // bare NOLINT
  EXPECT_TRUE(tf.IsSuppressed(2, "naked-mutex"));
  EXPECT_FALSE(tf.IsSuppressed(3, "hot-path-alloc"));
}

// ---------------------------------------------------------------------
// Pass 1: lock-order. The canonical inversion — A then B in one TU,
// B then A through a same-TU helper in another — must surface exactly
// one cycle carrying BOTH witness acquisition paths.
// ---------------------------------------------------------------------

TEST(LockOrderTest, TwoTuInversionReportsBothWitnessPaths) {
  std::vector<FileFacts> facts = {
      ExtractFileFacts({"alpha/a.cc",
                        "class Pair {\n"
                        " public:\n"
                        "  void TakeBoth() {\n"
                        "    MutexLock l1(a_mu_);\n"
                        "    MutexLock l2(b_mu_);\n"
                        "  }\n"
                        "};\n"}),
      ExtractFileFacts({"beta/b.cc",
                        "class Pair {\n"
                        " public:\n"
                        "  void HelperTakesA() { MutexLock l(a_mu_); }\n"
                        "  void TakeReversed() {\n"
                        "    MutexLock l(b_mu_);\n"
                        "    HelperTakesA();\n"
                        "  }\n"
                        "};\n"})};
  std::vector<Finding> findings = CheckLockOrder(facts);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "lock-order");
  const std::string& m = findings[0].message;
  // Both edges of the cycle carry a witness path, and the witnesses
  // name the class-qualified lock identities.
  EXPECT_NE(m.find("path 1:"), std::string::npos) << m;
  EXPECT_NE(m.find("path 2:"), std::string::npos) << m;
  EXPECT_NE(m.find("Pair::a_mu_"), std::string::npos) << m;
  EXPECT_NE(m.find("Pair::b_mu_"), std::string::npos) << m;
  // The reversed path was reached through the helper call.
  EXPECT_NE(m.find("TakeReversed"), std::string::npos) << m;
}

TEST(LockOrderTest, ConsistentOrderAndScopedReleaseAreQuiet) {
  // Same order in both TUs, and a re-acquire after the first lock's
  // scope closed — neither is an inversion.
  std::vector<FileFacts> facts = {
      ExtractFileFacts({"alpha/a.cc",
                        "class Pair {\n"
                        "  void F() {\n"
                        "    MutexLock l1(a_mu_);\n"
                        "    MutexLock l2(b_mu_);\n"
                        "  }\n"
                        "  void G() {\n"
                        "    { MutexLock l(b_mu_); }\n"
                        "    MutexLock l(a_mu_);\n"
                        "  }\n"
                        "};\n"})};
  EXPECT_TRUE(CheckLockOrder(facts).empty());
}

TEST(LockOrderTest, FileScopedLocksDoNotUnifyAcrossTus) {
  // Without a class, lock ids are file-scoped: a_mu_ in alpha/ and
  // a_mu_ in beta/ are different locks, so no cycle exists.
  std::vector<FileFacts> facts = {
      ExtractFileFacts({"alpha/a.cc",
                        "void TakeBoth() {\n"
                        "  MutexLock l1(a_mu_);\n"
                        "  MutexLock l2(b_mu_);\n"
                        "}\n"}),
      ExtractFileFacts({"beta/b.cc",
                        "void TakeReversed() {\n"
                        "  MutexLock l(b_mu_);\n"
                        "  MutexLock l2(a_mu_);\n"
                        "}\n"})};
  EXPECT_TRUE(CheckLockOrder(facts).empty());
}

TEST(LockOrderTest, GraphExposesHeldAcquiredEdges) {
  std::vector<FileFacts> facts = {
      ExtractFileFacts({"alpha/a.cc",
                        "class Pair {\n"
                        "  void F() {\n"
                        "    MutexLock l1(a_mu_);\n"
                        "    MutexLock l2(b_mu_);\n"
                        "  }\n"
                        "};\n"})};
  std::vector<LockEdge> edges = BuildLockOrderGraph(facts);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].held, "Pair::a_mu_");
  EXPECT_EQ(edges[0].acquired, "Pair::b_mu_");
  EXPECT_NE(edges[0].witness.find("alpha/a.cc"), std::string::npos);
}

// ---------------------------------------------------------------------
// Pass 2: hot-path hygiene under DDGMS_HOT.
// ---------------------------------------------------------------------

size_t CountRuleIn(const std::vector<Finding>& findings,
                   const std::string& rule) {
  size_t n = 0;
  for (const Finding& f : findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

TEST(HotPathTest, FlagsAllocationsOnlyInHotFunctions) {
  FileFacts facts = ExtractFileFacts(
      {"olap/kernel.cc",
       "DDGMS_HOT void Accumulate(Rows& rows) {\n"
       "  auto p = std::make_unique<Row>();\n"
       "  Row* q = new Row();\n"
       "  std::string key;\n"
       "  out.push_back(key);\n"
       "}\n"
       "void Cold(Rows& rows) {\n"
       "  auto p = std::make_unique<Row>();\n"
       "  std::string key;\n"
       "}\n"});
  EXPECT_EQ(CountRuleIn(facts.findings, "hot-path-alloc"), 4u);
  for (const Finding& f : facts.findings) {
    if (f.rule == "hot-path-alloc") {
      EXPECT_LE(f.line, 6u);
    }
  }
}

TEST(HotPathTest, FlagsValueBoxingInHotFunctions) {
  FileFacts facts = ExtractFileFacts(
      {"olap/kernel.cc",
       "DDGMS_HOT size_t Scan(const Column& col, Acc* acc) {\n"
       "  acc->Add(col.GetValue(0));\n"
       "  acc->Add(Value::Int(1));\n"
       "  acc->Add(Value::Str(name));\n"
       "  if (col.empty()) return Value::Null().is_null();\n"
       "  acc->AddNumeric(col.doubles()[0]);\n"
       "  return 0;\n"
       "}\n"
       "void AddBoxed(const Column& col, Acc* acc) {\n"
       "  acc->Add(col.GetValue(0));\n"
       "}\n"});
  EXPECT_EQ(CountRuleIn(facts.findings, "hot-path-alloc"), 3u);
  for (const Finding& f : facts.findings) {
    if (f.rule == "hot-path-alloc") {
      EXPECT_GE(f.line, 2u);
      EXPECT_LE(f.line, 4u);
      EXPECT_NE(f.message.find("Value boxing"), std::string::npos);
    }
  }
}

TEST(HotPathTest, ReserveAndNolintSanctionAppends) {
  FileFacts facts = ExtractFileFacts(
      {"olap/kernel.cc",
       "DDGMS_HOT void Accumulate(Rows& rows) {\n"
       "  out.reserve(rows.size());\n"
       "  for (auto& r : rows) {\n"
       "    out.push_back(r);\n"
       "    std::string k = r.key();  // NOLINT(ddgms-hot-path-alloc)\n"
       "  }\n"
       "}\n"});
  EXPECT_EQ(CountRuleIn(facts.findings, "hot-path-alloc"), 0u);
}

// ---------------------------------------------------------------------
// Pass 3: layer DAG from real include edges.
// ---------------------------------------------------------------------

TEST(LayerDagTest, FlagsUpwardEdgeAndUnregisteredModule) {
  std::vector<FileFacts> facts = {
      ExtractFileFacts({"table/value.cc", "#include \"olap/cube.h\"\n"}),
      ExtractFileFacts(
          {"newmod/thing.cc", "#include \"common/status.h\"\n"}),
      ExtractFileFacts(
          {"olap/cube.cc", "#include \"table/table.h\"\n"})};
  std::vector<Finding> findings = CheckLayerDag(facts, RepoLayerGraph());
  EXPECT_EQ(CountRuleIn(findings, "layer-dag"), 2u);
  bool saw_upward = false;
  bool saw_unregistered = false;
  for (const Finding& f : findings) {
    if (f.file == "table/value.cc") saw_upward = true;
    if (f.file == "newmod/thing.cc") saw_unregistered = true;
  }
  EXPECT_TRUE(saw_upward);
  EXPECT_TRUE(saw_unregistered);
}

// ---------------------------------------------------------------------
// Suppression: baseline round trip and output formats.
// ---------------------------------------------------------------------

TEST(BaselineTest, KeyIsLineNumberIndependent) {
  Finding at42{"mdx/executor.cc", 42, "hot-path-alloc", "boxed Value"};
  Finding at99{"mdx/executor.cc", 99, "hot-path-alloc", "boxed Value"};
  EXPECT_EQ(BaselineKey(at42), BaselineKey(at99));
  std::set<std::string> baseline =
      ParseBaseline("# justified: see DESIGN.md\n" + BaselineKey(at42) +
                    "\n\n");
  EXPECT_TRUE(ApplyBaseline({at99}, baseline).empty());
  // A different rule at the same site survives.
  Finding other{"mdx/executor.cc", 42, "naked-mutex", "boxed Value"};
  EXPECT_EQ(ApplyBaseline({other}, baseline).size(), 1u);
}

TEST(FormatTest, JsonAndSarifCarryEveryFinding) {
  std::vector<Finding> findings = {
      {"olap/cube.cc", 7, "hot-path-alloc", "operator new in hot path"},
      {"table/value.cc", 3, "layer-dag", "table may not include olap"}};
  std::string json = FormatFindings(findings, OutputFormat::kJson);
  EXPECT_NE(json.find("\"olap/cube.cc\""), std::string::npos);
  EXPECT_NE(json.find("\"hot-path-alloc\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":7"), std::string::npos);
  std::string sarif = FormatFindings(findings, OutputFormat::kSarif);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"ddgms-layer-dag\""),
            std::string::npos);
  EXPECT_NE(sarif.find("table/value.cc"), std::string::npos);
}

TEST(ParseCacheTest, FactsRoundTripThroughSerialization) {
  SourceFile file{"alpha/a.cc",
                  "#include \"common/sync.h\"\n"
                  "class Pair {\n"
                  "  void F() {\n"
                  "    MutexLock l1(a_mu_);\n"
                  "    MutexLock l2(b_mu_);\n"
                  "  }\n"
                  "};\n"};
  std::vector<FileFacts> facts = {ExtractFileFacts(file)};
  std::map<std::string, FileFacts> loaded =
      DeserializeFacts(SerializeFacts(facts));
  ASSERT_EQ(loaded.count("alpha/a.cc"), 1u);
  const FileFacts& back = loaded["alpha/a.cc"];
  EXPECT_EQ(back.content_hash, facts[0].content_hash);
  ASSERT_EQ(back.includes.size(), 1u);
  EXPECT_EQ(back.includes[0].first, "common/sync.h");
  // The deserialized facts drive the same lock-order analysis.
  std::vector<LockEdge> edges = BuildLockOrderGraph({back});
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].held, "Pair::a_mu_");
}

// ---------------------------------------------------------------------
// Drivers: in-memory aggregation and the real-tree analyzer gate.
// ---------------------------------------------------------------------

TEST(AnalyzeSourcesTest, AggregatesWholeProgramPasses) {
  std::vector<SourceFile> files = {
      {"table/value.cc",
       "#include \"olap/cube.h\"\n"
       "DDGMS_HOT void F() { std::string s; }\n"}};
  std::vector<Finding> findings =
      AnalyzeSources(files, RepoLayerGraph());
  EXPECT_EQ(CountRuleIn(findings, "layer-dag"), 1u);
  EXPECT_EQ(CountRuleIn(findings, "hot-path-alloc"), 1u);
}

// The analyzer gate: every pass over the real src/ tree with the
// checked-in baseline must be clean — the same invariant CI enforces
// from the ddgms_analyzer CTest.
TEST(SelfCheckTest, AnalyzerPassesOverRealTreeAreClean) {
  AnalyzerOptions options;
  options.src_root = std::string(DDGMS_SOURCE_ROOT) + "/src";
  options.baseline_path = std::string(DDGMS_SOURCE_ROOT) +
                          "/tools/ddgms_lint/baseline.txt";
  Result<AnalyzerReport> report = RunAnalyzer(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->files_analyzed, 100u);
  for (const Finding& f : report->findings) {
    ADD_FAILURE() << f.ToString();
  }
}

}  // namespace
}  // namespace ddgms::lint
