#ifndef DDGMS_TOOLS_DDGMS_LINT_LINT_H_
#define DDGMS_TOOLS_DDGMS_LINT_LINT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "ddgms_lint/tokenizer.h"

namespace ddgms::lint {

/// -------------------------------------------------------------------
/// ddgms_lint
///
/// Repo-specific static rules the compiler cannot enforce, run in CI
/// and as a CTest over the full src/ tree. The rules are deliberately
/// conventions-of-THIS-repo, complementing -Wthread-safety (clang) and
/// [[nodiscard]] (everywhere):
///
///   naked-mutex        std::mutex / std::lock_guard / std::unique_lock
///                      / std::condition_variable outside common/sync.h
///                      — all locking must go through the annotated
///                      wrappers so thread-safety analysis sees it.
///   include-cycle      #include dependencies between top-level module
///                      directories (common, table, etl, ...) must form
///                      a DAG matching the CMake link graph.
///   header-guard       every header uses an include guard named
///                      DDGMS_<PATH>_H_ (no #pragma once; the repo
///                      standardises on guards).
///   banned-call        rand/srand/strtok/gets/tmpnam — non-reentrant
///                      or non-deterministic C calls with sanctioned
///                      repo alternatives (Rng, strings.h helpers).
///   instrument-name    every literal metric / trace-span / log-event /
///                      resource-pool / fault-point name follows the
///                      dotted "layer.noun[.verb]" convention against
///                      the registered layer list (metrics additionally
///                      carry the "ddgms." prefix and may end in a
///                      ":detail" variant) — so dashboards can group by
///                      layer and names stay greppable.
///   endpoint-path      literal HTTP routes registered via Handle()
///                      use an upper-case method and a lowercase path
///                      whose final segment ends in 'z' (/statusz,
///                      /healthz, ... — /metrics is the sanctioned
///                      Prometheus exception), keeping the external
///                      debug surface uniform and predictable.
///
/// Each rule is a pure function over in-memory sources so tests can
/// feed violating fixtures without touching the filesystem. That every
/// header under src/ compiles on its own is checked by the build, not
/// here: tools/ddgms_lint/CMakeLists.txt compiles one stub TU per
/// header.
/// -------------------------------------------------------------------

/// One rule violation.
struct Finding {
  /// Path as given to the checker (repo-relative in CI output).
  std::string file;
  /// 1-based line; 0 for file- or graph-level findings.
  size_t line = 0;
  /// Stable rule id ("naked-mutex", "include-cycle", ...).
  std::string rule;
  std::string message;

  /// "file:line: [rule] message" (compiler-style, clickable).
  std::string ToString() const;
};

/// One source file, by path and content (content may come from disk or
/// from a test fixture).
struct SourceFile {
  std::string path;
  std::string content;
};

/// Replaces the bodies of comments, string literals (including raw
/// strings) and character literals with spaces, preserving newlines —
/// so token rules never fire on prose or quoted text but line numbers
/// still match the original file. Exposed for tests.
std::string StripCommentsAndStrings(const std::string& src);

/// naked-mutex: flags std:: synchronization primitives anywhere except
/// common/sync.h. `path` is matched on its trailing components.
std::vector<Finding> CheckNakedMutex(const SourceFile& file);

/// Token-stream variants of the textual rules. The SourceFile overloads
/// above tokenize internally; these take a pre-built TokenFile so the
/// analyzer can tokenize each file exactly once and fan it out to every
/// rule. NOLINT suppression is NOT applied here — the analyzer applies
/// it after merging (the legacy LintSources path stays unsuppressed so
/// fixture counts are stable).
std::vector<Finding> CheckNakedMutexTokens(const std::string& path,
                                           const TokenFile& tf);
std::vector<Finding> CheckHeaderGuardTokens(const std::string& path,
                                            const TokenFile& tf,
                                            const std::string& rel_path);
std::vector<Finding> CheckBannedCallsTokens(const std::string& path,
                                            const TokenFile& tf);
std::vector<Finding> CheckInstrumentNamesTokens(const std::string& path,
                                                const TokenFile& tf);
std::vector<Finding> CheckEndpointPathsTokens(const std::string& path,
                                              const TokenFile& tf);

/// header-guard: .h files must open with #ifndef/#define of the guard
/// derived from `rel_path` (path under src/, e.g. "common/metrics.h"
/// -> DDGMS_COMMON_METRICS_H_) and must not use #pragma once.
std::vector<Finding> CheckHeaderGuard(const SourceFile& file,
                                      const std::string& rel_path);

/// banned-call: flags calls to non-reentrant / non-deterministic C
/// functions (rand, srand, strtok, gets, tmpnam). Qualified calls to
/// other namespaces (foo::rand) and member accesses (obj.rand()) are
/// not flagged; std::rand is.
std::vector<Finding> CheckBannedCalls(const SourceFile& file);

/// instrument-name: extracts literal instrument names from call sites
/// (DDGMS_METRIC_*, GetCounter/GetGauge/GetHistogram, TraceSpan and
/// olap::Stage with the span name and then an optional histogram name,
/// DDGMS_LOG_*, LogEvent, ScopedAccounting, GetPool, DDGMS_FAULT_POINT)
/// and validates them:
///   metrics      ddgms.<layer>.<seg>[.<seg>][:detail]
///   everything else      <layer>[.<seg>[.<seg>]]
/// where <layer> must be on the registered list (see kInstrumentLayers
/// in lint.cc) and segments are lower_snake_case. Dynamic names (a
/// variable argument) are not checked; a literal ending in ':' is a
/// dynamic-detail prefix and validates up to the colon.
std::vector<Finding> CheckInstrumentNames(const SourceFile& file);

/// endpoint-path: extracts literal (method, path) pairs from Handle()
/// call sites and validates them: the method must be upper-case; the
/// path must be "/" or lowercase '/'-separated lower_snake_case
/// segments whose final segment ends in 'z' ("/statusz", "/queryz");
/// "/metrics" is allowed as the well-known Prometheus scrape path.
/// Dynamic arguments are not checked.
std::vector<Finding> CheckEndpointPaths(const SourceFile& file);

/// include-cycle: builds the directed graph of top-level module
/// directories from `#include "mod/..."` lines (e.g. src/table/x.cc
/// including "common/status.h" adds table -> common) and reports every
/// cycle found. Paths must be given relative to the src root
/// ("table/value.cc").
std::vector<Finding> CheckIncludeCycles(
    const std::vector<SourceFile>& files);

/// Runs every textual rule over `files` (paths relative to the src
/// root). This is what both the CLI and the self-check test use.
std::vector<Finding> LintSources(const std::vector<SourceFile>& files);

struct LintOptions {
  /// Root of the tree to lint (the repo's src/ directory).
  std::string src_root;
};

/// Loads every .h/.cc under src_root and runs all rules. Status error
/// when src_root cannot be read; findings are NOT an error — an empty
/// vector means the tree is clean.
Result<std::vector<Finding>> RunLint(const LintOptions& options);

}  // namespace ddgms::lint

#endif  // DDGMS_TOOLS_DDGMS_LINT_LINT_H_
