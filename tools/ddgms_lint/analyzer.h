#ifndef DDGMS_TOOLS_DDGMS_LINT_ANALYZER_H_
#define DDGMS_TOOLS_DDGMS_LINT_ANALYZER_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "ddgms_lint/lint.h"
#include "ddgms_lint/tokenizer.h"

namespace ddgms::lint {

/// -------------------------------------------------------------------
/// ddgms_analyzer — multi-pass static analysis over the token stream
///
/// The analyzer grows ddgms_lint from per-rule text scans into a
/// pipeline with a shared shape:
///
///   tokenize ─► ExtractFileFacts (per file, cacheable)
///            ─► per-file rules (naked-mutex, banned-call, guards,
///               instrument-name, endpoint-path, hot-path hygiene)
///            ─► whole-program passes over the combined facts
///               (lock-order graph, layer DAG)
///            ─► suppression (// NOLINT markers, baseline file)
///            ─► text | json | sarif output
///
/// Per-file extraction is pure and keyed by content hash, so the
/// parse cache can skip retokenizing unchanged files across runs (the
/// CI lane persists the cache between builds). The whole-program
/// passes always re-run — they are graph traversals over the cached
/// facts and cost microseconds.
/// -------------------------------------------------------------------

/// One operation inside a function body that the lock-order pass cares
/// about. Brace `depth` is relative to the function body (body = 1) so
/// the traversal can release RAII locks when their scope closes.
struct LockOp {
  enum Kind {
    kAcquire,   // MutexLock <var>(<expr>): name = canonical lock id
    kCall,      // <name>(...): candidate same-TU callee (simple name)
    kScopeEnd,  // a '}' closed scopes down to `depth`
  };
  Kind kind = kCall;
  std::string name;
  size_t line = 0;
  int depth = 0;
};

/// Facts about one function definition.
struct FunctionFacts {
  /// Name as written at the definition ("Snapshot", "Registry::Get").
  std::string name;
  /// Enclosing class when the definition is qualified ("Registry").
  std::string class_name;
  /// Simple name (last component of `name`).
  std::string simple_name;
  size_t line = 0;
  bool hot = false;  // carries the DDGMS_HOT annotation
  std::vector<LockOp> ops;
};

/// Everything the whole-program passes need from one file. Pure
/// function of (path, content) — this is the parse-cache unit.
struct FileFacts {
  std::string path;
  uint64_t content_hash = 0;
  /// Quoted #include targets ("common/status.h") with their line.
  std::vector<std::pair<std::string, size_t>> includes;
  std::vector<FunctionFacts> functions;
  /// Per-file findings with NOLINT suppression already applied
  /// (naked-mutex, banned-call, header-guard, instrument-name,
  /// endpoint-path, hot-path-alloc).
  std::vector<Finding> findings;
};

/// Tokenizes `file` and extracts facts + per-file findings. The
/// `rel_path` is used for path-derived rules (header guards).
FileFacts ExtractFileFacts(const SourceFile& file);

/// ---- Pass 1: lock-order ---------------------------------------------

/// One directed edge of the global lock-order graph: `held` was held
/// while `acquired` was taken, witnessed by an acquisition path.
struct LockEdge {
  std::string held;
  std::string acquired;
  /// Human-readable witness: file:line, function and call chain.
  std::string witness;
};

/// Builds the global lock-order graph from all files' function facts,
/// resolving calls through directly-called same-TU functions. Exposed
/// for tests that want the raw edges.
std::vector<LockEdge> BuildLockOrderGraph(
    const std::vector<FileFacts>& facts);

/// Reports every cycle in the lock-order graph as a potential
/// deadlock. The finding message names the cycle and contains one
/// witness acquisition path PER EDGE (so a two-lock inversion prints
/// both paths).
std::vector<Finding> CheckLockOrder(const std::vector<FileFacts>& facts);

/// ---- Pass 3: layer DAG ----------------------------------------------

/// Declarative layering: module -> modules it may include. Missing
/// modules are violations (new directories must be registered).
using LayerGraph = std::map<std::string, std::set<std::string>>;

/// The repo's codified layer DAG
/// (common -> table -> etl/discri -> warehouse -> olap/mdx/kb ->
///  core/server; mining/predict/report/optimize ride the table and
///  olap tiers).
const LayerGraph& RepoLayerGraph();

/// Checks every quoted include edge against `layers`; an edge absent
/// from the allowed set — or a module absent from the graph — is an
/// error naming the witness include.
std::vector<Finding> CheckLayerDag(const std::vector<FileFacts>& facts,
                                   const LayerGraph& layers);

/// ---- Suppression / baseline -----------------------------------------

/// Parses a baseline file: one finding per line in the exact ToString
/// form minus the line number ("file: [rule] message"); '#' comments
/// and blank lines ignored.
std::set<std::string> ParseBaseline(const std::string& content);

/// The baseline key for a finding (its ToString with the line number
/// removed, so baselines survive unrelated edits above the finding).
std::string BaselineKey(const Finding& f);

/// Removes findings whose BaselineKey appears in `baseline`.
std::vector<Finding> ApplyBaseline(std::vector<Finding> findings,
                                   const std::set<std::string>& baseline);

/// ---- Output ----------------------------------------------------------

enum class OutputFormat { kText, kJson, kSarif };

/// Renders findings in the requested format. Text is the compiler
/// style ToString; json is an array of {file,line,rule,message}; sarif
/// is a minimal SARIF 2.1.0 document CI annotators ingest.
std::string FormatFindings(const std::vector<Finding>& findings,
                           OutputFormat format);

/// ---- Parse cache -----------------------------------------------------

/// Serializes facts for reuse across runs. The format is line-based
/// and versioned; LoadParseCache returns an empty cache on any
/// mismatch (a stale cache is never an error, just a miss).
std::string SerializeFacts(const std::vector<FileFacts>& facts);
std::map<std::string, FileFacts> DeserializeFacts(
    const std::string& content);

/// ---- Driver ----------------------------------------------------------

struct AnalyzerOptions {
  /// Root of the tree to analyze (the repo's src/ directory).
  std::string src_root;
  /// Baseline file path; empty means no baseline.
  std::string baseline_path;
  /// Parse cache path; empty disables the on-disk cache.
  std::string cache_path;
};

struct AnalyzerReport {
  std::vector<Finding> findings;  // after NOLINT + baseline
  size_t files_analyzed = 0;
  size_t cache_hits = 0;
};

/// Loads every .h/.cc under src_root (through the parse cache when
/// configured), runs all per-file rules and whole-program passes, and
/// applies the baseline. Status error when the tree cannot be read.
Result<AnalyzerReport> RunAnalyzer(const AnalyzerOptions& options);

/// Analyzes in-memory sources — the driver both the CLI selftest and
/// the gtest fixtures use. No cache.
std::vector<Finding> AnalyzeSources(const std::vector<SourceFile>& files,
                                    const LayerGraph& layers);

/// Built-in fixture suite (deadlock cycle with both witness paths,
/// hot-path allocation, layer violation, NOLINT round trip). Returns
/// 0 on success and prints failures to stderr — wired into CTest the
/// way bench_compare --selftest is.
int RunSelfTest();

}  // namespace ddgms::lint

#endif  // DDGMS_TOOLS_DDGMS_LINT_ANALYZER_H_
