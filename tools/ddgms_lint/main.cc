// ddgms_analyzer: multi-pass static analysis for this repo, run in CI
// and as a CTest. Grown from the original single-pass ddgms_lint; the
// textual rules still run, now on a shared token stream, joined by the
// whole-program passes (lock-order graph, layer DAG) and the hot-path
// hygiene check.
//
//   ddgms_analyzer --src <repo>/src
//                  [--baseline <file>] [--write-baseline <file>]
//                  [--cache <file>] [--format text|json|sarif]
//   ddgms_analyzer --selftest
//
// Exit status: 0 clean, 1 non-baselined findings, 2 usage/setup error.
// Text findings print compiler-style (file:line: [rule] message) so
// editors and CI annotate them; json/sarif go to stdout for tooling.

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "ddgms_lint/analyzer.h"
#include "ddgms_lint/lint.h"

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: ddgms_analyzer --src <dir> [options]\n"
      "       ddgms_analyzer --selftest\n"
      "  --src <dir>             root of the source tree (required)\n"
      "  --baseline <file>       suppress findings listed in <file>\n"
      "  --write-baseline <file> write current findings as a baseline\n"
      "  --cache <file>          per-file parse cache (read + rewrite)\n"
      "  --format <fmt>          text (default) | json | sarif\n"
      "  --selftest              run the built-in fixture suite\n");
}

}  // namespace

int main(int argc, char** argv) {
  using ddgms::lint::OutputFormat;
  ddgms::lint::AnalyzerOptions options;
  std::string write_baseline;
  OutputFormat format = OutputFormat::kText;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* value = nullptr;
    if (arg == "--selftest") {
      return ddgms::lint::RunSelfTest();
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if ((value = next()) == nullptr) {
      Usage();
      return 2;
    } else if (arg == "--src") {
      options.src_root = value;
    } else if (arg == "--baseline") {
      options.baseline_path = value;
    } else if (arg == "--write-baseline") {
      write_baseline = value;
    } else if (arg == "--cache") {
      options.cache_path = value;
    } else if (arg == "--format") {
      const std::string fmt = value;
      if (fmt == "text") {
        format = OutputFormat::kText;
      } else if (fmt == "json") {
        format = OutputFormat::kJson;
      } else if (fmt == "sarif") {
        format = OutputFormat::kSarif;
      } else {
        std::fprintf(stderr, "ddgms_analyzer: unknown format '%s'\n",
                     fmt.c_str());
        Usage();
        return 2;
      }
    } else {
      std::fprintf(stderr, "ddgms_analyzer: unknown argument '%s'\n",
                   arg.c_str());
      Usage();
      return 2;
    }
  }
  if (options.src_root.empty()) {
    Usage();
    return 2;
  }
  if (!write_baseline.empty()) {
    // A baseline snapshot must capture everything, not the already-
    // suppressed remainder.
    options.baseline_path.clear();
  }

  ddgms::Result<ddgms::lint::AnalyzerReport> result =
      ddgms::lint::RunAnalyzer(options);
  if (!result.ok()) {
    std::fprintf(stderr, "ddgms_analyzer: %s\n",
                 result.status().ToString().c_str());
    return 2;
  }
  const ddgms::lint::AnalyzerReport& report = result.value();

  if (!write_baseline.empty()) {
    std::ofstream out(write_baseline, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "ddgms_analyzer: cannot write '%s'\n",
                   write_baseline.c_str());
      return 2;
    }
    out << "# ddgms_analyzer baseline - findings listed here are\n"
        << "# suppressed by --baseline. Every entry needs a comment\n"
        << "# justifying why it is not simply fixed.\n";
    std::set<std::string> keys;
    for (const ddgms::lint::Finding& f : report.findings) {
      keys.insert(ddgms::lint::BaselineKey(f));
    }
    for (const std::string& key : keys) out << key << "\n";
    std::printf("ddgms_analyzer: wrote %zu baseline entr%s to %s\n",
                keys.size(), keys.size() == 1 ? "y" : "ies",
                write_baseline.c_str());
    return 0;
  }

  if (format == OutputFormat::kText) {
    for (const ddgms::lint::Finding& f : report.findings) {
      std::fprintf(stderr, "%s\n", f.ToString().c_str());
    }
  } else {
    const std::string doc =
        ddgms::lint::FormatFindings(report.findings, format);
    std::fwrite(doc.data(), 1, doc.size(), stdout);
  }
  if (!report.findings.empty()) {
    std::fprintf(stderr, "ddgms_analyzer: %zu finding(s) over %zu files\n",
                 report.findings.size(), report.files_analyzed);
    return 1;
  }
  if (format == OutputFormat::kText) {
    std::printf(
        "ddgms_analyzer: OK (%zu files, %zu cache hit%s)\n",
        report.files_analyzed, report.cache_hits,
        report.cache_hits == 1 ? "" : "s");
  }
  return 0;
}
