#include "ddgms_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <utility>

#include "common/strings.h"
#include "ddgms_lint/tokenizer.h"

namespace ddgms::lint {

namespace fs = std::filesystem;

std::string Finding::ToString() const {
  std::string out = file;
  if (line > 0) out += StrFormat(":%zu", line);
  out += ": [" + rule + "] " + message;
  return out;
}

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Plain suffix test, for extensions.
bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// True when `path` ends with the given suffix on whole path
/// components ("a/b/sync.h" matches "common/sync.h" only if the
/// preceding component is "common").
bool PathEndsWith(const std::string& path, const std::string& suffix) {
  if (path.size() < suffix.size()) return false;
  if (path.compare(path.size() - suffix.size(), suffix.size(), suffix) !=
      0) {
    return false;
  }
  return path.size() == suffix.size() ||
         path[path.size() - suffix.size() - 1] == '/';
}

/// First path component of a repo-relative path ("table/value.cc" ->
/// "table"); empty when there is none.
std::string ModuleOf(const std::string& rel_path) {
  const size_t slash = rel_path.find('/');
  return slash == std::string::npos ? std::string()
                                    : rel_path.substr(0, slash);
}

bool IsIdentTok(const TokenFile& tf, size_t i) {
  return i < tf.tokens.size() &&
         tf.tokens[i].kind == TokenKind::kIdentifier;
}

bool IsIdentTok(const TokenFile& tf, size_t i, const char* text) {
  return IsIdentTok(tf, i) && tf.tokens[i].text == text;
}

bool IsPunctTok(const TokenFile& tf, size_t i, const char* text) {
  return i < tf.tokens.size() &&
         tf.tokens[i].kind == TokenKind::kPunct &&
         tf.tokens[i].text == text;
}

bool IsStringTok(const TokenFile& tf, size_t i) {
  return i < tf.tokens.size() && tf.tokens[i].kind == TokenKind::kString;
}

}  // namespace

std::string StripCommentsAndStrings(const std::string& src) {
  std::string out;
  out.reserve(src.size());
  size_t i = 0;
  const size_t n = src.size();
  while (i < n) {
    const char c = src[i];
    // Line comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      while (i < n && src[i] != '\n') ++i;
      continue;
    }
    // Block comment (newlines preserved).
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      i += 2;
      while (i < n && !(src[i] == '*' && i + 1 < n && src[i + 1] == '/')) {
        if (src[i] == '\n') out.push_back('\n');
        ++i;
      }
      i = std::min(n, i + 2);
      continue;
    }
    // Raw string literal: R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && src[i + 1] == '"' &&
        (i == 0 || !IsIdentChar(src[i - 1]))) {
      size_t d = i + 2;
      while (d < n && src[d] != '(' && src[d] != '\n') ++d;
      if (d < n && src[d] == '(') {
        const std::string close =
            ")" + src.substr(i + 2, d - (i + 2)) + "\"";
        const size_t end = src.find(close, d + 1);
        out += "\"\"";
        const size_t stop = end == std::string::npos
                                ? n
                                : end + close.size();
        for (size_t k = d; k < stop; ++k) {
          if (src[k] == '\n') out.push_back('\n');
        }
        i = stop;
        continue;
      }
    }
    // String / char literal with escapes.
    if (c == '"' || c == '\'') {
      out.push_back(c);
      ++i;
      while (i < n && src[i] != c) {
        if (src[i] == '\\' && i + 1 < n) {
          ++i;
        } else if (src[i] == '\n') {
          break;  // unterminated; don't eat the rest of the file
        }
        ++i;
      }
      if (i < n && src[i] == c) {
        out.push_back(c);
        ++i;
      }
      continue;
    }
    out.push_back(c);
    ++i;
  }
  return out;
}

std::vector<Finding> CheckNakedMutexTokens(const std::string& path,
                                           const TokenFile& tf) {
  std::vector<Finding> findings;
  // The one place allowed to touch the raw primitives.
  if (PathEndsWith(path, "common/sync.h")) return findings;

  static const char* const kBanned[] = {
      "mutex",          "recursive_mutex",
      "timed_mutex",    "recursive_timed_mutex",
      "shared_mutex",   "lock_guard",
      "unique_lock",    "scoped_lock",
      "condition_variable", "condition_variable_any",
  };

  const auto& toks = tf.tokens;
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!IsIdentTok(tf, i, "std") || !IsPunctTok(tf, i + 1, "::") ||
        !IsIdentTok(tf, i + 2)) {
      continue;
    }
    // foo::std::mutex is some other std.
    if (i >= 1 && IsPunctTok(tf, i - 1, "::")) continue;
    const std::string& name = toks[i + 2].text;
    for (const char* banned : kBanned) {
      if (name != banned) continue;
      findings.push_back(
          {path, toks[i].line, "naked-mutex",
           "std::" + name +
               " outside common/sync.h - use ddgms::Mutex / "
               "MutexLock / CondVar so thread-safety analysis sees "
               "the lock"});
      break;
    }
  }
  return findings;
}

std::vector<Finding> CheckNakedMutex(const SourceFile& file) {
  return CheckNakedMutexTokens(file.path, Tokenize(file.content));
}

std::vector<Finding> CheckHeaderGuardTokens(const std::string& path,
                                            const TokenFile& tf,
                                            const std::string& rel_path) {
  std::vector<Finding> findings;
  std::string expected = "DDGMS_";
  for (char c : rel_path) {
    if (c == '/' || c == '.' || c == '-') {
      expected.push_back('_');
    } else {
      expected.push_back(static_cast<char>(
          std::toupper(static_cast<unsigned char>(c))));
    }
  }
  expected.push_back('_');

  // Walk preprocessor directives: each starts at a line-opening '#'.
  std::string ifndef_name;
  size_t ifndef_line = 0;
  bool has_define = false;
  const auto& toks = tf.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].pp || !IsPunctTok(tf, i, "#")) continue;
    if (IsIdentTok(tf, i + 1, "pragma") && IsIdentTok(tf, i + 2, "once")) {
      findings.push_back({path, toks[i].line, "header-guard",
                          "#pragma once - this repo standardises on "
                          "include guards (" +
                              expected + ")"});
      continue;
    }
    if (ifndef_name.empty() && IsIdentTok(tf, i + 1, "ifndef") &&
        IsIdentTok(tf, i + 2)) {
      ifndef_name = toks[i + 2].text;
      ifndef_line = toks[i].line;
      continue;
    }
    if (!ifndef_name.empty() && !has_define &&
        IsIdentTok(tf, i + 1, "define") && IsIdentTok(tf, i + 2)) {
      if (toks[i + 2].text != ifndef_name) {
        findings.push_back(
            {path, toks[i].line, "header-guard",
             "guard #define '" + toks[i + 2].text +
                 "' does not match #ifndef '" + ifndef_name + "'"});
      }
      has_define = true;
    }
  }
  if (ifndef_name.empty()) {
    findings.push_back({path, 1, "header-guard",
                        "missing include guard " + expected});
  } else if (ifndef_name != expected) {
    findings.push_back({path, ifndef_line, "header-guard",
                        "guard '" + ifndef_name +
                            "' does not match path-derived name '" +
                            expected + "'"});
  } else if (!has_define) {
    findings.push_back({path, ifndef_line, "header-guard",
                        "#ifndef " + ifndef_name +
                            " is never #defined (broken guard)"});
  }
  return findings;
}

std::vector<Finding> CheckHeaderGuard(const SourceFile& file,
                                      const std::string& rel_path) {
  return CheckHeaderGuardTokens(file.path, Tokenize(file.content),
                                rel_path);
}

std::vector<Finding> CheckBannedCallsTokens(const std::string& path,
                                            const TokenFile& tf) {
  // name -> sanctioned alternative.
  static const std::pair<const char*, const char*> kBanned[] = {
      {"rand", "ddgms::Rng (deterministic, seedable)"},
      {"srand", "ddgms::Rng (deterministic, seedable)"},
      {"strtok", "common/strings.h Split (strtok is not reentrant)"},
      {"gets", "std::getline"},
      {"tmpnam", "a caller-provided path (tmpnam races)"},
  };

  std::vector<Finding> findings;
  const auto& toks = tf.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdentTok(tf, i)) continue;
    const char* alt = nullptr;
    for (const auto& [name, sanctioned] : kBanned) {
      if (toks[i].text == name) {
        alt = sanctioned;
        break;
      }
    }
    if (alt == nullptr) continue;
    // Must look like a call.
    if (!IsPunctTok(tf, i + 1, "(")) continue;
    // Member access (obj.rand(), p->rand()) is someone else's
    // function; a non-std qualifier (mylib::rand) likewise.
    if (i >= 1 &&
        (IsPunctTok(tf, i - 1, ".") || IsPunctTok(tf, i - 1, "->"))) {
      continue;
    }
    if (i >= 1 && IsPunctTok(tf, i - 1, "::")) {
      const bool std_qualified =
          i >= 2 && IsIdentTok(tf, i - 2, "std") &&
          !(i >= 3 && IsPunctTok(tf, i - 3, "::"));
      if (!std_qualified) continue;
    }
    findings.push_back({path, toks[i].line, "banned-call",
                        toks[i].text + "() is banned here - use " + alt});
  }
  return findings;
}

std::vector<Finding> CheckBannedCalls(const SourceFile& file) {
  return CheckBannedCallsTokens(file.path, Tokenize(file.content));
}

namespace {

/// Layers instrument names may start with. Adding a subsystem means
/// registering its layer here (and the grammar keeps every dashboard
/// group-by-layer query working).
const char* const kInstrumentLayers[] = {
    "anomaly", "core",     "csv",      "etl",        "faults",
    "io",      "journal",  "kb",       "mdx",        "olap",
    "other",   "persist",  "profiler", "quarantine", "queries",
    "resource", "retry",   "server",   "slo",        "snapshot",
    "store",   "table",    "warehouse",
};

bool IsRegisteredLayer(const std::string& s) {
  for (const char* layer : kInstrumentLayers) {
    if (s == layer) return true;
  }
  return false;
}

/// lower_snake_case segment: [a-z][a-z0-9_]*.
bool IsSegment(const std::string& s) {
  if (s.empty() || std::islower(static_cast<unsigned char>(s[0])) == 0) {
    return false;
  }
  for (char c : s) {
    if (std::islower(static_cast<unsigned char>(c)) == 0 &&
        std::isdigit(static_cast<unsigned char>(c)) == 0 && c != '_') {
      return false;
    }
  }
  return true;
}

/// Validates one extracted literal. Returns an explanation, empty when
/// the name conforms. `is_metric` selects the ddgms.-prefixed grammar.
std::string ValidateInstrumentName(const std::string& name,
                                   bool is_metric) {
  std::string base = name;
  // A trailing-colon literal ("ddgms.retry.attempts:" + op) or a
  // ":detail" variant; only metrics may carry one.
  const size_t colon = base.find(':');
  if (colon != std::string::npos) {
    if (!is_metric) {
      return "':' variants are reserved for metric names";
    }
    const std::string detail = base.substr(colon + 1);
    if (!detail.empty() && !IsSegment(detail)) {
      return "detail suffix '" + detail + "' is not lower_snake_case";
    }
    base = base.substr(0, colon);
  }
  std::vector<std::string> parts;
  std::string part;
  for (char c : base) {
    if (c == '.') {
      parts.push_back(part);
      part.clear();
    } else {
      part.push_back(c);
    }
  }
  parts.push_back(part);
  size_t layer_index = 0;
  if (is_metric) {
    if (parts[0] != "ddgms") {
      return "metric names start with 'ddgms.'";
    }
    if (parts.size() < 3 || parts.size() > 4) {
      return "expected ddgms.<layer>.<noun>[.<verb>][:detail]";
    }
    layer_index = 1;
  } else if (parts.size() > 3) {
    return "expected <layer>[.<noun>[.<verb>]]";
  }
  for (size_t i = 0; i < parts.size(); ++i) {
    if (!IsSegment(parts[i])) {
      return "segment '" + parts[i] + "' is not lower_snake_case";
    }
  }
  if (!IsRegisteredLayer(parts[layer_index])) {
    return "layer '" + parts[layer_index] +
           "' is not registered (see kInstrumentLayers)";
  }
  return std::string();
}

}  // namespace

std::vector<Finding> CheckInstrumentNamesTokens(const std::string& path,
                                                const TokenFile& tf) {
  struct Trigger {
    const char* token;    // call site to look for
    bool is_metric;       // ddgms.-prefixed grammar
    bool declaration;     // token is a type: an identifier precedes '('
    bool skip_first_arg;  // name is the second argument (LogEvent)
    bool histogram_next = false;  // a second literal names a histogram
  };
  static const Trigger kTriggers[] = {
      {"DDGMS_METRIC_INC", true, false, false},
      {"DDGMS_METRIC_ADD", true, false, false},
      {"DDGMS_METRIC_OBSERVE", true, false, false},
      {"GetCounter", true, false, false},
      {"GetGauge", true, false, false},
      {"GetHistogram", true, false, false},
      {"TraceSpan", false, true, false, true},
      // olap::Stage(parent, "op", "histogram", "query stage").
      {"Stage", false, true, true, true},
      {"DDGMS_LOG_DEBUG", false, false, false},
      {"DDGMS_LOG_INFO", false, false, false},
      {"DDGMS_LOG_WARN", false, false, false},
      {"DDGMS_LOG_ERROR", false, false, false},
      {"LogEvent", false, true, true},
      {"ScopedAccounting", false, true, false},
      {"GetPool", false, false, false},
      {"DDGMS_FAULT_POINT", false, false, false},
  };

  std::vector<Finding> findings;
  const auto& toks = tf.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdentTok(tf, i)) continue;
    const Trigger* trigger = nullptr;
    for (const Trigger& t : kTriggers) {
      if (toks[i].text == t.token) {
        trigger = &t;
        break;
      }
    }
    if (trigger == nullptr) continue;
    // SomeScope::GetCounter is another registry's function; a type
    // may be qualified (olap::Stage).
    if (!trigger->declaration && i >= 1 && IsPunctTok(tf, i - 1, "::")) {
      continue;
    }
    size_t cursor = i + 1;
    if (trigger->declaration) {
      // `TraceSpan span(` — step over the variable name. A '(' right
      // after the type (constructor decls, casts) is not a named
      // instrument.
      if (!IsIdentTok(tf, cursor)) continue;
      ++cursor;
    }
    if (!IsPunctTok(tf, cursor, "(")) continue;
    ++cursor;
    if (trigger->skip_first_arg) {
      // LogEvent e(LogLevel::kWarn, "name") — skip to the ',' at the
      // argument list's own depth.
      int depth = 1;
      while (cursor < toks.size() && depth > 0) {
        if (IsPunctTok(tf, cursor, "(")) ++depth;
        if (IsPunctTok(tf, cursor, ")")) --depth;
        if (depth == 1 && IsPunctTok(tf, cursor, ",")) break;
        ++cursor;
      }
      if (!IsPunctTok(tf, cursor, ",")) continue;
      ++cursor;
    }
    auto check = [&](size_t at, bool is_metric) {
      const std::string& name = toks[at].text;
      const std::string why = ValidateInstrumentName(name, is_metric);
      if (!why.empty()) {
        findings.push_back({path, toks[at].line, "instrument-name",
                            "'" + name + "' (" +
                                std::string(trigger->token) + "): " + why});
      }
    };
    if (!IsStringTok(tf, cursor)) continue;  // dynamic name
    check(cursor, trigger->is_metric);
    if (trigger->histogram_next && IsPunctTok(tf, cursor + 1, ",") &&
        IsStringTok(tf, cursor + 2)) {
      check(cursor + 2, /*is_metric=*/true);
    }
  }
  return findings;
}

std::vector<Finding> CheckInstrumentNames(const SourceFile& file) {
  return CheckInstrumentNamesTokens(file.path, Tokenize(file.content));
}

namespace {

/// Validates one observability endpoint path. Empty when conforming.
std::string ValidateEndpointPath(const std::string& path) {
  if (path == "/") return std::string();  // the index page
  if (path.empty() || path[0] != '/') {
    return "must start with '/'";
  }
  if (path.size() > 1 && path.back() == '/') {
    return "must not end with '/'";
  }
  std::vector<std::string> segments;
  std::string segment;
  for (size_t i = 1; i < path.size(); ++i) {
    if (path[i] == '/') {
      segments.push_back(segment);
      segment.clear();
    } else {
      segment.push_back(path[i]);
    }
  }
  segments.push_back(segment);
  for (const std::string& s : segments) {
    if (!IsSegment(s)) {
      return "segment '" + s + "' is not lower_snake_case";
    }
  }
  // Debug pages follow the /...z convention; /metrics is the one
  // sanctioned exception (the well-known Prometheus scrape path).
  const std::string& last = segments.back();
  if (last != "metrics" && last.back() != 'z') {
    return "final segment '" + last +
           "' should end in 'z' (statusz/healthz/... convention; "
           "'metrics' is the only exception)";
  }
  return std::string();
}

}  // namespace

std::vector<Finding> CheckEndpointPathsTokens(const std::string& path,
                                              const TokenFile& tf) {
  std::vector<Finding> findings;
  const auto& toks = tf.tokens;
  for (size_t i = 0; i + 3 < toks.size(); ++i) {
    if (!IsIdentTok(tf, i, "Handle")) continue;
    if (i >= 1 && IsPunctTok(tf, i - 1, "::")) continue;
    // Handle("GET", "/path", ...): both must be literals for the rule
    // to fire (dynamic routes are not this rule's business).
    if (!IsPunctTok(tf, i + 1, "(") || !IsStringTok(tf, i + 2) ||
        !IsPunctTok(tf, i + 3, ",") || !IsStringTok(tf, i + 4)) {
      continue;
    }
    const std::string& method = toks[i + 2].text;
    const std::string& route = toks[i + 4].text;
    if (method != ToUpper(method)) {
      findings.push_back({path, toks[i + 2].line, "endpoint-path",
                          "method '" + method + "' must be upper-case"});
    }
    const std::string why = ValidateEndpointPath(route);
    if (!why.empty()) {
      findings.push_back({path, toks[i + 4].line, "endpoint-path",
                          "'" + route + "': " + why});
    }
  }
  return findings;
}

std::vector<Finding> CheckEndpointPaths(const SourceFile& file) {
  return CheckEndpointPathsTokens(file.path, Tokenize(file.content));
}

std::vector<Finding> CheckIncludeCycles(
    const std::vector<SourceFile>& files) {
  // module -> module -> one witness include ("table/value.cc ->
  // common/status.h") for the error message.
  std::map<std::string, std::map<std::string, std::string>> edges;
  for (const SourceFile& file : files) {
    const std::string from = ModuleOf(file.path);
    if (from.empty()) continue;
    std::istringstream is(file.content);
    std::string line;
    while (std::getline(is, line)) {
      const size_t start = line.find_first_not_of(" \t");
      if (start == std::string::npos || line[start] != '#') continue;
      std::istringstream dir(line);
      std::string tok1, tok2;
      dir >> tok1 >> tok2;
      if (tok1 != "#include" || tok2.size() < 2 || tok2[0] != '"') {
        continue;
      }
      const std::string target = tok2.substr(1, tok2.size() - 2);
      const std::string to = ModuleOf(target);
      if (to.empty() || to == from) continue;
      edges[from].emplace(to, file.path + " includes " + target);
    }
  }

  // Iterative DFS with colors; report each back edge's cycle once.
  std::vector<Finding> findings;
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> path;

  std::function<void(const std::string&)> visit =
      [&](const std::string& node) {
        color[node] = 1;
        path.push_back(node);
        auto it = edges.find(node);
        if (it != edges.end()) {
          for (const auto& [next, witness] : it->second) {
            if (color[next] == 1) {
              // Found a cycle: path from `next` to node, closed by this
              // edge.
              auto at = std::find(path.begin(), path.end(), next);
              std::string desc;
              for (auto p = at; p != path.end(); ++p) {
                desc += *p + " -> ";
              }
              desc += next;
              findings.push_back(
                  {witness.substr(0, witness.find(' ')), 0,
                   "include-cycle",
                   "module cycle " + desc + " (" + witness + ")"});
            } else if (color[next] == 0) {
              visit(next);
            }
          }
        }
        path.pop_back();
        color[node] = 2;
      };

  for (const auto& [node, _] : edges) {
    if (color[node] == 0) visit(node);
  }
  return findings;
}

std::vector<Finding> LintSources(const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;
  for (const SourceFile& file : files) {
    // One tokenization feeds every rule.
    const TokenFile tf = Tokenize(file.content);
    auto merge = [&findings](std::vector<Finding> more) {
      findings.insert(findings.end(),
                      std::make_move_iterator(more.begin()),
                      std::make_move_iterator(more.end()));
    };
    merge(CheckNakedMutexTokens(file.path, tf));
    merge(CheckBannedCallsTokens(file.path, tf));
    merge(CheckInstrumentNamesTokens(file.path, tf));
    merge(CheckEndpointPathsTokens(file.path, tf));
    if (EndsWith(file.path, ".h")) {
      merge(CheckHeaderGuardTokens(file.path, tf, file.path));
    }
  }
  auto cycles = CheckIncludeCycles(files);
  findings.insert(findings.end(),
                  std::make_move_iterator(cycles.begin()),
                  std::make_move_iterator(cycles.end()));
  return findings;
}

Result<std::vector<Finding>> RunLint(const LintOptions& options) {
  std::error_code ec;
  fs::directory_entry root(options.src_root, ec);
  if (ec || !root.is_directory()) {
    return Status::NotFound("src root '" + options.src_root +
                            "' is not a readable directory");
  }

  std::vector<SourceFile> files;
  for (auto it = fs::recursive_directory_iterator(options.src_root, ec);
       !ec && it != fs::recursive_directory_iterator();
       it.increment(ec)) {
    if (!it->is_regular_file()) continue;
    const std::string ext = it->path().extension().string();
    if (ext != ".h" && ext != ".cc") continue;
    const std::string rel =
        fs::relative(it->path(), options.src_root, ec).generic_string();
    std::ifstream in(it->path());
    if (!in) {
      return Status::DataLoss("cannot read '" + it->path().string() +
                              "'");
    }
    std::ostringstream content;
    content << in.rdbuf();
    files.push_back({rel, content.str()});
  }
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });

  return LintSources(files);
}

}  // namespace ddgms::lint
