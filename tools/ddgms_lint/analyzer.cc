#include "ddgms_lint/analyzer.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <utility>

#include "common/strings.h"

namespace ddgms::lint {

namespace fs = std::filesystem;

namespace {

/// First path component of a repo-relative path ("table/value.cc" ->
/// "table"); empty when there is none.
std::string ModuleOf(const std::string& rel_path) {
  const size_t slash = rel_path.find('/');
  return slash == std::string::npos ? std::string()
                                    : rel_path.substr(0, slash);
}

/// "common/metrics.cc" -> "metrics" — the file-scope qualifier for
/// locks acquired outside any class.
std::string FileStem(const std::string& path) {
  const size_t slash = path.rfind('/');
  std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const size_t dot = base.rfind('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

bool IsControlKeyword(const std::string& s) {
  static const char* const kKeywords[] = {
      "if",     "for",     "while",    "switch",   "return",
      "sizeof", "catch",   "alignof",  "decltype", "noexcept",
      "new",    "delete",  "co_await", "co_return", "co_yield",
      "throw",  "static_assert", "alignas", "assert", "defined",
  };
  for (const char* k : kKeywords) {
    if (s == k) return true;
  }
  return false;
}

/// Class-qualified display name for witness messages.
std::string DisplayName(const FunctionFacts& fn) {
  if (fn.name.find("::") != std::string::npos || fn.class_name.empty()) {
    return fn.name;
  }
  return fn.class_name + "::" + fn.name;
}

/// Canonical lock identity: a bare member/variable name is owned by
/// the enclosing class (GUARDED_BY identity); everything is at least
/// file-qualified so unrelated `mu_`s never unify by accident.
std::string CanonicalLockId(const std::string& expr,
                            const std::string& class_name,
                            const std::string& path) {
  std::string e = expr;
  while (!e.empty() && (e[0] == '*' || e[0] == '&')) e.erase(0, 1);
  const std::string owner =
      class_name.empty() ? FileStem(path) : class_name;
  return owner + "::" + e;
}

// ---------------------------------------------------------------------
// Function / lock-op extraction
// ---------------------------------------------------------------------

class Extractor {
 public:
  Extractor(const std::string& path, const TokenFile& tf, FileFacts* out)
      : path_(path), tf_(tf), out_(out) {
    code_.reserve(tf.tokens.size());
    for (const Token& t : tf.tokens) {
      if (!t.pp) code_.push_back(&t);
    }
  }

  void Run() { ParseScope(0, std::string()); }

 private:
  const Token& At(size_t i) const { return *code_[i]; }
  bool IsPunct(size_t i, const char* p) const {
    return i < code_.size() && At(i).kind == TokenKind::kPunct &&
           At(i).text == p;
  }
  bool IsIdent(size_t i) const {
    return i < code_.size() && At(i).kind == TokenKind::kIdentifier;
  }

  /// Skips a balanced '{...}' starting at the opening brace index;
  /// returns the index just past the matching '}'.
  size_t SkipBraces(size_t pos) const {
    int depth = 0;
    while (pos < code_.size()) {
      if (IsPunct(pos, "{")) ++depth;
      if (IsPunct(pos, "}")) {
        --depth;
        if (depth == 0) return pos + 1;
      }
      ++pos;
    }
    return pos;
  }

  struct Signature {
    bool is_function = false;
    std::string name;        // as written ("Registry::Get")
    std::string class_name;  // from qualification or enclosing scope
    size_t line = 0;
  };

  /// Decides whether the declaration tokens `decl` (indices into
  /// code_) followed by '{' form a function definition.
  Signature ParseSignature(const std::vector<size_t>& decl,
                           const std::string& scope_class) const {
    Signature sig;
    // First top-level '('; an '=' before it means an initializer.
    size_t paren = decl.size();
    for (size_t k = 0; k < decl.size(); ++k) {
      const Token& t = At(decl[k]);
      if (t.kind != TokenKind::kPunct) continue;
      if (t.text == "=") return sig;
      if (t.text == "(") {
        paren = k;
        break;
      }
    }
    if (paren == decl.size() || paren == 0) return sig;
    // Name: identifier sequence (ident ("::" ident)*) ending right
    // before the '('; '~' merges into destructor names.
    size_t k = paren;
    std::vector<std::string> parts;
    while (k >= 1 && IsIdent(decl[k - 1])) {
      std::string part = At(decl[k - 1]).text;
      --k;
      if (k >= 1 && IsPunct(decl[k - 1], "~")) {
        part = "~" + part;
        --k;
      }
      parts.insert(parts.begin(), part);
      if (k >= 1 && IsPunct(decl[k - 1], "::")) {
        --k;
        continue;
      }
      break;
    }
    if (parts.empty()) return sig;
    if (parts.size() == 1 && IsControlKeyword(parts[0])) return sig;
    // Parens must balance inside the declaration (the ')' precedes the
    // '{' that triggered us, possibly with const/noexcept/ctor-inits).
    int depth = 0;
    bool closed = false;
    for (size_t j = paren; j < decl.size(); ++j) {
      if (IsPunct(decl[j], "(")) ++depth;
      if (IsPunct(decl[j], ")")) {
        --depth;
        if (depth == 0) closed = true;
      }
    }
    if (!closed || depth != 0) return sig;
    sig.is_function = true;
    sig.line = At(decl[k]).line;
    std::string name;
    for (size_t p = 0; p < parts.size(); ++p) {
      if (p > 0) name += "::";
      name += parts[p];
    }
    sig.name = name;
    sig.class_name = parts.size() > 1 ? parts[parts.size() - 2]
                                      : scope_class;
    return sig;
  }

  /// Parses one scope (namespace/class body or the file itself) for
  /// function definitions. `pos` points past the opening '{' (or at 0
  /// for the file scope); returns the index past the closing '}'.
  size_t ParseScope(size_t pos, const std::string& scope_class) {
    std::vector<size_t> decl;
    bool hot = false;
    while (pos < code_.size()) {
      if (IsPunct(pos, "}")) return pos + 1;
      if (IsPunct(pos, ";")) {
        decl.clear();
        hot = false;
        ++pos;
        continue;
      }
      if (IsPunct(pos, "{")) {
        // Classify the construct this brace opens.
        bool is_class = false, is_enum = false, is_namespace = false,
             is_init = false;
        std::string class_name;
        for (size_t k = 0; k < decl.size(); ++k) {
          const Token& t = At(decl[k]);
          if (t.kind == TokenKind::kPunct && t.text == "=") {
            is_init = true;
          }
          if (t.kind != TokenKind::kIdentifier) continue;
          if (t.text == "namespace") is_namespace = true;
          if (t.text == "enum") is_enum = true;
          if ((t.text == "class" || t.text == "struct" ||
               t.text == "union") &&
              k + 1 < decl.size() && IsIdent(decl[k + 1])) {
            is_class = true;
            class_name = At(decl[k + 1]).text;
          }
        }
        if (is_init || is_enum) {
          pos = SkipBraces(pos);
        } else if (is_namespace) {
          pos = ParseScope(pos + 1, scope_class);
        } else if (is_class) {
          pos = ParseScope(pos + 1, class_name);
        } else {
          const Signature sig = ParseSignature(decl, scope_class);
          if (sig.is_function) {
            pos = ParseFunctionBody(pos, sig, hot);
          } else {
            pos = ParseScope(pos + 1, scope_class);
          }
        }
        decl.clear();
        hot = false;
        continue;
      }
      if (IsIdent(pos) && At(pos).text == "DDGMS_HOT") {
        hot = true;
      }
      decl.push_back(pos);
      ++pos;
    }
    return pos;
  }

  /// Parses a function body starting at its '{': records MutexLock
  /// acquisitions, same-TU call candidates and scope ends, and runs
  /// the hot-path hygiene checks when the function is DDGMS_HOT.
  size_t ParseFunctionBody(size_t pos, const Signature& sig, bool hot) {
    FunctionFacts fn;
    fn.name = sig.name;
    fn.class_name = sig.class_name;
    const size_t last_sep = sig.name.rfind("::");
    fn.simple_name = last_sep == std::string::npos
                         ? sig.name
                         : sig.name.substr(last_sep + 2);
    fn.line = sig.line;
    fn.hot = hot;

    const size_t body_begin = pos + 1;
    int depth = 0;
    bool any_acquire = false;
    while (pos < code_.size()) {
      if (IsPunct(pos, "{")) {
        ++depth;
        ++pos;
        continue;
      }
      if (IsPunct(pos, "}")) {
        --depth;
        if (any_acquire) {
          fn.ops.push_back({LockOp::kScopeEnd, "", At(pos).line, depth});
        }
        ++pos;
        if (depth == 0) break;
        continue;
      }
      if (IsIdent(pos) && At(pos).text == "MutexLock" && IsIdent(pos + 1) &&
          IsPunct(pos + 2, "(")) {
        // MutexLock <var>(<lock expr>)
        size_t j = pos + 3;
        int pd = 1;
        std::string expr;
        while (j < code_.size() && pd > 0) {
          if (IsPunct(j, "(")) ++pd;
          if (IsPunct(j, ")")) {
            --pd;
            if (pd == 0) break;
          }
          expr += At(j).text;
          ++j;
        }
        fn.ops.push_back(
            {LockOp::kAcquire,
             CanonicalLockId(expr, sig.class_name, path_),
             At(pos).line, depth});
        any_acquire = true;
        pos = j + 1;
        continue;
      }
      if (IsIdent(pos) && IsPunct(pos + 1, "(") &&
          !IsControlKeyword(At(pos).text)) {
        // Candidate call. Method calls on OTHER objects (x.F(), p->F())
        // cannot be resolved statically; implicit-this and qualified
        // same-class calls can.
        const bool member_call =
            pos >= 1 && (IsPunct(pos - 1, ".") || IsPunct(pos - 1, "->"));
        const bool this_call =
            member_call && pos >= 2 && IsIdent(pos - 2) &&
            At(pos - 2).text == "this";
        if (!member_call || this_call) {
          fn.ops.push_back(
              {LockOp::kCall, At(pos).text, At(pos).line, depth});
        }
      }
      ++pos;
    }
    if (hot) CheckHotBody(body_begin, pos, DisplayName(fn));
    out_->functions.push_back(std::move(fn));
    return pos;
  }

  /// Hot-path hygiene over one DDGMS_HOT body: heap allocation,
  /// std::string construction, unreserved push_back, Value boxing.
  void CheckHotBody(size_t begin, size_t end, const std::string& fn) {
    // Receivers that reserve() anywhere in the body sanction their own
    // push_backs (a loop-hoisted reserve is the fix this rule wants).
    std::set<std::string> reserved;
    for (size_t i = begin; i + 2 < end; ++i) {
      if (IsIdent(i) &&
          (IsPunct(i + 1, ".") || IsPunct(i + 1, "->")) &&
          IsIdent(i + 2) && At(i + 2).text == "reserve") {
        reserved.insert(At(i).text);
      }
    }
    auto flag = [&](size_t line, const std::string& what) {
      if (tf_.IsSuppressed(line, "hot-path-alloc")) return;
      out_->findings.push_back(
          {path_, line, "hot-path-alloc",
           what + " in DDGMS_HOT function '" + fn +
               "' - hot paths must not allocate per element"});
    };
    for (size_t i = begin; i < end; ++i) {
      if (!IsIdent(i)) continue;
      const std::string& t = At(i).text;
      const bool qualified = i >= 1 && IsPunct(i - 1, "::");
      if (t == "new" && !qualified) {
        flag(At(i).line, "operator new");
        continue;
      }
      if ((t == "make_unique" || t == "make_shared") &&
          (IsPunct(i + 1, "<") || IsPunct(i + 1, "("))) {
        flag(At(i).line, "std::" + t);
        continue;
      }
      if (t == "string" && i >= 2 && IsPunct(i - 1, "::") &&
          IsIdent(i - 2) && At(i - 2).text == "std") {
        // std::string X / std::string(...) / std::string{...} allocate;
        // references, pointers and nested-type uses do not.
        if (IsIdent(i + 1) || IsPunct(i + 1, "(") || IsPunct(i + 1, "{")) {
          flag(At(i).line, "std::string construction");
        }
        continue;
      }
      if ((t == "push_back" || t == "emplace_back") && i >= 2 &&
          (IsPunct(i - 1, ".") || IsPunct(i - 1, "->")) &&
          IsPunct(i + 1, "(")) {
        const std::string recv = IsIdent(i - 2) ? At(i - 2).text : "";
        if (reserved.count(recv) == 0) {
          flag(At(i).line,
               t + " without a prior " +
                   (recv.empty() ? std::string("reserve")
                                 : recv + ".reserve(...)"));
        }
        continue;
      }
      if (t == "Value" && !qualified &&
          (IsPunct(i + 1, "(") || IsPunct(i + 1, "{"))) {
        flag(At(i).line, "Value boxing (Value temporary)");
        continue;
      }
      // A Value factory boxes one cell (Value::Null() carries nothing),
      // and so does reading a column through GetValue.
      if (t == "Value" && !qualified && IsPunct(i + 1, "::") &&
          IsIdent(i + 2) && At(i + 2).text != "Null" &&
          IsPunct(i + 3, "(")) {
        flag(At(i).line, "Value boxing (Value::" + At(i + 2).text + ")");
        continue;
      }
      if (t == "GetValue" && i >= 1 &&
          (IsPunct(i - 1, ".") || IsPunct(i - 1, "->")) &&
          IsPunct(i + 1, "(")) {
        flag(At(i).line, "Value boxing (GetValue)");
        continue;
      }
    }
  }

  const std::string& path_;
  const TokenFile& tf_;
  FileFacts* out_;
  std::vector<const Token*> code_;
};

}  // namespace

FileFacts ExtractFileFacts(const SourceFile& file) {
  FileFacts out;
  out.path = file.path;
  out.content_hash = HashContent(file.content);
  const TokenFile tf = Tokenize(file.content);

  // Quoted includes, from preprocessor tokens: # include "target".
  const auto& toks = tf.tokens;
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].pp && toks[i].kind == TokenKind::kPunct &&
        toks[i].text == "#" && toks[i + 1].kind == TokenKind::kIdentifier &&
        toks[i + 1].text == "include" &&
        toks[i + 2].kind == TokenKind::kString) {
      out.includes.push_back({toks[i + 2].text, toks[i + 2].line});
    }
  }

  // Function facts + hot-path findings.
  Extractor extractor(file.path, tf, &out);
  extractor.Run();

  // Per-file token rules, then NOLINT suppression over everything.
  auto merge = [&out](std::vector<Finding> more) {
    out.findings.insert(out.findings.end(),
                        std::make_move_iterator(more.begin()),
                        std::make_move_iterator(more.end()));
  };
  merge(CheckNakedMutexTokens(file.path, tf));
  merge(CheckBannedCallsTokens(file.path, tf));
  merge(CheckInstrumentNamesTokens(file.path, tf));
  merge(CheckEndpointPathsTokens(file.path, tf));
  if (file.path.size() > 2 &&
      file.path.compare(file.path.size() - 2, 2, ".h") == 0) {
    merge(CheckHeaderGuardTokens(file.path, tf, file.path));
  }
  out.findings.erase(
      std::remove_if(out.findings.begin(), out.findings.end(),
                     [&tf](const Finding& f) {
                       return tf.IsSuppressed(f.line, f.rule);
                     }),
      out.findings.end());
  std::sort(out.findings.begin(), out.findings.end(),
            [](const Finding& a, const Finding& b) {
              return a.line != b.line ? a.line < b.line : a.rule < b.rule;
            });
  return out;
}

// ---------------------------------------------------------------------
// Pass 1: lock-order
// ---------------------------------------------------------------------

namespace {

struct HeldLock {
  std::string id;
  std::string site;  // "path:line Display acquires id"
  int depth = 0;     // brace depth inside its acquiring frame
  size_t frame = 0;  // index into the call chain
};

struct LockGraphBuilder {
  // (held, acquired) -> first witness.
  std::map<std::pair<std::string, std::string>, std::string> edges;

  void Traverse(const FileFacts& file, const FunctionFacts& fn,
                const std::map<std::string,
                               std::vector<const FunctionFacts*>>& tu,
                std::vector<HeldLock>* held,
                std::vector<std::string>* chain,
                std::set<const FunctionFacts*>* active) {
    if (active->count(&fn) > 0 || chain->size() > 12) return;
    active->insert(&fn);
    chain->push_back(DisplayName(fn));
    const size_t frame = chain->size() - 1;
    const size_t base = held->size();
    for (const LockOp& op : fn.ops) {
      switch (op.kind) {
        case LockOp::kAcquire: {
          const std::string site = file.path + ":" +
                                   std::to_string(op.line) + " " +
                                   DisplayName(fn);
          for (const HeldLock& h : *held) {
            auto key = std::make_pair(h.id, op.name);
            if (edges.count(key) > 0) continue;
            std::string witness = h.site + " acquires " + h.id +
                                  ", then " + site + " acquires " +
                                  op.name;
            if (h.frame != frame) {
              std::string path;
              for (size_t i = h.frame; i < chain->size(); ++i) {
                if (!path.empty()) path += " -> ";
                path += (*chain)[i];
              }
              witness += " (call path: " + path + ")";
            }
            edges.emplace(std::move(key), std::move(witness));
          }
          held->push_back({op.name, site, op.depth, frame});
          break;
        }
        case LockOp::kScopeEnd:
          while (held->size() > base && held->back().frame == frame &&
                 held->back().depth > op.depth) {
            held->pop_back();
          }
          break;
        case LockOp::kCall: {
          // Only recurse while a lock is held: lock-free call chains
          // produce no edges here, and every callee is traversed as a
          // root of its own anyway.
          if (held->empty()) break;
          auto it = tu.find(op.name);
          if (it == tu.end()) break;
          // Prefer a same-class overload when one exists.
          const FunctionFacts* callee = nullptr;
          for (const FunctionFacts* cand : it->second) {
            if (cand == &fn) continue;
            if (cand->class_name == fn.class_name) {
              callee = cand;
              break;
            }
            if (callee == nullptr) callee = cand;
          }
          if (callee != nullptr) {
            Traverse(file, *callee, tu, held, chain, active);
          }
          break;
        }
      }
    }
    held->resize(base);
    chain->pop_back();
    active->erase(&fn);
  }
};

}  // namespace

std::vector<LockEdge> BuildLockOrderGraph(
    const std::vector<FileFacts>& facts) {
  LockGraphBuilder builder;
  for (const FileFacts& file : facts) {
    // Same-TU call resolution index.
    std::map<std::string, std::vector<const FunctionFacts*>> tu;
    for (const FunctionFacts& fn : file.functions) {
      tu[fn.simple_name].push_back(&fn);
    }
    for (const FunctionFacts& fn : file.functions) {
      std::vector<HeldLock> held;
      std::vector<std::string> chain;
      std::set<const FunctionFacts*> active;
      builder.Traverse(file, fn, tu, &held, &chain, &active);
    }
  }
  std::vector<LockEdge> edges;
  edges.reserve(builder.edges.size());
  for (const auto& [key, witness] : builder.edges) {
    edges.push_back({key.first, key.second, witness});
  }
  return edges;
}

std::vector<Finding> CheckLockOrder(const std::vector<FileFacts>& facts) {
  const std::vector<LockEdge> edges = BuildLockOrderGraph(facts);
  std::map<std::string, std::map<std::string, const LockEdge*>> adj;
  for (const LockEdge& e : edges) {
    adj[e.held].emplace(e.acquired, &e);
  }

  std::vector<Finding> findings;
  std::set<std::string> reported;  // canonical cycle keys

  // Witness file for a finding: the file of the first edge's witness.
  auto witness_file = [](const std::string& witness) {
    return witness.substr(0, witness.find(':'));
  };

  // Self-deadlock: a lock re-acquired while already held.
  for (const LockEdge& e : edges) {
    if (e.held != e.acquired) continue;
    findings.push_back(
        {witness_file(e.witness), 0, "lock-order",
         "potential self-deadlock: " + e.held +
             " acquired while already held\n  witness: " + e.witness});
  }

  // Cycles via DFS with an explicit grey stack.
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack;

  std::function<void(const std::string&)> visit =
      [&](const std::string& node) {
        color[node] = 1;
        stack.push_back(node);
        auto it = adj.find(node);
        if (it != adj.end()) {
          for (const auto& [next, edge] : it->second) {
            if (next == node) continue;  // self edges reported above
            if (color[next] == 1) {
              // Cycle: stack from `next` to node, closed by this edge.
              auto at = std::find(stack.begin(), stack.end(), next);
              std::vector<std::string> cycle(at, stack.end());
              // Canonical key: rotate to the smallest lock id.
              auto min_it =
                  std::min_element(cycle.begin(), cycle.end());
              std::vector<std::string> canon(min_it, cycle.end());
              canon.insert(canon.end(), cycle.begin(), min_it);
              std::string key;
              for (const std::string& c : canon) key += c + "|";
              if (!reported.insert(key).second) continue;
              // Describe the cycle and EVERY edge's witness path (for
              // the two-lock inversion this prints both acquisition
              // orders, which is what makes the report actionable).
              std::string desc;
              for (const std::string& c : canon) desc += c + " -> ";
              desc += canon.front();
              std::string message =
                  "potential deadlock: lock-order cycle " + desc;
              std::string file;
              for (size_t i = 0; i < canon.size(); ++i) {
                const std::string& from = canon[i];
                const std::string& to = canon[(i + 1) % canon.size()];
                const LockEdge* w = adj[from][to];
                message += "\n  path " + std::to_string(i + 1) + ": " +
                           w->witness;
                if (file.empty()) file = witness_file(w->witness);
              }
              findings.push_back({file, 0, "lock-order", message});
            } else if (color[next] == 0) {
              visit(next);
            }
          }
        }
        stack.pop_back();
        color[node] = 2;
      };

  for (const auto& [node, _] : adj) {
    if (color[node] == 0) visit(node);
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return a.message < b.message;
            });
  return findings;
}

// ---------------------------------------------------------------------
// Pass 3: layer DAG
// ---------------------------------------------------------------------

const LayerGraph& RepoLayerGraph() {
  // The codified layering. An edge must be listed to be legal, so new
  // cross-module dependencies are a deliberate one-line diff here —
  // reviewed as architecture, not smuggled in via #include.
  static const LayerGraph* kGraph = new LayerGraph{
      {"common", {}},
      {"table", {"common"}},
      {"etl", {"common", "table"}},
      {"kb", {"common", "table"}},
      {"mining", {"common", "table"}},
      {"predict", {"common", "table"}},
      {"report", {"common", "table"}},
      {"warehouse", {"common", "table"}},
      {"discri", {"common", "table", "etl", "warehouse"}},
      {"olap", {"common", "table", "warehouse"}},
      {"mdx", {"common", "table", "olap", "warehouse"}},
      {"optimize", {"common", "table", "olap", "warehouse"}},
      {"core",
       {"common", "table", "etl", "kb", "mdx", "olap", "warehouse"}},
      {"server", {"common", "core"}},
  };
  return *kGraph;
}

std::vector<Finding> CheckLayerDag(const std::vector<FileFacts>& facts,
                                   const LayerGraph& layers) {
  std::vector<Finding> findings;
  for (const FileFacts& file : facts) {
    const std::string from = ModuleOf(file.path);
    if (from.empty()) continue;
    auto it = layers.find(from);
    if (it == layers.end()) {
      findings.push_back(
          {file.path, 0, "layer-dag",
           "module '" + from +
               "' is not registered in the layer DAG - add it (and its "
               "allowed dependencies) to RepoLayerGraph()"});
      continue;
    }
    for (const auto& [target, line] : file.includes) {
      const std::string to = ModuleOf(target);
      if (to.empty() || to == from) continue;
      if (layers.find(to) == layers.end()) {
        findings.push_back(
            {file.path, line, "layer-dag",
             "include of unregistered module '" + to + "' (" + target +
                 ")"});
        continue;
      }
      if (it->second.count(to) == 0) {
        std::string allowed;
        for (const std::string& a : it->second) {
          if (!allowed.empty()) allowed += ", ";
          allowed += a;
        }
        findings.push_back(
            {file.path, line, "layer-dag",
             "layer violation: '" + from + "' may not depend on '" + to +
                 "' (#include \"" + target + "\"); allowed: {" + allowed +
                 "}"});
      }
    }
  }
  return findings;
}

// ---------------------------------------------------------------------
// Suppression / baseline
// ---------------------------------------------------------------------

std::string BaselineKey(const Finding& f) {
  // Line numbers churn with unrelated edits; file+rule+first message
  // line is stable. Multi-line messages (lock-order witnesses) keep
  // only the headline.
  std::string first = f.message.substr(0, f.message.find('\n'));
  return f.file + ": [" + f.rule + "] " + first;
}

std::set<std::string> ParseBaseline(const std::string& content) {
  std::set<std::string> baseline;
  std::istringstream is(content);
  std::string line;
  while (std::getline(is, line)) {
    const size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    size_t end = line.find_last_not_of(" \t\r");
    baseline.insert(line.substr(start, end - start + 1));
  }
  return baseline;
}

std::vector<Finding> ApplyBaseline(std::vector<Finding> findings,
                                   const std::set<std::string>& baseline) {
  if (baseline.empty()) return findings;
  findings.erase(std::remove_if(findings.begin(), findings.end(),
                                [&baseline](const Finding& f) {
                                  return baseline.count(BaselineKey(f)) >
                                         0;
                                }),
                 findings.end());
  return findings;
}

// ---------------------------------------------------------------------
// Output formats
// ---------------------------------------------------------------------

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace

std::string FormatFindings(const std::vector<Finding>& findings,
                           OutputFormat format) {
  std::string out;
  switch (format) {
    case OutputFormat::kText:
      for (const Finding& f : findings) out += f.ToString() + "\n";
      return out;
    case OutputFormat::kJson: {
      out = "[";
      for (size_t i = 0; i < findings.size(); ++i) {
        const Finding& f = findings[i];
        if (i > 0) out += ",";
        out += "\n  {\"file\":\"" + JsonEscape(f.file) +
               "\",\"line\":" + std::to_string(f.line) + ",\"rule\":\"" +
               JsonEscape(f.rule) + "\",\"message\":\"" +
               JsonEscape(f.message) + "\"}";
      }
      out += findings.empty() ? "]\n" : "\n]\n";
      return out;
    }
    case OutputFormat::kSarif: {
      // Minimal SARIF 2.1.0: one run, one rule object per distinct
      // rule id, one result per finding. GitHub code scanning and VS
      // Code's SARIF viewer both accept this shape.
      std::set<std::string> rules;
      for (const Finding& f : findings) rules.insert(f.rule);
      out =
          "{\n"
          "  \"$schema\": "
          "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
          "  \"version\": \"2.1.0\",\n"
          "  \"runs\": [{\n"
          "    \"tool\": {\"driver\": {\"name\": \"ddgms_analyzer\", "
          "\"rules\": [";
      size_t i = 0;
      for (const std::string& rule : rules) {
        if (i++ > 0) out += ", ";
        out += "{\"id\": \"ddgms-" + JsonEscape(rule) + "\"}";
      }
      out += "]}},\n    \"results\": [";
      for (size_t r = 0; r < findings.size(); ++r) {
        const Finding& f = findings[r];
        if (r > 0) out += ",";
        out += "\n      {\"ruleId\": \"ddgms-" + JsonEscape(f.rule) +
               "\", \"level\": \"error\", \"message\": {\"text\": \"" +
               JsonEscape(f.message) +
               "\"}, \"locations\": [{\"physicalLocation\": "
               "{\"artifactLocation\": {\"uri\": \"src/" +
               JsonEscape(f.file) +
               "\"}, \"region\": {\"startLine\": " +
               std::to_string(f.line == 0 ? 1 : f.line) + "}}}]}";
      }
      out += findings.empty() ? "]\n" : "\n    ]\n";
      out += "  }]\n}\n";
      return out;
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// Parse cache
// ---------------------------------------------------------------------

namespace {

constexpr const char kCacheHeader[] = "ddgms-analyzer-cache v2";

std::string EscapeLine(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '\\') {
      out += "\\\\";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string UnescapeLine(const std::string& s) {
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      out.push_back(s[i + 1] == 'n' ? '\n' : s[i + 1]);
      ++i;
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

}  // namespace

std::string SerializeFacts(const std::vector<FileFacts>& facts) {
  std::ostringstream out;
  out << kCacheHeader << "\n";
  for (const FileFacts& f : facts) {
    out << "file " << std::hex << f.content_hash << std::dec << " "
        << f.path << "\n";
    for (const auto& [target, line] : f.includes) {
      out << "i " << line << " " << target << "\n";
    }
    for (const FunctionFacts& fn : f.functions) {
      out << "f " << fn.line << " " << (fn.hot ? 1 : 0) << " "
          << (fn.class_name.empty() ? "-" : fn.class_name) << " "
          << fn.name << "\n";
      for (const LockOp& op : fn.ops) {
        const char kind = op.kind == LockOp::kAcquire  ? 'a'
                          : op.kind == LockOp::kCall   ? 'c'
                                                       : 'e';
        out << "o " << kind << " " << op.depth << " " << op.line << " "
            << op.name << "\n";
      }
    }
    for (const Finding& g : f.findings) {
      out << "g " << g.line << " " << g.rule << " "
          << EscapeLine(g.message) << "\n";
    }
    out << "end\n";
  }
  return out.str();
}

std::map<std::string, FileFacts> DeserializeFacts(
    const std::string& content) {
  std::map<std::string, FileFacts> cache;
  std::istringstream is(content);
  std::string line;
  if (!std::getline(is, line) || line != kCacheHeader) return cache;
  FileFacts current;
  bool open = false;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "file") {
      std::string hash;
      ls >> hash;
      current = FileFacts();
      current.content_hash = std::stoull(hash, nullptr, 16);
      ls >> std::ws;
      std::getline(ls, current.path);
      open = true;
    } else if (!open) {
      continue;
    } else if (tag == "i") {
      size_t ln = 0;
      std::string target;
      ls >> ln >> target;
      current.includes.push_back({target, ln});
    } else if (tag == "f") {
      FunctionFacts fn;
      int hot = 0;
      std::string cls;
      ls >> fn.line >> hot >> cls >> fn.name;
      fn.hot = hot != 0;
      fn.class_name = cls == "-" ? "" : cls;
      const size_t sep = fn.name.rfind("::");
      fn.simple_name =
          sep == std::string::npos ? fn.name : fn.name.substr(sep + 2);
      current.functions.push_back(std::move(fn));
    } else if (tag == "o" && !current.functions.empty()) {
      char kind = 'c';
      LockOp op;
      ls >> kind >> op.depth >> op.line;
      ls >> std::ws;
      std::getline(ls, op.name);
      op.kind = kind == 'a'   ? LockOp::kAcquire
                : kind == 'c' ? LockOp::kCall
                              : LockOp::kScopeEnd;
      current.functions.back().ops.push_back(std::move(op));
    } else if (tag == "g") {
      Finding f;
      f.file = current.path;
      ls >> f.line >> f.rule;
      ls >> std::ws;
      std::string message;
      std::getline(ls, message);
      f.message = UnescapeLine(message);
      current.findings.push_back(std::move(f));
    } else if (tag == "end") {
      cache[current.path] = std::move(current);
      current = FileFacts();
      open = false;
    }
  }
  return cache;
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

std::vector<Finding> AnalyzeSources(const std::vector<SourceFile>& files,
                                    const LayerGraph& layers) {
  std::vector<FileFacts> facts;
  facts.reserve(files.size());
  std::vector<Finding> findings;
  for (const SourceFile& file : files) {
    facts.push_back(ExtractFileFacts(file));
    findings.insert(findings.end(), facts.back().findings.begin(),
                    facts.back().findings.end());
  }
  auto merge = [&findings](std::vector<Finding> more) {
    findings.insert(findings.end(),
                    std::make_move_iterator(more.begin()),
                    std::make_move_iterator(more.end()));
  };
  merge(CheckLockOrder(facts));
  merge(CheckLayerDag(facts, layers));
  return findings;
}

Result<AnalyzerReport> RunAnalyzer(const AnalyzerOptions& options) {
  std::error_code ec;
  fs::directory_entry root(options.src_root, ec);
  if (ec || !root.is_directory()) {
    return Status::NotFound("src root '" + options.src_root +
                            "' is not a readable directory");
  }

  std::map<std::string, FileFacts> cache;
  if (!options.cache_path.empty()) {
    std::ifstream in(options.cache_path);
    if (in) {
      std::ostringstream content;
      content << in.rdbuf();
      cache = DeserializeFacts(content.str());
    }
  }

  AnalyzerReport report;
  std::vector<FileFacts> facts;
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
    const std::string body = content.str();

    const uint64_t hash = HashContent(body);
    auto cached = cache.find(rel);
    if (cached != cache.end() && cached->second.content_hash == hash) {
      facts.push_back(cached->second);
      ++report.cache_hits;
    } else {
      facts.push_back(ExtractFileFacts({rel, body}));
    }
  }
  std::sort(facts.begin(), facts.end(),
            [](const FileFacts& a, const FileFacts& b) {
              return a.path < b.path;
            });
  report.files_analyzed = facts.size();

  std::vector<Finding>& findings = report.findings;
  for (const FileFacts& f : facts) {
    findings.insert(findings.end(), f.findings.begin(),
                    f.findings.end());
  }
  auto merge = [&findings](std::vector<Finding> more) {
    findings.insert(findings.end(),
                    std::make_move_iterator(more.begin()),
                    std::make_move_iterator(more.end()));
  };
  merge(CheckLockOrder(facts));
  merge(CheckLayerDag(facts, RepoLayerGraph()));

  if (!options.baseline_path.empty()) {
    std::ifstream in(options.baseline_path);
    if (in) {
      std::ostringstream content;
      content << in.rdbuf();
      findings =
          ApplyBaseline(std::move(findings),
                        ParseBaseline(content.str()));
    }
  }

  if (!options.cache_path.empty()) {
    std::ofstream out(options.cache_path, std::ios::trunc);
    if (out) out << SerializeFacts(facts);
  }
  return report;
}

// ---------------------------------------------------------------------
// Self-test (bench_compare --selftest style, wired into CTest)
// ---------------------------------------------------------------------

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "ddgms_analyzer selftest FAIL: %s\n",
                 what.c_str());
    ++g_failures;
  }
}

size_t CountRule(const std::vector<Finding>& findings,
                 const std::string& rule) {
  size_t n = 0;
  for (const Finding& f : findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

}  // namespace

int RunSelfTest() {
  g_failures = 0;

  // 1. The canonical two-lock inversion: A then B in one TU, B then A
  //    via a same-TU helper call in another.
  {
    std::vector<SourceFile> files = {
        {"alpha/a.cc",
         "#include \"common/sync.h\"\n"
         "void TakeBoth() {\n"
         "  MutexLock l1(a_mu_);\n"
         "  MutexLock l2(b_mu_);\n"
         "}\n"},
        {"beta/b.cc",
         "#include \"common/sync.h\"\n"
         "void HelperTakesA() { MutexLock l(a_mu_); }\n"
         "void TakeReversed() {\n"
         "  MutexLock l(b_mu_);\n"
         "  HelperTakesA();\n"
         "}\n"},
    };
    std::vector<FileFacts> facts;
    for (const auto& f : files) facts.push_back(ExtractFileFacts(f));
    // File-scoped lock ids differ (a::a_mu_ vs b::a_mu_) — that is
    // deliberate in production; the fixture shares ids via classes.
    std::vector<Finding> findings = CheckLockOrder(facts);
    Expect(findings.empty(),
           "file-scoped locks must not unify across TUs");
  }
  {
    const char* kA =
        "class Pair {\n"
        " public:\n"
        "  void TakeBoth() {\n"
        "    MutexLock l1(a_mu_);\n"
        "    MutexLock l2(b_mu_);\n"
        "  }\n"
        "};\n";
    const char* kB =
        "class Pair {\n"
        " public:\n"
        "  void HelperTakesA() { MutexLock l(a_mu_); }\n"
        "  void TakeReversed() {\n"
        "    MutexLock l(b_mu_);\n"
        "    HelperTakesA();\n"
        "  }\n"
        "};\n";
    std::vector<FileFacts> facts = {
        ExtractFileFacts({"alpha/a.cc", kA}),
        ExtractFileFacts({"beta/b.cc", kB})};
    std::vector<Finding> findings = CheckLockOrder(facts);
    Expect(CountRule(findings, "lock-order") == 1,
           "deadlock cycle detected exactly once");
    if (!findings.empty()) {
      const std::string& m = findings[0].message;
      Expect(m.find("path 1:") != std::string::npos &&
                 m.find("path 2:") != std::string::npos,
             "cycle report carries both witness paths");
      Expect(m.find("Pair::a_mu_") != std::string::npos &&
                 m.find("Pair::b_mu_") != std::string::npos,
             "witnesses name the class-qualified locks");
    }
  }

  // 2. Hot-path hygiene: allocation inside DDGMS_HOT flagged, same
  //    code without the annotation quiet, NOLINT suppresses.
  {
    SourceFile hot{"olap/kernel.cc",
                   "DDGMS_HOT void Accumulate(Rows& rows) {\n"
                   "  for (auto& r : rows) {\n"
                   "    out.push_back(r);\n"
                   "    std::string key = r.key();\n"
                   "    acc.Add(col->GetValue(r.i));\n"
                   "    acc.Add(Value::Int(1));\n"
                   "  }\n"
                   "  return Value::Null();\n"
                   "}\n"
                   "void Cold(Rows& rows) { std::string s; }\n"};
    FileFacts facts = ExtractFileFacts(hot);
    Expect(CountRule(facts.findings, "hot-path-alloc") == 4,
           "hot function flags push_back, std::string and two boxings; "
           "Value::Null and the cold function are quiet");
    SourceFile suppressed{
        "olap/kernel.cc",
        "DDGMS_HOT void Accumulate(Rows& rows) {\n"
        "  out.reserve(rows.size());\n"
        "  for (auto& r : rows) {\n"
        "    out.push_back(r);\n"
        "    std::string key = r.key();  // NOLINT(ddgms-hot-path-alloc)\n"
        "  }\n"
        "}\n"};
    FileFacts clean = ExtractFileFacts(suppressed);
    Expect(CountRule(clean.findings, "hot-path-alloc") == 0,
           "reserve + NOLINT silence the hot pass");
  }

  // 3. Layer DAG: a forbidden upward edge is an error.
  {
    std::vector<SourceFile> files = {
        {"table/value.cc", "#include \"olap/cube.h\"\n"},
    };
    std::vector<FileFacts> facts = {ExtractFileFacts(files[0])};
    std::vector<Finding> findings =
        CheckLayerDag(facts, RepoLayerGraph());
    Expect(CountRule(findings, "layer-dag") == 1,
           "table -> olap include is a layer violation");
  }

  // 4. Baseline round trip: a finding keyed into a baseline vanishes.
  {
    Finding f{"mdx/executor.cc", 42, "hot-path-alloc", "test finding"};
    std::set<std::string> baseline =
        ParseBaseline("# comment\n" + BaselineKey(f) + "\n");
    std::vector<Finding> left = ApplyBaseline({f}, baseline);
    Expect(left.empty(), "baselined finding suppressed");
    Expect(ApplyBaseline({f}, ParseBaseline("# nothing\n")).size() == 1,
           "unbaselined finding survives");
  }

  if (g_failures == 0) {
    std::printf("ddgms_analyzer selftest: OK\n");
    return 0;
  }
  std::fprintf(stderr, "ddgms_analyzer selftest: %d failure(s)\n",
               g_failures);
  return 1;
}

}  // namespace ddgms::lint
