#include "ddgms_lint/tokenizer.h"

#include <cctype>

namespace ddgms::lint {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Records `// NOLINT` / `// NOLINT(ddgms-rule[, ddgms-rule])` markers
/// found inside comment text for `line`.
void ScanNolint(const std::string& comment, size_t line, TokenFile* out) {
  size_t pos = 0;
  while ((pos = comment.find("NOLINT", pos)) != std::string::npos) {
    if (pos > 0 && IsIdentChar(comment[pos - 1])) {
      pos += 6;
      continue;
    }
    size_t after = pos + 6;
    if (after < comment.size() && comment[after] == '(') {
      const size_t close = comment.find(')', after);
      const std::string args =
          comment.substr(after + 1, close == std::string::npos
                                        ? std::string::npos
                                        : close - after - 1);
      std::string rule;
      for (size_t i = 0; i <= args.size(); ++i) {
        if (i == args.size() || args[i] == ',') {
          // Strip spaces and the "ddgms-" prefix.
          size_t b = 0, e = rule.size();
          while (b < e && rule[b] == ' ') ++b;
          while (e > b && rule[e - 1] == ' ') --e;
          std::string name = rule.substr(b, e - b);
          if (name.rfind("ddgms-", 0) == 0) name = name.substr(6);
          if (!name.empty()) out->nolint[line].insert(name);
          rule.clear();
        } else {
          rule.push_back(args[i]);
        }
      }
      pos = close == std::string::npos ? comment.size() : close;
    } else {
      out->nolint[line].insert("");  // bare NOLINT: everything
      pos = after;
    }
  }
}

}  // namespace

bool TokenFile::IsSuppressed(size_t line, const std::string& rule) const {
  auto it = nolint.find(line);
  if (it == nolint.end()) return false;
  return it->second.count("") > 0 || it->second.count(rule) > 0;
}

TokenFile Tokenize(const std::string& src) {
  TokenFile out;
  size_t i = 0;
  const size_t n = src.size();
  size_t line = 1;
  bool line_start = true;    // no token emitted yet on this logical line
  bool in_directive = false;  // between a line-opening '#' and its EOL

  auto emit = [&](Token tok) {
    if (line_start && tok.kind == TokenKind::kPunct && tok.text == "#") {
      in_directive = true;
    }
    tok.pp = in_directive;
    line_start = false;
    out.tokens.push_back(std::move(tok));
  };

  // Splices "\\\n" (and "\\\r\n") at the cursor; returns true when a
  // continuation was consumed. Physical line count still advances.
  auto splice = [&]() -> bool {
    bool any = false;
    while (i < n && src[i] == '\\') {
      size_t j = i + 1;
      if (j < n && src[j] == '\r') ++j;
      if (j < n && src[j] == '\n') {
        i = j + 1;
        ++line;
        any = true;
        continue;
      }
      break;
    }
    return any;
  };

  while (i < n) {
    if (splice()) continue;
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      line_start = true;
      in_directive = false;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v') {
      ++i;
      continue;
    }
    // Line comment (may be extended by a trailing line continuation,
    // which is why splice() runs inside the loop).
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const size_t comment_line = line;
      std::string body;
      i += 2;
      while (i < n && src[i] != '\n') {
        if (splice()) continue;
        body.push_back(src[i]);
        ++i;
      }
      ScanNolint(body, comment_line, &out);
      continue;
    }
    // Block comment. C++ block comments do not nest: the first "*/"
    // closes it even when the body contains further "/*" openers.
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      size_t comment_line = line;
      std::string body;
      i += 2;
      while (i < n && !(src[i] == '*' && i + 1 < n && src[i + 1] == '/')) {
        if (src[i] == '\n') {
          ScanNolint(body, comment_line, &out);
          body.clear();
          comment_line = ++line;
        } else {
          body.push_back(src[i]);
        }
        ++i;
      }
      ScanNolint(body, comment_line, &out);
      if (i < n) i += 2;
      continue;
    }
    // Raw string literal: R"delim( ... )delim" — no escapes inside.
    if (c == 'R' && i + 1 < n && src[i + 1] == '"' &&
        (out.tokens.empty() || i == 0 || !IsIdentChar(src[i - 1]))) {
      size_t d = i + 2;
      while (d < n && src[d] != '(' && src[d] != '"' && src[d] != '\n') {
        ++d;
      }
      if (d < n && src[d] == '(') {
        std::string close = ")";
        close.append(src, i + 2, d - (i + 2));
        close += '"';
        const size_t end = src.find(close, d + 1);
        const size_t stop = end == std::string::npos ? n : end;
        Token tok{TokenKind::kString, src.substr(d + 1, stop - d - 1), line};
        for (size_t k = d; k < stop; ++k) {
          if (src[k] == '\n') ++line;
        }
        emit(std::move(tok));
        i = end == std::string::npos ? n : end + close.size();
        continue;
      }
    }
    // String / char literal; value is decoded (escapes resolved to the
    // escaped character — good enough for name/path validation).
    if (c == '"' || c == '\'') {
      Token tok{c == '"' ? TokenKind::kString : TokenKind::kChar,
                std::string(), line};
      ++i;
      while (i < n && src[i] != c && src[i] != '\n') {
        if (src[i] == '\\' && i + 1 < n) {
          if (src[i + 1] == '\n') {  // continuation inside literal
            i += 2;
            ++line;
            continue;
          }
          tok.text.push_back(src[i + 1]);
          i += 2;
          continue;
        }
        tok.text.push_back(src[i]);
        ++i;
      }
      if (i < n && src[i] == c) ++i;  // else unterminated: close at EOL
      emit(std::move(tok));
      continue;
    }
    if (IsIdentStart(c)) {
      Token tok{TokenKind::kIdentifier, std::string(), line};
      while (i < n) {
        if (splice()) continue;
        if (!IsIdentChar(src[i])) break;
        tok.text.push_back(src[i]);
        ++i;
      }
      emit(std::move(tok));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      Token tok{TokenKind::kNumber, std::string(), line};
      // pp-number: digits, idents, dots, exponent signs.
      while (i < n) {
        if (splice()) continue;
        const char d = src[i];
        if (IsIdentChar(d) || d == '.' ||
            ((d == '+' || d == '-') && !tok.text.empty() &&
             (tok.text.back() == 'e' || tok.text.back() == 'E' ||
              tok.text.back() == 'p' || tok.text.back() == 'P'))) {
          tok.text.push_back(d);
          ++i;
        } else {
          break;
        }
      }
      emit(std::move(tok));
      continue;
    }
    // Punctuation. "::" and "->" matter to the rules as units; all
    // other punctuators are emitted one char at a time.
    if (c == ':' && i + 1 < n && src[i + 1] == ':') {
      emit({TokenKind::kPunct, "::", line});
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < n && src[i + 1] == '>') {
      emit({TokenKind::kPunct, "->", line});
      i += 2;
      continue;
    }
    emit({TokenKind::kPunct, std::string(1, c), line});
    ++i;
  }
  return out;
}

uint64_t HashContent(const std::string& content) {
  uint64_t h = 1469598103934665603ull;
  for (char c : content) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace ddgms::lint
