// Lexer for clip-lint: a minimal C++ tokenizer that is exact about the three
// things the rules need — line numbers, string-literal contents (D3 scans
// format strings), and comments (the suppression channel) — and deliberately
// coarse about everything else. Multi-character punctuators are only split
// out where a rule depends on them (`::`, `->`, `==`, `!=`, `&&`, `||`);
// `<` and `>` stay single tokens so template-argument skipping can balance
// them without special-casing shift operators.

#include <cctype>

#include "lint.hpp"

namespace clip::lint {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Split a `(`-terminated directive list on commas/spaces.
std::vector<std::string> split_list(std::string_view list) {
  std::vector<std::string> out;
  std::string current;
  auto flush = [&] {
    if (!current.empty()) out.push_back(current);
    current.clear();
  };
  for (char c : list) {
    if (c == ',' || c == ' ') {
      flush();
    } else {
      current.push_back(c);
    }
  }
  flush();
  return out;
}

/// Parse one `clip-lint:` comment body. Returns false when the comment is
/// not a clip-lint directive at all. A directive is ANCHORED: the comment
/// body must start with `clip-lint:` after stripping whitespace — prose
/// that merely mentions the tag (docs, the analyzer's own sources) is not a
/// directive. Verbs: allow / allow-file (suppressions), journaled / guards /
/// fallible (tracked-state declarations for J1, L1/L2, E1).
bool parse_directive(std::string_view body, int line, LexedFile& out) {
  std::string_view rest = body;
  while (!rest.empty() &&
         std::isspace(static_cast<unsigned char>(rest.front())))
    rest.remove_prefix(1);
  if (rest.rfind("clip-lint:", 0) != 0) return false;
  rest.remove_prefix(10);
  while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);

  auto malformed = [&](const std::string& what) {
    out.lex_findings.push_back({out.path, line, "LINT", what, false, {}});
    return true;
  };

  std::string verb;
  for (char c : rest) {
    if (c == '(') break;
    verb.push_back(c);
  }
  const bool known_verb = verb == "allow" || verb == "allow-file" ||
                          verb == "journaled" || verb == "guards" ||
                          verb == "fallible";
  if (!known_verb || rest.size() <= verb.size() ||
      rest[verb.size()] != '(') {
    return malformed(
        "malformed clip-lint directive (expected allow(RULE), "
        "allow-file(RULE), journaled(FIELDS), guards(MUTEX: FIELDS) or "
        "fallible(NAMES))");
  }
  rest.remove_prefix(verb.size() + 1);
  const std::size_t close = rest.find(')');
  if (close == std::string_view::npos)
    return malformed("unterminated " + verb + "(...) list");
  const std::string_view list = rest.substr(0, close);

  if (verb == "journaled" || verb == "fallible") {
    std::vector<std::string> names = split_list(list);
    if (names.empty())
      return malformed(verb + "() lists no names; declare the tracked " +
                       (verb == "journaled" ? std::string("fields")
                                            : std::string("calls")));
    auto& into =
        (verb == "journaled") ? out.journaled_fields : out.fallible_names;
    into.insert(into.end(), names.begin(), names.end());
    return true;
  }

  if (verb == "guards") {
    const std::size_t colon = list.find(':');
    if (colon == std::string_view::npos)
      return malformed(
          "guards() needs `mutex: field, field` (optionally mutex@label)");
    GuardDecl decl;
    decl.line = line;
    std::string mutex(list.substr(0, colon));
    while (!mutex.empty() && mutex.back() == ' ') mutex.pop_back();
    while (!mutex.empty() && mutex.front() == ' ') mutex.erase(0, 1);
    const std::size_t at = mutex.find('@');
    if (at != std::string::npos) {
      decl.label = mutex.substr(at + 1);
      mutex.resize(at);
    }
    decl.mutex = mutex;
    decl.fields = split_list(list.substr(colon + 1));
    if (decl.mutex.empty() || decl.fields.empty())
      return malformed(
          "guards() needs `mutex: field, field` (optionally mutex@label)");
    out.guards.push_back(std::move(decl));
    return true;
  }

  Suppression sup;
  sup.comment_line = line;
  sup.file_scope = (verb == "allow-file");
  sup.rules = split_list(list);

  std::string_view reason = rest.substr(close + 1);
  while (!reason.empty() &&
         std::isspace(static_cast<unsigned char>(reason.front())))
    reason.remove_prefix(1);
  while (!reason.empty() &&
         std::isspace(static_cast<unsigned char>(reason.back())))
    reason.remove_suffix(1);
  sup.reason = std::string(reason);
  out.suppressions.push_back(sup);
  return true;
}

}  // namespace

LexedFile lex(std::string_view src, std::string path) {
  LexedFile out;
  out.path = std::move(path);
  out.is_header = out.path.size() >= 4 &&
                  (out.path.ends_with(".hpp") || out.path.ends_with(".h"));

  std::size_t i = 0;
  int line = 1;
  int last_token_line = 0;  // detects comments trailing code on a line
  bool line_is_preproc = false;
  bool line_is_include = false;

  auto push = [&](Token::Kind kind, std::string text) {
    out.tokens.push_back({kind, std::move(text), line});
    last_token_line = line;
  };

  // Standalone suppression comments apply to the next code line; resolve
  // them once that line is known. -1 marks "pending".
  auto handle_comment = [&](std::string_view body, int at_line) {
    const std::size_t before = out.suppressions.size();
    if (!parse_directive(body, at_line, out)) return;
    if (out.suppressions.size() == before) return;  // malformed, no entry
    Suppression& sup = out.suppressions.back();
    sup.target_line = (last_token_line == at_line) ? at_line : -1;
  };

  const std::size_t n = src.size();
  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      line_is_preproc = false;
      line_is_include = false;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Comments.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const std::size_t eol = src.find('\n', i);
      const std::size_t end = (eol == std::string_view::npos) ? n : eol;
      handle_comment(src.substr(i + 2, end - i - 2), line);
      i = end;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const int start_line = line;
      std::size_t j = i + 2;
      while (j + 1 < n && !(src[j] == '*' && src[j + 1] == '/')) {
        if (src[j] == '\n') ++line;
        ++j;
      }
      handle_comment(src.substr(i + 2, j - i - 2), start_line);
      i = (j + 1 < n) ? j + 2 : n;
      continue;
    }
    // Preprocessor directive: `#name`, with `#include <...>`/"..." consumed
    // whole so header names never masquerade as identifiers.
    if (c == '#' && !line_is_preproc) {
      line_is_preproc = true;
      std::size_t j = i + 1;
      while (j < n && src[j] == ' ') ++j;
      std::size_t k = j;
      while (k < n && ident_char(src[k])) ++k;
      // append(), not operator+: at -O3, GCC 12 reports a false
      // -Wrestrict overlap in the inlined concatenation (here and below).
      const std::string name = std::string("#").append(src.substr(j, k - j));
      push(Token::Kind::kPreproc, name);
      line_is_include = (name == "#include");
      i = k;
      continue;
    }
    if (line_is_include && (c == '<' || c == '"')) {
      const char close = (c == '<') ? '>' : '"';
      std::size_t j = i + 1;
      while (j < n && src[j] != close && src[j] != '\n') ++j;
      push(Token::Kind::kString, std::string(src.substr(i, j - i + 1)));
      i = (j < n) ? j + 1 : n;
      continue;
    }
    // Raw string literal R"delim(...)delim".
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      std::size_t p = i + 2;
      while (p < n && src[p] != '(') ++p;
      const std::string delim =
          std::string(")").append(src.substr(i + 2, p - i - 2)).append("\"");
      const std::size_t endpos = src.find(delim, p);
      const std::size_t stop =
          (endpos == std::string_view::npos) ? n : endpos + delim.size();
      std::string text(src.substr(i, stop - i));
      push(Token::Kind::kString, text);
      for (char ch : text)
        if (ch == '\n') ++line;
      i = stop;
      continue;
    }
    // String / char literals (escape-aware).
    if (c == '"' || c == '\'') {
      std::size_t j = i + 1;
      while (j < n && src[j] != c) {
        if (src[j] == '\\' && j + 1 < n) ++j;
        if (src[j] == '\n') ++line;
        ++j;
      }
      push(c == '"' ? Token::Kind::kString : Token::Kind::kChar,
           std::string(src.substr(i, j - i + 1)));
      i = (j < n) ? j + 1 : n;
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i;
      while (j < n && ident_char(src[j])) ++j;
      push(Token::Kind::kIdent, std::string(src.substr(i, j - i)));
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
      std::size_t j = i;
      while (j < n && (ident_char(src[j]) || src[j] == '.' ||
                       src[j] == '\'' ||
                       ((src[j] == '+' || src[j] == '-') && j > i &&
                        (src[j - 1] == 'e' || src[j - 1] == 'E' ||
                         src[j - 1] == 'p' || src[j - 1] == 'P'))))
        ++j;
      push(Token::Kind::kNumber, std::string(src.substr(i, j - i)));
      i = j;
      continue;
    }
    // Punctuation: keep only the pairs the rules read.
    if (i + 1 < n) {
      const std::string two(src.substr(i, 2));
      if (two == "::" || two == "->" || two == "==" || two == "!=" ||
          two == "&&" || two == "||") {
        push(Token::Kind::kPunct, two);
        i += 2;
        continue;
      }
    }
    push(Token::Kind::kPunct, std::string(1, c));
    ++i;
  }

  // Resolve pending (standalone-comment) suppressions to the next code line.
  for (Suppression& sup : out.suppressions) {
    if (sup.target_line != -1) continue;
    sup.target_line = sup.comment_line;  // fallback: nothing follows
    for (const Token& t : out.tokens) {
      if (t.line > sup.comment_line) {
        sup.target_line = t.line;
        break;
      }
    }
  }
  return out;
}

}  // namespace clip::lint
