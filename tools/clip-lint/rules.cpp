// Rule passes for clip-analyze. Every per-file pass walks the token stream
// of one file; none needs type information — the invariants were chosen so
// their violations are visible at the token level (docs/static-analysis.md
// spells out what each rule can and cannot see). The J/L/E families lean on
// the semantic layer in analysis.hpp: function spans, the ScopeSim flow
// engine, and the directive tables the lexer collected.

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "analysis.hpp"
#include "lint.hpp"

namespace clip::lint {

namespace {

bool path_ends_with(const std::string& path, std::string_view suffix) {
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

bool is(const Tokens& t, std::size_t i, std::string_view text) {
  return tok_is(t, i, text);
}

bool is_ident(const Tokens& t, std::size_t i) { return tok_ident(t, i); }

/// Opener index for the ")" or "]" at `j`; t.size() when unbalanced.
std::size_t match_back(const Tokens& t, std::size_t j) {
  const std::string& close = t[j].text;
  const std::string open = (close == ")") ? "(" : "[";
  int depth = 0;
  for (std::size_t k = j + 1; k-- > 0;) {
    if (t[k].text == close) ++depth;
    if (t[k].text == open && --depth == 0) return k;
    if (k == 0) break;
  }
  return t.size();
}

// ---------------------------------------------------------------------------
// D1 — wall-clock reads outside the injected-clock seam (src/obs/clock.hpp).
// The simulator's time axis is simulated seconds; a single wall-clock read
// in a decision or export path makes figure output run-dependent.
// ---------------------------------------------------------------------------
void rule_d1(const LexedFile& f, std::vector<Finding>& out) {
  if (path_ends_with(f.path, "src/obs/clock.hpp")) return;
  static const std::set<std::string, std::less<>> kClockIdents = {
      "system_clock", "steady_clock",  "high_resolution_clock",
      "clock_gettime", "gettimeofday", "localtime",
      "gmtime",        "strftime",     "mktime",
      "timespec_get"};
  const Tokens& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent) continue;
    if (kClockIdents.count(t[i].text) != 0) {
      out.push_back({f.path, t[i].line, "D1",
                     "wall-clock source '" + t[i].text +
                         "' outside src/obs/clock.hpp; inject a "
                         "clip::obs::Clock (or simulated time) instead",
                     false,
                     {}});
      continue;
    }
    // Qualified std::time( / std::clock( / ::time( calls.
    if ((t[i].text == "time" || t[i].text == "clock") && is(t, i + 1, "(") &&
        i >= 1 && is(t, i - 1, "::") &&
        (i == 1 || is(t, i - 2, "std") || t[i - 2].kind != Token::Kind::kIdent)) {
      out.push_back({f.path, t[i].line, "D1",
                     "wall-clock call '" + t[i].text +
                         "()' outside src/obs/clock.hpp; inject a "
                         "clip::obs::Clock (or simulated time) instead",
                     false,
                     {}});
    }
  }
}

// ---------------------------------------------------------------------------
// D2 — hash-ordered containers. Iteration order of std::unordered_map/set
// is implementation- and size-dependent, so any iteration can leak
// nondeterministic order into exports, fingerprints or float accumulation.
// Declarations are flagged too: keeping one requires a suppression whose
// reason asserts the container is lookup-only.
// ---------------------------------------------------------------------------
void rule_d2(const LexedFile& f, std::vector<Finding>& out) {
  const Tokens& t = f.tokens;
  std::set<std::string> unordered_names;

  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent ||
        (t[i].text != "unordered_map" && t[i].text != "unordered_set"))
      continue;
    out.push_back({f.path, t[i].line, "D2",
                   "std::" + t[i].text +
                       " has hash-dependent iteration order; use std::map/"
                       "std::set or suppress with a lookup-only reason",
                   false,
                   {}});
    // Collect the declared name: skip <...> then modifiers, expect ident.
    std::size_t j = i + 1;
    if (is(t, j, "<")) {
      int depth = 0;
      for (; j < t.size(); ++j) {
        if (t[j].text == "<") ++depth;
        if (t[j].text == ">" && --depth == 0) {
          ++j;
          break;
        }
      }
    }
    while (is(t, j, "&") || is(t, j, "*") || is(t, j, "const")) ++j;
    if (is_ident(t, j)) unordered_names.insert(t[j].text);
  }
  if (unordered_names.empty()) return;

  for (std::size_t i = 0; i < t.size(); ++i) {
    // Range-for over an unordered container: for ( ... : name ...)
    if (is(t, i, "for") && is(t, i + 1, "(")) {
      int depth = 0;
      std::size_t colon = 0;
      std::size_t close = i + 1;
      for (std::size_t j = i + 1; j < t.size(); ++j) {
        if (t[j].text == "(") ++depth;
        if (t[j].text == ")" && --depth == 0) {
          close = j;
          break;
        }
        if (t[j].text == ":" && depth == 1 && colon == 0) colon = j;
      }
      if (colon != 0) {
        for (std::size_t j = colon + 1; j < close; ++j) {
          if (is_ident(t, j) && unordered_names.count(t[j].text) != 0) {
            out.push_back({f.path, t[j].line, "D2",
                           "iteration over hash-ordered container '" +
                               t[j].text + "'",
                           false,
                           {}});
          }
        }
      }
    }
    // Explicit iterator walk: name.begin( / name.cbegin( / rbegin.
    if (is_ident(t, i) && unordered_names.count(t[i].text) != 0 &&
        (is(t, i + 1, ".") || is(t, i + 1, "->")) && i + 2 < t.size()) {
      const std::string& m = t[i + 2].text;
      if (m == "begin" || m == "cbegin" || m == "rbegin" || m == "crbegin") {
        out.push_back({f.path, t[i].line, "D2",
                       "iteration over hash-ordered container '" + t[i].text +
                           "' via ." + m + "()",
                       false,
                       {}});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// D3 — raw double formatting. Fixed-precision conversions (%f/%e/%g,
// std::to_string's fixed six decimals) round doubles before they reach a
// file, so a value that round-trips through CSV stops matching the number
// the simulator computed. Exact exports go through obs::format_exact
// (shortest %.17g); its home file is the one allowed raw conversion site.
// ---------------------------------------------------------------------------
bool has_float_conversion(const std::string& literal) {
  for (std::size_t i = 0; i + 1 < literal.size(); ++i) {
    if (literal[i] != '%') continue;
    std::size_t j = i + 1;
    if (j < literal.size() && literal[j] == '%') {
      i = j;  // %% escape
      continue;
    }
    while (j < literal.size() &&
           (std::string("-+ #0123456789.*'").find(literal[j]) !=
            std::string::npos))
      ++j;
    while (j < literal.size() &&
           (literal[j] == 'l' || literal[j] == 'L' || literal[j] == 'h'))
      ++j;
    if (j < literal.size() &&
        std::string("fFeEgGaA").find(literal[j]) != std::string::npos)
      return true;
  }
  return false;
}

void rule_d3(const LexedFile& f, std::vector<Finding>& out) {
  if (path_ends_with(f.path, "src/obs/timeline.cpp")) return;  // format_exact
  const Tokens& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind == Token::Kind::kString && has_float_conversion(t[i].text)) {
      out.push_back({f.path, t[i].line, "D3",
                     "fixed-precision float conversion in format string " +
                         t[i].text +
                         "; exact output goes through obs::format_exact",
                     false,
                     {}});
    }
    // std::to_string(<float literal ...>): fixed six decimals, lossy.
    if (is(t, i, "to_string") && i >= 2 && is(t, i - 1, "::") &&
        is(t, i - 2, "std") && is(t, i + 1, "(")) {
      int depth = 0;
      for (std::size_t j = i + 1; j < t.size(); ++j) {
        if (t[j].text == "(") ++depth;
        if (t[j].text == ")" && --depth == 0) break;
        if (t[j].kind == Token::Kind::kNumber &&
            t[j].text.find("0x") != 0 &&
            (t[j].text.find('.') != std::string::npos ||
             t[j].text.find('e') != std::string::npos ||
             t[j].text.find('E') != std::string::npos)) {
          out.push_back({f.path, t[j].line, "D3",
                         "std::to_string of a floating value formats at a "
                         "fixed six decimals; use obs::format_exact",
                         false,
                         {}});
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// D4 — RNG primitives outside the seeded wrapper. clip::Rng (xoshiro256**,
// hand-rolled distributions) is the only randomness source whose streams
// are seeded, splittable and platform-identical; std primitives are either
// unseeded (random_device) or unspecified across standard libraries
// (distributions), and rand() is both.
// ---------------------------------------------------------------------------
void rule_d4(const LexedFile& f, std::vector<Finding>& out) {
  if (path_ends_with(f.path, "src/util/rng.hpp") ||
      path_ends_with(f.path, "src/util/rng.cpp"))
    return;
  static const std::set<std::string, std::less<>> kRngIdents = {
      "random_device",      "mt19937",       "mt19937_64",
      "minstd_rand",        "minstd_rand0",  "default_random_engine",
      "ranlux24",           "ranlux48",      "knuth_b",
      "random_shuffle",     "uniform_real_distribution",
      "uniform_int_distribution", "normal_distribution",
      "bernoulli_distribution"};
  const Tokens& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent) continue;
    if (kRngIdents.count(t[i].text) != 0) {
      out.push_back({f.path, t[i].line, "D4",
                     "std RNG primitive '" + t[i].text +
                         "' outside clip::Rng; draw from a seeded Rng stream",
                     false,
                     {}});
      continue;
    }
    if ((t[i].text == "rand" || t[i].text == "srand") && is(t, i + 1, "(") &&
        (i == 0 || (!is(t, i - 1, ".") && !is(t, i - 1, "->")))) {
      out.push_back({f.path, t[i].line, "D4",
                     "'" + t[i].text +
                         "()' is unseeded global state; draw from a seeded "
                         "clip::Rng stream",
                     false,
                     {}});
    }
  }
}

// ---------------------------------------------------------------------------
// C1 — observer/timeline hooks must be null-guarded. The byte-identity
// contract (detached run == no obs side effects) holds because every hook
// dereference sits behind a single branch; an unguarded dereference is a
// crash on the detached path. Recognized justifications, in source order:
//   if (hook_ ...) <stmt-or-block>        guard over the statement/block
//   if (hook_ == nullptr) return;         early exit guards the rest of scope
//   hook_ = <non-null>;                   assignment guards the rest of scope
//   hook_ && hook_->...  /  hook_ ? ...   same-expression truthiness
// The pass drives ScopeSim (analysis.hpp) — C1 is where the flow engine's
// fact semantics were born, and the fixture suite pins them.
// ---------------------------------------------------------------------------
bool is_hook_name(const std::string& s) {
  static const std::set<std::string, std::less<>> kHooks = {
      "obs_", "observer_", "timeline_", "session_", "sink_", "tracer_"};
  return kHooks.count(s) != 0;
}

void rule_c1(const LexedFile& f, std::vector<Finding>& out) {
  const Tokens& t = f.tokens;
  ScopeSim sim(t);

  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& tx = t[i].text;
    sim.step(i);

    // Guard analysis at each `if (...)`.
    if (tx == "if" && is(t, i + 1, "(")) {
      const std::size_t close = find_close_paren(t, i + 1);
      std::vector<std::string> positive;
      std::vector<std::string> negative;
      for (std::size_t j = i + 2; j < close; ++j) {
        if (!is_ident(t, j) || !is_hook_name(t[j].text)) continue;
        const bool negated =
            (j > 0 && is(t, j - 1, "!")) ||
            (is(t, j + 1, "==") && is(t, j + 2, "nullptr"));
        (negated ? negative : positive).push_back(t[j].text);
      }
      if (!positive.empty()) {
        const bool block = is(t, close + 1, "{");
        for (const std::string& name : positive)
          sim.add_fact(name, block ? ScopeSim::FactKind::kBlock
                                   : ScopeSim::FactKind::kStmt);
      }
      if (!negative.empty()) {
        // Does the guarded statement leave the scope?
        bool exits = false;
        if (is(t, close + 1, "{")) {
          int d = 0;
          for (std::size_t j = close + 1; j < t.size(); ++j) {
            if (t[j].text == "{") ++d;
            if (t[j].text == "}" && --d == 0) break;
            if (t[j].text == "return" || t[j].text == "throw" ||
                t[j].text == "continue" || t[j].text == "break" ||
                t[j].text == "abort")
              exits = true;
          }
        } else {
          for (std::size_t j = close + 1;
               j < t.size() && t[j].text != ";"; ++j) {
            if (t[j].text == "return" || t[j].text == "throw" ||
                t[j].text == "continue" || t[j].text == "break" ||
                t[j].text == "abort")
              exits = true;
          }
        }
        if (exits)
          for (const std::string& name : negative)
            sim.add_fact(name, ScopeSim::FactKind::kScope);
      }
    }

    // Assignment establishes non-null for the rest of the scope.
    if (is_ident(t, i) && is_hook_name(tx) && is(t, i + 1, "=") &&
        !is(t, i + 2, "nullptr") &&
        (i == 0 || (!is(t, i - 1, ".") && !is(t, i - 1, "->") &&
                    !is(t, i - 1, "=") && !is(t, i - 1, "!") &&
                    !is(t, i - 1, "<") && !is(t, i - 1, ">")))) {
      sim.add_fact(tx, ScopeSim::FactKind::kScope);
    }

    // The check itself: hook_-> without an active fact or same-expression
    // truth test.
    if (is_ident(t, i) && is_hook_name(tx) && is(t, i + 1, "->")) {
      bool justified = sim.has_fact(tx);
      if (!justified) {
        for (std::size_t j = i; j-- > 0;) {
          const std::string& back = t[j].text;
          if (back == ";" || back == "{" || back == "}") break;
          if (back == tx &&
              (is(t, j + 1, "&&") || is(t, j + 1, "?") ||
               (is(t, j + 1, "!=") && is(t, j + 2, "nullptr")))) {
            justified = true;
            break;
          }
        }
      }
      if (!justified) {
        out.push_back({f.path, t[i].line, "C1",
                       "hook pointer '" + tx +
                           "' dereferenced without a null guard; detached "
                           "runs must stay byte-identical (if (" +
                           tx + ") " + tx + "->...)",
                       false,
                       {}});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// H1 — header hygiene: every header carries #pragma once (or a classic
// include guard), and headers never inject `using namespace` into every
// includer.
// ---------------------------------------------------------------------------
void rule_h1(const LexedFile& f, std::vector<Finding>& out) {
  const Tokens& t = f.tokens;
  if (f.is_header) {
    bool guarded = false;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (is(t, i, "#pragma") && is(t, i + 1, "once")) guarded = true;
      if (is(t, i, "#ifndef") && i + 2 < t.size() && is(t, i + 2, "#define"))
        guarded = true;
    }
    if (!guarded)
      out.push_back({f.path, 1, "H1",
                     "header lacks #pragma once (or an include guard)", false,
                     {}});
  }
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (f.is_header && is(t, i, "using") && is(t, i + 1, "namespace")) {
      out.push_back({f.path, t[i].line, "H1",
                     "'using namespace' in a header leaks into every "
                     "includer",
                     false,
                     {}});
    }
  }
}

// ---------------------------------------------------------------------------
// Shared write detection for J1/L1. The identifier at `i` is a tracked
// field; is this occurrence a mutation? Token shapes recognized:
//   x = v        x op= v       x++ / ++x (lexed `+ +` / `- -`)
//   x[i] = v     x[i] op= v    x[i]++
//   x.push_back(...) and the other mutating container methods
// Occurrences reached through `.`/`->`/`::` belong to another object and
// are skipped (tracked fields are annotated per translation unit, where
// member access is spelled bare).
// ---------------------------------------------------------------------------
bool is_mutating_method(const std::string& m) {
  static const std::set<std::string, std::less<>> kMutators = {
      "push_back",  "pop_back",  "emplace_back", "emplace",   "push_front",
      "pop_front",  "clear",     "erase",        "resize",    "assign",
      "insert",     "swap"};
  return kMutators.count(m) != 0;
}

bool is_write_at(const Tokens& t, std::size_t i) {
  if (i > 0 && (is(t, i - 1, ".") || is(t, i - 1, "->") || is(t, i - 1, "::")))
    return false;
  auto assign_op_at = [&](std::size_t j) {
    if (is(t, j, "=")) return true;  // `==`/`!=` lex as single tokens
    static const std::string kOps = "+-*/%&|^";
    return j < t.size() && t[j].text.size() == 1 &&
           kOps.find(t[j].text[0]) != std::string::npos && is(t, j + 1, "=");
  };
  auto incdec_at = [&](std::size_t j) {
    return (is(t, j, "+") && is(t, j + 1, "+")) ||
           (is(t, j, "-") && is(t, j + 1, "-"));
  };
  if (assign_op_at(i + 1) || incdec_at(i + 1)) return true;
  if (i >= 2 && incdec_at(i - 2)) return true;  // prefix ++x / --x
  if (is(t, i + 1, "[")) {
    int depth = 0;
    for (std::size_t j = i + 1; j < t.size(); ++j) {
      if (t[j].text == "[") ++depth;
      if (t[j].text == "]" && --depth == 0)
        return assign_op_at(j + 1) || incdec_at(j + 1);
    }
    return false;
  }
  if ((is(t, i + 1, ".") || is(t, i + 1, "->")) && i + 2 < t.size() &&
      is_ident(t, i + 2) && is(t, i + 3, "(") &&
      is_mutating_method(t[i + 2].text))
    return true;
  return false;
}

// ---------------------------------------------------------------------------
// J1 — crash-consistency coverage. In a file that declares
// `journaled(f1, f2, ...)`, every function that mutates a tracked field
// must reach the journal: either an `<ident starting with "journal">.append`
// / `->append` call in its own body, or a call to another function in the
// same file that does (computed as a fixed point over the intra-file call
// graph, so helpers like jlog/append_or_verify propagate the property to
// their callers). One finding per function, at the first unjournaled
// mutation, naming every mutated field.
// ---------------------------------------------------------------------------
bool journal_primitive_at(const Tokens& t, std::size_t i) {
  if (!is_ident(t, i) || t[i].text.rfind("journal", 0) != 0) return false;
  return (is(t, i + 1, ".") || is(t, i + 1, "->")) &&
         is(t, i + 2, "append") && is(t, i + 3, "(");
}

void rule_j1(const LexedFile& f, std::vector<Finding>& out) {
  if (f.journaled_fields.empty()) return;
  const Tokens& t = f.tokens;
  const std::set<std::string> tracked(f.journaled_fields.begin(),
                                      f.journaled_fields.end());
  const std::vector<FunctionSpan> spans = find_functions(t);
  std::set<std::string> defined_names;
  for (const FunctionSpan& s : spans) defined_names.insert(s.name);

  struct Info {
    bool journals = false;
    std::set<std::string> calls;
    std::set<std::string> mutated;
    int first_line = 0;
  };
  std::vector<Info> infos(spans.size());

  for (std::size_t s = 0; s < spans.size(); ++s) {
    Info& info = infos[s];
    for (std::size_t i = spans[s].body_begin; i <= spans[s].body_end &&
                                              i < t.size();
         ++i) {
      if (journal_primitive_at(t, i)) info.journals = true;
      if (is_ident(t, i) && is(t, i + 1, "(") && !is(t, i - 1, ".") &&
          defined_names.count(t[i].text) != 0)
        info.calls.insert(t[i].text);
      if (is_ident(t, i) && tracked.count(t[i].text) != 0 &&
          is_write_at(t, i)) {
        if (info.mutated.empty()) info.first_line = t[i].line;
        info.mutated.insert(t[i].text);
      }
    }
  }

  // Fixed point over function NAMES (overloads share the property): a
  // function journals if any same-named span journals or any callee does.
  std::set<std::string> journaling;
  for (std::size_t s = 0; s < spans.size(); ++s)
    if (infos[s].journals) journaling.insert(spans[s].name);
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t s = 0; s < spans.size(); ++s) {
      if (journaling.count(spans[s].name) != 0) continue;
      for (const std::string& callee : infos[s].calls) {
        if (journaling.count(callee) != 0) {
          journaling.insert(spans[s].name);
          changed = true;
          break;
        }
      }
    }
  }

  for (std::size_t s = 0; s < spans.size(); ++s) {
    const Info& info = infos[s];
    if (info.mutated.empty() || journaling.count(spans[s].name) != 0)
      continue;
    std::string fields;
    for (const std::string& m : info.mutated)
      fields += (fields.empty() ? "" : ", ") + m;
    out.push_back({f.path, info.first_line, "J1",
                   "function '" + spans[s].name +
                       "' mutates journaled state (" + fields +
                       ") but reaches no journal append on any intra-file "
                       "path; a crash here is unrecoverable",
                   false,
                   {}});
  }
}

// ---------------------------------------------------------------------------
// L1 — lock discipline over `guards(mutex[@label]: fields...)` declarations:
// a write to a guarded field is only legal while a lock_guard/scoped_lock/
// unique_lock over its mutex is in scope. Reads are not flagged (several
// hot paths read racily on purpose and document it); the write set is what
// corrupts state. The same walk records lock-order edges (mutex A held
// while B is acquired) for the project-level L2 cycle check.
// ---------------------------------------------------------------------------
void rule_l1(const LexedFile& f, std::vector<Finding>& out,
             std::vector<LockEdge>& edges) {
  if (f.guards.empty()) return;
  const Tokens& t = f.tokens;

  std::map<std::string, const GuardDecl*> field_guard;
  std::set<std::string> tracked_mutexes;
  std::map<std::string, std::string> node_id;
  for (const GuardDecl& g : f.guards) {
    tracked_mutexes.insert(g.mutex);
    node_id[g.mutex] =
        g.label.empty() ? f.path + ":" + g.mutex : "@" + g.label;
    for (const std::string& field : g.fields) field_guard[field] = &g;
  }

  ScopeSim sim(t);
  struct Held {
    std::string mutex;
    int depth;
  };
  std::vector<Held> held;

  auto holds = [&](const std::string& mutex) {
    return std::any_of(held.begin(), held.end(),
                       [&](const Held& h) { return h.mutex == mutex; });
  };

  for (std::size_t i = 0; i < t.size(); ++i) {
    sim.step(i);
    std::erase_if(held, [&](const Held& h) { return sim.brace() < h.depth; });

    const std::string& tx = t[i].text;
    if (is_ident(t, i) && (tx == "lock_guard" || tx == "scoped_lock" ||
                           tx == "unique_lock")) {
      std::size_t j = i + 1;
      if (is(t, j, "<")) {
        int depth = 0;
        for (; j < t.size(); ++j) {
          if (t[j].text == "<") ++depth;
          if (t[j].text == ">" && --depth == 0) {
            ++j;
            break;
          }
        }
      }
      if (is_ident(t, j) && is(t, j + 1, "(")) {
        const std::size_t close = find_close_paren(t, j + 1);
        for (std::size_t k = j + 2; k < close; ++k) {
          if (!is_ident(t, k) || tracked_mutexes.count(t[k].text) == 0)
            continue;
          for (const Held& h : held)
            if (h.mutex != t[k].text)
              edges.push_back(
                  {node_id[h.mutex], node_id[t[k].text], t[k].line});
          held.push_back({t[k].text, sim.brace()});
        }
      }
    }

    if (is_ident(t, i) && field_guard.count(tx) != 0 && is_write_at(t, i)) {
      const GuardDecl* g = field_guard[tx];
      if (!holds(g->mutex)) {
        out.push_back({f.path, t[i].line, "L1",
                       "write to '" + tx + "' (guarded by '" + g->mutex +
                           "') outside a lock_guard/scoped_lock scope",
                       false,
                       {}});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// E1 — discarded fallible results. Files declare their fallible calls via
// `fallible(name, ...)` (a token-level tool cannot see return types, so
// fallibility is declared, not guessed); a declared call whose whole
// statement is the bare call — not assigned, tested, returned, or cast to
// void — silently swallows the failure. Calls inside a try block are
// exempt: the handler is the consumer there.
// ---------------------------------------------------------------------------
void rule_e1(const LexedFile& f, std::vector<Finding>& out) {
  if (f.fallible_names.empty()) return;
  const Tokens& t = f.tokens;
  const std::set<std::string> tracked(f.fallible_names.begin(),
                                      f.fallible_names.end());
  ScopeSim sim(t);

  for (std::size_t i = 0; i < t.size(); ++i) {
    sim.step(i);
    if (!is_ident(t, i) || tracked.count(t[i].text) == 0 ||
        !is(t, i + 1, "("))
      continue;
    const std::size_t close = find_close_paren(t, i + 1);
    if (close >= t.size() || !is(t, close + 1, ";")) continue;  // consumed

    // Walk back to the start of the postfix chain (`a.b->c(...).load(...)`).
    std::size_t s = i;
    while (s >= 2 && (is(t, s - 1, ".") || is(t, s - 1, "->") ||
                      is(t, s - 1, "::"))) {
      if (is_ident(t, s - 2)) {
        s -= 2;
        continue;
      }
      if (is(t, s - 2, ")") || is(t, s - 2, "]")) {
        const std::size_t open = match_back(t, s - 2);
        if (open == t.size()) break;
        if (open >= 1 && is_ident(t, open - 1)) {
          s = open - 1;
          continue;
        }
        s = open;
      }
      break;
    }
    if (s == 0) continue;

    const std::string& prev = t[s - 1].text;
    bool stmt_position = prev == ";" || prev == "{" || prev == "}" ||
                         prev == "else" || prev == "do";
    if (prev == ")") {
      const std::size_t open = match_back(t, s - 1);
      if (open != t.size()) {
        if (open >= 1 &&
            (is(t, open - 1, "if") || is(t, open - 1, "while") ||
             is(t, open - 1, "for") || is(t, open - 1, "switch"))) {
          stmt_position = true;  // unbraced body of a control statement
        }
        // else: a cast — `(void)x.load()` and friends consume explicitly.
      }
    }
    if (!stmt_position || sim.in_try()) continue;

    out.push_back({f.path, t[i].line, "E1",
                   "result of fallible call '" + t[i].text +
                       "' is discarded; check it, or cast to void with a "
                       "comment saying why failure is acceptable",
                   false,
                   {}});
  }
}

// ---------------------------------------------------------------------------
// Fact extraction for the project passes.
// ---------------------------------------------------------------------------
void extract_facts(const LexedFile& f, FileFacts& facts) {
  const Tokens& t = f.tokens;
  // Produced journal kinds: jlog("kind"...) / append_or_verify("kind"...)
  // call sites with a literal first argument (the repo convention — jlog's
  // own parameter forwarding has an identifier there and is skipped).
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!is_ident(t, i) ||
        (t[i].text != "jlog" && t[i].text != "append_or_verify"))
      continue;
    if (!is(t, i + 1, "(") || t[i + 2].kind != Token::Kind::kString) continue;
    const std::string& lit = t[i + 2].text;
    if (lit.size() < 2) continue;
    facts.produced_kinds.push_back(
        {lit.substr(1, lit.size() - 2), t[i].line});
  }
  // Registered kinds: every string literal inside known_record_kinds().
  for (const FunctionSpan& s : find_functions(t)) {
    if (s.name != "known_record_kinds") continue;
    for (std::size_t i = s.body_begin; i <= s.body_end && i < t.size(); ++i) {
      if (t[i].kind != Token::Kind::kString || t[i].text.size() < 2) continue;
      facts.registered_kinds.push_back(
          {t[i].text.substr(1, t[i].text.size() - 2), t[i].line});
    }
  }
}

// ---------------------------------------------------------------------------
// The per-file pipeline behind analyze_source: rule passes, suppressions.
// ---------------------------------------------------------------------------
bool names_project_rule(const Suppression& sup) {
  return std::any_of(sup.rules.begin(), sup.rules.end(),
                     [](const std::string& r) { return is_project_rule(r); });
}

void run_per_file_rules(const LexedFile& f, std::vector<Finding>& findings,
                        std::vector<LockEdge>& edges) {
  rule_d1(f, findings);
  rule_d2(f, findings);
  rule_d3(f, findings);
  rule_d4(f, findings);
  rule_c1(f, findings);
  rule_h1(f, findings);
  rule_j1(f, findings);
  rule_l1(f, findings, edges);
  rule_e1(f, findings);
}

void validate_suppressions(const LexedFile& f,
                           std::vector<Finding>& findings) {
  const auto& rules = known_rules();
  for (const Suppression& sup : f.suppressions) {
    if (sup.rules.empty()) {
      findings.push_back({f.path, sup.comment_line, "LINT",
                          "suppression lists no rules", false,
                          {}});
    }
    for (const std::string& r : sup.rules) {
      if (std::find(rules.begin(), rules.end(), r) == rules.end()) {
        findings.push_back({f.path, sup.comment_line, "LINT",
                            "suppression names unknown rule '" + r + "'",
                            false,
                            {}});
      }
    }
    if (sup.reason.empty()) {
      findings.push_back(
          {f.path, sup.comment_line, "LINT",
           "suppression without a reason; write `// clip-lint: allow(RULE) "
           "why this is safe`",
           false,
           {}});
    }
  }
}

void apply_suppressions(LexedFile& f, std::vector<Finding>& findings) {
  for (Finding& fi : findings) {
    if (fi.rule == "LINT") continue;  // hygiene findings are not suppressible
    if (fi.suppressed) continue;
    for (Suppression& sup : f.suppressions) {
      if (sup.reason.empty()) continue;
      if (std::find(sup.rules.begin(), sup.rules.end(), fi.rule) ==
          sup.rules.end())
        continue;
      if (!sup.file_scope && sup.target_line != fi.line) continue;
      fi.suppressed = true;
      fi.reason = sup.reason;
      sup.used = true;
      break;
    }
  }
}

void flag_unused_suppressions(const LexedFile& f,
                              std::vector<Finding>& findings) {
  const auto& rules = known_rules();
  for (const Suppression& sup : f.suppressions) {
    if (sup.used || sup.reason.empty() || sup.rules.empty()) continue;
    // Project-rule suppressions can only be judged once every file's facts
    // are in — project_rules() owns their unused check.
    if (names_project_rule(sup)) continue;
    bool all_known = true;
    for (const std::string& r : sup.rules)
      if (std::find(rules.begin(), rules.end(), r) == rules.end())
        all_known = false;
    if (!all_known) continue;
    findings.push_back({f.path, sup.comment_line, "LINT",
                        "suppression never matched a finding; delete it",
                        false,
                        {}});
  }
}

void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
}

}  // namespace

const std::vector<std::string>& known_rules() {
  static const std::vector<std::string> kRules = {
      "D1", "D2", "D3", "D4", "C1", "H1",
      "J1", "J2", "L1", "L2", "E1", "LINT"};
  return kRules;
}

bool is_project_rule(std::string_view rule) {
  return rule == "J2" || rule == "L2";
}

std::string rule_description(const std::string& rule) {
  static const std::map<std::string, std::string> kDescriptions = {
      {"D1", "wall-clock read outside the injected-clock seam"},
      {"D2", "hash-ordered container declaration or iteration"},
      {"D3", "fixed-precision double formatting outside obs::format_exact"},
      {"D4", "std RNG primitive outside the seeded clip::Rng wrapper"},
      {"C1", "observer/timeline hook dereference without a null guard"},
      {"H1", "header hygiene: include guard and no using-namespace"},
      {"J1", "journaled state mutated with no journal append on any path"},
      {"J2", "journal record kind missing from known_record_kinds()"},
      {"L1", "write to a guarded field outside its lock scope"},
      {"L2", "lock-order cycle across tracked mutexes"},
      {"E1", "result of a declared-fallible call discarded"},
      {"LINT", "suppression/directive hygiene"}};
  const auto it = kDescriptions.find(rule);
  return it == kDescriptions.end() ? std::string("unknown rule") : it->second;
}

FileResult analyze_source(std::string_view source, std::string path) {
  LexedFile f = lex(source, std::move(path));
  FileResult r;
  r.path = f.path;
  r.findings = f.lex_findings;
  run_per_file_rules(f, r.findings, r.facts.lock_edges);
  validate_suppressions(f, r.findings);
  apply_suppressions(f, r.findings);
  flag_unused_suppressions(f, r.findings);
  sort_findings(r.findings);
  extract_facts(f, r.facts);
  for (const Suppression& sup : f.suppressions)
    if (names_project_rule(sup)) r.project_suppressions.push_back(sup);
  return r;
}

std::vector<Finding> lint_source(std::string_view source, std::string path) {
  return analyze_source(source, std::move(path)).findings;
}

}  // namespace clip::lint
