// clip-analyze (binary: clip-lint) — project-specific static analysis for
// the CLIP reproduction.
//
// The invariants that keep the paper's Figs. 6–9 byte-reproducible are not
// expressible in the type system: no wall-clock reads inside the simulator,
// no iteration over hash-ordered containers in output paths, no
// fixed-precision double formatting outside format_exact, seeded RNG only,
// null-guarded observer hooks, and header hygiene. Since PR 8/9 the same
// holds for crash-consistency and concurrency: every journaled state
// mutation must reach the journal, guarded fields must be written under
// their mutex, and fallible I/O results must be consumed. This tool encodes
// all of it as named, suppressible rules over a token stream (a small lexer
// that strips comments and strings — no libclang dependency) plus a
// lightweight semantic layer: per-file function spans, a tracked-field
// symbol index, and a reusable intra-procedural flow engine (ScopeSim).
//
// Rules (docs/static-analysis.md has the full catalog and rationale):
//   D1  wall-clock reads outside src/obs/clock.hpp
//   D2  std::unordered_map/set declarations and iteration (hash order leaks)
//   D3  raw double formatting (%f/%e/%g format strings, std::to_string of a
//       floating literal) outside obs::format_exact's home
//   D4  unseeded RNG primitives (rand, std::random_device, std::mt19937...)
//       outside the clip::Rng wrapper
//   C1  observer/timeline hook pointers dereferenced without a null guard
//   H1  header hygiene: #pragma once / include guard, no `using namespace`
//   J1  a function mutating `journaled(...)` state must journal (directly
//       or via an intra-file callee) — crash-consistency coverage
//   J2  every journal record kind produced must be registered in
//       known_record_kinds() and vice versa (project-level)
//   L1  writes to `guards(...)` fields outside a lock_guard/scoped_lock
//   L2  lock-order cycles across tracked mutexes (project-level)
//   E1  discarded result of a `fallible(...)` call
//   LINT suppression/directive hygiene: missing reason, unknown rule,
//       unused entry, malformed declaration
//
// Directive syntax (a comment whose body STARTS with `clip-lint:`; the
// suppression reason is mandatory and machine-checked):
//   code();  - clip-lint: allow(D1) reason text           = this line
//   - clip-lint: allow(D2,D3) reason text                 = next code line
//   - clip-lint: allow-file(D2) reason text               = whole file
//   - clip-lint: journaled(state_, attempts_)             = J1 tracked fields
//   - clip-lint: guards(mu_: snapshot_)                   = L1/L2 tracked lock
//   - clip-lint: guards(mu_@obs_registry: counters_)      = cross-TU label
//   - clip-lint: fallible(load, save)                     = E1 tracked calls
// (written here with `-` in place of the comment slashes so the analyzer's
// own self-scan does not read the examples as live directives)
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace clip::lint {

struct Token {
  enum class Kind { kIdent, kNumber, kString, kChar, kPunct, kPreproc };
  Kind kind;
  std::string text;
  int line = 0;
};

/// One `clip-lint: allow(...)` comment, resolved to the line it covers.
struct Suppression {
  int comment_line = 0;   ///< where the comment sits
  int target_line = 0;    ///< line whose findings it suppresses
  bool file_scope = false;
  std::vector<std::string> rules;
  std::string reason;     ///< empty = invalid (LINT finding)
  bool used = false;
};

/// One `clip-lint: guards(mu[@label]: f1, f2)` declaration: writes to the
/// listed fields are only legal inside a lock_guard/scoped_lock over `mutex`.
/// The optional label names the lock across translation units (two files
/// annotating the same label share one node in the lock-order graph).
struct GuardDecl {
  int line = 0;
  std::string mutex;
  std::string label;  ///< empty = file-local node `path:mutex`
  std::vector<std::string> fields;
};

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
  bool suppressed = false;
  std::string reason;  ///< suppression reason when suppressed
};

/// A lexed translation unit: token stream plus the directive tables. Findings
/// discovered during lexing (malformed directives) land in `lex_findings`.
struct LexedFile {
  std::string path;
  bool is_header = false;
  std::vector<Token> tokens;
  std::vector<Suppression> suppressions;
  std::vector<Finding> lex_findings;
  std::vector<std::string> journaled_fields;  ///< J1 tracked state
  std::vector<std::string> fallible_names;    ///< E1 tracked calls
  std::vector<GuardDecl> guards;              ///< L1/L2 tracked locks
};

/// A journal record kind observed in source: produced at a jlog/
/// append_or_verify call site, or registered inside known_record_kinds().
struct KindSite {
  std::string kind;
  int line = 0;
};

/// One lock-order edge: `held` was active when `acquired` was taken. Node
/// ids are already resolved (`@label` or `path:mutex`).
struct LockEdge {
  std::string held;
  std::string acquired;
  int line = 0;
};

/// Per-file facts the project-level passes (J2, L2) consume.
struct FileFacts {
  std::vector<KindSite> produced_kinds;
  std::vector<KindSite> registered_kinds;
  std::vector<LockEdge> lock_edges;
};

/// analyze_source() output: per-file findings (suppressions applied, unused
/// check done for per-file rules), facts for the project passes, and the
/// suppressions that name project rules (applied by project_rules()).
struct FileResult {
  std::string path;
  std::vector<Finding> findings;
  FileFacts facts;
  std::vector<Suppression> project_suppressions;
};

/// Every valid rule id, in report order.
[[nodiscard]] const std::vector<std::string>& known_rules();

/// True for rules that need the whole scanned set (J2, L2), not one file.
[[nodiscard]] bool is_project_rule(std::string_view rule);

/// One-line description per rule id (SARIF rule metadata).
[[nodiscard]] std::string rule_description(const std::string& rule);

/// Lex `source`, strip comments/strings, collect directives.
[[nodiscard]] LexedFile lex(std::string_view source, std::string path);

/// lex() + every per-file rule pass + fact extraction. Matching
/// suppressions are marked used, and unused or malformed ones become LINT
/// findings; suppressions naming a project rule are deferred to
/// project_rules(). Suppressed findings stay in the list, flagged, so
/// reports can count them; CI gates only on the unsuppressed ones.
[[nodiscard]] FileResult analyze_source(std::string_view source,
                                        std::string path);

/// analyze_source(source, path).findings: one file's per-file findings.
[[nodiscard]] std::vector<Finding> lint_source(std::string_view source,
                                               std::string path);

/// Project-level passes over per-file facts: J2 bidirectional registry
/// coverage and L2 lock-order cycle detection. Applies (and unused-checks)
/// the deferred project suppressions. Returns only the project findings.
[[nodiscard]] std::vector<Finding> project_rules(
    std::vector<FileResult>& files);

struct Summary {
  int files_scanned = 0;
  int unsuppressed = 0;
  int suppressed = 0;
};

[[nodiscard]] Summary summarize(const std::vector<Finding>& findings,
                                int files_scanned);

/// Machine-readable report (stable field order, no timestamps — the linter
/// obeys its own D1). `suppressed_total` is recorded so reviews can watch
/// the suppression count trend across PRs.
[[nodiscard]] std::string to_json(const std::vector<Finding>& findings,
                                  int files_scanned);

/// Human-readable `file:line: RULE: message` lines, unsuppressed first.
[[nodiscard]] std::string to_text(const std::vector<Finding>& findings,
                                  int files_scanned);

/// SARIF 2.1.0 (deterministic, no timestamps): unsuppressed findings at
/// level "error", suppressed ones carried with an inSource suppression and
/// the reason as justification. Driver name: clip-analyze.
[[nodiscard]] std::string to_sarif(const std::vector<Finding>& findings);

}  // namespace clip::lint
