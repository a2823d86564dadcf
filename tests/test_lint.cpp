// clip-analyze's own test suite: every rule must fire on its violation
// fixture at the exact line, stay silent on the clean fixture, and the
// suppression machinery must reject reasonless or unknown-rule entries.
// Fixture files live in tests/lint_fixtures/ and are lint *inputs*, never
// compiled. The J/L/E families are additionally proven against mutants of
// the real sources under CLIP_SRC_DIR: each family must catch its defect
// when deliberately injected into the code it was built to protect, and
// must stay quiet on the pristine tree.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace clip::lint {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << "missing file " << path;
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

std::string fixture_path(const std::string& name) {
  return std::string(LINT_FIXTURES_DIR) + "/" + name;
}

std::vector<Finding> lint_fixture(const std::string& name) {
  return lint_source(read_file(fixture_path(name)), name);
}

FileResult analyze_fixture(const std::string& name) {
  return analyze_source(read_file(fixture_path(name)), name);
}

std::string src_path(const std::string& rel) {
  return std::string(CLIP_SRC_DIR) + "/" + rel;
}

/// All findings (per-file + project passes) over a set of already-analyzed
/// files — the same composition main.cpp performs.
std::vector<Finding> all_findings(std::vector<FileResult> results) {
  std::vector<Finding> findings;
  for (const FileResult& r : results)
    findings.insert(findings.end(), r.findings.begin(), r.findings.end());
  const std::vector<Finding> project = project_rules(results);
  findings.insert(findings.end(), project.begin(), project.end());
  return findings;
}

int open_count(const std::vector<Finding>& findings) {
  int n = 0;
  for (const Finding& f : findings)
    if (!f.suppressed) ++n;
  return n;
}

/// Replace the unique occurrence of `from` with `to`; fails the test when
/// the anchor text drifted out of the real source.
std::string mutate(std::string src, const std::string& from,
                   const std::string& to) {
  const std::size_t pos = src.find(from);
  EXPECT_NE(pos, std::string::npos) << "mutant anchor not found: " << from;
  if (pos != std::string::npos) src.replace(pos, from.size(), to);
  return src;
}

/// (rule, line) pairs of the findings matching `suppressed`.
std::vector<std::pair<std::string, int>> hits(
    const std::vector<Finding>& findings, bool suppressed) {
  std::vector<std::pair<std::string, int>> out;
  for (const Finding& f : findings)
    if (f.suppressed == suppressed) out.emplace_back(f.rule, f.line);
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  return out;
}

using Hits = std::vector<std::pair<std::string, int>>;

TEST(LintRules, D1FiresOnEveryWallClockSource) {
  const auto f = lint_fixture("d1_wall_clock.cpp");
  EXPECT_EQ(hits(f, false),
            (Hits{{"D1", 6}, {"D1", 11}, {"D1", 14}}));
}

TEST(LintRules, D2FiresOnDeclarationAndIteration) {
  const auto f = lint_fixture("d2_unordered.cpp");
  EXPECT_EQ(hits(f, false),
            (Hits{{"D2", 5}, {"D2", 9}, {"D2", 14}, {"D2", 16}}));
}

TEST(LintRules, D3FiresOnFixedPrecisionFormatting) {
  const auto f = lint_fixture("d3_raw_double.cpp");
  EXPECT_EQ(hits(f, false),
            (Hits{{"D3", 6}, {"D3", 11}, {"D3", 15}}));
}

TEST(LintRules, D4FiresOnStdRngPrimitives) {
  const auto f = lint_fixture("d4_rng.cpp");
  EXPECT_EQ(hits(f, false),
            (Hits{{"D4", 6}, {"D4", 11}, {"D4", 12}, {"D4", 16}}));
}

TEST(LintRules, C1FiresOnlyOnUnguardedHookDereferences) {
  const auto f = lint_fixture("c1_unguarded_hook.cpp");
  EXPECT_EQ(hits(f, false), (Hits{{"C1", 27}, {"C1", 33}}));
}

TEST(LintRules, H1FiresOnGuardlessHeaderAndUsingNamespace) {
  const auto f = lint_fixture("h1_header_hygiene.hpp");
  EXPECT_EQ(hits(f, false), (Hits{{"H1", 1}, {"H1", 5}}));
}

TEST(LintRules, CleanFixtureIsSilent) {
  const auto f = lint_fixture("clean.cpp");
  EXPECT_TRUE(f.empty()) << to_text(f, 1);
}

// ---------------------------------------------------------------------------
// J family — crash-consistency.
// ---------------------------------------------------------------------------

TEST(LintRules, J1FiresOnUnjournaledMutationAtFirstWrite) {
  const auto f = lint_fixture("j1_unjournaled_mutation.cpp");
  EXPECT_EQ(hits(f, false), (Hits{{"J1", 7}}));
  ASSERT_EQ(f.size(), 1u);
  EXPECT_NE(f[0].message.find("'bare_mutation'"), std::string::npos);
  EXPECT_NE(f[0].message.find("attempts_, state_"), std::string::npos);
}

TEST(LintRules, J2FlagsBothDirectionsOfRegistryDrift) {
  std::vector<FileResult> results;
  results.push_back(analyze_fixture("j2_kinds_producer.cpp"));
  results.push_back(analyze_fixture("j2_kinds_registry.cpp"));
  const auto findings = project_rules(results);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "J2");
  EXPECT_EQ(findings[0].file, "j2_kinds_producer.cpp");
  EXPECT_EQ(findings[0].line, 7);
  EXPECT_NE(findings[0].message.find("'rogue'"), std::string::npos);
  EXPECT_EQ(findings[1].rule, "J2");
  EXPECT_EQ(findings[1].file, "j2_kinds_registry.cpp");
  EXPECT_EQ(findings[1].line, 10);
  EXPECT_NE(findings[1].message.find("'ghost'"), std::string::npos);
}

TEST(LintRules, J2StaysSilentWithoutARegistryInTheScannedSet) {
  std::vector<FileResult> results;
  results.push_back(analyze_fixture("j2_kinds_producer.cpp"));
  EXPECT_TRUE(project_rules(results).empty());
}

// ---------------------------------------------------------------------------
// L family — lock discipline.
// ---------------------------------------------------------------------------

TEST(LintRules, L1FiresOnWritesOutsideTheLockScope) {
  const auto f = lint_fixture("l1_unlocked_write.cpp");
  EXPECT_EQ(hits(f, false), (Hits{{"L1", 13}, {"L1", 14}, {"L1", 22}}));
}

TEST(LintRules, L2ReportsTheLockOrderCycleOnce) {
  std::vector<FileResult> results;
  results.push_back(analyze_fixture("l2_lock_cycle.cpp"));
  EXPECT_TRUE(results[0].findings.empty())
      << to_text(results[0].findings, 1);
  const auto findings = project_rules(results);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "L2");
  EXPECT_EQ(findings[0].line, 17);
  EXPECT_NE(findings[0].message.find(
                "@fixture_a -> @fixture_b -> @fixture_a"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// E family — error handling.
// ---------------------------------------------------------------------------

TEST(LintRules, E1FiresOnlyOnDiscardedResults) {
  const auto f = lint_fixture("e1_discarded_result.cpp");
  EXPECT_EQ(hits(f, false), (Hits{{"E1", 7}, {"E1", 8}}));
}

// ---------------------------------------------------------------------------
// Mutants of the real sources: each family must catch its defect when
// injected into the code it protects, and stay quiet on the pristine tree.
// ---------------------------------------------------------------------------

TEST(LintMutants, PristineJournaledSourcesScanClean) {
  std::vector<FileResult> results;
  results.push_back(analyze_source(read_file(src_path("runtime/queue.cpp")),
                                   "src/runtime/queue.cpp"));
  results.push_back(analyze_source(read_file(src_path("runtime/journal.cpp")),
                                   "src/runtime/journal.cpp"));
  const auto findings = all_findings(std::move(results));
  EXPECT_EQ(open_count(findings), 0) << to_text(findings, 2);
}

TEST(LintMutants, J1CatchesAnUnjournaledModeTransition) {
  std::string src = read_file(src_path("runtime/queue.cpp"));
  src = mutate(src,
               "  if (journal_ != nullptr)\n"
               "    jlog(\"mode\", payload(\"to=\", to_string(mode_)",
               "  if (false)\n"
               "    jlog_disabled(payload(\"to=\", to_string(mode_)");
  src = mutate(src, "    if (factor < applied_factor_) brownout_clawback();\n",
               "");
  const FileResult r = analyze_source(src, "src/runtime/queue.cpp");
  bool caught = false;
  for (const Finding& f : r.findings)
    if (!f.suppressed && f.rule == "J1" &&
        f.message.find("'update_mode'") != std::string::npos)
      caught = true;
  EXPECT_TRUE(caught) << to_text(r.findings, 1);
}

TEST(LintMutants, J2CatchesARenamedRecordKind) {
  std::vector<FileResult> results;
  results.push_back(analyze_source(
      mutate(read_file(src_path("runtime/queue.cpp")), "jlog(\"complete\",",
             "jlog(\"completed\","),
      "src/runtime/queue.cpp"));
  results.push_back(analyze_source(read_file(src_path("runtime/journal.cpp")),
                                   "src/runtime/journal.cpp"));
  const auto findings = project_rules(results);
  int j2 = 0;
  for (const Finding& f : findings)
    if (!f.suppressed && f.rule == "J2") ++j2;
  EXPECT_EQ(j2, 2) << to_text(findings, 2);  // produced-side + registry-side
}

TEST(LintMutants, L1CatchesARemovedLockGuard) {
  const FileResult pristine = analyze_source(
      read_file(src_path("obs/telemetry_server.cpp")),
      "src/obs/telemetry_server.cpp");
  EXPECT_EQ(open_count(pristine.findings), 0)
      << to_text(pristine.findings, 1);

  const std::string src = mutate(
      read_file(src_path("obs/telemetry_server.cpp")),
      "  const std::lock_guard<std::mutex> lock(mu_);\n  snapshot_ = snapshot;",
      "  snapshot_ = snapshot;");
  const FileResult r =
      analyze_source(src, "src/obs/telemetry_server.cpp");
  bool caught = false;
  for (const Finding& f : r.findings)
    if (!f.suppressed && f.rule == "L1" &&
        f.message.find("'snapshot_'") != std::string::npos)
      caught = true;
  EXPECT_TRUE(caught) << to_text(r.findings, 1);
}

TEST(LintMutants, E1CatchesADiscardedJournalLoad) {
  const FileResult pristine = analyze_source(
      read_file(src_path("runtime/run_report.cpp")),
      "src/runtime/run_report.cpp");
  EXPECT_EQ(open_count(pristine.findings), 0)
      << to_text(pristine.findings, 1);

  const std::string src = mutate(
      read_file(src_path("runtime/run_report.cpp")),
      "const JournalLoadResult loaded = journal.load(journal_path);",
      "journal.load(journal_path);");
  const FileResult r =
      analyze_source(src, "src/runtime/run_report.cpp");
  bool caught = false;
  for (const Finding& f : r.findings)
    if (!f.suppressed && f.rule == "E1" &&
        f.message.find("'load'") != std::string::npos)
      caught = true;
  EXPECT_TRUE(caught) << to_text(r.findings, 1);
}

// ---------------------------------------------------------------------------
// Suppressions and reports.
// ---------------------------------------------------------------------------

TEST(LintSuppressions, ValidFormsSuppressAndInvalidFormsAreFindings) {
  const auto f = lint_fixture("suppressions.cpp");
  // Same-line and standalone-comment suppressions take effect...
  EXPECT_EQ(hits(f, true), (Hits{{"D1", 7}, {"D1", 13}}));
  // ...while a reasonless one leaves its D1 open and adds a LINT finding,
  // an unknown rule id is rejected, and an unused entry is reported.
  EXPECT_EQ(hits(f, false),
            (Hits{{"D1", 18}, {"LINT", 18}, {"LINT", 22}, {"LINT", 25}}));
}

TEST(LintSuppressions, ReasonsAreCarriedIntoTheReport) {
  const auto f = lint_fixture("suppressions.cpp");
  for (const Finding& fi : f) {
    if (fi.suppressed) {
      EXPECT_FALSE(fi.reason.empty());
    }
  }
}

TEST(LintSuppressions, FileScopeSuppressionCoversEveryLine) {
  const std::string src =
      "// clip-lint: allow-file(D4) fixture exercises file scope\n"
      "#include <random>\n"
      "int a() { std::random_device rd; return 0; }\n"
      "int b() { return rand() % 2; }\n";
  const auto f = lint_source(src, "virtual.cpp");
  EXPECT_TRUE(hits(f, false).empty()) << to_text(f, 1);
  EXPECT_EQ(hits(f, true).size(), 2u);
}

TEST(LintSuppressions, ProjectRuleSuppressionAppliesAtTheProjectPass) {
  std::vector<FileResult> results;
  std::string producer = read_file(fixture_path("j2_kinds_producer.cpp"));
  producer.insert(producer.find("    jlog(\"rogue\""),
                  "    // clip-lint: allow(J2) fixture exercises deferred "
                  "project suppression\n");
  results.push_back(analyze_source(producer, "j2_kinds_producer.cpp"));
  results.push_back(analyze_fixture("j2_kinds_registry.cpp"));
  const auto findings = project_rules(results);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_TRUE(findings[0].suppressed);  // rogue: suppressed with the reason
  EXPECT_FALSE(findings[0].reason.empty());
  EXPECT_FALSE(findings[1].suppressed);  // ghost stays open
}

TEST(LintReport, JsonCarriesCountsAndSuppressionTrend) {
  auto findings = lint_fixture("suppressions.cpp");
  const std::string json = to_json(findings, 1);
  EXPECT_NE(json.find("\"files_scanned\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"unsuppressed\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"suppressed\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"per_rule\""), std::string::npos);
  EXPECT_NE(json.find("\"reason\""), std::string::npos);
}

TEST(LintReport, SarifCarriesRulesLevelsAndInSourceSuppressions) {
  const auto findings = lint_fixture("suppressions.cpp");
  const std::string sarif = to_sarif(findings);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"clip-analyze\""), std::string::npos);
  // Every known rule is declared in the driver's rule table.
  for (const std::string& r : known_rules())
    EXPECT_NE(sarif.find("{\"id\": \"" + r + "\""), std::string::npos) << r;
  EXPECT_NE(sarif.find("\"level\": \"error\""), std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"note\""), std::string::npos);
  EXPECT_NE(sarif.find("\"kind\": \"inSource\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 7"), std::string::npos);
}

TEST(LintReport, SummaryCountsMatch) {
  const auto f = lint_fixture("suppressions.cpp");
  const Summary s = summarize(f, 1);
  EXPECT_EQ(s.files_scanned, 1);
  EXPECT_EQ(s.unsuppressed, 4);
  EXPECT_EQ(s.suppressed, 2);
}

TEST(LintRules, KnownRuleListIsStable) {
  const auto& rules = known_rules();
  EXPECT_EQ(rules,
            (std::vector<std::string>{"D1", "D2", "D3", "D4", "C1", "H1",
                                      "J1", "J2", "L1", "L2", "E1", "LINT"}));
  EXPECT_TRUE(is_project_rule("J2"));
  EXPECT_TRUE(is_project_rule("L2"));
  EXPECT_FALSE(is_project_rule("J1"));
  for (const std::string& r : rules)
    EXPECT_FALSE(rule_description(r).empty()) << r;
}

// ---------------------------------------------------------------------------
// Incremental cache: a pure accelerator — identical findings served from a
// warm entry, invalidated by content or rule-list drift, resilient to a
// corrupt file on disk.
// ---------------------------------------------------------------------------

TEST(LintCache, RoundTripsFindingsFactsAndSuppressions) {
  const std::string path = ::testing::TempDir() + "clip_lint_cache_rt.txt";
  const std::string src = read_file(fixture_path("l2_lock_cycle.cpp"));
  const std::uint64_t hash = content_hash(src);
  {
    ResultCache cache;
    cache.put(hash, analyze_source(src, "l2_lock_cycle.cpp"));
    ASSERT_TRUE(cache.save(path));
  }
  ResultCache cache;
  ASSERT_TRUE(cache.load(path));
  const FileResult* hit = cache.find("l2_lock_cycle.cpp", hash);
  ASSERT_NE(hit, nullptr);
  ASSERT_EQ(hit->facts.lock_edges.size(), 2u);
  EXPECT_EQ(hit->facts.lock_edges[0].held, "@fixture_a");
  EXPECT_EQ(hit->facts.lock_edges[0].acquired, "@fixture_b");
  // A different hash for the same path must miss.
  EXPECT_EQ(cache.find("l2_lock_cycle.cpp", hash + 1), nullptr);
  std::remove(path.c_str());
}

TEST(LintCache, WarmEntriesReproduceTheColdScanExactly) {
  const std::string path = ::testing::TempDir() + "clip_lint_cache_eq.txt";
  const std::vector<std::string> names = {
      "j1_unjournaled_mutation.cpp", "j2_kinds_producer.cpp",
      "j2_kinds_registry.cpp",       "l1_unlocked_write.cpp",
      "l2_lock_cycle.cpp",           "e1_discarded_result.cpp",
      "suppressions.cpp"};
  std::vector<FileResult> cold;
  {
    ResultCache cache;
    for (const std::string& n : names) {
      const std::string src = read_file(fixture_path(n));
      cold.push_back(analyze_source(src, n));
      cache.put(content_hash(src), cold.back());
    }
    ASSERT_TRUE(cache.save(path));
  }
  ResultCache cache;
  ASSERT_TRUE(cache.load(path));
  std::vector<FileResult> warm;
  for (const std::string& n : names) {
    const FileResult* hit = cache.find(n, content_hash(read_file(fixture_path(n))));
    ASSERT_NE(hit, nullptr) << n;
    warm.push_back(*hit);
  }
  const auto cold_findings = all_findings(std::move(cold));
  const auto warm_findings = all_findings(std::move(warm));
  ASSERT_EQ(cold_findings.size(), warm_findings.size());
  for (std::size_t i = 0; i < cold_findings.size(); ++i) {
    EXPECT_EQ(cold_findings[i].file, warm_findings[i].file);
    EXPECT_EQ(cold_findings[i].line, warm_findings[i].line);
    EXPECT_EQ(cold_findings[i].rule, warm_findings[i].rule);
    EXPECT_EQ(cold_findings[i].suppressed, warm_findings[i].suppressed);
    EXPECT_EQ(cold_findings[i].message, warm_findings[i].message);
    EXPECT_EQ(cold_findings[i].reason, warm_findings[i].reason);
  }
  std::remove(path.c_str());
}

TEST(LintCache, CorruptOrForeignFilesLoadAsEmpty) {
  const std::string path = ::testing::TempDir() + "clip_lint_cache_bad.txt";
  {
    std::ofstream os(path, std::ios::binary);
    os << "not a cache header\nfile\tx\tzzzz\n";
  }
  ResultCache cache;
  EXPECT_FALSE(cache.load(path));
  EXPECT_EQ(cache.size(), 0u);
  {
    // Right magic, corrupt numeric field: load must reject, not throw.
    ResultCache seed;
    seed.put(1, FileResult{"a.cpp", {}, {}, {}});
    ASSERT_TRUE(seed.save(path));
    std::string text = read_file(path);
    text += "F\tnot_a_number\tD1\t0\t\tmsg\n";
    std::ofstream os(path, std::ios::binary);
    os << text;
  }
  ResultCache cache2;
  EXPECT_FALSE(cache2.load(path));
  EXPECT_EQ(cache2.size(), 0u);
  std::remove(path.c_str());
}

TEST(LintLexer, StringsAndCommentsDoNotLeakIdentifiers) {
  // Identifier-like text inside strings/comments must not trip rules.
  const std::string src =
      "/* steady_clock in a block comment */\n"
      "const char* s = \"std::random_device\";  // system_clock\n";
  const auto f = lint_source(src, "virtual.cpp");
  EXPECT_TRUE(f.empty()) << to_text(f, 1);
}

TEST(LintLexer, IncludeDirectivesAreNotFindings) {
  const std::string src =
      "#include <unordered_map>\n#include <random>\n#include <ctime>\n";
  const auto f = lint_source(src, "virtual.cpp");
  EXPECT_TRUE(f.empty()) << to_text(f, 1);
}

TEST(LintLexer, DirectiveMentionsInProseDoNotParse) {
  // A comment *about* the directive syntax (docs, this suite) must not be
  // treated as a directive: only an anchored `clip-lint:` prefix counts.
  const std::string src =
      "// The marker `// clip-lint: allow(D1) reason` suppresses a line.\n"
      "// see clip-lint: it is documented in docs/static-analysis.md\n"
      "int x;\n";
  const auto f = lint_source(src, "virtual.cpp");
  EXPECT_TRUE(f.empty()) << to_text(f, 1);
}

}  // namespace
}  // namespace clip::lint
