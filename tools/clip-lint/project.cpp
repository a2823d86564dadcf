// Project-level passes for clip-analyze: rules whose truth needs every
// scanned file at once. They consume the per-file FileFacts of the whole
// scanned set, so a registry edit in one file re-judges producers in every
// other.
//
//   J2 — bidirectional journal-kind coverage: every kind produced at a
//        jlog/append_or_verify site must be listed in known_record_kinds(),
//        and every registered kind must have a producer. A missing arm is
//        how a new record type silently skips recovery/describe coverage.
//   L2 — lock-order cycles: the per-file walks record "A held while B
//        acquired" edges over `guards(...)`-tracked mutexes (cross-TU via
//        @labels); any directed cycle is a deadlock waiting for the right
//        interleaving.

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "lint.hpp"

namespace clip::lint {

namespace {

void rule_j2(const std::vector<FileResult>& files,
             std::vector<Finding>& out) {
  // kind -> first registry site / first produce site (files arrive sorted
  // by path, sites in token order, so "first" is deterministic).
  std::map<std::string, std::pair<std::string, int>> registered;
  std::map<std::string, std::pair<std::string, int>> produced;
  for (const FileResult& f : files) {
    for (const KindSite& k : f.facts.registered_kinds)
      registered.emplace(k.kind, std::make_pair(f.path, k.line));
    for (const KindSite& k : f.facts.produced_kinds)
      produced.emplace(k.kind, std::make_pair(f.path, k.line));
  }
  // No registry in the scanned set (fixture subsets, partial scans): the
  // coverage question is unanswerable, stay silent rather than flag every
  // producer.
  if (registered.empty()) return;

  for (const auto& [kind, site] : produced) {
    if (registered.count(kind) != 0) continue;
    out.push_back({site.first, site.second, "J2",
                   "journal kind '" + kind +
                       "' is produced but not listed in "
                       "known_record_kinds(); replay/describe coverage "
                       "would silently skip it",
                   false,
                   {}});
  }
  for (const auto& [kind, site] : registered) {
    if (produced.count(kind) != 0) continue;
    out.push_back({site.first, site.second, "J2",
                   "journal kind '" + kind +
                       "' is registered in known_record_kinds() but never "
                       "produced; delete it or wire the producer",
                   false,
                   {}});
  }
}

void rule_l2(const std::vector<FileResult>& files,
             std::vector<Finding>& out) {
  // Aggregate edges, first site wins per (held, acquired) pair.
  struct Site {
    std::string file;
    int line;
  };
  std::map<std::pair<std::string, std::string>, Site> edges;
  for (const FileResult& f : files)
    for (const LockEdge& e : f.facts.lock_edges)
      edges.emplace(std::make_pair(e.held, e.acquired),
                    Site{f.path, e.line});
  if (edges.empty()) return;

  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& [pair, site] : edges) adj[pair.first].push_back(pair.second);

  // Iterative DFS with colors; each cycle is reported once, anchored at the
  // first edge (in node order) that closes it.
  std::set<std::string> done;
  std::set<std::pair<std::string, std::string>> reported;
  for (const auto& [start, unused] : adj) {
    (void)unused;
    if (done.count(start) != 0) continue;
    std::vector<std::string> path;
    std::set<std::string> on_path;
    // (node, next-child-index) stack.
    std::vector<std::pair<std::string, std::size_t>> stack;
    stack.emplace_back(start, 0);
    path.push_back(start);
    on_path.insert(start);
    while (!stack.empty()) {
      auto& [node, child] = stack.back();
      const auto it = adj.find(node);
      if (it == adj.end() || child >= it->second.size()) {
        done.insert(node);
        on_path.erase(node);
        path.pop_back();
        stack.pop_back();
        continue;
      }
      const std::string next = it->second[child++];
      if (on_path.count(next) != 0) {
        // Cycle: path suffix from `next` back to `node`, closed by the
        // edge node -> next.
        const auto key = std::make_pair(node, next);
        if (reported.insert(key).second) {
          std::string chain;
          bool in_cycle = false;
          for (const std::string& p : path) {
            if (p == next) in_cycle = true;
            if (in_cycle) chain += p + " -> ";
          }
          chain += next;
          const Site& site = edges.at(key);
          out.push_back({site.file, site.line, "L2",
                         "lock-order cycle: " + chain +
                             "; two threads taking these locks in opposite "
                             "orders deadlock",
                         false,
                         {}});
        }
        continue;
      }
      if (done.count(next) != 0) continue;
      stack.emplace_back(next, 0);
      path.push_back(next);
      on_path.insert(next);
    }
  }
}

}  // namespace

std::vector<Finding> project_rules(std::vector<FileResult>& files) {
  std::vector<Finding> findings;
  rule_j2(files, findings);
  rule_l2(files, findings);

  // Apply the deferred project-rule suppressions, then flag the stale ones.
  for (Finding& fi : findings) {
    for (FileResult& f : files) {
      if (f.path != fi.file) continue;
      for (Suppression& sup : f.project_suppressions) {
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
      if (fi.suppressed) break;
    }
  }
  for (const FileResult& f : files) {
    for (const Suppression& sup : f.project_suppressions) {
      if (sup.used || sup.reason.empty() || sup.rules.empty()) continue;
      bool all_known = true;
      for (const std::string& r : sup.rules)
        if (std::find(known_rules().begin(), known_rules().end(), r) ==
            known_rules().end())
          all_known = false;
      if (!all_known) continue;
      findings.push_back({f.path, sup.comment_line, "LINT",
                          "suppression never matched a finding; delete it",
                          false,
                          {}});
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

}  // namespace clip::lint
