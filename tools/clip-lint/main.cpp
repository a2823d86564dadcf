// clip-analyze CLI (binary: clip-lint). Scans the given files/directories
// (recursively, .cpp/.hpp) through the per-file rule passes and the
// project-level J2/L2 passes, and exits 0 when no unsuppressed finding
// remains, 1 when the tree has violations, 2 on usage or I/O errors — the
// contract scripts/ci.sh and the `ctest -L lint` entry gate on.
//
// Every run is a full scan of the files it is given: no result is kept
// between runs, so the verdict always comes from the analyzer being run.
//
// Usage:
//   clip-lint [--root DIR] [--json PATH] [--sarif PATH]
//             [--exclude PREFIX]... [--quiet] [--list-rules] PATH...
//
// --exclude P     drop scanned files whose root-relative path starts with P
//                 (lint fixtures are deliberately-violating inputs).

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace fs = std::filesystem;

namespace {

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

/// Paths are reported relative to --root so reports are machine-portable.
std::string display_path(const fs::path& p, const fs::path& root) {
  std::error_code ec;
  const fs::path rel = fs::relative(p, root, ec);
  if (ec || rel.empty() || rel.native().starts_with(".."))
    return p.generic_string();
  return rel.generic_string();
}

bool excluded(const std::string& display,
              const std::vector<std::string>& prefixes) {
  for (const std::string& prefix : prefixes)
    if (display.rfind(prefix, 0) == 0) return true;
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::string json_path;
  std::string sarif_path;
  std::vector<std::string> excludes;
  bool quiet = false;
  std::vector<fs::path> inputs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--sarif" && i + 1 < argc) {
      sarif_path = argv[++i];
    } else if (arg == "--exclude" && i + 1 < argc) {
      excludes.emplace_back(argv[++i]);
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--list-rules") {
      for (const std::string& r : clip::lint::known_rules())
        std::cout << r << '\n';
      return 0;
    } else if (arg == "-h" || arg == "--help") {
      std::cout << "usage: clip-lint [--root DIR] [--json PATH] "
                   "[--sarif PATH] [--exclude PREFIX]... [--quiet] "
                   "[--list-rules] PATH...\n"
                   "exit codes: 0 clean, 1 unsuppressed findings, 2 error\n";
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "clip-lint: unknown option: " << arg << '\n';
      return 2;
    } else {
      inputs.emplace_back(arg);
    }
  }
  if (inputs.empty()) {
    std::cerr << "clip-lint: no paths given (try: clip-lint src examples "
                 "bench)\n";
    return 2;
  }

  std::vector<fs::path> files;
  for (const fs::path& in : inputs) {
    const fs::path p = in.is_absolute() ? in : root / in;
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (const auto& entry : fs::recursive_directory_iterator(p, ec))
        if (entry.is_regular_file() && lintable(entry.path()))
          files.push_back(entry.path());
    } else if (fs::is_regular_file(p, ec)) {
      files.push_back(p);
    } else {
      std::cerr << "clip-lint: no such file or directory: " << p << '\n';
      return 2;
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<clip::lint::FileResult> results;
  std::set<std::string> seen;
  for (const fs::path& file : files) {
    const std::string display = display_path(file, root);
    if (excluded(display, excludes) || !seen.insert(display).second)
      continue;
    std::ifstream is(file, std::ios::binary);
    if (!is) {
      std::cerr << "clip-lint: cannot read " << file << '\n';
      return 2;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    results.push_back(clip::lint::analyze_source(buf.str(), display));
  }

  std::vector<clip::lint::Finding> findings;
  for (const clip::lint::FileResult& r : results)
    findings.insert(findings.end(), r.findings.begin(), r.findings.end());
  const std::vector<clip::lint::Finding> project =
      clip::lint::project_rules(results);
  findings.insert(findings.end(), project.begin(), project.end());
  std::sort(findings.begin(), findings.end(),
            [](const clip::lint::Finding& a, const clip::lint::Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });

  const int files_scanned = static_cast<int>(results.size());
  if (!json_path.empty()) {
    std::ofstream os(json_path, std::ios::binary);
    if (!os) {
      std::cerr << "clip-lint: cannot write " << json_path << '\n';
      return 2;
    }
    os << clip::lint::to_json(findings, files_scanned);
  }
  if (!sarif_path.empty()) {
    std::ofstream os(sarif_path, std::ios::binary);
    if (!os) {
      std::cerr << "clip-lint: cannot write " << sarif_path << '\n';
      return 2;
    }
    os << clip::lint::to_sarif(findings);
  }
  if (!quiet) std::cout << clip::lint::to_text(findings, files_scanned);

  return clip::lint::summarize(findings, files_scanned).unsuppressed == 0 ? 0
                                                                          : 1;
}
