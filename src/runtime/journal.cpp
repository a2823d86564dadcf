#include "runtime/journal.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "util/check.hpp"
#include "util/fsio.hpp"

namespace clip::runtime {

namespace {

constexpr std::string_view kHeader = "clip-journal v1";
constexpr std::string_view kSnapshotKind = "snapshot";

const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t n = 0; n < 256; ++n) {
      std::uint32_t c = n;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[n] = c;
    }
    return t;
  }();
  return table;
}

/// `<seq> <kind> <payload>` — the CRC covers exactly these bytes.
std::string record_body(const JournalRecord& r) {
  return std::to_string(r.seq) + " " + r.kind + " " + r.payload;
}

std::string crc_hex(std::uint32_t crc) {
  char buf[9];
  std::snprintf(buf, sizeof buf, "%08x", crc);
  return buf;
}

}  // namespace

std::uint32_t crc32(std::string_view data) {
  const auto& table = crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (const char ch : data)
    c = table[(c ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::string journal_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case ' ':
        out += "\\s";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

Journal::Journal(JournalOptions options) : options_(options) {
  CLIP_REQUIRE(options.snapshot_every >= 1,
               "journal snapshot_every must be >= 1");
}

void Journal::append(std::string_view kind, std::string payload) {
  CLIP_REQUIRE(!kind.empty(), "journal record kind must not be empty");
  CLIP_REQUIRE(kind.find(' ') == std::string_view::npos,
               "journal record kind must not contain spaces");
  CLIP_REQUIRE(payload.find('\n') == std::string_view::npos,
               "journal payload must be single-line (journal_escape it)");
  // Grow in one step: regrowing a vector of records mid-run interleaves
  // reallocations with the simulator's own, and that churn — not the append
  // itself — dominated journal-on overhead (bench/recovery.cpp).
  if (records_.capacity() == records_.size())
    records_.reserve(records_.size() < 64 ? 64 : records_.size() * 2);
  JournalRecord r;
  r.seq = records_.size() + 1;
  r.kind = std::string(kind);
  r.payload = std::move(payload);
  records_.push_back(std::move(r));
}

void Journal::truncate(std::size_t n) {
  if (n < records_.size()) records_.resize(n);
}

std::optional<std::size_t> Journal::last_snapshot() const {
  for (std::size_t i = records_.size(); i > 0; --i)
    if (records_[i - 1].kind == kSnapshotKind) return i - 1;
  return std::nullopt;
}

void Journal::save(const std::filesystem::path& path) const {
  std::ostringstream os;
  os << kHeader << '\n';
  for (const auto& r : records_) {
    const std::string body = record_body(r);
    os << body << '#' << crc_hex(crc32(body)) << '\n';
  }
  atomic_write_file(path, os.str());
}

JournalLoadResult Journal::load(const std::filesystem::path& path) {
  std::ifstream is(path);
  CLIP_REQUIRE(is.good(), "cannot open journal: " + path.string());
  std::string line;
  CLIP_REQUIRE(static_cast<bool>(std::getline(is, line)) && line == kHeader,
               "not a clip journal (bad header): " + path.string());

  records_.clear();
  JournalLoadResult result;
  std::size_t line_no = 1;
  auto bad = [&](const std::string& why) {
    result.salvaged = true;
    result.gap = "line " + std::to_string(line_no) + ": " + why;
    ++result.dropped_lines;
    // Count the remaining lines into the gap and stop: salvage the prefix.
    while (std::getline(is, line)) ++result.dropped_lines;
  };
  while (std::getline(is, line)) {
    ++line_no;
    // `<seq> <kind> <payload>#<crc8>` — the CRC is always the last 9 bytes.
    if (line.size() < 10 || line[line.size() - 9] != '#') {
      bad("torn record (no checksum)");
      break;
    }
    const std::string body = line.substr(0, line.size() - 9);
    const std::string crc = line.substr(line.size() - 8);
    if (crc_hex(crc32(body)) != crc) {
      bad("checksum mismatch");
      break;
    }
    const std::size_t sp1 = body.find(' ');
    const std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos : body.find(' ', sp1 + 1);
    if (sp2 == std::string::npos) {
      bad("malformed record body");
      break;
    }
    JournalRecord r;
    char* end = nullptr;
    r.seq = std::strtoull(body.c_str(), &end, 10);
    if (end != body.c_str() + sp1 || r.seq != records_.size() + 1) {
      bad("sequence break (expected " + std::to_string(records_.size() + 1) +
          ")");
      break;
    }
    r.kind = body.substr(sp1 + 1, sp2 - sp1 - 1);
    r.payload = body.substr(sp2 + 1);
    if (r.kind.empty()) {
      bad("empty record kind");
      break;
    }
    records_.push_back(std::move(r));
  }
  result.records = records_.size();
  return result;
}

const std::vector<std::string>& known_record_kinds() {
  // One entry per jlog/append_or_verify producer in runtime/queue.cpp, in
  // lifecycle order. clip-analyze's J2 pass diffs this list against the
  // actual producer sites in both directions.
  static const std::vector<std::string> kKinds = {
      "begin",          "admit",         "launch",
      "complete",       "fail",          "crash-requeue",
      "guard-claw",     "enforce-scheduled",
      "claw-scheduled", "claw-actuate",  "claw-dissolve",
      "grant",          "grant-reject",  "shift",
      "tick",           "mode",          "brownout-claw",
      "snapshot",       "end"};
  return kKinds;
}

std::string Journal::describe() const {
  std::map<std::string, std::size_t> kinds;
  for (const auto& r : records_) ++kinds[r.kind];
  std::ostringstream os;
  os << kHeader << ": " << records_.size() << " records";
  const auto snap = kinds.find(std::string(kSnapshotKind));
  os << " (" << (snap != kinds.end() ? snap->second : 0) << " snapshots)\n";
  const auto& known = known_record_kinds();
  for (const auto& [kind, n] : kinds) {
    os << "  " << kind << ": " << n;
    if (std::find(known.begin(), known.end(), kind) == known.end())
      os << " (unregistered)";
    os << '\n';
  }
  return os.str();
}

}  // namespace clip::runtime
