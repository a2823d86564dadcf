// Journal — the scheduler's crash-consistency layer (docs/robustness.md).
//
// The queue event loop (runtime/queue.hpp) is deterministic: given the same
// jobs, options and fault plan it makes bit-identical decisions. The journal
// exploits that for recovery by re-execution. Every state-changing event the
// loop applies (admit, launch, grant, claw schedule/actuate/dissolve,
// crash-requeue, complete, redistribution tick outcomes, mode transitions)
// is appended as one record, with doubles rendered by obs::format_exact so a
// replay parses back the exact bits. Periodically the loop also appends a
// *snapshot* record: the rows of the jobs that changed and the flight
// recorder's points appended since the previous snapshot, plus the rest of
// its state whole (running placements, the free pool implied by them,
// BudgetGuard counters, pending redistribution claw-backs, the
// degraded-mode state). A snapshot thus costs what changed, and the journal
// grows linearly with the run. QueueEventLoop::recover folds every snapshot
// in order to rebuild the job table and flight record, restores the
// latest one's other state, replays the suffix records as verification
// against its own re-derived decisions, and resumes; a clean recovery is
// byte-identical to a run that never died. The `begin` record names the
// snapshot format (`snapfmt=2`), so a journal in another one is refused by
// name.
//
// On disk a journal is line-oriented text: a version header, then one record
// per line carrying a sequence number, a kind, a payload and a CRC-32 over
// the rest of the line. Files are published with write-temp + fsync + atomic
// rename (util/fsio.hpp), and load() practices salvage-prefix recovery: a
// torn or corrupted tail is dropped at the first bad line and reported as a
// gap rather than poisoning the whole file.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace clip::runtime {

struct JournalRecord {
  std::uint64_t seq = 0;  ///< 1-based, contiguous
  std::string kind;       ///< e.g. "launch", "complete", "snapshot"
  std::string payload;    ///< kind-specific, single-line, format_exact doubles
};

struct JournalOptions {
  /// Event records between snapshots. Smaller = less replay on recovery,
  /// larger = smaller journal and cheaper journaling (snapshots are the
  /// expensive record kind; bench/recovery.cpp prices them). Replay is
  /// deterministic re-execution, so a sparse cadence costs recovery time
  /// only, never fidelity. The property tests use small values so every
  /// kill point lands near a snapshot.
  int snapshot_every = 64;
};

/// What Journal::load salvaged from a file.
struct JournalLoadResult {
  std::size_t records = 0;        ///< valid records kept
  std::size_t dropped_lines = 0;  ///< lines lost to the corrupt tail
  bool salvaged = false;          ///< true: the tail was torn or corrupted
  std::string gap;                ///< first bad line's diagnosis (when salvaged)
};

class Journal {
 public:
  explicit Journal(JournalOptions options = JournalOptions{});

  [[nodiscard]] const JournalOptions& options() const { return options_; }

  /// Append one record. `kind` must be non-empty and space-free; `payload`
  /// must be newline-free (embed structured data via journal_escape). Taken
  /// by value: the event loop's hot path hands over freshly built payload
  /// strings, which move into the record instead of being copied.
  void append(std::string_view kind, std::string payload);

  [[nodiscard]] const std::vector<JournalRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] bool empty() const { return records_.empty(); }
  void clear() { records_.clear(); }

  /// Keep only the first `n` records — how the tests model a coordinator
  /// killed at an event boundary: everything after the cut is lost.
  void truncate(std::size_t n);

  /// Index of the latest snapshot record, or nullopt when none exists.
  [[nodiscard]] std::optional<std::size_t> last_snapshot() const;

  /// Durably write the journal (header + CRC-per-record lines) via
  /// write-temp + fsync + atomic rename.
  void save(const std::filesystem::path& path) const;

  /// Replace this journal's contents with the valid prefix of `path`.
  /// Throws when the file is missing or its header is not a journal's; a
  /// corrupt or truncated *tail* is salvaged instead (dropped and reported).
  JournalLoadResult load(const std::filesystem::path& path);

  /// Human-oriented summary: record/snapshot counts and per-kind totals,
  /// one line each — `clipctl journal` prints this. Kinds missing from
  /// known_record_kinds() are marked "(unregistered)".
  [[nodiscard]] std::string describe() const;

 private:
  JournalOptions options_;
  std::vector<JournalRecord> records_;
};

/// The closed set of record kinds the event loop produces and recovery
/// replays. This is the registry clip-analyze's J2 rule checks both ways:
/// a jlog/append_or_verify site with a kind not listed here is a finding
/// (the new record type would silently skip recovery/describe coverage),
/// and a listed kind with no producer is a finding (dead registry arm).
/// append() itself stays permissive — tests exercise synthetic kinds.
[[nodiscard]] const std::vector<std::string>& known_record_kinds();

/// CRC-32 (IEEE 802.3) of `data` — the per-record checksum.
[[nodiscard]] std::uint32_t crc32(std::string_view data);

/// Make an arbitrary string safe as a payload token: escapes backslash,
/// newline and space (so tokenized payloads survive embedded names).
[[nodiscard]] std::string journal_escape(std::string_view s);

}  // namespace clip::runtime
