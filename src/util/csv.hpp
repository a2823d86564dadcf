// Minimal CSV read/write used by the knowledge database persistence layer
// and by benchmark harnesses that dump series for external plotting.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

namespace clip {

/// A parsed CSV document: a header row plus data rows of equal width.
struct CsvDocument {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  /// Index of a header column, or -1.
  [[nodiscard]] int column_index(const std::string& name) const;
};

/// Write a document to disk; creates parent directories. Throws on I/O error.
void write_csv(const std::filesystem::path& path, const CsvDocument& doc);

/// Read and parse a document (handles quoted fields). Throws on I/O error or
/// ragged rows.
[[nodiscard]] CsvDocument read_csv(const std::filesystem::path& path);

/// The exact bytes write_csv would put on disk, as a string — for callers
/// that stage contents before an atomic rename (util/fsio.hpp) or compare
/// exports in memory.
[[nodiscard]] std::string render_csv(const CsvDocument& doc);

/// Parse render_csv/write_csv output. `context` names the source in error
/// messages (a path, ...). Throws on malformed input.
[[nodiscard]] CsvDocument parse_csv(const std::string& text,
                                    const std::string& context);

/// Parse a single CSV line honoring RFC-4180 quoting.
[[nodiscard]] std::vector<std::string> parse_csv_line(const std::string& line);

}  // namespace clip
