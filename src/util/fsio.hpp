// Crash-consistent file writes.
//
// A coordinator that can die mid-write must never leave a torn file behind:
// readers (KnowledgeDb::load, Journal::load) should only ever observe either
// the old complete contents or the new complete contents. The standard
// stage-and-swap recipe delivers that on POSIX: write the full contents to a
// sibling temp file, fsync it so the bytes are on disk before the name is,
// then atomically rename over the destination. See docs/robustness.md.
#pragma once

#include <filesystem>
#include <string_view>

namespace clip {

/// Durably replace `path` with `contents`: write `<path>.tmp`, fsync, then
/// atomically rename onto `path` and fsync the directory (creating parent
/// directories first). A kill at any instant leaves either the previous file
/// or the new one — never a prefix. A stale `<path>.tmp` from an earlier
/// kill is simply overwritten. On POSIX the whole sequence holds an
/// exclusive flock() on the parent directory, so concurrent writers of one
/// directory (threads or processes) serialize and each publishes its
/// complete contents. Throws clip::PreconditionError on I/O failure.
void atomic_write_file(const std::filesystem::path& path,
                       std::string_view contents);

}  // namespace clip
