// Scratch-file paths for tests. ctest -j runs each gtest case as its own
// concurrent process, so a fixed name in the temp directory lets one case's
// SetUp or TearDown delete another's file, and two saves share one
// `<path>.tmp`. These names are unique per test case and process.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace clip {

/// `<temp dir>/<stem>.<test case>.<pid><ext>`.
inline std::filesystem::path unique_temp_path(const std::string& stem,
                                              const std::string& ext) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return std::filesystem::temp_directory_path() /
         (stem + "." + info->name() + "." + std::to_string(::getpid()) + ext);
}

}  // namespace clip
