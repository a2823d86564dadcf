// Scratch-file paths for tests. ctest -j runs each gtest case as its own
// concurrent process, so a fixed name in the temp directory lets one case's
// SetUp or TearDown delete another's file, and two saves share one
// `<path>.tmp`. These names are unique per test case and process.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

namespace clip {

/// `<temp dir>/<stem>.<test case>.<pid><ext>`, with the `/` of a
/// parameterized case's name (`Case/3`) replaced by `_`.
inline std::filesystem::path unique_temp_path(const std::string& stem,
                                              const std::string& ext) {
  std::string name =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::replace(name.begin(), name.end(), '/', '_');
  return std::filesystem::temp_directory_path() /
         (stem + "." + name + "." + std::to_string(::getpid()) + ext);
}

}  // namespace clip
