/// \file temp_path.hpp
/// Temp-file paths for tests that write files. ctest may run the same
/// gtest several times at once (under several labels and as a
/// discovered test), so a fixed name would be shared between processes.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace svo::testing {

/// `<tmp>/<stem>_<suite>_<test>_<pid><ext>`: unique per test and per
/// process.
inline std::string unique_temp_path(const std::string& stem,
                                    const std::string& ext) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string name = stem + "_" + info->test_suite_name() + "_" +
                           info->name() + "_" + std::to_string(::getpid()) +
                           ext;
  return (std::filesystem::temp_directory_path() / name).string();
}

}  // namespace svo::testing
