// Scratch paths for tests that touch the filesystem.
//
// `ctest -j` runs the plain, ASan and TSan copies of one test at the same
// time in different processes.  A directory named after the test alone
// would let those copies delete each other's files mid-run, so every name
// carries the process id.
#pragma once

#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

namespace divlib {

// <temp dir>/<name>_<pid>
inline std::filesystem::path unique_temp_path(const std::string& name) {
  return std::filesystem::temp_directory_path() /
         (name + "_" + std::to_string(::getpid()));
}

// <temp dir>/<prefix>_<current test name>_<pid>
inline std::filesystem::path test_temp_dir(const std::string& prefix) {
  return unique_temp_path(
      prefix + "_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name());
}

}  // namespace divlib
