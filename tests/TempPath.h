//===- tests/TempPath.h - Per-process temporary paths -----------*- C++ -*-===//
//
// Part of the RASC project: regularly annotated set constraints.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Names for the files and directories tests write. ctest runs every
/// gtest case in its own process, and under `ctest -j` many of them at
/// once, so a fixed name under ::testing::TempDir() lets two cases
/// (say, the two dedup backends of one round-trip test) overwrite each
/// other's file mid-test. Every name carries the process id.
///
//===----------------------------------------------------------------------===//

#ifndef RASC_TESTS_TEMPPATH_H
#define RASC_TESTS_TEMPPATH_H

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include <unistd.h>

namespace rasc {
namespace testutil {

/// TempDir()/rasc_<pid>_<Name>: private to the calling test process.
inline std::string tempPath(const std::string &Name) {
  return (std::filesystem::path(::testing::TempDir()) /
          ("rasc_" + std::to_string(::getpid()) + "_" + Name))
      .string();
}

} // namespace testutil
} // namespace rasc

#endif // RASC_TESTS_TEMPPATH_H
