#pragma once

/// Scratch directories for tests that write stores, journals and shard
/// files. Every call makes a new directory under the system temp directory
/// with mkdtemp(3), so two runs of one test binary at once (two build
/// trees' ctest on one machine) never share a path or delete each other's
/// files. The directories a process made are removed when it exits.

#include <stdlib.h>

#include <cerrno>
#include <filesystem>
#include <mutex>
#include <string>
#include <system_error>
#include <vector>

namespace ao::test {

/// A new, empty directory whose name starts with `prefix`.
inline std::filesystem::path unique_temp_dir(const std::string& prefix) {
  struct Made {
    std::mutex mutex;
    std::vector<std::filesystem::path> dirs;
    ~Made() {
      std::error_code ignored;
      for (const auto& dir : dirs) {
        std::filesystem::remove_all(dir, ignored);
      }
    }
  };
  static Made made;
  std::string pattern =
      (std::filesystem::temp_directory_path() / (prefix + "_XXXXXX")).string();
  if (::mkdtemp(pattern.data()) == nullptr) {
    throw std::system_error(errno, std::generic_category(),
                            "mkdtemp " + pattern);
  }
  std::lock_guard lock(made.mutex);
  return made.dirs.emplace_back(pattern);
}

}  // namespace ao::test
