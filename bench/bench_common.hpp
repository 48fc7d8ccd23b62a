// Shared helpers for the paper-reproduction binaries: each prints its
// tables/figures and shape checks to stdout and writes no files.
#pragma once

#include <cstdint>
#include <cstdio>
#include <thread>

namespace motsim::benchutil {

/// Hardware threads of this host (never 0). Benchmarks that compare a
/// serial row against an all-cores row must consult this: on a single-core
/// host the "parallel" row silently degenerates into a second serial
/// measurement and any 1-vs-N comparison drawn from it is bogus.
inline std::uint64_t hardware_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

inline void heading(const char* title) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title);
  std::printf("==============================================================\n");
}

}  // namespace motsim::benchutil
