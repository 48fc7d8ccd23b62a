// Minimal command-line flag parser for the example binaries.
//
// Supports `--name value`, `--name=value` and boolean `--name`. Unknown flags
// are reported rather than silently ignored, and a numeric flag whose value
// does not parse is an error, so example invocations stay honest.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace motsim {

class CliArgs {
 public:
  /// Parses argv. On malformed input — here or in a later numeric getter —
  /// `ok()` is false and `error()` explains the first problem.
  CliArgs(int argc, const char* const* argv);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& def) const;
  /// A decimal integer. An empty, non-numeric, out-of-range or
  /// trailing-garbage value is an error (see ok()) and returns `def`.
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  /// Same, and a negative value is an error too — for counts, sizes and
  /// budgets that would otherwise wrap around when cast to unsigned.
  std::uint64_t get_uint(const std::string& name, std::uint64_t def) const;
  bool get_bool(const std::string& name, bool def = false) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags that were parsed but never queried; used by examples to warn about
  /// typos. Call after all get()/has() calls.
  std::vector<std::string> unused() const;

 private:
  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
  mutable std::string error_;

  void fail(const std::string& message) const {
    if (error_.empty()) error_ = message;
  }
};

}  // namespace motsim
