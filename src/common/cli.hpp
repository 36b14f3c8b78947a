// Minimal command-line option parser for the examples and tools.
//
// Supports `--name value`, `--name=value`, boolean flags (`--verbose`),
// and positional arguments. `--help` prints generated usage and makes
// parse() return false so the caller can exit cleanly.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace rtdrm {

class ArgParser {
 public:
  explicit ArgParser(std::string program, std::string description = "");

  // Registration: `out` must outlive parse(); its current value is the
  // default shown in usage.
  ArgParser& addFlag(const std::string& name, const std::string& help,
                     bool* out);
  ArgParser& addInt(const std::string& name, const std::string& help,
                    std::int64_t* out);
  ArgParser& addDouble(const std::string& name, const std::string& help,
                       double* out);
  ArgParser& addString(const std::string& name, const std::string& help,
                       std::string* out);

  /// Parses argv. Returns false on --help (usage printed to `out`) or on
  /// error (message printed to `err`); callers should exit in both cases,
  /// distinguishing via helpRequested().
  bool parse(int argc, const char* const* argv, std::ostream& out,
             std::ostream& err);
  /// Convenience overload writing to std::cout/std::cerr.
  bool parse(int argc, const char* const* argv);

  bool helpRequested() const { return help_requested_; }
  const std::vector<std::string>& positional() const { return positional_; }
  std::string usage() const;

 private:
  enum class Kind { kFlag, kInt, kDouble, kString };
  struct Option {
    std::string name;  // without leading dashes
    std::string help;
    Kind kind;
    void* out;
    std::string default_repr;
  };

  const Option* find(const std::string& name) const;
  static bool store(const Option& opt, const std::string& value);

  std::string program_;
  std::string description_;
  std::vector<Option> options_;
  std::vector<std::string> positional_;
  bool help_requested_ = false;
};

/// Range check for a parsed integer flag: prints "--FLAG must be at least
/// FLOOR (got VALUE)" to std::cerr and returns false unless value >= floor.
bool flagAtLeast(const char* flag, std::int64_t value, std::int64_t floor);

}  // namespace rtdrm
