// Minimal command-line flag parser for the examples and the CLI driver.
//
// Supports --key=value, --key value, and boolean --flag forms, with typed
// accessors, defaults, and an auto-generated usage string. Unknown flags and
// stray positional arguments are errors so typos fail loudly.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace opass {

/// Declarative flag set.
class Options {
 public:
  /// Declare a flag with a default value and help text.
  Options& add(const std::string& name, const std::string& default_value,
               const std::string& help);

  /// Parse argv; returns false (and fills error()) on unknown flags,
  /// positional arguments or malformed input.
  bool parse(int argc, const char* const* argv);

  /// Accessors; flags must have been declared. A malformed value, or a
  /// real() that is infinite, NaN or too large for a double, throws
  /// std::invalid_argument naming the flag.
  std::string str(const std::string& name) const;
  std::int64_t integer(const std::string& name) const;
  double real(const std::string& name) const;
  bool boolean(const std::string& name) const;

  /// integer() checked into [min, max] and returned as T: a negative or
  /// out-of-range value throws std::invalid_argument naming the flag and the
  /// range instead of wrapping through an unsigned cast.
  template <typename T = std::uint32_t>
  T unsigned_integer(const std::string& name, std::type_identity_t<T> min = 0,
                     std::type_identity_t<T> max = std::numeric_limits<T>::max()) const {
    return static_cast<T>(checked_unsigned(name, min, max));
  }

  /// True while the flag holds its declared default (compared as text).
  bool is_default(const std::string& name) const;

  const std::string& error() const { return error_; }

  /// Usage text listing every declared flag with default and help.
  std::string usage(const std::string& program) const;

 private:
  std::uint64_t checked_unsigned(const std::string& name, std::uint64_t min,
                                 std::uint64_t max) const;

  struct Flag {
    std::string value;
    std::string default_value;
    std::string help;
  };
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
  std::string error_;
};

}  // namespace opass
