#include "common/options.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "common/require.hpp"

namespace opass {

namespace {

/// Value errors are user-facing: the message names the flag and the value,
/// without a source location.
[[noreturn]] void bad_value(const std::string& name, const std::string& problem) {
  throw std::invalid_argument("flag --" + name + " " + problem);
}

}  // namespace

Options& Options::add(const std::string& name, const std::string& default_value,
                      const std::string& help) {
  OPASS_REQUIRE(!name.empty() && name[0] != '-', "flag names are given without dashes");
  OPASS_REQUIRE(!flags_.count(name), "flag declared twice");
  flags_[name] = {default_value, default_value, help};
  order_.push_back(name);
  return *this;
}

bool Options::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      error_ = "unexpected argument '" + arg + "' (flags take the form --name=value)";
      return false;
    }
    arg = arg.substr(2);
    std::string key, value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      key = arg;
      auto it = flags_.find(key);
      if (it == flags_.end()) {
        error_ = "unknown flag --" + key;
        return false;
      }
      const bool is_bool =
          it->second.default_value == "true" || it->second.default_value == "false";
      if (is_bool) {
        value = "true";
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        error_ = "flag --" + key + " needs a value";
        return false;
      }
    }
    auto it = flags_.find(key);
    if (it == flags_.end()) {
      error_ = "unknown flag --" + key;
      return false;
    }
    it->second.value = value;
  }
  return true;
}

std::string Options::str(const std::string& name) const {
  const auto it = flags_.find(name);
  OPASS_REQUIRE(it != flags_.end(), "flag not declared");
  return it->second.value;
}

std::int64_t Options::integer(const std::string& name) const {
  const std::string v = str(name);
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(v.c_str(), &end, 10);
  if (!end || *end != '\0' || v.empty() || errno == ERANGE)
    bad_value(name, "is not a 64-bit integer: '" + v + "'");
  return parsed;
}

std::uint64_t Options::checked_unsigned(const std::string& name, std::uint64_t min,
                                        std::uint64_t max) const {
  const std::int64_t v = integer(name);
  max = std::min<std::uint64_t>(max, std::numeric_limits<std::int64_t>::max());
  if (v < 0 || static_cast<std::uint64_t>(v) < min || static_cast<std::uint64_t>(v) > max)
    bad_value(name, "must be in [" + std::to_string(min) + ", " + std::to_string(max) +
                        "], got " + std::to_string(v));
  return static_cast<std::uint64_t>(v);
}

double Options::real(const std::string& name) const {
  const std::string v = str(name);
  char* end = nullptr;
  const double parsed = std::strtod(v.c_str(), &end);
  if (!end || *end != '\0' || v.empty()) bad_value(name, "is not a number: '" + v + "'");
  if (!std::isfinite(parsed)) bad_value(name, "is not a finite number: '" + v + "'");
  return parsed;
}

bool Options::is_default(const std::string& name) const {
  const std::string value = str(name);  // requires a declared flag
  return value == flags_.at(name).default_value;
}

bool Options::boolean(const std::string& name) const {
  const std::string v = str(name);
  if (v == "true" || v == "1") return true;
  if (v == "false" || v == "0") return false;
  bad_value(name, "is not a boolean: '" + v + "'");
}

std::string Options::usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  for (const auto& name : order_) {
    const auto& f = flags_.at(name);
    os << "  --" << name;
    for (std::size_t pad = name.size(); pad < 18; ++pad) os << ' ';
    os << f.help << " (default: " << f.default_value << ")\n";
  }
  return os.str();
}

}  // namespace opass
