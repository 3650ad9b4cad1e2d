#include "por/util/cli.hpp"

#include <stdexcept>

namespace por::util {

CliParser::CliParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      options_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // --key value, unless the next token is another option or missing,
    // in which case --key is a boolean flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[arg] = argv[++i];
    } else {
      options_[arg] = "true";
    }
  }
}

bool CliParser::has(const std::string& name) const {
  queried_.insert(name);
  return options_.count(name) != 0;
}

std::string CliParser::get(const std::string& name,
                           const std::string& fallback) const {
  queried_.insert(name);
  auto it = options_.find(name);
  return it == options_.end() ? fallback : it->second;
}

long long CliParser::get_int(const std::string& name,
                             long long fallback) const {
  queried_.insert(name);
  auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  // The whole value must parse: std::stoll alone reads "300x" as 300.
  try {
    std::size_t used = 0;
    const long long value = std::stoll(it->second, &used);
    if (used == it->second.size()) return value;
  } catch (const std::exception&) {
    // Not a number at all; rejected below.
  }
  throw std::invalid_argument("--" + name + " expects an integer, got '" +
                              it->second + "'");
}

double CliParser::get_double(const std::string& name, double fallback) const {
  queried_.insert(name);
  auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  try {
    std::size_t used = 0;
    const double value = std::stod(it->second, &used);
    if (used == it->second.size()) return value;
  } catch (const std::exception&) {
    // Not a number at all; rejected below.
  }
  throw std::invalid_argument("--" + name + " expects a number, got '" +
                              it->second + "'");
}

bool CliParser::get_bool(const std::string& name, bool fallback) const {
  queried_.insert(name);
  auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::invalid_argument("--" + name + " expects a boolean, got '" + v +
                              "'");
}

void CliParser::assert_all_consumed() const {
  for (const auto& [name, value] : options_) {
    if (queried_.count(name) == 0) {
      throw std::invalid_argument("unknown option --" + name);
    }
  }
}

}  // namespace por::util
