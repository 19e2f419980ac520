// Tiny flag parser for the command-line tools: --name value and --flag
// forms, with typed getters and an unknown-flag check.
#pragma once

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace apollo::tools {

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) != 0) {
        positional_.push_back(a);
        continue;
      }
      a = a.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[a] = argv[++i];
      } else {
        values_[a] = "";  // bare flag
      }
    }
  }

  bool has(const std::string& name) const {
    used_.insert(name);
    return values_.count(name) > 0;
  }
  std::string get(const std::string& name, const std::string& dflt) const {
    used_.insert(name);
    auto it = values_.find(name);
    return it == values_.end() ? dflt : it->second;
  }
  // The typed getters take a value only when all of it parses and it is in
  // the range of the returned type. Otherwise they return `dflt` and record
  // the failure in error().
  int get_int(const std::string& name, int dflt) const {
    return parse(name, dflt, "an integer", [](const char* s, char** end) {
      const long v = std::strtol(s, end, 10);
      if (v < INT_MIN || v > INT_MAX) errno = ERANGE;
      return static_cast<int>(v);
    });
  }
  long get_long(const std::string& name, long dflt) const {
    return parse(name, dflt, "an integer", [](const char* s, char** end) {
      return std::strtol(s, end, 10);
    });
  }
  double get_double(const std::string& name, double dflt) const {
    return parse(name, dflt, "a number", [](const char* s, char** end) {
      return std::strtod(s, end);
    });
  }

  // The first value a typed getter could not parse, as a message such as
  // "--steps expects an integer, got '1e3'"; empty while every value has
  // parsed. Each tool reports it as a usage error once its options are read.
  const std::string& error() const { return error_; }

  // Flags that were passed but never queried — typo detection.
  std::vector<std::string> unknown() const {
    std::vector<std::string> out;
    for (const auto& [k, v] : values_)
      if (used_.count(k) == 0) out.push_back("--" + k);
    return out;
  }

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  template <class T, class Strto>
  T parse(const std::string& name, T dflt, const char* what,
          Strto strto) const {
    used_.insert(name);
    auto it = values_.find(name);
    if (it == values_.end()) return dflt;
    const char* s = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    const T v = strto(s, &end);
    if (*s != '\0' && *end == '\0' && errno != ERANGE) return v;
    if (error_.empty())
      error_ = "--" + name + " expects " + what + ", got '" + it->second + "'";
    return dflt;
  }

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> used_;
  mutable std::string error_;
};

}  // namespace apollo::tools
