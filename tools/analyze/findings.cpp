#include "analyze/findings.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <tuple>

namespace analyze {

namespace {

// Minimal JSON string escaping (the analyzer is dependency-free; findings
// contain paths, C++ identifiers, and prose only).
std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (const unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace

void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.detail) <
                     std::tie(b.file, b.line, b.rule, b.detail);
            });
  findings.erase(
      std::unique(findings.begin(), findings.end(),
                  [](const Finding& a, const Finding& b) {
                    return a.fingerprint() == b.fingerprint() &&
                           a.line == b.line;
                  }),
      findings.end());
}

std::string to_sarif(const std::vector<Finding>& findings) {
  std::set<std::string> rules;
  for (const Finding& f : findings) rules.insert(f.rule);
  std::string out =
      "{\n"
      "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/"
      "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [{\n"
      "    \"tool\": {\"driver\": {\"name\": \"apollo-analyze\", "
      "\"rules\": [";
  bool first = true;
  for (const std::string& r : rules) {
    out += first ? "" : ", ";
    first = false;
    out += "{\"id\": " + jstr(r) + "}";
  }
  out += "]}},\n    \"results\": [";
  first = true;
  for (const Finding& f : findings) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "      {\"ruleId\": " + jstr(f.rule) +
           ", \"level\": \"error\", \"message\": {\"text\": " +
           jstr(f.message) +
           "}, \"fingerprints\": {\"apolloAnalyze/v1\": " +
           jstr(f.fingerprint()) +
           "}, \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": " +
           jstr(f.file) + "}, \"region\": {\"startLine\": " +
           std::to_string(f.line > 0 ? f.line : 1) + "}}}]}";
  }
  out += first ? "]\n" : "\n    ]\n";
  out += "  }]\n}\n";
  return out;
}

}  // namespace analyze
