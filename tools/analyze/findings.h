// Finding model shared by the apollo-analyze passes: a diagnostic with a
// stable fingerprint (no line numbers, so findings survive unrelated edits),
// plus the SARIF 2.1.0 sink that CI uploads.
#pragma once

#include <string>
#include <vector>

namespace analyze {

struct Finding {
  std::string rule;     // e.g. "layer-violation"
  std::string file;     // display path the finding anchors to
  int line = 0;         // 1-based; 0 when the finding is file-scoped
  std::string detail;   // stable identity payload (edge, symbol, env var)
  std::string message;  // human diagnostic

  // Line-independent identity: rule|file|detail. Two findings with the same
  // fingerprint are the same problem even if the code around them moved.
  std::string fingerprint() const { return rule + "|" + file + "|" + detail; }
};

void sort_findings(std::vector<Finding>& findings);

std::string to_sarif(const std::vector<Finding>& findings);

}  // namespace analyze
