// Doc-drift pass: the APOLLO_* environment surface must match its
// documentation exactly, both directions.
//
//   env-undocumented — getenv("APOLLO_X") in src/, tools/, or bench/ with no
//                      row in docs/ENVVARS.md. (tests/ is exempt: test
//                      harness variables, such as a test binary path, are
//                      plumbing, not user surface.)
//   env-stale-doc    — a docs/ENVVARS.md row whose variable no longer has a
//                      getenv site anywhere in the tree.
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyze/passes.h"

namespace analyze {

namespace {

using srcmodel::SourceFile;
using srcmodel::TokKind;
using srcmodel::Token;

bool is_env_name(const std::string& s) {
  if (s.rfind("APOLLO_", 0) != 0) return false;
  for (char c : s)
    if (!((c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_'))
      return false;
  return true;
}

// First backticked APOLLO_* name in a markdown table row, or empty.
std::string row_var(const std::string& line) {
  if (line.empty() || line[0] != '|') return std::string();
  size_t tick = line.find('`');
  while (tick != std::string::npos) {
    const size_t close = line.find('`', tick + 1);
    if (close == std::string::npos) return std::string();
    const std::string name = line.substr(tick + 1, close - tick - 1);
    if (is_env_name(name)) return name;
    tick = line.find('`', close + 1);
  }
  return std::string();
}

}  // namespace

void pass_docdrift(const AnalysisContext& ctx, std::vector<Finding>& out) {
  // Documented variables: name → doc line (first row wins).
  std::map<std::string, int> documented;
  for (size_t i = 0; i < ctx.envdoc_lines.size(); ++i) {
    const std::string name = row_var(ctx.envdoc_lines[i]);
    if (!name.empty() && !documented.count(name))
      documented[name] = static_cast<int>(i) + 1;
  }

  // getenv sites. User surface (src/tools/bench) drives env-undocumented;
  // all sites (tests included) count as "still used" for env-stale-doc so a
  // variable exercised only by tests is not declared dead.
  std::set<std::string> used_anywhere;
  for (const auto& [path, sf] : ctx.files) {
    const std::vector<Token>& t = sf.tokens;
    for (size_t i = 0; i + 2 < t.size(); ++i) {
      if (!(t[i].kind == TokKind::kIdent &&
            (t[i].text == "getenv" || t[i].text == "secure_getenv") &&
            srcmodel::is_punct(t[i + 1], "(") &&
            t[i + 2].kind == TokKind::kString))
        continue;
      const std::string name = t[i + 2].text;
      if (!is_env_name(name)) continue;
      used_anywhere.insert(name);
      if (sf.path_starts_with("tests/")) continue;
      if (documented.count(name)) continue;
      if (sf.allowed(t[i].line, "env-undocumented")) continue;
      out.push_back(
          {"env-undocumented", path, t[i].line, name,
           "getenv(\"" + name + "\") has no row in " +
               (ctx.envdoc_path.empty() ? std::string("docs/ENVVARS.md")
                                        : ctx.envdoc_path) +
               "; every APOLLO_* knob must be documented (name, default, "
               "effect) or removed"});
    }
  }

  for (const auto& [name, line] : documented) {
    if (used_anywhere.count(name)) continue;
    out.push_back(
        {"env-stale-doc", ctx.envdoc_path, line, name,
         "documented variable `" + name +
             "` has no getenv site left in the tree; delete the row or "
             "restore the knob"});
  }
}

}  // namespace analyze
