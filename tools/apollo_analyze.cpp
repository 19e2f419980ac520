// apollo-analyze — whole-program static analysis for the APOLLO repo.
//
// Five passes over a shared source model (tools/analyze/):
//   layering     module DAG vs tools/analyze/layers.toml, include cycles,
//                transitively-included-but-used headers
//   concurrency  discipline inside core::parallel_for lambda bodies
//   hotpath      allocation reachable from hot roots (step_param, SIMD
//                kernels, autograd backward closures)
//   docdrift     getenv("APOLLO_*") ⇆ docs/ENVVARS.md, both directions
//   lint         nine per-file token rules: determinism hazards, hygiene,
//                API contracts
//
// Every finding fails the run. `// lint:allow(rule)` on or above a line, or
// `// lint:allow-file(rule)` anywhere in a file, accepts a finding in place.
//
// Exit codes: 0 = clean, 1 = any finding, 2 = usage or I/O error.
// Deliberately dependency-free: standard library only, no link against the
// apollo libraries.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analyze/findings.h"
#include "analyze/include_graph.h"
#include "analyze/passes.h"
#include "analyze/policy.h"
#include "analyze/source_model.h"

namespace fs = std::filesystem;

namespace {

struct PassInfo {
  std::string name;
  std::string summary;
  void (*run)(const analyze::AnalysisContext&, std::vector<analyze::Finding>&);
};

const std::vector<PassInfo>& passes() {
  static const std::vector<PassInfo> kPasses = {
      {"layering",
       "module layering vs layers.toml, include cycles, transitive includes",
       analyze::pass_layering},
      {"concurrency",
       "no mutex/I-O/getenv/nesting/shared accumulation in parallel_for",
       analyze::pass_concurrency},
      {"hotpath",
       "no new/malloc/container growth reachable from hot roots",
       analyze::pass_hotpath},
      {"docdrift", "getenv(\"APOLLO_*\") <-> docs/ENVVARS.md, both directions",
       analyze::pass_docdrift},
      {"lint",
       "raw threads/RNG/SIMD, unordered float accumulation, header hygiene, "
       "raw new/delete, printf precision, optim/core shape checks",
       analyze::pass_lint},
  };
  return kPasses;
}

void print_usage() {
  std::cout
      << "usage: apollo-analyze [options] [subdir...]\n"
         "       (default subdirs: src tools bench tests)\n\n"
         "options:\n"
         "  --root DIR        repo root (default: .)\n"
         "  --policy FILE     layering policy "
         "(default: <root>/tools/analyze/layers.toml)\n"
         "  --pass NAME       run only this pass (repeatable)\n"
         "  --sarif FILE      also write the findings as SARIF 2.1.0\n"
         "  --list-passes     list passes and exit\n"
         "  --help            this text\n";
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  fs::path policy_file, sarif_file;
  std::vector<std::string> dirs;
  std::set<std::string> selected;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--policy" && i + 1 < argc) {
      policy_file = argv[++i];
    } else if (arg == "--sarif" && i + 1 < argc) {
      sarif_file = argv[++i];
    } else if (arg == "--pass" && i + 1 < argc) {
      const std::string name = argv[++i];
      bool known = false;
      for (const PassInfo& p : passes()) known |= (p.name == name);
      if (!known) {
        std::cerr << "apollo-analyze: unknown pass '" << name
                  << "' (see --list-passes)\n";
        return 2;
      }
      selected.insert(name);
    } else if (arg == "--list-passes") {
      for (const PassInfo& p : passes())
        std::cout << p.name << ": " << p.summary << "\n";
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "apollo-analyze: unknown option " << arg << "\n";
      return 2;
    } else {
      dirs.emplace_back(arg);
    }
  }
  if (dirs.empty()) dirs = {"src", "tools", "bench", "tests"};
  if (policy_file.empty()) policy_file = root / "tools/analyze/layers.toml";
  auto pass_on = [&](const std::string& name) {
    return selected.empty() || selected.count(name) != 0;
  };

  // --- load the source model -------------------------------------------------
  analyze::AnalysisContext ctx;
  ctx.root = root;
  for (const fs::path& f : srcmodel::collect_sources(root, dirs)) {
    srcmodel::SourceFile sf;
    const std::string display = fs::relative(f, root).generic_string();
    if (!srcmodel::load_file(f, display, sf)) {
      std::cerr << "apollo-analyze: cannot read " << f << "\n";
      return 2;
    }
    ctx.files.emplace(display, std::move(sf));
  }
  ctx.graph = analyze::build_include_graph(root, ctx.files);

  if (pass_on("layering")) {
    std::string err;
    if (!analyze::load_policy(policy_file, ctx.policy, err)) {
      std::cerr << "apollo-analyze: " << err << "\n";
      return 2;
    }
  }

  {
    const fs::path envdoc = root / "docs/ENVVARS.md";
    ctx.envdoc_path = "docs/ENVVARS.md";
    std::ifstream in(envdoc);
    std::string line;
    while (in && std::getline(in, line)) ctx.envdoc_lines.push_back(line);
  }

  // --- run ---------------------------------------------------------------------
  std::vector<analyze::Finding> findings;
  for (const PassInfo& p : passes())
    if (pass_on(p.name)) p.run(ctx, findings);
  analyze::sort_findings(findings);

  if (!sarif_file.empty()) {
    std::ofstream out(sarif_file, std::ios::binary);
    if (!out) {
      std::cerr << "apollo-analyze: cannot write " << sarif_file << "\n";
      return 2;
    }
    out << analyze::to_sarif(findings);
  }

  for (const analyze::Finding& f : findings)
    std::cout << f.file << ":" << f.line << ": " << f.rule << ": "
              << f.message << "\n";
  if (findings.empty()) {
    std::cout << "apollo-analyze: " << ctx.files.size() << " files clean\n";
    return 0;
  }
  std::cerr << "apollo-analyze: " << findings.size() << " finding(s) in "
            << ctx.files.size() << " files\n";
  return 1;
}
