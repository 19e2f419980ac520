// The five apollo-analyze passes. Each pass reads the shared
// AnalysisContext (lexed sources + include graph + layering policy) and
// appends findings; it must honor `// lint:allow(rule)` suppressions via
// SourceFile::allowed() before emitting.
//
// Rule ids (stable — they key baselines and suppressions):
//   layering      layer-violation, layer-undeclared, include-cycle,
//                 transitive-include
//   concurrency   parallel-mutex, parallel-io, parallel-getenv,
//                 parallel-nested, parallel-unordered-accum
//   hotpath       hot-path-alloc
//   docdrift      env-undocumented, env-stale-doc
//   lint          raw-thread, raw-rng, raw-simd-intrinsic,
//                 unordered-float-accum, pragma-once,
//                 using-namespace-header, raw-new-delete,
//                 printf-float-precision, check-shape-preconditions
#pragma once

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "analyze/findings.h"
#include "analyze/include_graph.h"
#include "analyze/policy.h"
#include "analyze/source_model.h"

namespace analyze {

struct AnalysisContext {
  std::filesystem::path root;
  // Display path → lexed source, for every scanned C++ file.
  std::map<std::string, srcmodel::SourceFile> files;
  IncludeGraph graph;
  Policy policy;
  // docs/ENVVARS.md (empty when absent) for the doc-drift pass.
  std::string envdoc_path;  // display path, e.g. "docs/ENVVARS.md"
  std::vector<std::string> envdoc_lines;
};

// (1) Module layering: policy DAG conformance, include cycles, and headers
// used while only reachable transitively.
void pass_layering(const AnalysisContext& ctx, std::vector<Finding>& out);

// (2) Concurrency discipline inside parallel_for lambda bodies: no mutexes,
// no I/O, no getenv, no nested parallel_for, no unordered-container
// float accumulation.
void pass_concurrency(const AnalysisContext& ctx, std::vector<Finding>& out);

// (3) Hot-path allocation: new/malloc/container growth reachable from hot
// roots (src/tensor/simd/ kernels, every step_param, autograd backward
// closures) via a name-matched call-graph-lite.
void pass_hotpath(const AnalysisContext& ctx, std::vector<Finding>& out);

// (4) Doc drift: every getenv("APOLLO_*") in src/tools/bench must have a
// row in docs/ENVVARS.md and vice versa.
void pass_docdrift(const AnalysisContext& ctx, std::vector<Finding>& out);

// (5) Lint: per-file token rules for determinism hazards (raw threads,
// raw RNG, raw SIMD intrinsics, unordered float accumulation), hygiene
// (#pragma once, `using namespace` in headers, raw new/delete, printf float
// precision), and the optim/core shape-precondition contract.
void pass_lint(const AnalysisContext& ctx, std::vector<Finding>& out);

}  // namespace analyze
