// Shared pieces of the repository benchmark: command-line options, the
// in-memory span recorder used by traced runs, order statistics, and the
// result printer whose last line is the JSON object run.py forwards.
//
// Spans are recorded only in the benchmark's own code, around its calls
// into each module's public functions; nothing inside src/ is traced.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string workdir;  // scratch space inside the checkout (checkpoints)
};

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ms_between(int64_t t0, int64_t t1) {
  return static_cast<double>(t1 - t0) / 1e6;
}

// splitmix64: derives independent, well-mixed sub-seeds from the workload
// seed so every input stream (weights, corpus, data order, requests)
// changes with --seed.
uint64_t mix_seed(uint64_t seed, uint64_t salt);

// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

// Peak resident set of this process, in bytes (getrusage ru_maxrss).
int64_t peak_rss_bytes();

// One span: [t0, t1] in steady-clock ns. `parent` indexes the enclosing
// span (-1 at the root); `key` is the step or request id it belongs to.
struct Span {
  const char* name;
  int64_t t0;
  int64_t t1;
  int32_t parent;
  int64_t key;
};

// Spans kept in memory for the whole run and reduced when it ends. Not
// thread-safe: each recorder belongs to one thread (one per rank).
class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 16); }
  int32_t begin(const char* name, int64_t key);
  void end(int32_t idx);
  // Sum of self time (duration minus the time covered by direct children)
  // over every span with this name.
  double self_ms(const char* name) const;
  // Durations (ms) of every span with this name.
  std::vector<double> durations_ms(const char* name) const;

 private:
  std::vector<int64_t> self_ns() const;

  std::vector<Span> spans_;
  int32_t open_ = -1;
};

// RAII span; a null tracer records nothing (the untraced path).
class Scope {
 public:
  Scope(Tracer* t, const char* name, int64_t key = -1)
      : t_(t), idx_(t != nullptr ? t->begin(name, key) : -1) {}
  ~Scope() {
    if (t_ != nullptr) t_->end(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int32_t idx_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  int64_t samples = 0;  // > 0 for order statistics: sample count
};

// Everything one run reports. `metrics` holds exactly the metrics the run
// mode promises (end-to-end when untraced, per-layer when traced).
struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  // why `correct` is false

  void add(const std::string& name, double value, const std::string& unit,
           int64_t samples = 0) {
    metrics.push_back({name, value, unit, samples});
  }
  void fail_check(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

// Human-readable report (environment stamp, every metric with unit and
// sample count), then the one-line JSON result as the last stdout line.
void print_result(const Options& opt, const Result& r, int pool_width);

}  // namespace perfbench
