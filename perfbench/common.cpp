#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "obs/json_writer.h"
#include "tensor/simd/simd.h"

namespace perfbench {

uint64_t mix_seed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt * 0xbf58476d1ce4e5b9ull +
               0x94d049bb133111ebull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

size_t rank_index(size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n));
  return static_cast<size_t>(std::clamp(r, 1.0, static_cast<double>(n))) - 1;
}

}  // namespace

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const size_t k = rank_index(v.size(), q);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int64_t peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<int64_t>(ru.ru_maxrss) * 1024;
}

int32_t Tracer::begin(const char* name, int64_t key) {
  const int32_t idx = static_cast<int32_t>(spans_.size());
  spans_.push_back({name, now_ns(), 0, open_, key});
  open_ = idx;
  return idx;
}

void Tracer::end(int32_t idx) {
  Span& s = spans_[static_cast<size_t>(idx)];
  s.t1 = now_ns();
  open_ = s.parent;
}

std::vector<int64_t> Tracer::self_ns() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].t1 - spans_[i].t0;
  for (const Span& s : spans_)
    if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.t1 - s.t0;
  return self;
}

double Tracer::self_ms(const char* name) const {
  const std::vector<int64_t> self = self_ns();
  int64_t total = 0;
  for (size_t i = 0; i < spans_.size(); ++i)
    if (std::strcmp(spans_[i].name, name) == 0) total += self[i];
  return static_cast<double>(total) / 1e6;
}

std::vector<double> Tracer::durations_ms(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (std::strcmp(s.name, name) == 0) out.push_back(ms_between(s.t0, s.t1));
  return out;
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

}  // namespace

void print_result(const Options& opt, const Result& r, int pool_width) {
  namespace simd = apollo::simd;
  std::printf("# workload %s  seed %llu  seconds %d  trace %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("# cpu \"%s\"  nproc %ld  simd %s  pool_width %d  build %s\n",
              cpu_model().c_str(), sysconf(_SC_NPROCESSORS_ONLN),
              simd::level_name(simd::active_level()), pool_width,
              PERFBENCH_BUILD_TYPE);
  for (const Metric& m : r.metrics) {
    if (m.samples > 0)
      std::printf("%-32s %16.6g %-10s (n=%lld)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<long long>(m.samples));
    else
      std::printf("%-32s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
  }
  for (const std::string& p : r.problems)
    std::printf("# CHECK FAILED: %s\n", p.c_str());

  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": ";
  apollo::obs::json_append_int(out, r.attempted);
  out += ", \"failed\": ";
  apollo::obs::json_append_int(out, r.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) out += ", ";
    apollo::obs::json_append_escaped(out, m.name.c_str());
    out += ": {\"value\": ";
    apollo::obs::json_append_double(out, m.value);
    out += ", \"unit\": ";
    apollo::obs::json_append_escaped(out, m.unit.c_str());
    out += "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
