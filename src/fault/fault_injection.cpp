#include "fault/fault_injection.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "obs/metrics.h"

namespace apollo::fault {

namespace {

struct Injector {
  Plan plan;
  std::atomic<bool> armed{false};
  std::atomic<int> rank{-1};

  static Injector& instance() {
    // Immortal (never destroyed): queries may race atexit teardown when a
    // simulated crash fires late, mirroring the obs-layer lifetime rule.
    static Injector* inj = new Injector;  // lint:allow(raw-new-delete)
    return *inj;
  }

  void load(const char* spec) {
    plan.events.clear();
    if (spec != nullptr && spec[0] != '\0') {
      std::string err;
      if (!parse_spec(spec, &plan, &err)) {
        std::fprintf(stderr, "APOLLO_FAULTS: %s\n", err.c_str());
        std::abort();
      }
    }
    armed.store(!plan.events.empty(), std::memory_order_release);
  }

  void refresh_armed() {
    bool any = false;
    for (const Event& e : plan.events) any = any || !e.fired;
    armed.store(any, std::memory_order_release);
  }
};

void ensure_env_loaded() {
  static const bool once = [] {
    Injector::instance().load(std::getenv("APOLLO_FAULTS"));
    return true;
  }();
  (void)once;
}

void record_fired(const Event& e) {
  obs::Registry::instance().counter("fault.injected").add(1);
  if (e.rank >= 0) {
    std::fprintf(stderr, "[fault] injected %s at step %lld (rank %d)\n",
                 kind_name(e.kind), static_cast<long long>(e.step), e.rank);
  } else {
    std::fprintf(stderr, "[fault] injected %s at step %lld\n",
                 kind_name(e.kind), static_cast<long long>(e.step));
  }
}

bool take_matching(Kind kind, int64_t step, bool at_or_after) {
  ensure_env_loaded();
  Injector& inj = Injector::instance();
  if (!inj.armed.load(std::memory_order_acquire)) return false;
  const int rank = inj.rank.load(std::memory_order_acquire);
  for (Event& e : inj.plan.events) {
    if (e.fired || e.kind != kind) continue;
    if (e.rank >= 0 && e.rank != rank) continue;
    if (at_or_after ? e.step <= step : e.step == step) {
      e.fired = true;
      inj.refresh_armed();
      record_fired(e);
      return true;
    }
  }
  return false;
}

}  // namespace

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kNanGrad: return "nan_grad";
    case Kind::kCrash: return "crash";
    case Kind::kCrashInSave: return "crash_save";
    case Kind::kTruncCkpt: return "trunc_ckpt";
    case Kind::kBitflipOpt: return "bitflip_opt";
    case Kind::kHang: return "hang";
  }
  return "?";
}

bool parse_spec(const std::string& spec, Plan* plan, std::string* err) {
  const auto fail = [err](const std::string& msg) {
    if (err != nullptr) *err = msg;
    return false;
  };
  Plan out;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t end = spec.find(';', pos);
    if (end == std::string::npos) end = spec.size();
    // Trim surrounding whitespace.
    size_t b = pos, e = end;
    while (b < e && (spec[b] == ' ' || spec[b] == '\t')) ++b;
    while (e > b && (spec[e - 1] == ' ' || spec[e - 1] == '\t')) --e;
    const std::string tok = spec.substr(b, e - b);
    pos = end + 1;
    if (tok.empty()) continue;  // tolerate empty segments / trailing ';'
    const size_t at = tok.find('@');
    if (at == std::string::npos)
      return fail("fault event '" + tok + "' is missing '@step'");
    const std::string name = tok.substr(0, at);
    std::string step_s = tok.substr(at + 1);
    Event ev;
    bool known = false;
    for (Kind k : {Kind::kNanGrad, Kind::kCrash, Kind::kCrashInSave,
                   Kind::kTruncCkpt, Kind::kBitflipOpt, Kind::kHang}) {
      if (name == kind_name(k)) {
        ev.kind = k;
        known = true;
        break;
      }
    }
    if (!known) return fail("unknown fault kind '" + name + "'");
    // Optional rank scope: `kind@step:rank`.
    const size_t colon = step_s.find(':');
    std::string rank_s;
    if (colon != std::string::npos) {
      rank_s = step_s.substr(colon + 1);
      step_s = step_s.substr(0, colon);
      if (rank_s.empty())
        return fail("fault event '" + tok + "' has an empty rank scope");
    }
    if (step_s.empty()) return fail("fault event '" + tok + "' has no step");
    int64_t step = 0;
    for (char c : step_s) {
      if (c < '0' || c > '9')
        return fail("fault step '" + step_s + "' is not a non-negative integer");
      step = step * 10 + (c - '0');
      if (step > (int64_t{1} << 40))
        return fail("fault step '" + step_s + "' is out of range");
    }
    ev.step = step;
    if (!rank_s.empty()) {
      int64_t rank = 0;
      for (char c : rank_s) {
        if (c < '0' || c > '9')
          return fail("fault rank '" + rank_s + "' is not a non-negative integer");
        rank = rank * 10 + (c - '0');
        if (rank > 4096)
          return fail("fault rank '" + rank_s + "' is out of range");
      }
      ev.rank = static_cast<int>(rank);
    }
    out.events.push_back(ev);
  }
  if (plan != nullptr) *plan = std::move(out);
  return true;
}

bool enabled() {
  ensure_env_loaded();
  return Injector::instance().armed.load(std::memory_order_acquire);
}

void set_spec(const char* spec) {
  ensure_env_loaded();
  Injector::instance().load(spec != nullptr ? spec
                                            : std::getenv("APOLLO_FAULTS"));
}

void set_rank(int rank) {
  Injector::instance().rank.store(rank, std::memory_order_release);
}

bool take_at(Kind kind, int64_t step) {
  return take_matching(kind, step, /*at_or_after=*/false);
}

bool take_at_or_after(Kind kind, int64_t step) {
  return take_matching(kind, step, /*at_or_after=*/true);
}

}  // namespace apollo::fault
