// serve-open: an in-process serve::ServeEngine pumped on this thread, fed
// over loopback by an open-loop client thread at three fixed arrival rates.
//
// The request pool and the arrival schedule come from --seed; the engine
// sees only the HTTP requests. Every stream is checked against a
// single-lane serve::BatchDecoder reference decode made during set-up.
// Latency counts from each request's due time, so a generator that falls
// behind (all four connections busy) shows up as latency, and as
// serve.generator_lag_ms_p99.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "core/threadpool.h"
#include "nn/llama.h"
#include "serve/batcher.h"
#include "serve/engine.h"
#include "serve/json_min.h"
#include "serve/request.h"
#include "tensor/rng.h"
#include "train/checkpoint.h"
#include "workloads.h"

namespace perfbench {

using namespace apollo;

namespace {

constexpr int kConnections = 4;  // one client, at most four connections
constexpr int kPoolSize = 64;    // distinct requests per seed
constexpr int kSetups = 9;

// Arrival rates (requests/s) of the three phases, lowest first; the middle
// one is the nominal rate the latency metrics are read at. On the reference
// machine (4-vCPU AVX-512 Xeon) the high rate keeps the four lanes about
// half busy: above it the open-loop backlog starts to grow on some seeds.
constexpr double kRates[3] = {15.0, 30.0, 42.0};
constexpr int kNominal = 1;
// Latency limits a phase must meet to count toward tokens_per_s (and
// serve.goodput_rps): time to first token at p90 and the gap between token
// lines at p99, both from the client's clock.
constexpr double kTtftP90LimitMs = 75.0;
constexpr double kItlP99LimitMs = 8.0;

struct PoolRequest {
  std::vector<int32_t> prompt;
  serve::GenParams params;
  std::string body;              // the JSON the client sends
  std::vector<int32_t> reference;  // single-lane decode of (prompt, params)
};

// Prompts of 4–32 tokens and max_tokens of 16–64, spread evenly over the
// pool and paired by a seeded shuffle, so every seed carries the same token
// totals; ids cover the whole vocabulary, high bytes included. Even pool
// entries decode greedily, odd ones sample with temperature/top-p under a
// per-request seed.
std::vector<PoolRequest> make_pool(uint64_t seed, int vocab) {
  Rng rng(mix_seed(seed, 21));
  std::vector<int> order(kPoolSize);
  for (int i = 0; i < kPoolSize; ++i) order[static_cast<size_t>(i)] = i;
  for (int i = kPoolSize - 1; i > 0; --i)
    std::swap(order[static_cast<size_t>(i)],
              order[rng.next_below(static_cast<uint64_t>(i) + 1)]);
  static const double kTemps[3] = {0.75, 0.875, 1.0};
  static const double kTopP[2] = {0.875, 0.9375};
  std::vector<PoolRequest> pool(kPoolSize);
  for (int i = 0; i < kPoolSize; ++i) {
    PoolRequest& q = pool[static_cast<size_t>(i)];
    const int plen = 4 + (i * 29) / kPoolSize;
    const int max_tokens = 16 + (order[static_cast<size_t>(i)] * 49) / kPoolSize;
    for (int t = 0; t < plen; ++t)
      q.prompt.push_back(static_cast<int32_t>(rng.next_below(static_cast<uint64_t>(vocab))));
    q.params.max_tokens = max_tokens;
    std::string body = "{\"tokens\":[";
    for (size_t t = 0; t < q.prompt.size(); ++t) {
      if (t > 0) body += ',';
      body += std::to_string(q.prompt[t]);
    }
    body += "],\"max_tokens\":" + std::to_string(max_tokens);
    if (i % 2 == 1) {
      const double temp = kTemps[rng.next_below(3)];
      const double top_p = kTopP[rng.next_below(2)];
      const uint64_t s = rng.next_below(uint64_t{1} << 31);
      q.params.temperature = static_cast<float>(temp);
      q.params.top_p = static_cast<float>(top_p);
      q.params.seed = s;
      char buf[128];
      std::snprintf(buf, sizeof buf,
                    ",\"temperature\":%.17g,\"top_p\":%.17g,\"seed\":%llu",
                    temp, top_p, static_cast<unsigned long long>(s));
      body += buf;
    } else {
      body += ",\"temperature\":0";
    }
    body += "}";
    q.body = std::move(body);
  }
  return pool;
}

std::vector<int32_t> reference_decode(nn::LlamaModel& model,
                                      const PoolRequest& q) {
  serve::BatchDecoder dec(model, 1);
  const int lane = dec.admit(q.prompt, q.params);
  std::vector<int32_t> out;
  for (;;) {
    dec.decode_step();
    const serve::DecodeOut& o = dec.output(lane);
    if (o.emitted) out.push_back(o.token);
    if (o.done) break;
  }
  dec.release(lane);
  return out;
}

// One scheduled request and what the client saw of it.
struct Req {
  int pool = 0;
  int phase = 0;
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t start_ns = 0;
  int64_t done_ns = 0;
  int64_t id = -1;
  int status = 0;
  std::vector<int64_t> token_ns;
  std::vector<int32_t> tokens;
  int64_t done_tokens = -1;
  std::string finish;
  int64_t invalid_lines = 0;
  bool connect_error = false;
  bool complete = false;  // chunked terminator seen
  bool failed() const {
    return connect_error || status != 200 || !complete || id < 0 ||
           done_tokens < 0;
  }
};

// Is `s` well-formed UTF-8 (no stray continuation bytes, truncated or
// overlong sequences, or surrogates)? JSON text must be.
bool utf8_valid(const std::string& s) {
  size_t i = 0;
  while (i < s.size()) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c < 0x80) {
      ++i;
      continue;
    }
    int extra = 0;
    unsigned char lo = 0x80, hi = 0xBF;  // bounds of the second byte
    if (c >= 0xC2 && c <= 0xDF) {
      extra = 1;
    } else if (c >= 0xE0 && c <= 0xEF) {
      extra = 2;
      if (c == 0xE0) lo = 0xA0;
      if (c == 0xED) hi = 0x9F;
    } else if (c >= 0xF0 && c <= 0xF4) {
      extra = 3;
      if (c == 0xF0) lo = 0x90;
      if (c == 0xF4) hi = 0x8F;
    } else {
      return false;
    }
    if (i + static_cast<size_t>(extra) >= s.size()) return false;
    for (int k = 1; k <= extra; ++k) {
      const unsigned char cc = static_cast<unsigned char>(s[i + static_cast<size_t>(k)]);
      if (k == 1 ? (cc < lo || cc > hi) : (cc & 0xC0) != 0x80) return false;
    }
    i += static_cast<size_t>(extra) + 1;
  }
  return true;
}

// Byte-level field readers: they find `"key":` and read what follows, so
// they work on lines a JSON parser rejects.
bool read_int_field(const std::string& line, const char* key, int64_t* out) {
  const std::string pat = std::string("\"") + key + "\":";
  const size_t p = line.find(pat);
  if (p == std::string::npos) return false;
  size_t i = p + pat.size();
  bool neg = false;
  if (i < line.size() && line[i] == '-') {
    neg = true;
    ++i;
  }
  if (i >= line.size() || line[i] < '0' || line[i] > '9') return false;
  int64_t v = 0;
  while (i < line.size() && line[i] >= '0' && line[i] <= '9')
    v = v * 10 + (line[i++] - '0');
  *out = neg ? -v : v;
  return true;
}

bool read_str_field(const std::string& line, const char* key,
                    std::string* out) {
  const std::string pat = std::string("\"") + key + "\":\"";
  const size_t p = line.find(pat);
  if (p == std::string::npos) return false;
  const size_t b = p + pat.size();
  const size_t e = line.find('"', b);
  if (e == std::string::npos) return false;
  *out = line.substr(b, e - b);
  return true;
}

// One open connection: the request it carries and the response parser.
struct Conn {
  int fd = -1;
  Req* req = nullptr;
  std::string in;
  bool head_done = false;
  bool terminator = false;
};

void on_line(Req& r, const std::string& line, int64_t ts) {
  std::map<std::string, serve::JsonValue> parsed;
  if (!utf8_valid(line) || !serve::parse_json_object(line, parsed, nullptr))
    ++r.invalid_lines;
  int64_t v = 0;
  if (line.find("\"event\":\"start\"") != std::string::npos) {
    r.start_ns = ts;
    if (read_int_field(line, "id", &v)) r.id = v;
  } else if (line.find("\"event\":\"done\"") != std::string::npos) {
    r.done_ns = ts;
    if (read_int_field(line, "tokens", &v)) r.done_tokens = v;
    read_str_field(line, "finish_reason", &r.finish);
  } else if (read_int_field(line, "token", &v)) {
    r.tokens.push_back(static_cast<int32_t>(v));
    r.token_ns.push_back(ts);
  }
}

// Consumes whatever complete pieces of the HTTP response `c.in` holds.
void parse_response(Conn& c, int64_t ts) {
  Req& r = *c.req;
  if (!c.head_done) {
    const size_t e = c.in.find("\r\n\r\n");
    if (e == std::string::npos) return;
    const size_t sp = c.in.find(' ');
    if (sp != std::string::npos && sp < e)
      r.status = std::atoi(c.in.c_str() + sp + 1);
    c.head_done = true;
    c.in.erase(0, e + 4);
  }
  if (r.status != 200) return;  // error bodies are not chunked streams
  while (!c.terminator) {
    const size_t e = c.in.find("\r\n");
    if (e == std::string::npos) return;
    const size_t n = std::strtoul(c.in.c_str(), nullptr, 16);
    if (n == 0) {
      if (c.in.size() < e + 4) return;
      c.terminator = true;
      c.in.clear();
      return;
    }
    if (c.in.size() < e + 2 + n + 2) return;
    std::string data = c.in.substr(e + 2, n);
    c.in.erase(0, e + 2 + n + 2);
    size_t b = 0;
    while (b < data.size()) {
      size_t nl = data.find('\n', b);
      if (nl == std::string::npos) nl = data.size();
      if (nl > b) on_line(r, data.substr(b, nl - b), ts);
      b = nl + 1;
    }
  }
}

bool open_and_send(Conn& c, int port, const std::string& body) {
  c.fd = socket(AF_INET, SOCK_STREAM, 0);
  if (c.fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
    return false;
  const int one = 1;
  setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  const std::string msg =
      "POST /v1/generate HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "Content-Type: application/json\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
  size_t off = 0;
  while (off < msg.size()) {
    const ssize_t w = send(c.fd, msg.data() + off, msg.size() - off, MSG_NOSIGNAL);
    if (w <= 0) return false;
    off += static_cast<size_t>(w);
  }
  return true;
}

// Sends one phase's requests on schedule (due times relative to a fresh
// origin), at most kConnections at a time, and reads every stream to its
// end. Returns when every request of the phase has finished or failed.
void run_phase(int port, std::vector<Req*>& reqs,
               const std::vector<PoolRequest>& pool) {
  const int64_t origin = now_ns() + 2'000'000;
  for (Req* r : reqs) r->due_ns += origin;
  std::vector<Conn> conns;
  size_t next = 0;
  char buf[16384];
  while (next < reqs.size() || !conns.empty()) {
    int64_t now = now_ns();
    while (next < reqs.size() && reqs[next]->due_ns <= now &&
           static_cast<int>(conns.size()) < kConnections) {
      Req& r = *reqs[next++];
      Conn c;
      c.req = &r;
      if (!open_and_send(c, port, pool[static_cast<size_t>(r.pool)].body)) {
        r.connect_error = true;
        if (c.fd >= 0) close(c.fd);
        continue;
      }
      r.sent_ns = now_ns();
      conns.push_back(std::move(c));
      now = now_ns();
    }
    std::vector<pollfd> fds;
    for (const Conn& c : conns) fds.push_back({c.fd, POLLIN, 0});
    timespec ts{0, 50'000'000};
    if (next < reqs.size() && static_cast<int>(conns.size()) < kConnections) {
      const int64_t wait = std::max<int64_t>(0, reqs[next]->due_ns - now);
      ts.tv_sec = static_cast<time_t>(wait / 1'000'000'000);
      ts.tv_nsec = static_cast<long>(wait % 1'000'000'000);
    }
    const int n = ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (n <= 0) continue;
    const int64_t t = now_ns();
    std::vector<Conn> still;
    for (size_t i = 0; i < conns.size(); ++i) {
      Conn& c = conns[i];
      bool closed = false;
      if (fds[i].revents != 0) {
        const ssize_t got = recv(c.fd, buf, sizeof buf, 0);
        if (got > 0) {
          c.in.append(buf, static_cast<size_t>(got));
          parse_response(c, t);
        } else if (got == 0 || (errno != EAGAIN && errno != EINTR)) {
          closed = true;
        }
      }
      if (closed) {
        c.req->complete = c.req->status == 200 ? c.terminator : true;
        close(c.fd);
      } else {
        still.push_back(std::move(c));
      }
    }
    conns.swap(still);
  }
}

// Latency figures of one phase.
struct PhaseStats {
  double rate = 0;
  int64_t requests = 0, failed = 0, tokens = 0;
  std::vector<double> ttft, itl, queue;
  double wall_s = 0;
  double tokens_per_s = 0;
  bool lag_grows = false;
  bool meets = false;
};

PhaseStats phase_stats(const std::vector<Req>& reqs, int phase) {
  PhaseStats ps;
  ps.rate = kRates[phase];
  int64_t first_due = INT64_MAX, last_done = 0;
  std::vector<double> lags;
  for (const Req& r : reqs) {
    if (r.phase != phase) continue;
    ++ps.requests;
    first_due = std::min(first_due, r.due_ns);
    if (r.sent_ns > 0) lags.push_back(ms_between(r.due_ns, r.sent_ns));
    if (r.failed()) {
      ++ps.failed;
      continue;
    }
    last_done = std::max(last_done, r.done_ns);
    ps.tokens += static_cast<int64_t>(r.tokens.size());
    if (!r.token_ns.empty()) ps.ttft.push_back(ms_between(r.due_ns, r.token_ns[0]));
    for (size_t k = 1; k < r.token_ns.size(); ++k)
      ps.itl.push_back(ms_between(r.token_ns[k - 1], r.token_ns[k]));
    // Admission wait on the client's clock: the start line's own queue_ms
    // field has 1 ms resolution, and with four connections against four
    // lanes it reads 0.
    if (r.start_ns > 0) ps.queue.push_back(ms_between(r.sent_ns, r.start_ns));
  }
  ps.wall_s = last_done > first_due ? ms_between(first_due, last_done) / 1000.0 : 0;
  ps.tokens_per_s = ps.wall_s > 0 ? static_cast<double>(ps.tokens) / ps.wall_s : 0;
  // A backlog that grows shows as lag rising through the phase: compare the
  // mean lag of the last quarter of requests with the first quarter.
  const size_t q = lags.size() / 4;
  if (q > 0) {
    double head = 0, tail = 0;
    for (size_t i = 0; i < q; ++i) {
      head += lags[i];
      tail += lags[lags.size() - 1 - i];
    }
    ps.lag_grows = (tail - head) / static_cast<double>(q) > kTtftP90LimitMs / 4;
  }
  ps.meets = ps.failed == 0 && !ps.ttft.empty() && !ps.itl.empty() &&
             percentile(ps.ttft, 0.9) <= kTtftP90LimitMs &&
             percentile(ps.itl, 0.99) <= kItlP99LimitMs && !ps.lag_grows;
  return ps;
}

// Pump statistics of a traced run (engine thread).
struct PumpStats {
  std::vector<double> busy_ms;  // pumps that started with >= 1 active lane
  double occupancy_sum = 0;
  int64_t occupancy_n = 0;
  double idle_ms = 0, total_ms = 0;
};

// Runs the three phases once: the client on its own thread, the engine
// pumped here. Returns the per-request records.
std::vector<Req> serve_once(serve::ServeEngine& engine, const Options& o,
                            const std::vector<PoolRequest>& pool,
                            int passes, PumpStats* pumps) {
  std::vector<Req> reqs;
  Rng rng(mix_seed(o.seed, 22));
  for (int phase = 0; phase < 3; ++phase) {
    // Whole passes over the pool, so every seed sends the same tokens; the
    // low-rate phase makes half as many passes to keep its span short.
    const int requests_per_phase =
        kPoolSize * (phase == 0 ? std::max(1, passes / 2) : passes);
    // Poisson arrivals conditioned on the count: sorted uniform due times
    // over the phase's span, each pool entry used equally often.
    const double span_ns = requests_per_phase / kRates[phase] * 1e9;
    std::vector<int64_t> due;
    for (int i = 0; i < requests_per_phase; ++i)
      due.push_back(static_cast<int64_t>(rng.next_double() * span_ns));
    std::sort(due.begin(), due.end());
    std::vector<int> which;
    for (int i = 0; i < requests_per_phase; ++i) which.push_back(i % kPoolSize);
    for (int i = requests_per_phase - 1; i > 0; --i)
      std::swap(which[static_cast<size_t>(i)],
                which[rng.next_below(static_cast<uint64_t>(i) + 1)]);
    for (int i = 0; i < requests_per_phase; ++i) {
      Req r;
      r.pool = which[static_cast<size_t>(i)];
      r.phase = phase;
      r.due_ns = due[static_cast<size_t>(i)];
      reqs.push_back(std::move(r));
    }
  }

  std::atomic<bool> client_done{false};
  // A second thread is the benchmark's client, outside the library: the
  // engine must be pumped on this thread while requests arrive on schedule.
  // lint:allow(raw-thread)
  std::thread client([&]() {
    for (int phase = 0; phase < 3; ++phase) {
      std::vector<Req*> mine;
      for (Req& r : reqs)
        if (r.phase == phase) mine.push_back(&r);
      run_phase(engine.port(), mine, pool);
    }
    client_done.store(true, std::memory_order_release);
  });
  while (!client_done.load(std::memory_order_acquire)) {
    if (pumps == nullptr) {
      engine.pump(2);
      continue;
    }
    const int before = engine.decoder().active();
    const int64_t t0 = now_ns();
    engine.pump(2);
    const int64_t t1 = now_ns();
    const int after = engine.decoder().active();
    const double ms = ms_between(t0, t1);
    pumps->total_ms += ms;
    if (before > 0) pumps->busy_ms.push_back(ms);
    if (before > 0 || after > 0) {
      pumps->occupancy_sum += std::max(before, after);
      ++pumps->occupancy_n;
    } else {
      pumps->idle_ms += ms;
    }
  }
  client.join();
  return reqs;
}

// Output checks: every stream equals its reference decode and its done
// line agrees with what arrived. Failed requests are counted, not checked.
void check_streams(const std::vector<Req>& reqs,
                   const std::vector<PoolRequest>& pool, Result& r) {
  int64_t mismatched = 0;
  for (const Req& q : reqs) {
    ++r.attempted;
    if (q.failed()) {
      ++r.failed;
      continue;
    }
    const PoolRequest& p = pool[static_cast<size_t>(q.pool)];
    if (q.tokens != p.reference || q.done_tokens != static_cast<int64_t>(q.tokens.size()) ||
        q.finish != "length")
      ++mismatched;
  }
  if (mismatched > 0)
    r.fail_check(std::to_string(mismatched) +
                 " streams differ from their reference decode or done line");
}

}  // namespace

void run_serve_workload(const Options& o, Result& r) {
  namespace fs = std::filesystem;
  core::set_thread_count(kPoolWidth);
  const nn::LlamaConfig cfg = nn::llama_7b_proxy();
  const std::string ckpt = o.workdir + "/serve-weights.aplo";
  {
    nn::LlamaModel seeded(cfg, mix_seed(o.seed, 20));
    const train::CheckpointResult w = train::save_checkpoint(ckpt, seeded, 0);
    if (!w.ok) {
      r.fail_check("writing the served checkpoint failed: " + w.error);
      return;
    }
  }

  // Set-up as apollo-serve --load does it, kSetups times; the last serves.
  std::vector<double> setup_s, load_ms;
  std::unique_ptr<serve::ServeEngine> engine;
  std::unique_ptr<nn::LlamaModel> model;
  for (int i = 0; i < kSetups; ++i) {
    engine.reset();
    model.reset();
    const int64_t t0 = now_ns();
    model = std::make_unique<nn::LlamaModel>(cfg, 0);
    const int64_t l0 = now_ns();
    const train::CheckpointResult lr = train::load_checkpoint(ckpt, *model);
    const int64_t l1 = now_ns();
    if (!lr.ok) {
      r.fail_check("loading the served checkpoint failed: " + lr.error);
      return;
    }
    engine = std::make_unique<serve::ServeEngine>(*model, serve::EngineConfig{});
    setup_s.push_back(ms_between(t0, now_ns()) / 1000.0);
    load_ms.push_back(ms_between(l0, l1));
  }
  std::error_code ec;
  fs::remove(ckpt, ec);

  // Reference decodes (not part of setup_s).
  std::vector<PoolRequest> pool = make_pool(o.seed, cfg.vocab);
  for (PoolRequest& q : pool) q.reference = reference_decode(*model, q);

  // About 7 s of schedule per pass over the pool at these rates.
  const int passes = std::max(1, static_cast<int>(std::lround(o.seconds / 7.5)));
  std::vector<Req> reqs = serve_once(*engine, o, pool, passes, nullptr);
  check_streams(reqs, pool, r);
  PhaseStats ph[3];
  for (int k = 0; k < 3; ++k) {
    ph[k] = phase_stats(reqs, k);
    std::printf("# phase %.0f req/s: %lld requests, %lld failed, %.1f tokens/s, "
                "ttft p50/p90 %.3f/%.3f ms, itl p50/p90/p99 %.3f/%.3f/%.3f ms, "
                "lag grows %d, meets limits %d\n",
                ph[k].rate, static_cast<long long>(ph[k].requests),
                static_cast<long long>(ph[k].failed), ph[k].tokens_per_s,
                percentile(ph[k].ttft, 0.5), percentile(ph[k].ttft, 0.9),
                percentile(ph[k].itl, 0.5), percentile(ph[k].itl, 0.9),
                percentile(ph[k].itl, 0.99), ph[k].lag_grows ? 1 : 0,
                ph[k].meets ? 1 : 0);
  }
  int best = -1;
  for (int k = 0; k < 3; ++k)
    if (ph[k].meets) best = k;
  const PhaseStats& nom = ph[kNominal];

  if (!o.trace) {
    r.add("setup_s", median(setup_s), "s", kSetups);
    r.add("tokens_per_s", best >= 0 ? ph[best].tokens_per_s : 0.0, "tokens/s");
    r.add("peak_rss_bytes", static_cast<double>(peak_rss_bytes()), "bytes");
    r.add("latency_ms_p50", percentile(nom.itl, 0.5), "ms",
          static_cast<int64_t>(nom.itl.size()));
    r.add("latency_ms_p90", percentile(nom.itl, 0.9), "ms",
          static_cast<int64_t>(nom.itl.size()));
    return;
  }

  // Traced: the same schedule again with every pump() timed. Client-side
  // latencies are read from the untraced pass above.
  PumpStats pumps;
  std::vector<Req> traced = serve_once(*engine, o, pool, passes, &pumps);
  Result tcheck;
  check_streams(traced, pool, tcheck);
  r.attempted += tcheck.attempted;
  r.failed += tcheck.failed;
  for (const std::string& p : tcheck.problems) r.fail_check("traced run: " + p);
  int64_t invalid = 0;
  std::vector<double> lags;
  for (const Req& q : traced) {
    invalid += q.invalid_lines;
    if (q.sent_ns > 0) lags.push_back(ms_between(q.due_ns, q.sent_ns));
  }
  const PhaseStats tnom = phase_stats(traced, kNominal);
  const double itl_u = percentile(nom.itl, 0.5);
  const double itl_t = percentile(tnom.itl, 0.5);
  std::vector<Metric> v = {
      {"train.ckpt_load_ms", median(load_ms), "ms", kSetups},
      {"tensor.gemm_gflops.decode", gemm_gflops("decode"), "GFLOP/s"},
      {"serve.pump_ms_p50", percentile(pumps.busy_ms, 0.5), "ms",
       static_cast<int64_t>(pumps.busy_ms.size())},
      {"serve.pump_ms_p99", percentile(pumps.busy_ms, 0.99), "ms",
       static_cast<int64_t>(pumps.busy_ms.size())},
      {"serve.batch_occupancy",
       pumps.occupancy_n > 0 ? pumps.occupancy_sum / static_cast<double>(pumps.occupancy_n) : 0.0,
       "lanes", pumps.occupancy_n},
      {"serve.idle_pump_share", pumps.total_ms > 0 ? pumps.idle_ms / pumps.total_ms : 0.0,
       "fraction"},
      {"serve.queue_ms_p50", percentile(tnom.queue, 0.5), "ms",
       static_cast<int64_t>(tnom.queue.size())},
      {"serve.queue_ms_p90", percentile(tnom.queue, 0.9), "ms",
       static_cast<int64_t>(tnom.queue.size())},
      {"serve.kv_bytes", static_cast<double>(engine->decoder().kv_bytes()), "bytes"},
      {"serve.generator_lag_ms_p90", percentile(lags, 0.9), "ms",
       static_cast<int64_t>(lags.size())},
      {"serve.invalid_json_lines", static_cast<double>(invalid), "count"},
      {"serve.ttft_ms_p50", percentile(nom.ttft, 0.5), "ms",
       static_cast<int64_t>(nom.ttft.size())},
      {"serve.ttft_ms_p90", percentile(nom.ttft, 0.9), "ms",
       static_cast<int64_t>(nom.ttft.size())},
      {"serve.itl_ms_p99", percentile(nom.itl, 0.99), "ms",
       static_cast<int64_t>(nom.itl.size())},
      {"serve.goodput_rps", best >= 0 ? kRates[best] : 0.0, "req/s"},
      {"trace_overhead_share", itl_t > 0 ? 1.0 - itl_u / itl_t : 0.0, "fraction"},
  };
  r.metrics.insert(r.metrics.end(), v.begin(), v.end());
}

}  // namespace perfbench
