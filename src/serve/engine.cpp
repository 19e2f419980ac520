#include "serve/engine.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>

#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "serve/json_min.h"
#include "serve/request.h"
#include "tensor/check.h"

namespace apollo::serve {

namespace {

// Stable references into the process-wide registry, looked up once.
struct Metrics {
  obs::Counter& requests;
  obs::Counter& rejected;
  obs::Counter& expired;
  obs::Counter& disconnected;
  obs::Counter& completed;
  obs::Counter& tokens_out;
  obs::Histogram& queue_ms;
  obs::Histogram& ttft_ms;
  obs::Histogram& latency_ms;
  obs::Gauge& queue_depth;
  obs::Gauge& active;
};

Metrics& metrics() {
  auto& reg = obs::Registry::instance();
  static Metrics m{reg.counter("serve.requests"),
                   reg.counter("serve.rejected"),
                   reg.counter("serve.expired"),
                   reg.counter("serve.disconnected"),
                   reg.counter("serve.completed"),
                   reg.counter("serve.tokens_out"),
                   reg.histogram("serve.queue_ms"),
                   reg.histogram("serve.ttft_ms"),
                   reg.histogram("serve.latency_ms"),
                   reg.gauge("serve.queue_depth"),
                   reg.gauge("serve.active")};
  return m;
}

std::string error_body(const std::string& message) {
  obs::JsonObject o;
  o.field_str("error", message.c_str());
  return o.str() + "\n";
}

// Back-off hint for 429s: the time to drain `queue_depth` requests ahead of
// the caller, estimated from this process's own history — mean tokens per
// completed request × mean per-token latency (both from the serve.*
// metrics). Clamped to [1, 60] s; 1 s before any request has completed.
int retry_after_s(int queue_depth) {
  const int64_t toks = metrics().tokens_out.value();
  const int64_t done = metrics().completed.value();
  if (toks <= 0 || done <= 0) return 1;
  const double per_token_ms = metrics().latency_ms.snapshot().sum /
                              static_cast<double>(toks);
  const double mean_tokens =
      static_cast<double>(toks) / static_cast<double>(done);
  const double est_ms = queue_depth * mean_tokens * per_token_ms;
  const double s = std::ceil(est_ms / 1000.0);
  if (s < 1.0) return 1;
  if (s > 60.0) return 60;
  return static_cast<int>(s);
}

// Reads an integral field in [lo, hi]; absent fields keep *out untouched.
bool read_int(const std::map<std::string, JsonValue>& body, const char* key,
              int64_t lo, int64_t hi, int64_t* out, std::string* err) {
  const auto it = body.find(key);
  if (it == body.end()) return true;
  const JsonValue& v = it->second;
  if (v.kind != JsonValue::Kind::kNumber || v.num != std::floor(v.num) ||
      v.num < static_cast<double>(lo) || v.num > static_cast<double>(hi)) {
    *err = std::string(key) + " must be an integer in [" +
           std::to_string(lo) + ", " + std::to_string(hi) + "]";
    return false;
  }
  *out = static_cast<int64_t>(v.num);
  return true;
}

}  // namespace

ServeEngine::ServeEngine(nn::LlamaModel& model, const EngineConfig& cfg)
    : model_(model),
      cfg_(cfg),
      http_(cfg.port),
      sched_(SchedConfig{cfg.max_queue, cfg.default_deadline_ms}),
      decoder_(model, cfg.max_batch),
      lanes_(static_cast<size_t>(cfg.max_batch)) {
  epoch_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now().time_since_epoch())
                  .count();
}

int64_t ServeEngine::now_ms() const {
  const int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now().time_since_epoch())
                         .count();
  return (ns - epoch_ns_) / 1000000;
}

std::string ServeEngine::start_line(uint64_t request_id,
                                    int64_t queue_ms) const {
  obs::JsonObject o;
  o.field_str("event", "start");
  o.field_int("id", static_cast<int64_t>(request_id));
  o.field_int("queue_ms", queue_ms);
  return o.str() + "\n";
}

void ServeEngine::stream_token(int lane, int32_t token) {
  ActiveLane& al = lanes_[static_cast<size_t>(lane)];
  obs::JsonObject o;
  o.field_int("token", token);
  if (token >= 0 && token < 0x80) {
    // Byte-level models: the token id IS the byte.
    const char txt[2] = {static_cast<char>(token), '\0'};
    o.field_str("text", txt);
  } else if (token >= 0x80 && token < 0x100) {
    // A lone byte >= 0x80 is not UTF-8, so it goes out as \u00XX: the code
    // point equals the byte, and json_min decodes it back to that byte.
    char esc[12];
    std::snprintf(esc, sizeof esc, "\"\\u%04x\"",
                  static_cast<unsigned>(token));
    o.field_raw("text", esc);
  }
  http_.send_chunk(al.conn, o.str() + "\n");
  if (al.first_token_ms < 0) {
    al.first_token_ms = now_ms();
    metrics().ttft_ms.observe(
        static_cast<double>(al.first_token_ms - al.submit_ms));
  }
  ++al.tokens;
  metrics().tokens_out.add(1);
}

void ServeEngine::finish_lane(int lane, FinishReason reason) {
  ActiveLane& al = lanes_[static_cast<size_t>(lane)];
  const int64_t latency = now_ms() - al.submit_ms;
  obs::JsonObject o;
  o.field_str("event", "done");
  o.field_str("finish_reason", finish_reason_name(reason));
  o.field_int("tokens", al.tokens);
  o.field_int("latency_ms", latency);
  http_.send_chunk(al.conn, o.str() + "\n");
  http_.end_stream(al.conn);
  decoder_.release(lane);
  al.used = false;
  metrics().completed.add(1);
  metrics().latency_ms.observe(static_cast<double>(latency));
}

void ServeEngine::finish_expired(const ServeRequest& req) {
  metrics().expired.add(1);
  if (!http_.alive(req.conn)) return;
  http_.begin_stream(req.conn);
  obs::JsonObject o;
  o.field_str("event", "done");
  o.field_str("finish_reason", finish_reason_name(FinishReason::kDeadline));
  o.field_int("tokens", 0);
  o.field_int("latency_ms", now_ms() - req.submit_ms);
  http_.send_chunk(req.conn, o.str() + "\n");
  http_.end_stream(req.conn);
}

void ServeEngine::handle_generate(const HttpRequest& req) {
  const int vocab = model_.config().vocab;
  std::map<std::string, JsonValue> body;
  std::string err;
  if (!parse_json_object(req.body.empty() ? "{}" : req.body, body, &err)) {
    http_.respond(req.conn, 400, "application/json", error_body(err));
    return;
  }
  static const char* kKnown[] = {"prompt",    "tokens", "max_tokens",
                                 "temperature", "top_k",  "top_p",
                                 "seed",      "stop_token", "deadline_ms"};
  for (const auto& [key, value] : body) {
    bool known = false;
    for (const char* k : kKnown) known = known || key == k;
    if (!known) {
      http_.respond(req.conn, 400, "application/json",
                    error_body("unknown field \"" + key + "\""));
      return;
    }
  }

  ServeRequest sr;
  sr.conn = req.conn;
  const bool has_prompt = body.count("prompt") != 0;
  const bool has_tokens = body.count("tokens") != 0;
  if (has_prompt && has_tokens) {
    http_.respond(req.conn, 400, "application/json",
                  error_body("give either prompt or tokens, not both"));
    return;
  }
  if (has_prompt) {
    const JsonValue& p = body.at("prompt");
    if (p.kind != JsonValue::Kind::kString) {
      http_.respond(req.conn, 400, "application/json",
                    error_body("prompt must be a string"));
      return;
    }
    // Byte-level tokenization, folded into the model's vocab.
    for (char ch : p.str)
      sr.prompt.push_back(
          static_cast<int32_t>(static_cast<unsigned char>(ch)) % vocab);
  } else if (has_tokens) {
    const JsonValue& t = body.at("tokens");
    if (t.kind != JsonValue::Kind::kNumberArray) {
      http_.respond(req.conn, 400, "application/json",
                    error_body("tokens must be an array of integers"));
      return;
    }
    for (double d : t.arr) {
      if (d != std::floor(d) || d < 0 || d >= static_cast<double>(vocab)) {
        http_.respond(
            req.conn, 400, "application/json",
            error_body("tokens must be integers in [0, vocab)"));
        return;
      }
      sr.prompt.push_back(static_cast<int32_t>(d));
    }
  }

  int64_t max_tokens = sr.params.max_tokens;
  int64_t top_k = sr.params.top_k;
  int64_t seed = static_cast<int64_t>(sr.params.seed);
  int64_t stop_token = sr.params.stop_token;
  int64_t deadline_rel = 0;
  if (!read_int(body, "max_tokens", 1, 4096, &max_tokens, &err) ||
      !read_int(body, "top_k", 0, vocab, &top_k, &err) ||
      !read_int(body, "seed", 0, INT64_MAX, &seed, &err) ||
      !read_int(body, "stop_token", -1, vocab - 1, &stop_token, &err) ||
      !read_int(body, "deadline_ms", 0, INT64_MAX, &deadline_rel, &err)) {
    http_.respond(req.conn, 400, "application/json", error_body(err));
    return;
  }
  if (const auto it = body.find("temperature"); it != body.end()) {
    if (it->second.kind != JsonValue::Kind::kNumber || it->second.num < 0 ||
        !std::isfinite(it->second.num)) {
      http_.respond(req.conn, 400, "application/json",
                    error_body("temperature must be a number >= 0"));
      return;
    }
    sr.params.temperature = static_cast<float>(it->second.num);
  }
  if (const auto it = body.find("top_p"); it != body.end()) {
    if (it->second.kind != JsonValue::Kind::kNumber ||
        !(it->second.num > 0) || it->second.num > 1) {
      http_.respond(req.conn, 400, "application/json",
                    error_body("top_p must be in (0, 1]"));
      return;
    }
    sr.params.top_p = static_cast<float>(it->second.num);
  }
  sr.params.max_tokens = static_cast<int>(max_tokens);
  sr.params.top_k = static_cast<int>(top_k);
  sr.params.seed = static_cast<uint64_t>(seed);
  sr.params.stop_token = static_cast<int32_t>(stop_token);

  sr.id = next_request_id_++;
  sr.submit_ms = now_ms();
  if (deadline_rel > 0) sr.deadline_ms = sr.submit_ms + deadline_rel;

  metrics().requests.add(1);
  switch (sched_.submit(std::move(sr))) {
    case Admission::kAccepted:
      break;  // the stream opens when a lane admits it
    case Admission::kQueueFull:
      metrics().rejected.add(1);
      http_.respond(req.conn, 429, "application/json",
                    error_body("queue full"),
                    "Retry-After: " +
                        std::to_string(retry_after_s(sched_.queue_depth())) +
                        "\r\n");
      break;
    case Admission::kDraining:
      metrics().rejected.add(1);
      http_.respond(req.conn, 503, "application/json",
                    error_body("shutting down"));
      break;
  }
}

void ServeEngine::handle_request(const HttpRequest& req) {
  if (req.method == "GET" && req.target == "/healthz") {
    obs::JsonObject o;
    o.field_str("status", "ok");
    o.field_int("active", decoder_.active());
    o.field_int("queue", sched_.queue_depth());
    o.field_bool("draining", sched_.draining());
    http_.respond(req.conn, 200, "application/json", o.str() + "\n");
    return;
  }
  if (req.method == "GET" && req.target == "/metrics") {
    http_.respond(req.conn, 200, "application/x-ndjson",
                  obs::Registry::instance().export_jsonl());
    return;
  }
  if (req.method == "POST" && req.target == "/admin/shutdown") {
    sched_.begin_drain();
    obs::JsonObject o;
    o.field_str("status", "draining");
    http_.respond(req.conn, 200, "application/json", o.str() + "\n");
    return;
  }
  if (req.method == "POST" && req.target == "/v1/generate") {
    handle_generate(req);
    return;
  }
  http_.respond(req.conn, 404, "application/json",
                error_body("no route for " + req.method + " " + req.target));
}

bool ServeEngine::pump(int timeout_ms) {
  if (stopped_) return false;
  // Block in poll only when nothing is decoding; otherwise just collect
  // whatever I/O is ready and keep stepping the batch.
  http_.poll_io(decoder_.active() > 0 ? 0 : timeout_ms);

  HttpRequest req;
  while (http_.next_request(&req)) handle_request(req);

  const int64_t now = now_ms();
  expired_scratch_.clear();
  sched_.expire(now, &expired_scratch_);

  // Continuous batching: fill any free lanes from the queue; new requests
  // join lanes that are mid-generation without stalling them.
  ServeRequest next;
  while (decoder_.has_free_lane() &&
         sched_.pop_next(now, &next, &expired_scratch_)) {
    if (!http_.alive(next.conn)) {
      metrics().disconnected.add(1);
      continue;  // client gave up while queued
    }
    const int lane = decoder_.admit(next.prompt, next.params);
    APOLLO_CHECK(lane >= 0);
    ActiveLane& al = lanes_[static_cast<size_t>(lane)];
    al = ActiveLane{};
    al.used = true;
    al.conn = next.conn;
    al.request_id = next.id;
    al.submit_ms = next.submit_ms;
    al.admit_ms = now;
    al.deadline_ms = next.deadline_ms;
    metrics().queue_ms.observe(static_cast<double>(now - next.submit_ms));
    http_.begin_stream(al.conn);
    http_.send_chunk(al.conn, start_line(al.request_id, now - al.submit_ms));
  }
  for (const ServeRequest& r : expired_scratch_) finish_expired(r);

  if (decoder_.active() > 0) {
    decoder_.decode_step();
    for (int lane = 0; lane < decoder_.max_batch(); ++lane) {
      ActiveLane& al = lanes_[static_cast<size_t>(lane)];
      if (!al.used) continue;
      if (!http_.alive(al.conn)) {
        // Client disconnected mid-stream: free the lane immediately.
        decoder_.release(lane);
        al.used = false;
        metrics().disconnected.add(1);
        continue;
      }
      const DecodeOut& out = decoder_.output(lane);
      if (out.emitted) stream_token(lane, out.token);
      if (out.done) {
        finish_lane(lane, out.finish);
      } else if (al.deadline_ms != 0 && now_ms() >= al.deadline_ms) {
        finish_lane(lane, FinishReason::kDeadline);
        metrics().expired.add(1);
      }
    }
  }

  metrics().queue_depth.set(static_cast<double>(sched_.queue_depth()));
  metrics().active.set(static_cast<double>(decoder_.active()));

  if (sched_.draining() && decoder_.active() == 0 &&
      sched_.queue_depth() == 0) {
    stopped_ = true;
    // Flush pending output (e.g. the shutdown acknowledgement) before the
    // sockets close with the engine.
    for (int i = 0; i < 100 && http_.open_connections() > 0; ++i)
      http_.poll_io(10);
  }
  return !stopped_;
}

void ServeEngine::run() {
  while (pump(20)) {
  }
}

}  // namespace apollo::serve
