// Minimal single-threaded HTTP/1.1 front end for the serving engine.
//
// The repo's concurrency rules allow threads only inside core/threadpool,
// so the server is a non-blocking poll() loop the engine pumps between
// decode steps: accept → read → parse → hand the engine a request; the
// engine queues bytes back and the next pump flushes them. One request per
// connection (Connection: close), which keeps parsing a single small state
// machine and makes client disconnects unambiguous.
//
// Streaming responses use chunked transfer encoding: one JSONL line per
// chunk, so clients see tokens as they are decoded.
//
// The listener binds loopback only — this is a benchmark/demo server, not
// an internet-facing one (docs/SERVING.md).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace apollo::serve {

// A fully-received request, addressed by connection id. Connection ids are
// never reused, so a stale id is simply "no longer alive".
struct HttpRequest {
  uint64_t conn = 0;
  std::string method;
  std::string target;
  std::string body;
};

class HttpServer {
 public:
  // Binds 127.0.0.1:`port` (0 picks an ephemeral port; see port()).
  // Aborts via CHECK on a port outside [0, 65535] or a bind failure — the
  // server cannot run without it.
  explicit HttpServer(int port);
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  int port() const { return port_; }
  int open_connections() const { return static_cast<int>(conns_.size()); }

  // One accept/read/write pump, blocking in poll() for at most
  // `timeout_ms` (0 = just poll and return). Returns true if any I/O
  // happened — the engine uses this to decide whether to idle.
  bool poll_io(int timeout_ms);

  // Drains the next fully-parsed request, if any.
  bool next_request(HttpRequest* out);

  // False once the peer disconnected or errored; streaming to a dead
  // connection is a silent no-op, so the engine can just check this
  // between tokens and release the lane.
  bool alive(uint64_t conn) const;

  // Complete response (closes after the buffer flushes).
  void respond(uint64_t conn, int status, const std::string& content_type,
               const std::string& body);
  // Same, with extra pre-formatted "Name: value\r\n" header lines (e.g. the
  // Retry-After hint on 429s).
  void respond(uint64_t conn, int status, const std::string& content_type,
               const std::string& body, const std::string& extra_headers);

  // Chunked stream: begin → send_chunk per JSONL line → end (closes).
  void begin_stream(uint64_t conn);
  void send_chunk(uint64_t conn, const std::string& data);
  void end_stream(uint64_t conn);

 private:
  struct Conn {
    int fd = -1;
    uint64_t id = 0;
    std::string in;
    std::string out;
    bool saw_request = false;
    bool close_after_flush = false;
  };

  Conn* find(uint64_t conn);
  void parse_input(Conn& c);
  // Closes and removes conns_[idx].
  void drop(size_t idx);

  int listen_fd_ = -1;
  int port_ = 0;
  uint64_t next_id_ = 1;
  std::vector<Conn> conns_;
  std::deque<HttpRequest> ready_;
};

}  // namespace apollo::serve
