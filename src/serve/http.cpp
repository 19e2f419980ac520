#include "serve/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "tensor/check.h"

namespace apollo::serve {

namespace {

// One request per connection keeps these caps per-connection too.
constexpr size_t kMaxHeaderBytes = 64 * 1024;
constexpr size_t kMaxBodyBytes = 1 * 1024 * 1024;
constexpr int kMaxConns = 128;

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 503: return "Service Unavailable";
    default: return "Error";
  }
}

// `extra` carries zero or more pre-formatted "Name: value\r\n" lines.
std::string head(int status, const std::string& content_type,
                 size_t content_length, const std::string& extra = "") {
  std::string h = "HTTP/1.1 " + std::to_string(status) + " " +
                  status_text(status) + "\r\nContent-Type: " + content_type +
                  "\r\nContent-Length: " + std::to_string(content_length) +
                  "\r\n" + extra + "Connection: close\r\n\r\n";
  return h;
}

// Case-insensitive header lookup in the raw header block; returns false if
// absent. Good enough for the one header we need (Content-Length).
bool header_value(const std::string& headers, const std::string& name,
                  std::string* out) {
  std::string lower = headers;
  std::transform(lower.begin(), lower.end(), lower.begin(), [](char c) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  });
  const std::string needle = "\r\n" + name + ":";
  const size_t at = lower.find(needle);
  if (at == std::string::npos) return false;
  size_t v0 = at + needle.size();
  size_t v1 = lower.find("\r\n", v0);
  if (v1 == std::string::npos) v1 = lower.size();
  while (v0 < v1 && headers[v0] == ' ') ++v0;
  out->assign(headers, v0, v1 - v0);
  return true;
}

}  // namespace

HttpServer::HttpServer(int port) {
  APOLLO_CHECK_MSG(port >= 0 && port <= 65535, "port outside [0, 65535]");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  APOLLO_CHECK_MSG(listen_fd_ >= 0, "socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  APOLLO_CHECK_MSG(
      ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
          0,
      "bind() failed — port in use?");
  APOLLO_CHECK(::listen(listen_fd_, 64) == 0);
  socklen_t len = sizeof(addr);
  APOLLO_CHECK(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                             &len) == 0);
  port_ = static_cast<int>(ntohs(addr.sin_port));
}

HttpServer::~HttpServer() {
  for (Conn& c : conns_) ::close(c.fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

HttpServer::Conn* HttpServer::find(uint64_t conn) {
  for (Conn& c : conns_)
    if (c.id == conn) return &c;
  return nullptr;
}

bool HttpServer::alive(uint64_t conn) const {
  for (const Conn& c : conns_)
    if (c.id == conn) return true;
  return false;
}

void HttpServer::drop(size_t idx) {
  ::close(conns_[idx].fd);
  conns_.erase(conns_.begin() + static_cast<int64_t>(idx));
}

void HttpServer::parse_input(Conn& c) {
  if (c.saw_request) return;  // one request per connection; ignore extra
  const size_t hdr_end = c.in.find("\r\n\r\n");
  if (hdr_end == std::string::npos) {
    if (c.in.size() > kMaxHeaderBytes) {
      c.out += head(400, "text/plain", 0);
      c.close_after_flush = true;
      c.saw_request = true;
    }
    return;
  }
  const std::string headers = c.in.substr(0, hdr_end);
  // Request line: METHOD SP TARGET SP VERSION.
  const size_t line_end = headers.find("\r\n");
  const std::string line =
      headers.substr(0, line_end == std::string::npos ? headers.size()
                                                      : line_end);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = line.find(' ', sp1 == std::string::npos ? 0 : sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    c.out += head(400, "text/plain", 0);
    c.close_after_flush = true;
    c.saw_request = true;
    return;
  }
  size_t body_len = 0;
  std::string cl;
  if (header_value(headers, "content-length", &cl)) {
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(cl.c_str(), &end, 10);
    if (end == cl.c_str() || *end != '\0' || parsed > kMaxBodyBytes) {
      c.out += head(parsed > kMaxBodyBytes ? 413 : 400, "text/plain", 0);
      c.close_after_flush = true;
      c.saw_request = true;
      return;
    }
    body_len = static_cast<size_t>(parsed);
  }
  const size_t body_start = hdr_end + 4;
  if (c.in.size() < body_start + body_len) return;  // body still arriving

  HttpRequest req;
  req.conn = c.id;
  req.method = line.substr(0, sp1);
  req.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  req.body = c.in.substr(body_start, body_len);
  ready_.push_back(std::move(req));
  c.saw_request = true;
  c.in.clear();
}

bool HttpServer::poll_io(int timeout_ms) {
  std::vector<pollfd> pfds;
  pfds.reserve(conns_.size() + 1);
  const bool can_accept = static_cast<int>(conns_.size()) < kMaxConns;
  pfds.push_back({listen_fd_,
                  static_cast<short>(can_accept ? POLLIN : 0), 0});
  for (const Conn& c : conns_) {
    short events = POLLIN;  // keep reading to detect disconnects
    if (!c.out.empty()) events |= POLLOUT;
    pfds.push_back({c.fd, events, 0});
  }
  const int n = ::poll(pfds.data(), pfds.size(), timeout_ms);
  if (n <= 0) return false;

  bool any = false;
  if ((pfds[0].revents & POLLIN) != 0) {
    while (static_cast<int>(conns_.size()) < kMaxConns) {
      const int fd =
          ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
      if (fd < 0) break;
      Conn c;
      c.fd = fd;
      c.id = next_id_++;
      conns_.push_back(std::move(c));
      any = true;
    }
  }

  // Walk backwards so drop() does not disturb unvisited indices. pfds[i+1]
  // matches conns_[i] for the pre-accept prefix.
  const size_t pre = pfds.size() - 1;
  for (size_t i = pre; i-- > 0;) {
    if (i >= conns_.size()) continue;
    Conn& c = conns_[i];
    const short rev = pfds[i + 1].revents;
    if (rev == 0) continue;
    any = true;
    if ((rev & (POLLERR | POLLNVAL)) != 0) {
      drop(i);
      continue;
    }
    if ((rev & (POLLIN | POLLHUP)) != 0) {
      char buf[4096];
      bool dead = false;
      while (true) {
        const ssize_t got = ::recv(c.fd, buf, sizeof(buf), 0);
        if (got > 0) {
          // Discard post-request bytes; before that, accumulate and parse.
          if (!c.saw_request) {
            c.in.append(buf, static_cast<size_t>(got));
            parse_input(c);
          }
          continue;
        }
        if (got == 0) dead = true;  // peer closed
        // got < 0: EAGAIN (drained) or error; errors surface via POLLERR.
        break;
      }
      if (dead) {
        drop(i);
        continue;
      }
    }
    if ((rev & POLLOUT) != 0 && !c.out.empty()) {
      const ssize_t sent =
          ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
      if (sent > 0) c.out.erase(0, static_cast<size_t>(sent));
      if (sent < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
        drop(i);
        continue;
      }
      if (c.out.empty() && c.close_after_flush) drop(i);
    }
  }
  return any;
}

bool HttpServer::next_request(HttpRequest* out) {
  if (ready_.empty()) return false;
  *out = std::move(ready_.front());
  ready_.pop_front();
  return true;
}

void HttpServer::respond(uint64_t conn, int status,
                         const std::string& content_type,
                         const std::string& body) {
  respond(conn, status, content_type, body, "");
}

void HttpServer::respond(uint64_t conn, int status,
                         const std::string& content_type,
                         const std::string& body,
                         const std::string& extra_headers) {
  Conn* c = find(conn);
  if (c == nullptr) return;
  c->out += head(status, content_type, body.size(), extra_headers) + body;
  c->close_after_flush = true;
}

void HttpServer::begin_stream(uint64_t conn) {
  Conn* c = find(conn);
  if (c == nullptr) return;
  c->out +=
      "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
      "Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n";
}

void HttpServer::send_chunk(uint64_t conn, const std::string& data) {
  Conn* c = find(conn);
  if (c == nullptr || data.empty()) return;
  char size_hex[32];
  std::snprintf(size_hex, sizeof(size_hex), "%zx\r\n", data.size());
  c->out += size_hex;
  c->out += data;
  c->out += "\r\n";
}

void HttpServer::end_stream(uint64_t conn) {
  Conn* c = find(conn);
  if (c == nullptr) return;
  c->out += "0\r\n\r\n";
  c->close_after_flush = true;
}

}  // namespace apollo::serve
