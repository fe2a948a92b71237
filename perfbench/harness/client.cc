#include "perfbench/harness/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <strings.h>

namespace perfbench {

HttpConn::~HttpConn() {
  if (fd_ >= 0) ::close(fd_);
}

bool HttpConn::Connect(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
}

bool HttpConn::Send(const std::string& method, const std::string& target,
                    const std::string& body) {
  in_.clear();
  pos_ = 0;
  head_done_ = false;
  chunked_ = false;
  content_length_ = 0;
  response_ = HttpResponse{};
  std::string req = method + " " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!body.empty()) {
    req += "Content-Type: application/json\r\nContent-Length: " +
           std::to_string(body.size()) + "\r\n";
  }
  req += "\r\n" + body;
  std::size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n = ::send(fd_, req.data() + sent, req.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

int HttpConn::Pump() {
  char buf[1 << 16];
  ssize_t n;
  do {
    n = ::recv(fd_, buf, sizeof(buf), 0);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return -1;
  in_.append(buf, static_cast<std::size_t>(n));
  return Parse();
}

int HttpConn::Parse() {
  if (!head_done_) {
    const std::size_t end = in_.find("\r\n\r\n");
    if (end == std::string::npos) return 0;
    if (in_.compare(0, 9, "HTTP/1.1 ") != 0) return -1;
    response_.status = std::atoi(in_.c_str() + 9);
    std::size_t line = in_.find("\r\n") + 2;
    while (line < end) {
      const std::size_t eol = in_.find("\r\n", line);
      const std::string h = in_.substr(line, eol - line);
      if (strncasecmp(h.c_str(), "content-length:", 15) == 0) {
        content_length_ = std::strtoull(h.c_str() + 15, nullptr, 10);
      } else if (strncasecmp(h.c_str(), "transfer-encoding:", 18) == 0 &&
                 h.find("chunked") != std::string::npos) {
        chunked_ = true;
      }
      line = eol + 2;
    }
    head_done_ = true;
    pos_ = end + 4;
  }
  if (!chunked_) {
    if (in_.size() - pos_ < content_length_) return 0;
    response_.body.assign(in_, pos_, content_length_);
    return 1;
  }
  while (true) {
    const std::size_t eol = in_.find("\r\n", pos_);
    if (eol == std::string::npos) return 0;
    char* parsed = nullptr;
    const std::size_t size = std::strtoull(in_.c_str() + pos_, &parsed, 16);
    if (parsed == in_.c_str() + pos_) return -1;
    if (in_.size() < eol + 2 + size + 2) return 0;
    if (size == 0) return 1;
    response_.body.append(in_, eol + 2, size);
    pos_ = eol + 2 + size + 2;
  }
}

bool HttpConn::RoundTrip(const std::string& method, const std::string& target,
                         const std::string& body, HttpResponse* out) {
  if (!Send(method, target, body)) return false;
  int r;
  while ((r = Pump()) == 0) {
  }
  if (r < 0) return false;
  *out = std::move(response_);
  return true;
}

}  // namespace perfbench
