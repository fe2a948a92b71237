// Minimal HTTP/1.1 keep-alive client for the loopback round trips: one
// request in flight per connection, Content-Length and chunked responses.
// Written against the wire format, not the server's own helpers, so a
// change to the server's codec cannot also change how it is measured.
#ifndef PERFBENCH_HARNESS_CLIENT_H_
#define PERFBENCH_HARNESS_CLIENT_H_

#include <cstddef>
#include <string>

namespace perfbench {

struct HttpResponse {
  int status = 0;
  std::string body;
  bool ok() const { return status >= 200 && status < 300; }
};

class HttpConn {
 public:
  HttpConn() = default;
  ~HttpConn();
  HttpConn(const HttpConn&) = delete;
  HttpConn& operator=(const HttpConn&) = delete;

  bool Connect(int port);
  int fd() const { return fd_; }

  /// Writes one request; the response is then collected with Pump.
  bool Send(const std::string& method, const std::string& target,
            const std::string& body);
  /// Reads what the socket has (blocking until at least one byte) and
  /// parses. 1 = response complete (see response()), 0 = need more,
  /// -1 = connection error or malformed response.
  int Pump();
  const HttpResponse& response() const { return response_; }

  /// Send + Pump until complete.
  bool RoundTrip(const std::string& method, const std::string& target,
                 const std::string& body, HttpResponse* out);

 private:
  int Parse();

  int fd_ = -1;
  std::string in_;
  std::size_t pos_ = 0;
  bool head_done_ = false;
  bool chunked_ = false;
  std::size_t content_length_ = 0;
  HttpResponse response_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_CLIENT_H_
