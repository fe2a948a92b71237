#include "src/server/http.h"

#include <netdb.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>

#include "src/common/cancel.h"
#include "src/server/json.h"

namespace nucleus {

namespace {

// send() with MSG_NOSIGNAL so a vanished client surfaces as EPIPE, not a
// process-killing SIGPIPE.
bool SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

void SetRecvTimeout(int fd, std::int64_t ms) {
  timeval tv;
  tv.tv_sec = ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

std::string ToLower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

std::string HttpErrorBody(const Status& s) {
  JsonWriter w;
  w.BeginObject()
      .Key("error")
      .String(s.message())
      .Key("code")
      .String(Status::CodeName(s.code()))
      .EndObject();
  return w.Take();
}

std::string BuildHttpResponseHead(int http_status, std::size_t content_length,
                                  bool keep_alive) {
  return "HTTP/1.1 " + std::to_string(http_status) + " " +
         HttpReasonFor(http_status) +
         "\r\nContent-Type: application/json\r\n"
         "Content-Length: " +
         std::to_string(content_length) + "\r\nConnection: " +
         (keep_alive ? "keep-alive" : "close") + "\r\n\r\n";
}

std::string BuildChunkedStreamHead(bool keep_alive) {
  return std::string(
             "HTTP/1.1 200 OK\r\n"
             "Content-Type: application/x-ndjson\r\n"
             "Transfer-Encoding: chunked\r\n"
             "Connection: ") +
         (keep_alive ? "keep-alive" : "close") + "\r\n\r\n";
}

void AppendChunkFrame(std::string& out, std::string_view chunk) {
  if (chunk.empty()) return;  // "0\r\n" would terminate the stream
  char size_line[32];
  std::snprintf(size_line, sizeof(size_line), "%zx\r\n", chunk.size());
  out.append(size_line);
  out.append(chunk);
  out.append("\r\n");
}

// ---------------------------------------------------------------------------
// Pure wire grammar

std::string PercentDecode(std::string_view in) {
  std::string out;
  out.reserve(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    if (c == '+') {
      out.push_back(' ');
    } else if (c == '%' && i + 2 < in.size()) {
      unsigned value = 0;
      const auto [next, ec] =
          std::from_chars(in.data() + i + 1, in.data() + i + 3, value, 16);
      if (ec == std::errc() && next == in.data() + i + 3) {
        out.push_back(static_cast<char>(value));
        i += 2;
      } else {
        out.push_back(c);
      }
    } else {
      out.push_back(c);
    }
  }
  return out;
}

StatusOr<HttpRequest> ParseHttpRequestHead(std::string_view head) {
  HttpRequest out;
  std::size_t line_start = 0;
  bool first = true;
  while (line_start <= head.size()) {
    std::size_t line_end = head.find('\n', line_start);
    if (line_end == std::string_view::npos) line_end = head.size();
    std::string_view line = head.substr(line_start, line_end - line_start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    line_start = line_end + 1;
    if (line.empty()) {
      if (first) continue;  // tolerate a stray leading blank line
      break;
    }
    if (first) {
      first = false;
      const std::size_t sp1 = line.find(' ');
      const std::size_t sp2 =
          sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
      if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
        return Status::InvalidArgument("malformed HTTP request line");
      }
      out.method = std::string(line.substr(0, sp1));
      std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
      std::string_view version = line.substr(sp2 + 1);
      if (version.substr(0, 7) != "HTTP/1.") {
        return Status::InvalidArgument("unsupported HTTP version: " +
                                       std::string(version));
      }
      if (target.empty() || target[0] != '/') {
        return Status::InvalidArgument("malformed request target");
      }
      const std::size_t q = target.find('?');
      out.path = PercentDecode(target.substr(0, q));
      if (q != std::string_view::npos) {
        std::string_view qs = target.substr(q + 1);
        while (!qs.empty()) {
          std::size_t amp = qs.find('&');
          std::string_view pair = qs.substr(0, amp);
          qs = amp == std::string_view::npos ? std::string_view()
                                             : qs.substr(amp + 1);
          if (pair.empty()) continue;
          const std::size_t eq = pair.find('=');
          if (eq == std::string_view::npos) {
            out.query[PercentDecode(pair)] = "";
          } else {
            out.query[PercentDecode(pair.substr(0, eq))] =
                PercentDecode(pair.substr(eq + 1));
          }
        }
      }
      continue;
    }
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return Status::InvalidArgument("malformed HTTP header line");
    }
    out.headers[ToLower(std::string(Trim(line.substr(0, colon))))] =
        std::string(Trim(line.substr(colon + 1)));
  }
  if (first) return Status::InvalidArgument("empty HTTP request");
  return out;
}

StatusOr<std::string> DecodeChunkedBody(std::string_view in) {
  std::string out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t line_end = in.find("\r\n", pos);
    if (line_end == std::string_view::npos) {
      return Status::InvalidArgument("chunked body: missing size line");
    }
    std::string_view size_token = in.substr(pos, line_end - pos);
    const std::size_t semi = size_token.find(';');  // drop extensions
    if (semi != std::string_view::npos) size_token = size_token.substr(0, semi);
    std::size_t size = 0;
    const auto [next, ec] = std::from_chars(
        size_token.data(), size_token.data() + size_token.size(), size, 16);
    if (ec != std::errc() || next != size_token.data() + size_token.size()) {
      return Status::InvalidArgument("chunked body: malformed chunk size");
    }
    pos = line_end + 2;
    if (size == 0) return out;  // trailers, if any, are ignored
    // pos <= in.size() here; a sum with a hex size near 2^64 would wrap.
    if (in.size() - pos < 2 || size > in.size() - pos - 2) {
      return Status::InvalidArgument("chunked body: truncated chunk");
    }
    out.append(in.substr(pos, size));
    pos += size;
    if (in.substr(pos, 2) != "\r\n") {
      return Status::InvalidArgument("chunked body: missing chunk CRLF");
    }
    pos += 2;
  }
}

int HttpStatusFor(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return 200;
    case StatusCode::kInvalidArgument: return 400;
    case StatusCode::kOutOfRange: return 400;
    case StatusCode::kNotFound: return 404;
    case StatusCode::kFailedPrecondition: return 409;
    case StatusCode::kResourceExhausted: return 429;
    case StatusCode::kCancelled: return 499;
    case StatusCode::kInternal: return 500;
    case StatusCode::kDeadlineExceeded: return 504;
  }
  return 500;
}

const char* HttpReasonFor(int http_status) {
  switch (http_status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 429: return "Too Many Requests";
    case 499: return "Client Closed Request";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
  }
  return "Unknown";
}

StatusOr<ServerRequest> RouteHttpRequest(const HttpRequest& request) {
  ServerRequest out;
  if (request.path == "/metricz") {
    out.endpoint = "metricz";
    return out;
  }
  if (request.path == "/healthz") {
    out.endpoint = "healthz";
    return out;
  }
  if (request.path == "/graphs") {
    out.endpoint = "graphs";
    return out;
  }
  constexpr std::string_view kApi = "/api/";
  if (request.path.size() > kApi.size() &&
      std::string_view(request.path).substr(0, kApi.size()) == kApi) {
    out.endpoint = request.path.substr(kApi.size());
    if (!request.body.empty()) {
      out.body = request.body;
    } else if (!request.query.empty()) {
      // GET form: query parameters become a JSON object of strings; the
      // server's typed decoders coerce numerics and bools back.
      JsonWriter w;
      w.BeginObject();
      for (const auto& [key, value] : request.query) {
        w.Key(key).String(value);
      }
      w.EndObject();
      out.body = w.Take();
    }
    return out;
  }
  return Status::NotFound("no route for " + request.method + " " +
                          request.path);
}

// ---------------------------------------------------------------------------
// Client

StatusOr<HttpFetchResult> HttpFetch(const std::string& host, int port,
                                    const std::string& method,
                                    const std::string& target,
                                    const std::string& body,
                                    std::int64_t timeout_ms) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &res) != 0 ||
      res == nullptr) {
    return Status::NotFound("cannot resolve host: " + host);
  }
  const int fd = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
  if (fd < 0) {
    ::freeaddrinfo(res);
    return Status::Internal("socket() failed");
  }
  const int rc = ::connect(fd, res->ai_addr, res->ai_addrlen);
  ::freeaddrinfo(res);
  if (rc < 0) {
    ::close(fd);
    return Status::NotFound("cannot connect to " + host + ":" +
                            std::to_string(port));
  }
  SetRecvTimeout(fd, 200);
  const Deadline deadline = Deadline::After(timeout_ms);

  std::string request = method + " " + target + " HTTP/1.1\r\nHost: " + host +
                        "\r\nConnection: close\r\n";
  if (!body.empty()) {
    request += "Content-Type: application/json\r\nContent-Length: " +
               std::to_string(body.size()) + "\r\n";
  }
  request += "\r\n";
  request += body;
  if (!SendAll(fd, request)) {
    ::close(fd);
    return Status::Internal("short write to server");
  }

  // Connection: close — the response ends at EOF.
  std::string raw;
  char chunk[8192];
  while (true) {
    if (deadline.Expired()) {
      ::close(fd);
      return Status::DeadlineExceeded("HTTP fetch timed out");
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      ::close(fd);
      return Status::Internal("read error from server");
    }
    raw.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);

  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    return Status::InvalidArgument("malformed HTTP response (no head)");
  }
  std::string_view head = std::string_view(raw).substr(0, head_end);
  const std::size_t line_end = head.find("\r\n");
  std::string_view status_line = head.substr(0, line_end);
  const std::size_t sp = status_line.find(' ');
  if (sp == std::string_view::npos || status_line.substr(0, 5) != "HTTP/") {
    return Status::InvalidArgument("malformed HTTP status line");
  }
  HttpFetchResult out;
  {
    const std::string_view code = status_line.substr(sp + 1, 3);
    const auto [next, ec] =
        std::from_chars(code.data(), code.data() + code.size(), out.status);
    if (ec != std::errc()) {
      return Status::InvalidArgument("malformed HTTP status code");
    }
  }
  std::size_t pos = line_end == std::string_view::npos ? head.size()
                                                       : line_end + 2;
  while (pos < head.size()) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view line = head.substr(pos, eol - pos);
    pos = eol + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    out.headers[ToLower(std::string(Trim(line.substr(0, colon))))] =
        std::string(Trim(line.substr(colon + 1)));
  }
  std::string_view payload = std::string_view(raw).substr(head_end + 4);
  if (const auto it = out.headers.find("transfer-encoding");
      it != out.headers.end() && ToLower(it->second) == "chunked") {
    auto decoded = DecodeChunkedBody(payload);
    if (!decoded.ok()) return decoded.status();
    out.body = std::move(decoded).value();
  } else {
    out.body = std::string(payload);
    if (const auto cl = out.headers.find("content-length");
        cl != out.headers.end()) {
      std::size_t content_length = 0;
      const auto [next, ec] = std::from_chars(
          cl->second.data(), cl->second.data() + cl->second.size(),
          content_length);
      if (ec == std::errc() && content_length <= out.body.size()) {
        out.body.resize(content_length);
      }
    }
  }
  return out;
}

}  // namespace nucleus
