// HTTP/1.1 wire layer over ServerCore, no external dependencies: the
// request grammar and response framing the epoll reactor
// (server/reactor.h) serves with, plus a blocking client (HttpFetch). The
// wire protocol:
//
//   GET  /healthz                  liveness
//   GET  /metricz                  metrics JSON (histograms, counters,
//                                  queue gauges, per-graph session stats)
//   GET  /graphs                   resident graph list
//   POST /api/<endpoint>           JSON body request (decompose, query,
//                                  update, densest, stats, load, unload,
//                                  hierarchy summary)
//   GET  /api/<endpoint>?k=v&...   same endpoints with query parameters in
//                                  place of the body (values arrive as
//                                  strings; the JSON helpers coerce)
//   GET  /api/hierarchy?graph=&kind=
//                                  streamed NDJSON hierarchy dump with
//                                  Transfer-Encoding: chunked
//
// Responses are application/json with Content-Length, except the streamed
// hierarchy dump. HTTP status codes map from Status codes (see
// HttpStatusFor); error bodies are {"error":..., "code":...}.
//
// Parsing and framing are pure functions (ParseHttpRequestHead,
// DecodeChunkedBody, RouteHttpRequest, BuildHttpResponseHead, ...) so the
// wire grammar is unit-testable without sockets.
#ifndef NUCLEUS_SERVER_HTTP_H_
#define NUCLEUS_SERVER_HTTP_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/server/server_core.h"

namespace nucleus {

/// A parsed request head (start line + headers; the body is read
/// separately using Content-Length).
struct HttpRequest {
  std::string method;  // GET, POST, ...
  std::string path;    // target before '?', percent-decoded
  std::map<std::string, std::string> query;    // decoded key -> value
  std::map<std::string, std::string> headers;  // keys lowercased
  std::string body;
};

/// Parses everything before the blank line of an HTTP/1.1 request.
/// kInvalidArgument on grammar violations (bad start line, missing ':',
/// unsupported version).
StatusOr<HttpRequest> ParseHttpRequestHead(std::string_view head);

/// Percent-decoding for path/query components ('+' becomes a space).
std::string PercentDecode(std::string_view in);

/// Decodes a complete Transfer-Encoding: chunked payload (used by the CLI
/// client when consuming hierarchy streams). kInvalidArgument on malformed
/// framing or truncation.
StatusOr<std::string> DecodeChunkedBody(std::string_view in);

/// The HTTP status for a Status code: 200 OK, 400 INVALID_ARGUMENT /
/// OUT_OF_RANGE, 404 NOT_FOUND, 409 FAILED_PRECONDITION, 429
/// RESOURCE_EXHAUSTED, 499 CANCELLED (nginx's client-closed-request), 500
/// INTERNAL, 504 DEADLINE_EXCEEDED.
int HttpStatusFor(StatusCode code);
const char* HttpReasonFor(int http_status);

/// The JSON error document for a Status: {"error":..., "code":...}. Every
/// error response is built through this one function.
std::string HttpErrorBody(const Status& s);

/// Response head for a Content-Length JSON response.
std::string BuildHttpResponseHead(int http_status, std::size_t content_length,
                                  bool keep_alive);

/// Response head for a chunked NDJSON stream (the hierarchy dump).
std::string BuildChunkedStreamHead(bool keep_alive);

/// Appends one Transfer-Encoding: chunked frame ("<hex size>\r\n<chunk>\r\n")
/// to `out`. An empty chunk is skipped — "0\r\n" would terminate the stream.
void AppendChunkFrame(std::string& out, std::string_view chunk);

/// Per-request read caps.
inline constexpr std::size_t kHttpMaxHeadBytes = 64 * 1024;
inline constexpr std::size_t kHttpMaxBodyBytes = 64 * 1024 * 1024;

/// Maps an HTTP request onto the transport-independent ServerRequest: the
/// /api/<endpoint> suffix (or the fixed /metricz, /healthz, /graphs
/// routes) becomes the endpoint; the JSON body, or the query parameters
/// re-encoded as a JSON object of strings, becomes the body. Returns
/// kNotFound for unrouted paths.
StatusOr<ServerRequest> RouteHttpRequest(const HttpRequest& request);

/// A fetched HTTP response (blocking client used by the CLI and the CI
/// smoke test). Chunked bodies arrive already de-chunked.
struct HttpFetchResult {
  int status = 0;
  std::map<std::string, std::string> headers;  // keys lowercased
  std::string body;
};

/// One blocking HTTP/1.1 exchange with host:port. `method` is GET or POST;
/// `body` is sent with Content-Length when non-empty. kNotFound when the
/// connection fails, kDeadlineExceeded past timeout_ms, kInvalidArgument
/// on an unparsable response.
StatusOr<HttpFetchResult> HttpFetch(const std::string& host, int port,
                                    const std::string& method,
                                    const std::string& target,
                                    const std::string& body,
                                    std::int64_t timeout_ms = 30000);

}  // namespace nucleus

#endif  // NUCLEUS_SERVER_HTTP_H_
