// Socket-free tests for the HTTP wire grammar (ParseHttpRequestHead,
// PercentDecode, DecodeChunkedBody, HttpStatusFor, RouteHttpRequest) and
// the JSON layer beneath it (JsonValue parser, Get* request decoding,
// JsonWriter escaping). These are the pure functions the server and the
// CLI client both depend on, exercised with hostile input.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/server/http.h"
#include "src/server/json.h"

namespace nucleus {
namespace {

TEST(HttpWire, ParsesRequestHead) {
  auto r = ParseHttpRequestHead(
      "GET /api/decompose?graph=web%20graph&kind=truss&x=a+b HTTP/1.1\r\n"
      "Host: localhost:8080\r\n"
      "Content-Length: 12\r\n"
      "X-Custom:   spaced value  \r\n"
      "\r\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->method, "GET");
  EXPECT_EQ(r->path, "/api/decompose");
  EXPECT_EQ(r->query.at("graph"), "web graph");
  EXPECT_EQ(r->query.at("kind"), "truss");
  EXPECT_EQ(r->query.at("x"), "a b");
  // Header keys lowercased, values trimmed.
  EXPECT_EQ(r->headers.at("host"), "localhost:8080");
  EXPECT_EQ(r->headers.at("content-length"), "12");
  EXPECT_EQ(r->headers.at("x-custom"), "spaced value");
}

TEST(HttpWire, ToleratesBareLfAndLeadingBlankLine) {
  auto r = ParseHttpRequestHead(
      "\r\nPOST /api/update HTTP/1.0\nContent-Length: 2\n\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->method, "POST");
  EXPECT_EQ(r->path, "/api/update");
}

TEST(HttpWire, RejectsMalformedHeads) {
  EXPECT_FALSE(ParseHttpRequestHead("").ok());
  EXPECT_FALSE(ParseHttpRequestHead("GET /x\r\n\r\n").ok());  // no version
  EXPECT_FALSE(ParseHttpRequestHead("GET /x SPDY/3\r\n\r\n").ok());
  EXPECT_FALSE(
      ParseHttpRequestHead("GET /x HTTP/1.1\r\nno-colon-line\r\n\r\n").ok());
  EXPECT_FALSE(ParseHttpRequestHead("/x HTTP/1.1\r\n\r\n").ok());
}

TEST(HttpWire, PercentDecoding) {
  EXPECT_EQ(PercentDecode("a%20b%2Fc"), "a b/c");
  EXPECT_EQ(PercentDecode("plus+space"), "plus space");
  EXPECT_EQ(PercentDecode("%41%6a"), "Aj");
  // Malformed escapes pass through literally rather than crashing.
  EXPECT_EQ(PercentDecode("100%"), "100%");
  EXPECT_EQ(PercentDecode("%zz"), "%zz");
  EXPECT_EQ(PercentDecode(""), "");
}

TEST(HttpWire, DecodesChunkedBodies) {
  auto r = DecodeChunkedBody("5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, "hello world");

  // Chunk extensions are dropped; hex sizes are case-insensitive.
  auto ext = DecodeChunkedBody("A;ext=1\r\n0123456789\r\n0\r\n\r\n");
  ASSERT_TRUE(ext.ok()) << ext.status().ToString();
  EXPECT_EQ(*ext, "0123456789");

  auto empty = DecodeChunkedBody("0\r\n\r\n");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(*empty, "");
}

TEST(HttpWire, RejectsMalformedChunkedBodies) {
  EXPECT_FALSE(DecodeChunkedBody("").ok());
  EXPECT_FALSE(DecodeChunkedBody("zz\r\nhello\r\n0\r\n\r\n").ok());
  EXPECT_FALSE(DecodeChunkedBody("5\r\nhel").ok());     // truncated data
  EXPECT_FALSE(DecodeChunkedBody("5\r\nhello").ok());   // missing CRLF
  EXPECT_FALSE(DecodeChunkedBody("5\r\nhelloXX0\r\n\r\n").ok());
  // A size near 2^64 must not wrap the bounds check and read past the end.
  const auto huge = DecodeChunkedBody("fffffffffffffffe\r\n0\r\n\r\n");
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kInvalidArgument);
}

TEST(HttpWire, StatusMapping) {
  EXPECT_EQ(HttpStatusFor(StatusCode::kOk), 200);
  EXPECT_EQ(HttpStatusFor(StatusCode::kInvalidArgument), 400);
  EXPECT_EQ(HttpStatusFor(StatusCode::kOutOfRange), 400);
  EXPECT_EQ(HttpStatusFor(StatusCode::kNotFound), 404);
  EXPECT_EQ(HttpStatusFor(StatusCode::kFailedPrecondition), 409);
  EXPECT_EQ(HttpStatusFor(StatusCode::kResourceExhausted), 429);
  EXPECT_EQ(HttpStatusFor(StatusCode::kCancelled), 499);
  EXPECT_EQ(HttpStatusFor(StatusCode::kInternal), 500);
  EXPECT_EQ(HttpStatusFor(StatusCode::kDeadlineExceeded), 504);
  EXPECT_STREQ(HttpReasonFor(404), "Not Found");
  EXPECT_STREQ(HttpReasonFor(501), "Not Implemented");
}

TEST(HttpWire, RoutesRequests) {
  HttpRequest fixed;
  fixed.method = "GET";
  fixed.path = "/metricz";
  auto metricz = RouteHttpRequest(fixed);
  ASSERT_TRUE(metricz.ok());
  EXPECT_EQ(metricz->endpoint, "metricz");

  HttpRequest post;
  post.method = "POST";
  post.path = "/api/decompose";
  post.body = R"({"graph":"g"})";
  auto posted = RouteHttpRequest(post);
  ASSERT_TRUE(posted.ok());
  EXPECT_EQ(posted->endpoint, "decompose");
  EXPECT_EQ(posted->body, post.body);

  // GET query parameters become a JSON object of strings; the server's
  // GetInt/GetBool helpers coerce them on the other side.
  HttpRequest get;
  get.method = "GET";
  get.path = "/api/stats";
  get.query = {{"graph", "my \"graph\""}, {"threads", "4"}};
  auto routed = RouteHttpRequest(get);
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed->endpoint, "stats");
  auto body = JsonValue::Parse(routed->body);
  ASSERT_TRUE(body.ok()) << routed->body;
  EXPECT_EQ(body->GetString("graph").value(), "my \"graph\"");
  EXPECT_EQ(body->GetInt("threads").value(), 4);

  HttpRequest bad;
  bad.method = "GET";
  bad.path = "/favicon.ico";
  EXPECT_EQ(RouteHttpRequest(bad).status().code(), StatusCode::kNotFound);
}

TEST(Json, ParsesDocuments) {
  auto v = JsonValue::Parse(
      R"({"s":"a\"b\\c\nA","i":-42,"d":2.5e2,"b":true,"n":null,)"
      R"("arr":[1,[2,3],{"k":"v"}],"obj":{"x":1}})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->Find("s")->AsString(), "a\"b\\c\nA");
  EXPECT_EQ(v->Find("i")->AsInt(), -42);
  EXPECT_DOUBLE_EQ(v->Find("d")->AsDouble(), 250.0);
  EXPECT_TRUE(v->Find("b")->AsBool());
  EXPECT_TRUE(v->Find("n")->is_null());
  EXPECT_EQ(v->Find("arr")->AsArray().size(), 3u);
  EXPECT_EQ(v->Find("arr")->AsArray()[1].AsArray()[1].AsInt(), 3);
  EXPECT_EQ(v->Find("obj")->Find("x")->AsInt(), 1);
  EXPECT_EQ(v->Find("absent"), nullptr);
}

TEST(Json, RejectsHostileInput) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("{}extra").ok());
  EXPECT_FALSE(JsonValue::Parse(R"({"a":1,})").ok());
  EXPECT_FALSE(JsonValue::Parse("\"bad\\q\"").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("nul").ok());
  EXPECT_FALSE(JsonValue::Parse("+1").ok());
  // Raw control characters inside strings are a grammar violation.
  EXPECT_FALSE(JsonValue::Parse("\"a\x01z\"").ok());
  // Nesting past the depth guard must fail, not overflow the stack.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

TEST(Json, RequestDecodingHelpers) {
  auto v = JsonValue::Parse(
      R"({"s":"x","i":7,"istr":"8","b":true,"bstr":"true",)"
      R"("pairs":[[1,2],[3,4]],"ids":[5,6,7],"bad_pairs":[[1]],"f":1.5})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->GetString("s").value(), "x");
  EXPECT_EQ(v->GetString("absent", "def").value(), "def");
  EXPECT_EQ(v->GetInt("i").value(), 7);
  EXPECT_EQ(v->GetInt("istr").value(), 8);  // query-param string form
  EXPECT_EQ(v->GetInt("absent", 9).value(), 9);
  EXPECT_TRUE(v->GetBool("b").value());
  EXPECT_TRUE(v->GetBool("bstr").value());
  auto pairs = v->GetPairList("pairs");
  ASSERT_TRUE(pairs.ok());
  ASSERT_EQ(pairs->size(), 2u);
  EXPECT_EQ((*pairs)[1].second, 4);
  auto ids = v->GetIntList("ids");
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids->size(), 3u);

  // Wrong shapes are errors naming the key, not silent defaults.
  EXPECT_EQ(v->GetInt("s").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(v->GetString("i").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(v->GetPairList("bad_pairs").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(v->GetIntList("s").status().code(),
            StatusCode::kInvalidArgument);
}

// Numbers decode to integers only when exact: a fraction or |value| >=
// 2^63 (where a cast is undefined) is an error naming the field, in scalar
// and list fields alike.
TEST(Json, IntegerFieldsRejectInexactNumbers) {
  for (const char* bad : {"1e300", "-1e300", "9.3e18", "9223372036854775808",
                          "-9223372036854775808", "2.5", "-0.5"}) {
    auto v = JsonValue::Parse(std::string(R"({"threads":)") + bad +
                              R"(,"ids":[)" + bad + R"(],"insert":[[)" +
                              bad + R"(,3]],"remove":[[3,)" + bad + "]]}");
    ASSERT_TRUE(v.ok()) << bad;
    const auto threads = v->GetInt("threads");
    EXPECT_EQ(threads.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(threads.status().message().find("'threads'"), std::string::npos)
        << threads.status().ToString();
    const auto ids = v->GetIntList("ids");
    EXPECT_EQ(ids.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(ids.status().message().find("'ids'"), std::string::npos);
    const auto insert = v->GetPairList("insert");
    EXPECT_EQ(insert.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(insert.status().message().find("'insert'"), std::string::npos);
    EXPECT_EQ(v->GetPairList("remove").status().code(),
              StatusCode::kInvalidArgument)
        << bad;
    EXPECT_EQ(v->Find("threads")->AsInt(), 0) << bad;  // neutral default
  }
  // Exact integers still decode, 2^53 included.
  auto v = JsonValue::Parse(
      R"({"big":9007199254740992,"neg":-9007199254740992,"zero":-0.0,)"
      R"("e":1e3,"ids":[9007199254740992,0],"pairs":[[1e2,2]]})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->GetInt("big").value(), std::int64_t{1} << 53);
  EXPECT_EQ(v->GetInt("neg").value(), -(std::int64_t{1} << 53));
  EXPECT_EQ(v->GetInt("zero").value(), 0);
  EXPECT_EQ(v->GetInt("e").value(), 1000);
  EXPECT_EQ(v->GetIntList("ids").value(),
            (std::vector<std::int64_t>{std::int64_t{1} << 53, 0}));
  EXPECT_EQ(v->GetPairList("pairs").value()[0],
            (std::pair<std::int64_t, std::int64_t>{100, 2}));
  EXPECT_EQ(v->Find("big")->AsInt(), std::int64_t{1} << 53);
}

TEST(Json, WriterRoundTripsThroughParser) {
  JsonWriter w;
  w.BeginObject()
      .Key("text")
      .String("quote\" slash\\ ctrl\x01 unicode\xc3\xa9")
      .Key("neg")
      .Int(-123)
      .Key("big")
      .UInt(std::uint64_t{1} << 40)
      .Key("pi")
      .Double(3.25)
      .Key("nan")
      .Double(std::nan(""))
      .Key("flag")
      .Bool(false)
      .Key("nothing")
      .Null()
      .Key("list")
      .BeginArray();
  for (int i = 0; i < 3; ++i) w.Int(i);
  w.EndArray().EndObject();

  auto v = JsonValue::Parse(w.str());
  ASSERT_TRUE(v.ok()) << w.str();
  EXPECT_EQ(v->Find("text")->AsString(),
            "quote\" slash\\ ctrl\x01 unicode\xc3\xa9");
  EXPECT_EQ(v->Find("neg")->AsInt(), -123);
  EXPECT_EQ(v->Find("big")->AsInt(),
            static_cast<std::int64_t>(std::uint64_t{1} << 40));
  EXPECT_DOUBLE_EQ(v->Find("pi")->AsDouble(), 3.25);
  EXPECT_TRUE(v->Find("nan")->is_null());  // NaN degrades to null
  EXPECT_FALSE(v->Find("flag")->AsBool());
  EXPECT_TRUE(v->Find("nothing")->is_null());
  EXPECT_EQ(v->Find("list")->AsArray().size(), 3u);
}

TEST(Json, IntegersMatchToString) {
  const std::int64_t ints[] = {0, 9, 10, -1, INT64_MIN, INT64_MAX};
  for (const std::int64_t v : ints) {
    JsonWriter w;
    w.Int(v);
    EXPECT_EQ(w.str(), std::to_string(v));
  }
  const std::uint64_t uints[] = {0, 9, 10, UINT64_MAX};
  for (const std::uint64_t v : uints) {
    JsonWriter w;
    w.UInt(v);
    EXPECT_EQ(w.str(), std::to_string(v));
  }
}

TEST(Json, RawSplicesAnEncodedValue) {
  JsonWriter array;
  array.BeginArray().UInt(3).UInt(1).UInt(4).EndArray();

  JsonWriter spliced;
  spliced.BeginObject().Key("n").UInt(3).Key("kappa").Raw(array.str());
  spliced.EndObject();
  JsonWriter direct;
  direct.BeginObject().Key("n").UInt(3).Key("kappa").BeginArray();
  direct.UInt(3).UInt(1).UInt(4).EndArray().EndObject();
  EXPECT_EQ(spliced.str(), direct.str());
  EXPECT_EQ(spliced.str(), R"({"n":3,"kappa":[3,1,4]})");

  // As an array element, Raw takes its comma like any other value.
  JsonWriter list;
  list.BeginArray().UInt(1).Raw(array.str()).EndArray();
  EXPECT_EQ(list.str(), "[1,[3,1,4]]");
}

TEST(Json, EndLineSeparatesRecordsAndClearKeepsNoState) {
  JsonWriter w;
  w.BeginObject().Key("a").UInt(1).EndObject().EndLine();
  w.BeginObject().Key("b").BeginArray().UInt(2).EndArray().EndObject();
  w.EndLine();
  EXPECT_EQ(w.str(), "{\"a\":1}\n{\"b\":[2]}\n");

  w.Clear();
  EXPECT_TRUE(w.str().empty());
  w.BeginObject().Key("c").Bool(true).EndObject().EndLine();
  EXPECT_EQ(w.str(), "{\"c\":true}\n");
}

}  // namespace
}  // namespace nucleus
