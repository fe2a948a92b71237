#include "src/server/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <optional>

namespace nucleus {

namespace {
constexpr int kMaxDepth = 64;

// The one number -> int64 conversion: a non-number, a number with a
// fraction, or one with |d| >= 2^63 (where the cast is undefined) is no
// integer.
std::optional<std::int64_t> IntOf(const JsonValue& v) {
  constexpr double kTwoTo63 = 9223372036854775808.0;
  const double d = v.AsDouble();
  if (v.type() != JsonValue::Type::kNumber || !(std::fabs(d) < kTwoTo63) ||
      d != std::floor(d)) {
    return std::nullopt;
  }
  return static_cast<std::int64_t>(d);
}
}  // namespace

// ---------------------------------------------------------------------------
// Parser

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : p_(text.data()), end_(text.data() + text.size()) {}

  StatusOr<JsonValue> ParseDocument() {
    SkipWs();
    JsonValue v;
    if (Status s = ParseValue(&v, 0); !s.ok()) return s;
    SkipWs();
    if (p_ != end_) return Err("trailing characters after JSON document");
    return v;
  }

 private:
  Status Err(const std::string& what) const {
    return Status::InvalidArgument("JSON: " + what + " at offset " +
                                   std::to_string(offset_));
  }

  void SkipWs() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
      ++offset_;
    }
  }

  bool Consume(char c) {
    if (p_ != end_ && *p_ == c) {
      ++p_;
      ++offset_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view w) {
    if (static_cast<std::size_t>(end_ - p_) < w.size()) return false;
    if (std::string_view(p_, w.size()) != w) return false;
    p_ += w.size();
    offset_ += w.size();
    return true;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Err("nesting deeper than 64 levels");
    if (p_ == end_) return Err("unexpected end of input");
    switch (*p_) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->type_ = JsonValue::Type::kString;
        return ParseString(&out->string_);
      case 't':
        if (!ConsumeWord("true")) return Err("malformed literal");
        out->type_ = JsonValue::Type::kBool;
        out->bool_ = true;
        return Status::Ok();
      case 'f':
        if (!ConsumeWord("false")) return Err("malformed literal");
        out->type_ = JsonValue::Type::kBool;
        out->bool_ = false;
        return Status::Ok();
      case 'n':
        if (!ConsumeWord("null")) return Err("malformed literal");
        out->type_ = JsonValue::Type::kNull;
        return Status::Ok();
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    Consume('{');
    out->type_ = JsonValue::Type::kObject;
    SkipWs();
    if (Consume('}')) return Status::Ok();
    while (true) {
      SkipWs();
      if (p_ == end_ || *p_ != '"') return Err("expected object key string");
      std::string key;
      if (Status s = ParseString(&key); !s.ok()) return s;
      SkipWs();
      if (!Consume(':')) return Err("expected ':' after object key");
      SkipWs();
      JsonValue member;
      if (Status s = ParseValue(&member, depth + 1); !s.ok()) return s;
      out->object_.insert_or_assign(std::move(key), std::move(member));
      SkipWs();
      if (Consume('}')) return Status::Ok();
      if (!Consume(',')) return Err("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    Consume('[');
    out->type_ = JsonValue::Type::kArray;
    SkipWs();
    if (Consume(']')) return Status::Ok();
    while (true) {
      SkipWs();
      JsonValue element;
      if (Status s = ParseValue(&element, depth + 1); !s.ok()) return s;
      out->array_.push_back(std::move(element));
      SkipWs();
      if (Consume(']')) return Status::Ok();
      if (!Consume(',')) return Err("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string* out) {
    Consume('"');
    out->clear();
    while (true) {
      if (p_ == end_) return Err("unterminated string");
      const char c = *p_;
      ++p_;
      ++offset_;
      if (c == '"') return Status::Ok();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Err("raw control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (p_ == end_) return Err("unterminated escape");
      const char e = *p_;
      ++p_;
      ++offset_;
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (end_ - p_ < 4) return Err("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = p_[i];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Err("malformed \\u escape");
          }
          p_ += 4;
          offset_ += 4;
          // UTF-8 encode the BMP code point; surrogate pairs are not
          // reassembled (each half encodes independently) — the protocol's
          // strings are graph names and option keywords, all ASCII.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Err("unknown escape");
      }
    }
  }

  Status ParseNumber(JsonValue* out) {
    const char* start = p_;
    if (p_ != end_ && *p_ == '-') ++p_;
    while (p_ != end_ && (std::isdigit(static_cast<unsigned char>(*p_)) ||
                          *p_ == '.' || *p_ == 'e' || *p_ == 'E' ||
                          *p_ == '+' || *p_ == '-')) {
      ++p_;
    }
    if (p_ == start) return Err("unexpected character");
    double value = 0.0;
    const auto [next, ec] = std::from_chars(start, p_, value);
    if (ec != std::errc() || next != p_) {
      offset_ += static_cast<std::size_t>(start - p_);
      p_ = start;
      return Err("malformed number");
    }
    offset_ += static_cast<std::size_t>(p_ - start);
    out->type_ = JsonValue::Type::kNumber;
    out->number_ = value;
    return Status::Ok();
  }

  const char* p_;
  const char* end_;
  std::size_t offset_ = 0;
};

StatusOr<JsonValue> JsonValue::Parse(std::string_view text) {
  return JsonParser(text).ParseDocument();
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

StatusOr<std::string> JsonValue::GetString(const std::string& key,
                                           const std::string& def) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || v->is_null()) return def;
  if (v->type() != Type::kString) {
    return Status::InvalidArgument("field '" + key + "' must be a string");
  }
  return v->AsString();
}

std::int64_t JsonValue::AsInt() const {
  return IntOf(*this).value_or(0);
}

StatusOr<std::int64_t> JsonValue::GetInt(const std::string& key,
                                         std::int64_t def) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || v->is_null()) return def;
  if (v->type() == Type::kNumber) {
    if (const auto i = IntOf(*v)) return *i;
    return Status::InvalidArgument("field '" + key + "' must be an integer");
  }
  if (v->type() == Type::kString) {  // query-parameter shape
    const std::string& s = v->AsString();
    std::int64_t value = 0;
    const auto [next, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
    if (ec == std::errc() && next == s.data() + s.size()) return value;
  }
  return Status::InvalidArgument("field '" + key + "' must be an integer");
}

StatusOr<bool> JsonValue::GetBool(const std::string& key, bool def) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || v->is_null()) return def;
  if (v->type() == Type::kBool) return v->AsBool();
  if (v->type() == Type::kString) {  // query-parameter shape
    if (v->AsString() == "true" || v->AsString() == "1") return true;
    if (v->AsString() == "false" || v->AsString() == "0") return false;
  }
  return Status::InvalidArgument("field '" + key + "' must be a bool");
}

StatusOr<std::vector<std::pair<std::int64_t, std::int64_t>>>
JsonValue::GetPairList(const std::string& key) const {
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  const JsonValue* v = Find(key);
  if (v == nullptr || v->is_null()) return out;
  if (v->type() != Type::kArray) {
    return Status::InvalidArgument("field '" + key +
                                   "' must be an array of [u, v] "
                                   "integer pairs");
  }
  out.reserve(v->AsArray().size());
  for (const JsonValue& e : v->AsArray()) {
    // A non-array element has an empty AsArray().
    const std::vector<JsonValue>& pair = e.AsArray();
    const auto u = pair.size() == 2 ? IntOf(pair[0]) : std::nullopt;
    const auto w = pair.size() == 2 ? IntOf(pair[1]) : std::nullopt;
    if (!u || !w) {
      return Status::InvalidArgument("field '" + key +
                                     "' must be an array of [u, v] "
                                     "integer pairs");
    }
    out.emplace_back(*u, *w);
  }
  return out;
}

StatusOr<std::vector<std::int64_t>> JsonValue::GetIntList(
    const std::string& key) const {
  std::vector<std::int64_t> out;
  const JsonValue* v = Find(key);
  if (v == nullptr || v->is_null()) return out;
  if (v->type() != Type::kArray) {
    return Status::InvalidArgument("field '" + key +
                                   "' must be an array of integers");
  }
  out.reserve(v->AsArray().size());
  for (const JsonValue& e : v->AsArray()) {
    const auto i = IntOf(e);
    if (!i) {
      return Status::InvalidArgument("field '" + key +
                                     "' must be an array of integers");
    }
    out.push_back(*i);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Writer

void JsonWriter::Escape(std::string_view v, std::string* out) {
  for (const char c : v) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
}

void JsonWriter::Comma() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (has_value_.back()) out_.push_back(',');
  has_value_.back() = true;
}

JsonWriter& JsonWriter::BeginObject() {
  Comma();
  out_.push_back('{');
  has_value_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_.push_back('}');
  has_value_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Comma();
  out_.push_back('[');
  has_value_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_.push_back(']');
  has_value_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view k) {
  if (has_value_.back()) out_.push_back(',');
  has_value_.back() = true;
  out_.push_back('"');
  Escape(k, &out_);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view v) {
  Comma();
  out_.push_back('"');
  Escape(v, &out_);
  out_.push_back('"');
  return *this;
}

namespace {

// Integers go through a stack buffer straight into out_: no temporary
// string per value (20 digits hold UINT64_MAX, 19 plus a sign INT64_MIN).
template <typename T>
void AppendInteger(T v, std::string* out) {
  char buf[20];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, r.ptr);
}

}  // namespace

JsonWriter& JsonWriter::Int(std::int64_t v) {
  Comma();
  AppendInteger(v, &out_);
  return *this;
}

JsonWriter& JsonWriter::UInt(std::uint64_t v) {
  Comma();
  AppendInteger(v, &out_);
  return *this;
}

JsonWriter& JsonWriter::Double(double v) {
  Comma();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Bool(bool v) {
  Comma();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  Comma();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  Comma();
  out_.append(json);
  return *this;
}

JsonWriter& JsonWriter::EndLine() {
  out_.push_back('\n');
  has_value_.back() = false;
  return *this;
}

void JsonWriter::Clear() {
  out_.clear();
  has_value_.assign(1, false);
  after_key_ = false;
}

}  // namespace nucleus
