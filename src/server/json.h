// Minimal JSON for the wire protocol — no external dependencies. The
// server's requests are small flat objects (strings, integers, bools,
// arrays of integer pairs) and its responses are assembled append-only, so
// this is split accordingly: JsonValue is a full recursive parser for
// inbound bodies (objects, arrays, strings with escapes, numbers, bools,
// null, with depth and size guards against hostile input), and JsonWriter
// is a streaming escaping writer for outbound bodies that never builds an
// intermediate tree.
#ifndef NUCLEUS_SERVER_JSON_H_
#define NUCLEUS_SERVER_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace nucleus {

/// A parsed JSON document node.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses a complete JSON document; trailing non-whitespace is an error,
  /// as is nesting deeper than 64 levels.
  static StatusOr<JsonValue> Parse(std::string_view text);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }

  // Typed accessors; calling the wrong one returns a neutral default
  // (callers use the Get* helpers below, which report kInvalidArgument).
  // AsInt's default also covers a number that is no int64 (a fraction, or
  // |value| >= 2^63).
  bool AsBool() const { return bool_; }
  double AsDouble() const { return number_; }
  std::int64_t AsInt() const;
  const std::string& AsString() const { return string_; }
  const std::vector<JsonValue>& AsArray() const { return array_; }

  /// Object member by key, or nullptr when absent / not an object.
  const JsonValue* Find(const std::string& key) const;
  const std::map<std::string, JsonValue>& AsObject() const { return object_; }

  // Request-decoding helpers over an object root. A missing key yields the
  // default; a present key of the wrong shape is a kInvalidArgument naming
  // the key. Numbers decode to integers only when they have no fraction
  // and |value| < 2^63. GetInt additionally accepts integral-valued
  // strings ("8"), the shape HTTP query parameters arrive in.
  StatusOr<std::string> GetString(const std::string& key,
                                  const std::string& def = "") const;
  StatusOr<std::int64_t> GetInt(const std::string& key,
                                std::int64_t def = 0) const;
  StatusOr<bool> GetBool(const std::string& key, bool def = false) const;
  /// Decodes key as an array of [u, v] integer pairs (absent -> empty).
  StatusOr<std::vector<std::pair<std::int64_t, std::int64_t>>> GetPairList(
      const std::string& key) const;
  /// Decodes key as an array of non-negative integers (absent -> empty).
  StatusOr<std::vector<std::int64_t>> GetIntList(
      const std::string& key) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;

  friend class JsonParser;
};

/// Append-only JSON document writer. The caller is responsible for shape
/// (balanced Begin/End, Key before value inside objects); the writer
/// handles commas, escaping, and number formatting. Doubles are emitted
/// with enough precision to round-trip; NaN/Inf degrade to null.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(std::string_view k);
  JsonWriter& String(std::string_view v);
  JsonWriter& Int(std::int64_t v);
  JsonWriter& UInt(std::uint64_t v);
  JsonWriter& Double(double v);
  JsonWriter& Bool(bool v);
  JsonWriter& Null();
  /// Splices `json`, an already-encoded value (an array encoded by another
  /// writer, say), as the next value.
  JsonWriter& Raw(std::string_view json);
  /// Ends one NDJSON record: appends '\n', and the next root value starts a
  /// new record instead of following this one with a comma.
  JsonWriter& EndLine();

  /// Grows the buffer to hold at least `bytes` without reallocating.
  void Reserve(std::size_t bytes) { out_.reserve(bytes); }
  /// Drops everything written but keeps the buffer's capacity, so one
  /// writer can encode a stream chunk by chunk.
  void Clear();

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

  /// Escapes `v` per RFC 8259 into `out` (quotes not included).
  static void Escape(std::string_view v, std::string* out);

 private:
  void Comma();

  std::string out_;
  // Whether the current container already holds a value (one flag per
  // nesting level; values at level 0 are the document root).
  std::vector<bool> has_value_{false};
  bool after_key_ = false;
};

}  // namespace nucleus

#endif  // NUCLEUS_SERVER_JSON_H_
