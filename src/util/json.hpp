// Minimal JSON layer shared by the mapping service, the CLI and the
// benchmark emitters.
//
// The writer replaces ad-hoc `ofstream << "{\"key\": ..."` emitters, which
// interpolated workload names and dataflow notations unescaped, so a name
// containing a quote or backslash produced invalid JSON. JsonWriter
// escapes every string and manages commas/indentation, and formats doubles
// with shortest-round-trip precision (std::to_chars), which is both
// locale-independent and deterministic across runs.
//
// The reader is a small recursive-descent parser for the service protocol:
// strict JSON (no comments, no trailing commas), a bounded nesting depth,
// and exact unsigned-integer retrieval for cycle counts that exceed the
// 2^53 double mantissa.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace omega {

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included): ", \ and control characters become their escape sequences.
[[nodiscard]] std::string json_escape(std::string_view s);

/// Shortest-round-trip decimal rendering of a double ("1.25", "1e30"); emits
/// "null" for NaN/Inf, which JSON cannot represent.
[[nodiscard]] std::string json_number(double value);

/// Streaming JSON document builder with automatic comma/indent management.
/// `indent` 0 emits a single line (NDJSON-safe); > 0 pretty-prints.
class JsonWriter {
 public:
  explicit JsonWriter(int indent = 0) : indent_(indent) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits the member key; must be followed by a value or begin_*().
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(bool v);
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(unsigned v) { return value(static_cast<std::uint64_t>(v)); }
  // size_t differs from uint64_t on some ABIs only; keep one overload set by
  // funneling through the fixed-width types at call sites when ambiguous.
  JsonWriter& null();

  /// key() + value() in one call.
  template <typename T>
  JsonWriter& member(std::string_view k, T&& v) {
    key(k);
    return value(std::forward<T>(v));
  }

  /// Finished document. Valid once every container has been closed.
  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  void comma_and_newline();
  void open(char bracket);
  void close(char bracket);

  struct Level {
    bool first = true;
    bool is_object = false;
  };
  std::string out_;
  std::vector<Level> stack_;
  int indent_ = 0;
  bool after_key_ = false;
};

/// Parsed JSON tree. Numbers keep both the double value and, when the token
/// was an unsigned integer, its exact 64-bit value.
class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  /// Parses a complete JSON document; throws InvalidArgumentError on
  /// malformed input (with a byte offset) or trailing garbage.
  [[nodiscard]] static JsonValue parse(std::string_view text);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw InvalidArgumentError on a kind mismatch (the
  /// message names the expected kind, so protocol errors read well).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  /// Exact for integer tokens in [0, 2^64); negative / fractional numbers
  /// throw rather than truncate.
  [[nodiscard]] std::uint64_t as_u64() const;
  [[nodiscard]] const std::string& as_string() const;

  [[nodiscard]] const std::vector<JsonValue>& items() const;  // array
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members()
      const;  // object, in document order

  /// Object member lookup; null if absent (or not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

 private:
  friend class JsonParser;
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::uint64_t u64_ = 0;
  bool u64_exact_ = false;  // token was a plain unsigned integer
  std::string str_;
  std::vector<JsonValue> arr_;
  std::vector<std::pair<std::string, JsonValue>> obj_;
};

}  // namespace omega
