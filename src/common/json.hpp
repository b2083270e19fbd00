// Minimal recursive-descent JSON reader + symmetric writer for the repo's
// own artifacts.
//
// The observability tooling exchanges small, well-formed JSON documents —
// the metrics registry (MetricsRegistry::write_json) and the Chrome-trace
// export — and bench/trace_compare needs to read them back without pulling
// a JSON dependency into the image. The on-disk result store (its index
// and object files) additionally needs to *emit* documents that parse
// back exactly, so write_json below is a strict inverse of parse_json:
// strings escape every control byte (named escapes for the common ones,
// \u00XX otherwise), \uXXXX decodes to UTF-8 on the way back in
// (surrogate pairs included), and objects render with sorted keys
// (JsonObject is a std::map), making the output canonical — equal values
// always serialize to equal bytes. Neither direction validates hostile
// input.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace hs {

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value;

  bool is_object() const { return std::holds_alternative<JsonObject>(value); }
  bool is_array() const { return std::holds_alternative<JsonArray>(value); }
  bool is_number() const { return std::holds_alternative<double>(value); }
  bool is_string() const { return std::holds_alternative<std::string>(value); }

  const JsonObject& object() const { return std::get<JsonObject>(value); }
  const JsonArray& array() const { return std::get<JsonArray>(value); }
  double number() const { return std::get<double>(value); }
  const std::string& string() const { return std::get<std::string>(value); }

  bool has(const std::string& key) const {
    return is_object() && object().find(key) != object().end();
  }
  const JsonValue& at(const std::string& key) const {
    return object().at(key);
  }
};

/// Parse one JSON document. On failure returns a null JsonValue and, when
/// `error` is non-null, stores a byte-offset diagnostic into it (empty on
/// success). Trailing non-whitespace bytes after the document are an error.
JsonValue parse_json(std::string_view text, std::string* error = nullptr);

/// Serialize one document. Canonical: object keys sorted (the JsonObject
/// map order), numbers via %.17g (round-trip exact for doubles), strings
/// fully escaped so parse_json(write_json(v)) == v for any value. Compact —
/// no whitespace — which makes byte-equality of two serializations
/// equivalent to value equality.
void write_json(const JsonValue& value, std::ostream& out);
std::string write_json(const JsonValue& value);

/// The escaped body of `text` (no surrounding quotes): ", \ and every
/// control byte escaped; other bytes (including UTF-8 sequences) verbatim.
std::string json_escape(std::string_view text);

}  // namespace hs
