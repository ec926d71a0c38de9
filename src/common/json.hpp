// The one JSON codec behind every telemetry artifact (Chrome traces,
// flight-recorder bundles, the ops report, the metrics snapshot, bench
// tables).
//
// Writers assemble their documents by hand, so the layout stays theirs; the
// two append_* helpers are the only place a string or a number is encoded.
// parse_json() is a strict RFC 8259 reader: it rejects what Python's
// json.load would (raw control characters in strings, leading zeros or
// '+', bare '.', NaN/Infinity, trailing commas or bytes, bad escapes), so a
// validator built on it agrees with CI's independent Python checks.  The
// reader shares no code with the writers, so a writer bug cannot validate
// its own output.  Bytes >= 0x80 pass through both directions unchecked
// (no UTF-8 validation).  Export and validation only — never the serving
// path.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gv {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;  // a repeated key keeps the last

  /// The object member `key` when this is an object holding it with type
  /// `type`; nullptr otherwise.
  const JsonValue* find(const std::string& key, Type type) const;
};

/// Parse exactly one JSON document (surrounding whitespace allowed).  On
/// failure returns nullopt and fills `error` (when non-null) with the
/// reason and byte offset.
std::optional<JsonValue> parse_json(std::string_view text,
                                    std::string* error = nullptr);

/// Append `s` as a quoted JSON string: '"' and '\' backslash-escaped, bytes
/// below 0x20 as \u00XX, everything else verbatim.
void append_json_string(std::string& out, std::string_view s);

/// Append `v` printed with "%.9g" (nine significant digits).
void append_json_number(std::string& out, double v);

}  // namespace gv
