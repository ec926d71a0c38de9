#include "common/json.hpp"

#include <charconv>
#include <cstdio>

namespace gv {

const JsonValue* JsonValue::find(const std::string& key, Type t) const {
  if (type != Type::kObject) return nullptr;
  const auto it = object.find(key);
  if (it == object.end() || it->second.type != t) return nullptr;
  return &it->second;
}

// --- Reader. -----------------------------------------------------------------

namespace {

// Deeper documents are rejected rather than risking the stack; telemetry
// artifacts nest a handful of levels.
constexpr int kMaxDepth = 256;

bool is_digit(char c) { return c >= '0' && c <= '9'; }

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

void append_utf8(std::string& out, unsigned code) {
  if (code < 0x80) {
    out.push_back(static_cast<char>(code));
  } else if (code < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (code >> 6)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else if (code < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (code >> 12)));
    out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (code >> 18)));
    out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
  }
}

struct Reader {
  std::string_view s;
  std::size_t pos = 0;
  std::string error;

  bool fail(const std::string& why) {
    error = why + " at byte " + std::to_string(pos);
    return false;
  }
  bool at_end() const { return pos >= s.size(); }
  void skip_ws() {
    while (!at_end() && (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' ||
                         s[pos] == '\r')) {
      ++pos;
    }
  }
  bool consume(char c) {
    skip_ws();
    if (at_end() || s[pos] != c) {
      return fail(std::string("expected '") + c + "'");
    }
    ++pos;
    return true;
  }
  bool literal(std::string_view word) {
    if (s.substr(pos, word.size()) != word) return fail("invalid literal");
    pos += word.size();
    return true;
  }

  /// The four hex digits after "\u" (pos on the 'u').
  bool hex4(unsigned* code) {
    if (s.size() - pos < 5) return fail("truncated \\u escape");
    *code = 0;
    for (std::size_t k = 1; k <= 4; ++k) {
      const int d = hex_value(s[pos + k]);
      if (d < 0) return fail("bad \\u escape");
      *code = *code * 16 + static_cast<unsigned>(d);
    }
    pos += 5;
    return true;
  }

  bool parse_string(std::string* out) {
    if (!consume('"')) return false;
    for (;;) {
      if (at_end()) return fail("unterminated string");
      const char c = s[pos];
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        ++pos;
        continue;
      }
      if (++pos >= s.size()) return fail("truncated escape");
      const char e = s[pos];
      if (e == 'u') {
        unsigned code = 0;
        if (!hex4(&code)) return false;
        if (code >= 0xD800 && code <= 0xDBFF && s.substr(pos, 2) == "\\u") {
          // A high surrogate pairs with the low surrogate escaped next.
          unsigned low = 0;
          ++pos;
          if (!hex4(&low)) return false;
          if (low < 0xDC00 || low > 0xDFFF) return fail("unpaired surrogate");
          code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        } else if (code >= 0xD800 && code <= 0xDFFF) {
          return fail("unpaired surrogate");
        }
        append_utf8(*out, code);
        continue;
      }
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        default: return fail("bad escape");
      }
      ++pos;
    }
    ++pos;  // closing quote
    return true;
  }

  /// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  bool parse_number(double* out) {
    const std::size_t start = pos;
    const auto digits = [this] {
      const std::size_t from = pos;
      while (!at_end() && is_digit(s[pos])) ++pos;
      return pos > from;
    };
    if (!at_end() && s[pos] == '-') ++pos;
    if (!at_end() && s[pos] == '0') {
      ++pos;
    } else if (!digits()) {
      return fail("invalid value");
    }
    if (!at_end() && s[pos] == '.') {
      ++pos;
      if (!digits()) return fail("digit expected after '.'");
    }
    if (!at_end() && (s[pos] == 'e' || s[pos] == 'E')) {
      ++pos;
      if (!at_end() && (s[pos] == '+' || s[pos] == '-')) ++pos;
      if (!digits()) return fail("digit expected in exponent");
    }
    const char* last = s.data() + pos;
    const auto [end, ec] = std::from_chars(s.data() + start, last, *out);
    if (ec != std::errc() || end != last) {
      pos = start;
      return fail("number out of range");
    }
    return true;
  }

  bool parse_value(JsonValue* v, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (at_end()) return fail("unexpected end of input");
    switch (s[pos]) {
      case '{': {
        ++pos;
        v->type = JsonValue::Type::kObject;
        skip_ws();
        if (!at_end() && s[pos] == '}') {
          ++pos;
          return true;
        }
        for (;;) {
          std::string key;
          JsonValue child;
          if (!parse_string(&key) || !consume(':') ||
              !parse_value(&child, depth + 1)) {
            return false;
          }
          v->object.insert_or_assign(std::move(key), std::move(child));
          skip_ws();
          if (at_end() || s[pos] != ',') return consume('}');
          ++pos;
        }
      }
      case '[': {
        ++pos;
        v->type = JsonValue::Type::kArray;
        skip_ws();
        if (!at_end() && s[pos] == ']') {
          ++pos;
          return true;
        }
        for (;;) {
          v->array.emplace_back();
          if (!parse_value(&v->array.back(), depth + 1)) return false;
          skip_ws();
          if (at_end() || s[pos] != ',') return consume(']');
          ++pos;
        }
      }
      case '"':
        v->type = JsonValue::Type::kString;
        return parse_string(&v->str);
      case 't':
        v->type = JsonValue::Type::kBool;
        v->boolean = true;
        return literal("true");
      case 'f':
        v->type = JsonValue::Type::kBool;
        return literal("false");
      case 'n':
        return literal("null");
      default:
        v->type = JsonValue::Type::kNumber;
        return parse_number(&v->number);
    }
  }
};

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text, std::string* error) {
  Reader r{text, 0, {}};
  JsonValue root;
  bool ok = r.parse_value(&root, 0);
  if (ok) {
    r.skip_ws();
    if (!r.at_end()) ok = r.fail("trailing bytes after the document");
  }
  if (!ok) {
    if (error != nullptr) *error = "JSON parse error: " + r.error;
    return std::nullopt;
  }
  return root;
}

// --- Writers. ----------------------------------------------------------------

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

void append_json_number(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
}

}  // namespace gv
