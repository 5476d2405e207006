#include "autocfd/obs/json_reader.hpp"

#include <cctype>
#include <cstdlib>

namespace autocfd::obs {

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [name, value] : fields) {
    if (name == key) return &value;
  }
  return nullptr;
}

double JsonValue::num_or(std::string_view key, double fallback) const {
  const auto* v = find(key);
  return v != nullptr && v->kind == Kind::Number ? v->number : fallback;
}

long long JsonValue::int_or(std::string_view key, long long fallback) const {
  const auto* v = find(key);
  return v != nullptr && v->kind == Kind::Number
             ? static_cast<long long>(v->number)
             : fallback;
}

std::string JsonValue::str_or(std::string_view key,
                              std::string fallback) const {
  const auto* v = find(key);
  return v != nullptr && v->kind == Kind::String ? v->string
                                                 : std::move(fallback);
}

bool JsonValue::bool_or(std::string_view key, bool fallback) const {
  const auto* v = find(key);
  return v != nullptr && v->kind == Kind::Bool ? v->boolean : fallback;
}

const std::vector<JsonValue>& JsonValue::list(std::string_view key) const {
  static const std::vector<JsonValue> kEmpty;
  const auto* v = find(key);
  return v != nullptr && v->kind == Kind::Array ? v->items : kEmpty;
}

namespace {

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  [[nodiscard]] bool fail(const std::string& what) {
    if (error.empty()) {
      error = what + " at offset " + std::to_string(pos);
    }
    return false;
  }

  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  [[nodiscard]] bool consume(char ch) {
    if (pos < text.size() && text[pos] == ch) {
      ++pos;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word) {
      return fail("bad literal");
    }
    pos += word.size();
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected '\"'");
    out.clear();
    while (pos < text.size()) {
      const char ch = text[pos++];
      if (ch == '"') return true;
      if (ch != '\\') {
        out += ch;
        continue;
      }
      if (pos >= text.size()) break;
      const char esc = text[pos++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          // json_escape only emits \u00XX for control bytes; decode the
          // low byte and ignore anything beyond Latin-1.
          if (pos + 4 > text.size()) return fail("bad \\u escape");
          const std::string hex(text.substr(pos, 4));
          char* end = nullptr;
          const long code = std::strtol(hex.c_str(), &end, 16);
          if (end != hex.c_str() + 4) return fail("bad \\u escape");
          out += static_cast<char>(code & 0xff);
          pos += 4;
          break;
        }
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char ch = text[pos];
    if (ch == '{') return parse_object(out);
    if (ch == '[') return parse_array(out);
    if (ch == '"') {
      out.kind = JsonValue::Kind::String;
      return parse_string(out.string);
    }
    if (ch == 't') {
      out.kind = JsonValue::Kind::Bool;
      out.boolean = true;
      return literal("true");
    }
    if (ch == 'f') {
      out.kind = JsonValue::Kind::Bool;
      out.boolean = false;
      return literal("false");
    }
    if (ch == 'n') {
      out.kind = JsonValue::Kind::Null;
      return literal("null");
    }
    // Number.
    const char* start = text.data() + pos;
    char* end = nullptr;
    const double value = std::strtod(start, &end);
    if (end == start) return fail("expected a JSON value");
    out.kind = JsonValue::Kind::Number;
    out.number = value;
    pos += static_cast<std::size_t>(end - start);
    return true;
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::Object;
    if (!consume('{')) return fail("expected '{'");
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      JsonValue value;
      if (!parse_value(value)) return false;
      out.fields.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return true;
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::Array;
    if (!consume('[')) return fail("expected '['");
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      JsonValue value;
      if (!parse_value(value)) return false;
      out.items.push_back(std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return true;
      return fail("expected ',' or ']'");
    }
  }
};

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text,
                                    std::string* error) {
  Parser p{text, 0, {}};
  JsonValue root;
  if (!p.parse_value(root)) {
    if (error != nullptr) *error = p.error;
    return std::nullopt;
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    if (error != nullptr) {
      *error = "trailing content at offset " + std::to_string(p.pos);
    }
    return std::nullopt;
  }
  return root;
}

}  // namespace autocfd::obs
