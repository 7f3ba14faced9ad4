#include "obs/json.hpp"

#include <cctype>
#include <cstdlib>

#include "common/error.hpp"

namespace tqr::obs {

namespace {

struct Cursor {
  const std::string& text;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& what) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos && i < text.size(); ++i) {
      if (text[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw InvalidArgument("json: " + what + " at " + std::to_string(line) +
                          ":" + std::to_string(col));
  }

  void skip_ws() {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t' ||
                                 text[pos] == '\n' || text[pos] == '\r'))
      ++pos;
  }

  char peek() {
    if (pos >= text.size()) fail("unexpected end of input");
    return text[pos];
  }

  char take() {
    const char c = peek();
    ++pos;
    return c;
  }

  void expect(char c) {
    if (take() != c) {
      --pos;
      fail(std::string("expected '") + c + "'");
    }
  }
};

}  // namespace

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : cur_{text} {}

  Json parse_document() {
    cur_.skip_ws();
    Json v = parse_value();
    cur_.skip_ws();
    if (cur_.pos != cur_.text.size()) cur_.fail("trailing characters");
    return v;
  }

 private:
  Json parse_value() {
    cur_.skip_ws();
    switch (cur_.peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return make_string(parse_string());
      case 't':
        parse_literal("true");
        return make_bool(true);
      case 'f':
        parse_literal("false");
        return make_bool(false);
      case 'n':
        parse_literal("null");
        return Json();
      default:
        return parse_number();
    }
  }

  /// Nesting bound: the parser recurses once per container level, so an
  /// unbounded "[[[[..." document would exhaust the stack instead of
  /// throwing. Every emitter in this repo nests a handful of levels.
  static constexpr int kMaxDepth = 256;

  struct DepthGuard {
    JsonParser& p;
    explicit DepthGuard(JsonParser& parser) : p(parser) {
      if (++p.depth_ > kMaxDepth) p.cur_.fail("nesting too deep");
    }
    ~DepthGuard() { --p.depth_; }
  };

  Json parse_object() {
    const DepthGuard guard(*this);
    Json v;
    v.kind_ = Json::Kind::kObject;
    cur_.expect('{');
    cur_.skip_ws();
    if (cur_.peek() == '}') {
      cur_.take();
      return v;
    }
    for (;;) {
      cur_.skip_ws();
      std::string key = parse_string();
      cur_.skip_ws();
      cur_.expect(':');
      v.members_.emplace_back(std::move(key), parse_value());
      cur_.skip_ws();
      const char c = cur_.take();
      if (c == '}') return v;
      if (c != ',') {
        --cur_.pos;
        cur_.fail("expected ',' or '}' in object");
      }
    }
  }

  Json parse_array() {
    const DepthGuard guard(*this);
    Json v;
    v.kind_ = Json::Kind::kArray;
    cur_.expect('[');
    cur_.skip_ws();
    if (cur_.peek() == ']') {
      cur_.take();
      return v;
    }
    for (;;) {
      v.items_.push_back(parse_value());
      cur_.skip_ws();
      const char c = cur_.take();
      if (c == ']') return v;
      if (c != ',') {
        --cur_.pos;
        cur_.fail("expected ',' or ']' in array");
      }
    }
  }

  std::string parse_string() {
    cur_.expect('"');
    std::string out;
    for (;;) {
      const char c = cur_.take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        cur_.fail("unescaped control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = cur_.take();
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
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = cur_.take();
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              --cur_.pos;
              cur_.fail("bad \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not used by
          // any emitter in this repo; a lone surrogate encodes as-is).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          --cur_.pos;
          cur_.fail("unknown escape sequence");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = cur_.pos;
    if (cur_.peek() == '-') cur_.take();
    auto digits = [&] {
      bool any = false;
      while (cur_.pos < cur_.text.size() &&
             std::isdigit(static_cast<unsigned char>(cur_.text[cur_.pos]))) {
        ++cur_.pos;
        any = true;
      }
      return any;
    };
    const std::size_t int_start = cur_.pos;
    if (!digits()) cur_.fail("invalid number");
    if (cur_.text[int_start] == '0' && cur_.pos - int_start > 1)
      cur_.fail("invalid number (leading zero)");
    if (cur_.pos < cur_.text.size() && cur_.text[cur_.pos] == '.') {
      ++cur_.pos;
      if (!digits()) cur_.fail("invalid number");
    }
    if (cur_.pos < cur_.text.size() &&
        (cur_.text[cur_.pos] == 'e' || cur_.text[cur_.pos] == 'E')) {
      ++cur_.pos;
      if (cur_.pos < cur_.text.size() &&
          (cur_.text[cur_.pos] == '+' || cur_.text[cur_.pos] == '-'))
        ++cur_.pos;
      if (!digits()) cur_.fail("invalid number");
    }
    Json v;
    v.kind_ = Json::Kind::kNumber;
    v.num_ = std::strtod(cur_.text.c_str() + start, nullptr);
    return v;
  }

  void parse_literal(const char* lit) {
    for (const char* p = lit; *p; ++p)
      if (cur_.take() != *p) {
        --cur_.pos;
        cur_.fail(std::string("expected '") + lit + "'");
      }
  }

  static Json make_string(std::string s) {
    Json v;
    v.kind_ = Json::Kind::kString;
    v.str_ = std::move(s);
    return v;
  }

  static Json make_bool(bool b) {
    Json v;
    v.kind_ = Json::Kind::kBool;
    v.bool_ = b;
    return v;
  }

  Cursor cur_;
  int depth_ = 0;
};

Json Json::parse(const std::string& text) {
  return JsonParser(text).parse_document();
}

bool Json::as_bool() const {
  TQR_REQUIRE(kind_ == Kind::kBool, "json value is not a bool");
  return bool_;
}

double Json::as_number() const {
  TQR_REQUIRE(kind_ == Kind::kNumber, "json value is not a number");
  return num_;
}

const std::string& Json::as_string() const {
  TQR_REQUIRE(kind_ == Kind::kString, "json value is not a string");
  return str_;
}

const std::vector<Json>& Json::items() const {
  TQR_REQUIRE(kind_ == Kind::kArray, "json value is not an array");
  return items_;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  TQR_REQUIRE(kind_ == Kind::kObject, "json value is not an object");
  return members_;
}

const Json* Json::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

std::map<std::string, double> Json::flatten_numbers() const {
  std::map<std::string, double> out;
  flatten_into("", out);
  return out;
}

void Json::flatten_into(const std::string& prefix,
                        std::map<std::string, double>& out) const {
  switch (kind_) {
    case Kind::kNumber:
      out[prefix] = num_;
      break;
    case Kind::kObject:
      for (const auto& [k, v] : members_)
        v.flatten_into(prefix.empty() ? k : prefix + "." + k, out);
      break;
    case Kind::kArray:
      for (std::size_t i = 0; i < items_.size(); ++i)
        items_[i].flatten_into(
            prefix.empty() ? std::to_string(i)
                           : prefix + "." + std::to_string(i),
            out);
      break;
    default:
      break;
  }
}

}  // namespace tqr::obs
