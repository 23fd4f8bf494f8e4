#include "json_parse.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/check.hpp"

namespace dasched::json {


const Value* Value::get(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  const auto it = object.find(std::string(key));
  return it == object.end() ? nullptr : it->second.get();
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error) : text_(text), error_(error) {}

  ValuePtr run() {
    auto v = parse_value();
    if (v == nullptr) return nullptr;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters");
      return nullptr;
    }
    return v;
  }

 private:
  void fail(const char* msg) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = std::string(msg) + " at offset " + std::to_string(pos_);
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  ValuePtr parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return nullptr;
    }
    const char c = text_[pos_];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return parse_string();
    if (c == 't' || c == 'f') {
      auto v = std::make_shared<Value>();
      v->kind = Value::Kind::kBool;
      v->boolean = (c == 't');
      if (!literal(c == 't' ? "true" : "false")) {
        fail("bad literal");
        return nullptr;
      }
      return v;
    }
    if (c == 'n') {
      if (!literal("null")) {
        fail("bad literal");
        return nullptr;
      }
      return std::make_shared<Value>();
    }
    return parse_number();
  }

  ValuePtr parse_object() {
    auto v = std::make_shared<Value>();
    v->kind = Value::Kind::kObject;
    DASCHED_CHECK(consume('{'));
    if (consume('}')) return v;
    while (true) {
      skip_ws();
      auto key = parse_string();
      if (key == nullptr) return nullptr;
      if (!consume(':')) {
        fail("expected ':'");
        return nullptr;
      }
      auto member = parse_value();
      if (member == nullptr) return nullptr;
      v->object.emplace(std::move(key->string), std::move(member));
      if (consume(',')) continue;
      if (consume('}')) return v;
      fail("expected ',' or '}'");
      return nullptr;
    }
  }

  ValuePtr parse_array() {
    auto v = std::make_shared<Value>();
    v->kind = Value::Kind::kArray;
    DASCHED_CHECK(consume('['));
    if (consume(']')) return v;
    while (true) {
      auto element = parse_value();
      if (element == nullptr) return nullptr;
      v->array.push_back(std::move(element));
      if (consume(',')) continue;
      if (consume(']')) return v;
      fail("expected ',' or ']'");
      return nullptr;
    }
  }

  ValuePtr parse_string() {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      fail("expected string");
      return nullptr;
    }
    ++pos_;
    auto v = std::make_shared<Value>();
    v->kind = Value::Kind::kString;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return v;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char e = text_[pos_++];
        switch (e) {
          case '"': v->string += '"'; break;
          case '\\': v->string += '\\'; break;
          case '/': v->string += '/'; break;
          case 'n': v->string += '\n'; break;
          case 'r': v->string += '\r'; break;
          case 't': v->string += '\t'; break;
          case 'b': v->string += '\b'; break;
          case 'f': v->string += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              fail("truncated \\u escape");
              return nullptr;
            }
            const std::string hex(text_.substr(pos_, 4));
            pos_ += 4;
            const auto code = static_cast<unsigned>(std::strtoul(hex.c_str(), nullptr, 16));
            // We only emit \u00xx for control characters; decode the ASCII
            // range and pass anything else through as '?'.
            v->string += code < 0x80 ? static_cast<char>(code) : '?';
            break;
          }
          default:
            fail("bad escape");
            return nullptr;
        }
      } else {
        v->string += c;
      }
    }
    fail("unterminated string");
    return nullptr;
  }

  ValuePtr parse_number() {
    skip_ws();
    const char* begin = text_.data() + pos_;
    char* end = nullptr;
    const double d = std::strtod(begin, &end);
    if (end == begin) {
      fail("expected number");
      return nullptr;
    }
    pos_ += static_cast<std::size_t>(end - begin);
    auto v = std::make_shared<Value>();
    v->kind = Value::Kind::kNumber;
    v->number = d;
    return v;
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

}  // namespace

ValuePtr parse(std::string_view text, std::string* error) {
  return Parser(text, error).run();
}

}  // namespace dasched::json
