#include "util/json.h"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace panoptes::util {

namespace {

void DumpTo(const Json& v, std::string& out);

void DumpNumber(double d, std::string& out) {
  if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 1e15) {
    // Integral values print without a decimal point.
    std::array<char, 32> buf{};
    int n = std::snprintf(buf.data(), buf.size(), "%lld",
                          static_cast<long long>(d));
    out.append(buf.data(), static_cast<size_t>(n));
  } else {
    // std::to_chars keeps the decimal separator a '.' under any
    // LC_NUMERIC — JSON reports must stay byte-identical across locales.
    std::array<char, 40> buf{};
    auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), d,
                                   std::chars_format::general, 17);
    if (ec == std::errc()) {
      out.append(buf.data(), static_cast<size_t>(ptr - buf.data()));
    }
  }
}

void DumpTo(const Json& v, std::string& out) {
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_number()) {
    DumpNumber(v.as_number(), out);
  } else if (v.is_string()) {
    out += '"';
    JsonEscapeTo(v.as_string(), out);
    out += '"';
  } else if (v.is_array()) {
    out += '[';
    bool first = true;
    for (const auto& item : v.as_array()) {
      if (!first) out += ',';
      first = false;
      DumpTo(item, out);
    }
    out += ']';
  } else {
    out += '{';
    bool first = true;
    for (const auto& [key, value] : v.as_object()) {
      if (!first) out += ',';
      first = false;
      out += '"';
      JsonEscapeTo(key, out);
      out += "\":";
      DumpTo(value, out);
    }
    out += '}';
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Json> ParseDocument() {
    auto v = ParseValue();
    if (!v) return std::nullopt;
    SkipWs();
    if (pos_ != text_.size()) return std::nullopt;
    return v;
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view w) {
    if (text_.substr(pos_, w.size()) == w) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  std::optional<Json> ParseValue() {
    SkipWs();
    if (pos_ >= text_.size()) return std::nullopt;
    char c = text_[pos_];
    switch (c) {
      case 'n':
        return ConsumeWord("null") ? std::optional<Json>(Json(nullptr))
                                   : std::nullopt;
      case 't':
        return ConsumeWord("true") ? std::optional<Json>(Json(true))
                                   : std::nullopt;
      case 'f':
        return ConsumeWord("false") ? std::optional<Json>(Json(false))
                                    : std::nullopt;
      case '"': {
        auto s = ParseString();
        if (!s) return std::nullopt;
        return Json(std::move(*s));
      }
      case '[':
        return ParseArray();
      case '{':
        return ParseObject();
      default:
        return ParseNumber();
    }
  }

  std::optional<std::string> ParseString() {
    if (!Consume('"')) return std::nullopt;
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return std::nullopt;
        char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return std::nullopt;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
              else
                return std::nullopt;
            }
            // Encode as UTF-8 (BMP only; surrogate pairs kept verbatim
            // as two code points — sufficient for telemetry payloads).
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
            return std::nullopt;
        }
      } else {
        out += c;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<Json> ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double value = 0;
    const char* begin = text_.data() + start;
    const char* end = text_.data() + pos_;
    auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc() || ptr != end || begin == end) return std::nullopt;
    return Json(value);
  }

  std::optional<Json> ParseArray() {
    if (!Consume('[')) return std::nullopt;
    JsonArray items;
    SkipWs();
    if (Consume(']')) return Json(std::move(items));
    while (true) {
      auto v = ParseValue();
      if (!v) return std::nullopt;
      items.push_back(std::move(*v));
      SkipWs();
      if (Consume(']')) return Json(std::move(items));
      if (!Consume(',')) return std::nullopt;
    }
  }

  std::optional<Json> ParseObject() {
    if (!Consume('{')) return std::nullopt;
    JsonObject obj;
    SkipWs();
    if (Consume('}')) {
      return std::optional<Json>(std::in_place, std::move(obj));
    }
    while (true) {
      SkipWs();
      auto key = ParseString();
      if (!key) return std::nullopt;
      SkipWs();
      if (!Consume(':')) return std::nullopt;
      auto v = ParseValue();
      if (!v) return std::nullopt;
      obj[std::move(*key)] = std::move(*v);
      SkipWs();
      if (Consume('}')) {
        return std::optional<Json>(std::in_place, std::move(obj));
      }
      if (!Consume(',')) return std::nullopt;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

const Json* Json::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  const auto& obj = as_object();
  auto it = obj.find(std::string(key));
  return it == obj.end() ? nullptr : &it->second;
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(*this, out);
  return out;
}

std::optional<Json> Json::Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

void JsonEscapeTo(std::string_view s, std::string& out) {
  size_t run = 0;  // start of the pending escape-free run
  for (size_t i = 0; i < s.size(); ++i) {
    unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.substr(run, i - run));
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        std::array<char, 8> buf{};
        std::snprintf(buf.data(), buf.size(), "\\u%04x", c);
        out += buf.data();
      }
    }
  }
  out.append(s.substr(run));
}

}  // namespace panoptes::util
