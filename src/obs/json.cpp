#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <iterator>
#include <stdexcept>

namespace lp::obs {

namespace {

// The obs layer sits below lp_support, so it throws a plain
// runtime_error instead of using lp::panic().
[[noreturn]] void
jsonError(const std::string &what)
{
    throw std::runtime_error("Json: " + what);
}

[[noreturn]] void
wrongKind(const char *op, Json::Kind k)
{
    static const char *const names[] = {"null",   "bool",  "int",   "double",
                                        "string", "array", "object"};
    jsonError(std::string(op) + " on " + names[static_cast<int>(k)]);
}

/** Append @p s to @p out as a quoted JSON string. */
void
appendEscaped(std::string &out, std::string_view s)
{
    static const char hex[] = "0123456789abcdef";
    out += '"';
    std::size_t plain = 0; // start of the run not yet appended
    for (std::size_t i = 0; i < s.size(); ++i) {
        const unsigned char c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s, plain, i - plain);
        plain = i + 1;
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default:
            out += "\\u00";
            out += hex[c >> 4];
            out += hex[c & 0xf];
        }
    }
    out.append(s, plain);
    out += '"';
}

} // namespace

Json &
Json::set(std::string key, Json v)
{
    Object *obj = std::get_if<Object>(&v_);
    if (!obj)
        wrongKind("set()", kind());
    for (auto &[k, member] : *obj)
        if (k == key) {
            member = std::move(v);
            return *this;
        }
    obj->emplace_back(std::move(key), std::move(v));
    return *this;
}

Json &
Json::push(Json v)
{
    Array *arr = std::get_if<Array>(&v_);
    if (!arr)
        wrongKind("push()", kind());
    arr->push_back(std::move(v));
    return *this;
}

bool
Json::asBool() const
{
    if (const bool *b = std::get_if<bool>(&v_))
        return *b;
    wrongKind("asBool()", kind());
}

std::int64_t
Json::asInt() const
{
    if (const std::int64_t *i = std::get_if<std::int64_t>(&v_))
        return *i;
    wrongKind("asInt()", kind());
}

std::uint64_t
Json::asU64() const
{
    return static_cast<std::uint64_t>(asInt());
}

double
Json::asDouble() const
{
    if (const std::int64_t *i = std::get_if<std::int64_t>(&v_))
        return static_cast<double>(*i);
    if (const double *d = std::get_if<double>(&v_))
        return *d;
    wrongKind("asDouble()", kind());
}

const std::string &
Json::asString() const
{
    if (const std::string *s = std::get_if<std::string>(&v_))
        return *s;
    wrongKind("asString()", kind());
}

const Json *
Json::find(std::string_view key) const
{
    if (const Object *obj = std::get_if<Object>(&v_))
        for (const auto &[k, member] : *obj)
            if (k == key)
                return &member;
    return nullptr;
}

const Json &
Json::at(std::string_view key) const
{
    if (!isObject())
        wrongKind("at(key)", kind());
    const Json *member = find(key);
    if (!member)
        jsonError("missing key '" + std::string(key) + "'");
    return *member;
}

bool
Json::contains(std::string_view key) const
{
    return find(key) != nullptr;
}

const Json &
Json::at(std::size_t i) const
{
    const Array *arr = std::get_if<Array>(&v_);
    if (!arr)
        wrongKind("at(index)", kind());
    if (i >= arr->size())
        jsonError("index out of range");
    return (*arr)[i];
}

std::size_t
Json::size() const
{
    if (const Array *arr = std::get_if<Array>(&v_))
        return arr->size();
    if (const Object *obj = std::get_if<Object>(&v_))
        return obj->size();
    wrongKind("size()", kind());
}

std::vector<std::string>
Json::keys() const
{
    std::vector<std::string> out;
    if (const Object *obj = std::get_if<Object>(&v_))
        for (const auto &member : *obj)
            out.push_back(member.first);
    return out;
}

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    const bool pretty = indent >= 0;
    auto newline = [&](int d) {
        if (!pretty)
            return;
        out += '\n';
        out.append(static_cast<std::size_t>(indent) * d, ' ');
    };

    switch (kind()) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += std::get<bool>(v_) ? "true" : "false";
        break;
      case Kind::Int: {
        char buf[24];
        out.append(buf, std::to_chars(buf, std::end(buf),
                                      std::get<std::int64_t>(v_))
                            .ptr);
        break;
      }
      case Kind::Double: {
        const double d = std::get<double>(v_);
        if (!std::isfinite(d)) {
            out += "null"; // JSON has no inf/nan
            break;
        }
        // Specified to print what %.17g prints.
        char buf[32];
        out.append(buf, std::to_chars(buf, std::end(buf), d,
                                      std::chars_format::general, 17)
                            .ptr);
        break;
      }
      case Kind::String:
        appendEscaped(out, std::get<std::string>(v_));
        break;
      case Kind::Array: {
        const Array &arr = std::get<Array>(v_);
        if (arr.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < arr.size(); ++i) {
            if (i != 0)
                out += ',';
            newline(depth + 1);
            arr[i].dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += ']';
        break;
      }
      case Kind::Object: {
        const Object &obj = std::get<Object>(v_);
        if (obj.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (std::size_t i = 0; i < obj.size(); ++i) {
            if (i != 0)
                out += ',';
            newline(depth + 1);
            appendEscaped(out, obj[i].first);
            out += pretty ? ": " : ":";
            obj[i].second.dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += '}';
        break;
      }
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

namespace {

/** Recursive-descent parser over a borrowed buffer. */
class Parser
{
  public:
    Parser(const std::string &text, std::string *err)
        : s_(text), err_(err)
    {
    }

    Json parse()
    {
        Json v = value();
        if (failed_)
            return Json();
        skipWs();
        if (pos_ != s_.size()) {
            fail("trailing characters after document");
            return Json();
        }
        return v;
    }

    bool failed() const { return failed_; }

  private:
    void fail(const std::string &what)
    {
        if (failed_)
            return;
        failed_ = true;
        if (err_)
            *err_ = what + " at offset " + std::to_string(pos_);
    }

    void skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    bool consume(char c)
    {
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool literal(const char *word)
    {
        std::size_t n = std::string(word).size();
        if (s_.compare(pos_, n, word) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    Json value()
    {
        skipWs();
        if (pos_ >= s_.size()) {
            fail("unexpected end of input");
            return Json();
        }
        char c = s_[pos_];
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return Json(string());
        if (literal("true"))
            return Json(true);
        if (literal("false"))
            return Json(false);
        if (literal("null"))
            return Json();
        return number();
    }

    std::string string()
    {
        std::string out;
        ++pos_; // opening quote
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= s_.size())
                break;
            char e = s_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                if (pos_ + 4 > s_.size()) {
                    fail("truncated \\u escape");
                    return out;
                }
                unsigned code = 0;
                auto res = std::from_chars(s_.data() + pos_,
                                           s_.data() + pos_ + 4, code, 16);
                if (res.ec != std::errc{}) {
                    fail("bad \\u escape");
                    return out;
                }
                pos_ += 4;
                // Encode as UTF-8 (BMP only; good enough for our output).
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
                fail("bad escape character");
                return out;
            }
        }
        if (pos_ >= s_.size()) {
            fail("unterminated string");
            return out;
        }
        ++pos_; // closing quote
        return out;
    }

    Json number()
    {
        std::size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        bool isDouble = false;
        while (pos_ < s_.size()) {
            char c = s_[pos_];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                isDouble = true;
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start) {
            fail("expected a value");
            return Json();
        }
        // Both conversions must consume the whole token: a token that
        // only starts like a number is malformed.  from_chars reads
        // every double dump() prints back to its bits, subnormals too.
        const char *first = s_.data() + start;
        const char *last = s_.data() + pos_;
        if (!isDouble) {
            std::int64_t v = 0;
            auto res = std::from_chars(first, last, v, 10);
            if (res.ec == std::errc{} && res.ptr == last)
                return Json(v);
        }
        double d = 0.0;
        auto res = std::from_chars(first, last, d);
        if (res.ec != std::errc{} || res.ptr != last) {
            fail("malformed number '" + std::string(first, last) + "'");
            return Json();
        }
        return Json(d);
    }

    Json array()
    {
        Json out = Json::array();
        ++pos_; // '['
        skipWs();
        if (consume(']'))
            return out;
        for (;;) {
            out.push(value());
            if (failed_)
                return out;
            if (consume(','))
                continue;
            if (consume(']'))
                return out;
            fail("expected ',' or ']'");
            return out;
        }
    }

    Json object()
    {
        Json out = Json::object();
        ++pos_; // '{'
        skipWs();
        if (consume('}'))
            return out;
        for (;;) {
            skipWs();
            if (pos_ >= s_.size() || s_[pos_] != '"') {
                fail("expected object key");
                return out;
            }
            std::string key = string();
            if (failed_ || !consume(':')) {
                fail("expected ':' after key");
                return out;
            }
            // A repeated key keeps its first place and its last value.
            out.set(std::move(key), value());
            if (failed_)
                return out;
            if (consume(','))
                continue;
            if (consume('}'))
                return out;
            fail("expected ',' or '}'");
            return out;
        }
    }

    const std::string &s_;
    std::string *err_;
    std::size_t pos_ = 0;
    bool failed_ = false;
};

} // namespace

Json
Json::parse(const std::string &text, std::string *err)
{
    Parser p(text, err);
    Json v = p.parse();
    return p.failed() ? Json() : v;
}

} // namespace lp::obs
