#include "common/json.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace msim::json {

bool
Value::asBool() const
{
    if (kind_ != Kind::Bool)
        throw std::runtime_error("json: not a bool");
    return bool_;
}

double
Value::asDouble() const
{
    if (kind_ != Kind::Number)
        throw std::runtime_error("json: not a number");
    return num_;
}

std::int64_t
Value::asInt() const
{
    if (kind_ != Kind::Number)
        throw std::runtime_error("json: not a number");
    if (isInt_)
        return int_;
    // Casting a double outside the int64 range is undefined.
    if (!(num_ >= -0x1p63 && num_ < 0x1p63))
        throw std::runtime_error("json: number out of int64 range");
    return std::int64_t(num_);
}

const std::string &
Value::asString() const
{
    if (kind_ != Kind::String)
        throw std::runtime_error("json: not a string");
    return str_;
}

const std::vector<Value> &
Value::items() const
{
    if (kind_ != Kind::Array)
        throw std::runtime_error("json: not an array");
    return arr_;
}

std::vector<Value> &
Value::items()
{
    if (kind_ != Kind::Array)
        throw std::runtime_error("json: not an array");
    return arr_;
}

void
Value::push(Value v)
{
    if (kind_ != Kind::Array)
        throw std::runtime_error("json: not an array");
    arr_.push_back(std::move(v));
}

const Value *
Value::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : obj_)
        if (k == key)
            return &v;
    return nullptr;
}

Value *
Value::find(const std::string &key)
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (auto &[k, v] : obj_)
        if (k == key)
            return &v;
    return nullptr;
}

const std::vector<std::pair<std::string, Value>> &
Value::entries() const
{
    if (kind_ != Kind::Object)
        throw std::runtime_error("json: not an object");
    return obj_;
}

Value &
Value::set(const std::string &key, Value v)
{
    if (kind_ != Kind::Object)
        throw std::runtime_error("json: not an object");
    obj_.emplace_back(key, std::move(v));
    return obj_.back().second;
}

std::string
escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace {

/** Recursive-descent RFC 8259 parser with bounded depth. */
class Parser
{
  public:
    Parser(const std::string &text, unsigned maxDepth)
        : text_(text), maxDepth_(maxDepth)
    {
    }

    Value
    document()
    {
        Value v = value(0);
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters after JSON value");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &msg) const
    {
        throw ParseError(msg, pos_);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (pos_ >= text_.size() || text_[pos_] != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consume(const char *lit)
    {
        std::size_t n = 0;
        while (lit[n] != '\0')
            ++n;
        if (text_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    Value
    value(unsigned depth)
    {
        if (depth > maxDepth_)
            fail("nesting too deep");
        skipWs();
        switch (peek()) {
          case '{': return object(depth);
          case '[': return array(depth);
          case '"': return Value(string());
          case 't':
            if (consume("true"))
                return Value(true);
            fail("invalid literal");
          case 'f':
            if (consume("false"))
                return Value(false);
            fail("invalid literal");
          case 'n':
            if (consume("null"))
                return Value(nullptr);
            fail("invalid literal");
          default:
            return number();
        }
    }

    Value
    object(unsigned depth)
    {
        expect('{');
        Value obj = Value::object();
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        while (true) {
            skipWs();
            if (peek() != '"')
                fail("expected object key string");
            std::string key = string();
            skipWs();
            expect(':');
            obj.set(key, value(depth + 1));
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return obj;
        }
    }

    Value
    array(unsigned depth)
    {
        expect('[');
        Value arr = Value::array();
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return arr;
        }
        while (true) {
            arr.push(value(depth + 1));
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return arr;
        }
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const unsigned char c =
                static_cast<unsigned char>(text_[pos_]);
            if (c == '"') {
                ++pos_;
                return out;
            }
            if (c < 0x20)
                fail("unescaped control character in string");
            if (c != '\\') {
                out += char(c);
                ++pos_;
                continue;
            }
            ++pos_;
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char e = text_[pos_++];
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
                unsigned cp = hex4();
                // Surrogate pair handling (UTF-16 escapes).
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    if (pos_ + 1 < text_.size() &&
                        text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
                        pos_ += 2;
                        const unsigned lo = hex4();
                        if (lo >= 0xDC00 && lo <= 0xDFFF)
                            cp = 0x10000 + ((cp - 0xD800) << 10) +
                                 (lo - 0xDC00);
                        else
                            fail("invalid low surrogate");
                    } else {
                        fail("lone high surrogate");
                    }
                } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                    fail("lone low surrogate");
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                fail("invalid escape character");
            }
        }
    }

    unsigned
    hex4()
    {
        unsigned v = 0;
        for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size())
                fail("unterminated \\u escape");
            const char c = text_[pos_++];
            v <<= 4;
            if (c >= '0' && c <= '9')
                v |= unsigned(c - '0');
            else if (c >= 'a' && c <= 'f')
                v |= unsigned(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                v |= unsigned(c - 'A' + 10);
            else
                fail("invalid hex digit in \\u escape");
        }
        return v;
    }

    static void
    appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out += char(cp);
        } else if (cp < 0x800) {
            out += char(0xC0 | (cp >> 6));
            out += char(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += char(0xE0 | (cp >> 12));
            out += char(0x80 | ((cp >> 6) & 0x3F));
            out += char(0x80 | (cp & 0x3F));
        } else {
            out += char(0xF0 | (cp >> 18));
            out += char(0x80 | ((cp >> 12) & 0x3F));
            out += char(0x80 | ((cp >> 6) & 0x3F));
            out += char(0x80 | (cp & 0x3F));
        }
    }

    Value
    number()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        if (pos_ >= text_.size() || !std::isdigit(
                static_cast<unsigned char>(text_[pos_])))
            fail("invalid number");
        // Leading zero may not be followed by digits.
        if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
            std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])))
            fail("leading zero in number");
        bool integral = true;
        auto digits = [&] {
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        };
        digits();
        if (pos_ < text_.size() && text_[pos_] == '.') {
            integral = false;
            ++pos_;
            if (pos_ >= text_.size() || !std::isdigit(
                    static_cast<unsigned char>(text_[pos_])))
                fail("digits required after decimal point");
            digits();
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            integral = false;
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (pos_ >= text_.size() || !std::isdigit(
                    static_cast<unsigned char>(text_[pos_])))
                fail("digits required in exponent");
            digits();
        }
        const std::string tok = text_.substr(start, pos_ - start);
        if (integral) {
            errno = 0;
            char *end = nullptr;
            const long long v = std::strtoll(tok.c_str(), &end, 10);
            if (errno == 0 && end && *end == '\0')
                return Value(std::int64_t(v));
            // Out of int64 range: fall through to double.
        }
        return Value(std::strtod(tok.c_str(), nullptr));
    }

    const std::string &text_;
    unsigned maxDepth_;
    std::size_t pos_ = 0;
};

} // namespace

Value
Value::parse(const std::string &text, unsigned maxDepth)
{
    return Parser(text, maxDepth).document();
}

} // namespace msim::json
