/**
 * @file
 * A small JSON value type and parser for the machine shape
 * configuration layer (src/config), plus the string escaper every
 * hand-rolled JSON emitter shares. Self-contained on purpose: inputs
 * arrive from user-edited shape files, so the parser is strict (full
 * RFC 8259 grammar, no extensions), bounds its recursion depth, and
 * reports every syntax error as a json::ParseError with the byte
 * offset; callers map those to structured shape diagnostics instead
 * of crashing.
 *
 * Objects preserve document order and lookups return the first
 * entry with the key. Numbers written as integers keep their exact
 * int64 value.
 */

#ifndef MSIM_COMMON_JSON_HH
#define MSIM_COMMON_JSON_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace msim::json {

/** Thrown on malformed JSON text; carries the byte offset. */
class ParseError : public std::runtime_error
{
  public:
    ParseError(const std::string &msg, std::size_t offset)
        : std::runtime_error(msg + " at byte " +
                             std::to_string(offset)),
          offset(offset)
    {
    }

    std::size_t offset = 0;
};

/** One JSON value (recursive tagged union). */
class Value
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Value() = default;
    Value(std::nullptr_t) {}
    Value(bool b) : kind_(Kind::Bool), bool_(b) {}
    Value(double d) : kind_(Kind::Number), num_(d) {}
    Value(std::int64_t i)
        : kind_(Kind::Number), num_(double(i)), int_(i), isInt_(true)
    {
    }
    Value(int i) : Value(std::int64_t(i)) {}
    Value(const char *s) : kind_(Kind::String), str_(s) {}
    Value(std::string s) : kind_(Kind::String), str_(std::move(s)) {}

    static Value array() { Value v; v.kind_ = Kind::Array; return v; }
    static Value object() { Value v; v.kind_ = Kind::Object; return v; }

    /**
     * Parse a complete JSON document (trailing garbage is an error).
     * @param maxDepth bound on array/object nesting.
     */
    static Value parse(const std::string &text, unsigned maxDepth = 64);

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Typed accessors; throw ParseError-free std::runtime_error on
     *  kind mismatch (callers validate kinds first), and asInt() on a
     *  number outside the int64 range. */
    bool asBool() const;
    double asDouble() const;
    std::int64_t asInt() const;
    const std::string &asString() const;

    /** Array access. */
    const std::vector<Value> &items() const;
    std::vector<Value> &items();
    void push(Value v);

    /** Object access: first entry wins; nullptr when absent. */
    const Value *find(const std::string &key) const;
    Value *find(const std::string &key);
    const std::vector<std::pair<std::string, Value>> &entries() const;
    /** Set (append) an object entry. */
    Value &set(const std::string &key, Value v);

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::int64_t int_ = 0;
    bool isInt_ = false;
    std::string str_;
    std::vector<Value> arr_;
    std::vector<std::pair<std::string, Value>> obj_;
};

/**
 * JSON string escaping, shared by every hand-rolled emitter: the
 * body of a string literal, without the quotes.
 */
std::string escape(std::string_view s);

} // namespace msim::json

#endif // MSIM_COMMON_JSON_HH
