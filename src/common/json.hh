/**
 * @file
 * A minimal JSON document parser for tools that read the suite's own
 * output back in (pmodv-trace explain, ad-hoc report scripts), plus
 * the string escaping and number formatting every JSON writer of the
 * suite shares. The parser is a strict recursive-descent parser over
 * the full JSON grammar with two deliberate simplifications that
 * match what the suite emits:
 *
 *  - numbers are stored twice, as the double strtod() yields AND as
 *    the raw source text, so integer fields round-trip exactly even
 *    past 2^53 (cycle counts and 64-bit ids use asU64() which parses
 *    the raw text); and
 *  - objects keep their members in document order (a vector of
 *    pairs), so reports iterating an object are deterministic and
 *    mirror the writer's order, while find() stays correct for the
 *    small objects involved.
 *
 * This is a reader for trusted, machine-written input — parse errors
 * return nullopt with a position message rather than recovering.
 */

#ifndef PMODV_COMMON_JSON_HH
#define PMODV_COMMON_JSON_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace pmodv::common
{

/** One parsed JSON value; a tree of these is a document. */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    using Array = std::vector<JsonValue>;
    /** Members in document order; keys are unique in suite output. */
    using Object = std::vector<std::pair<std::string, JsonValue>>;

    JsonValue() = default;

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Value accessors panic() when the kind does not match. */
    bool boolean() const;
    double number() const;
    /** The number re-parsed from its source text as a uint64 (exact
     *  for the 64-bit counters the suite emits); panics on non-number
     *  and on negative/fractional source text. */
    std::uint64_t asU64() const;
    const std::string &str() const;
    const Array &array() const;
    const Object &object() const;

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;
    /** find() that panics when the member is missing. */
    const JsonValue &at(const std::string &key) const;

    /** Array element; panics out of range or on non-array. */
    const JsonValue &at(std::size_t index) const;
    std::size_t size() const;

    // Builders (used by the parser; handy for tests).
    static JsonValue makeNull();
    static JsonValue makeBool(bool b);
    static JsonValue makeNumber(double d, std::string raw);
    static JsonValue makeString(std::string s);
    static JsonValue makeArray(Array a);
    static JsonValue makeObject(Object o);

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0;
    std::string raw_; ///< Number source text (exact u64 round-trip).
    std::string str_;
    std::shared_ptr<Array> array_;
    std::shared_ptr<Object> object_;
};

/**
 * Parse @p text as one JSON document (trailing whitespace allowed,
 * trailing garbage is an error). On failure returns nullopt and, when
 * @p error is non-null, stores a "byte offset N: why" message.
 */
std::optional<JsonValue> parseJson(const std::string &text,
                                   std::string *error = nullptr);

/** parseJson() over a whole file; nullopt on I/O or parse failure. */
std::optional<JsonValue> parseJsonFile(const std::string &path,
                                       std::string *error = nullptr);

/**
 * Minimal JSON string escaping: a backslash before every '"' and
 * '\\'. Names the suite writes are plain ASCII.
 */
std::string jsonEscape(const std::string &s);

/**
 * Deterministic number formatting shared by the JSON, CSV and
 * Perfetto writers: integers print without a fraction, everything
 * else with 17 significant digits (enough to round-trip a double
 * exactly). Non-finite values become 0 so a document can never fail
 * to parse.
 */
std::string formatNumber(double value);

} // namespace pmodv::common

#endif // PMODV_COMMON_JSON_HH
