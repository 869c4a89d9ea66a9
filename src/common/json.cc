#include "common/json.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/logging.hh"

namespace pmodv::common
{

// ----------------------------------------------------------- accessors

bool
JsonValue::boolean() const
{
    panic_if(kind_ != Kind::Bool, "JsonValue: not a bool");
    return bool_;
}

double
JsonValue::number() const
{
    panic_if(kind_ != Kind::Number, "JsonValue: not a number");
    return num_;
}

std::uint64_t
JsonValue::asU64() const
{
    panic_if(kind_ != Kind::Number, "JsonValue: not a number");
    // Integer counters are emitted as plain digit runs; parse the
    // source text so values past 2^53 stay exact.
    panic_if(raw_.empty() || raw_[0] == '-' ||
                 raw_.find_first_of(".eE") != std::string::npos,
             "JsonValue: '%s' is not a non-negative integer",
             raw_.c_str());
    return std::strtoull(raw_.c_str(), nullptr, 10);
}

const std::string &
JsonValue::str() const
{
    panic_if(kind_ != Kind::String, "JsonValue: not a string");
    return str_;
}

const JsonValue::Array &
JsonValue::array() const
{
    panic_if(kind_ != Kind::Array, "JsonValue: not an array");
    return *array_;
}

const JsonValue::Object &
JsonValue::object() const
{
    panic_if(kind_ != Kind::Object, "JsonValue: not an object");
    return *object_;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : *object_) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const JsonValue *v = find(key);
    panic_if(!v, "JsonValue: missing member \"%s\"", key.c_str());
    return *v;
}

const JsonValue &
JsonValue::at(std::size_t index) const
{
    panic_if(kind_ != Kind::Array, "JsonValue: not an array");
    panic_if(index >= array_->size(),
             "JsonValue: index %zu out of range (size %zu)", index,
             array_->size());
    return (*array_)[index];
}

std::size_t
JsonValue::size() const
{
    if (kind_ == Kind::Array)
        return array_->size();
    if (kind_ == Kind::Object)
        return object_->size();
    panic("JsonValue: size() on a non-container");
}

// ------------------------------------------------------------ builders

JsonValue
JsonValue::makeNull()
{
    return JsonValue();
}

JsonValue
JsonValue::makeBool(bool b)
{
    JsonValue v;
    v.kind_ = Kind::Bool;
    v.bool_ = b;
    return v;
}

JsonValue
JsonValue::makeNumber(double d, std::string raw)
{
    JsonValue v;
    v.kind_ = Kind::Number;
    v.num_ = d;
    v.raw_ = std::move(raw);
    return v;
}

JsonValue
JsonValue::makeString(std::string s)
{
    JsonValue v;
    v.kind_ = Kind::String;
    v.str_ = std::move(s);
    return v;
}

JsonValue
JsonValue::makeArray(Array a)
{
    JsonValue v;
    v.kind_ = Kind::Array;
    v.array_ = std::make_shared<Array>(std::move(a));
    return v;
}

JsonValue
JsonValue::makeObject(Object o)
{
    JsonValue v;
    v.kind_ = Kind::Object;
    v.object_ = std::make_shared<Object>(std::move(o));
    return v;
}

// -------------------------------------------------------------- parser

namespace
{

/** Recursive-descent parser state: the text plus a cursor. */
struct Parser
{
    const std::string &text;
    std::size_t pos = 0;
    std::string error;

    bool fail(const std::string &why)
    {
        if (error.empty()) {
            std::ostringstream os;
            os << "byte offset " << pos << ": " << why;
            error = os.str();
        }
        return false;
    }

    void skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool atEnd() const { return pos >= text.size(); }
    char peek() const { return text[pos]; }

    bool consume(char c)
    {
        if (atEnd() || text[pos] != c)
            return fail(std::string("expected '") + c + "'");
        ++pos;
        return true;
    }

    bool literal(const char *word, std::size_t len)
    {
        if (text.compare(pos, len, word) != 0)
            return fail(std::string("expected '") + word + "'");
        pos += len;
        return true;
    }

    bool parseValue(JsonValue &out);
    bool parseString(std::string &out);
    bool parseNumber(JsonValue &out);
    bool parseArray(JsonValue &out);
    bool parseObject(JsonValue &out);
};

bool
Parser::parseString(std::string &out)
{
    if (!consume('"'))
        return false;
    out.clear();
    while (true) {
        if (atEnd())
            return fail("unterminated string");
        const char c = text[pos++];
        if (c == '"')
            return true;
        if (c != '\\') {
            out.push_back(c);
            continue;
        }
        if (atEnd())
            return fail("unterminated escape");
        const char esc = text[pos++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            // The suite never emits \u escapes; decode the BMP code
            // point to UTF-8 so foreign documents still load.
            if (pos + 4 > text.size())
                return fail("truncated \\u escape");
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
                const char h = text[pos++];
                cp <<= 4;
                if (h >= '0' && h <= '9')
                    cp |= static_cast<unsigned>(h - '0');
                else if (h >= 'a' && h <= 'f')
                    cp |= static_cast<unsigned>(h - 'a' + 10);
                else if (h >= 'A' && h <= 'F')
                    cp |= static_cast<unsigned>(h - 'A' + 10);
                else
                    return fail("bad \\u escape digit");
            }
            if (cp < 0x80) {
                out.push_back(static_cast<char>(cp));
            } else if (cp < 0x800) {
                out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
                out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
            } else {
                out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
                out.push_back(
                    static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
                out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
            }
            break;
          }
          default:
            return fail("bad escape character");
        }
    }
}

bool
Parser::parseNumber(JsonValue &out)
{
    const std::size_t start = pos;
    if (!atEnd() && peek() == '-')
        ++pos;
    while (!atEnd() && std::isdigit(static_cast<unsigned char>(peek())))
        ++pos;
    if (!atEnd() && peek() == '.') {
        ++pos;
        while (!atEnd() &&
               std::isdigit(static_cast<unsigned char>(peek())))
            ++pos;
    }
    if (!atEnd() && (peek() == 'e' || peek() == 'E')) {
        ++pos;
        if (!atEnd() && (peek() == '+' || peek() == '-'))
            ++pos;
        while (!atEnd() &&
               std::isdigit(static_cast<unsigned char>(peek())))
            ++pos;
    }
    std::string raw = text.substr(start, pos - start);
    char *end = nullptr;
    const double d = std::strtod(raw.c_str(), &end);
    if (raw.empty() || end != raw.c_str() + raw.size())
        return fail("malformed number");
    out = JsonValue::makeNumber(d, std::move(raw));
    return true;
}

bool
Parser::parseArray(JsonValue &out)
{
    if (!consume('['))
        return false;
    JsonValue::Array items;
    skipWs();
    if (!atEnd() && peek() == ']') {
        ++pos;
        out = JsonValue::makeArray(std::move(items));
        return true;
    }
    while (true) {
        JsonValue item;
        if (!parseValue(item))
            return false;
        items.push_back(std::move(item));
        skipWs();
        if (atEnd())
            return fail("unterminated array");
        if (peek() == ',') {
            ++pos;
            continue;
        }
        if (peek() == ']') {
            ++pos;
            out = JsonValue::makeArray(std::move(items));
            return true;
        }
        return fail("expected ',' or ']'");
    }
}

bool
Parser::parseObject(JsonValue &out)
{
    if (!consume('{'))
        return false;
    JsonValue::Object members;
    skipWs();
    if (!atEnd() && peek() == '}') {
        ++pos;
        out = JsonValue::makeObject(std::move(members));
        return true;
    }
    while (true) {
        skipWs();
        std::string key;
        if (!parseString(key))
            return false;
        skipWs();
        if (!consume(':'))
            return false;
        JsonValue value;
        if (!parseValue(value))
            return false;
        members.emplace_back(std::move(key), std::move(value));
        skipWs();
        if (atEnd())
            return fail("unterminated object");
        if (peek() == ',') {
            ++pos;
            continue;
        }
        if (peek() == '}') {
            ++pos;
            out = JsonValue::makeObject(std::move(members));
            return true;
        }
        return fail("expected ',' or '}'");
    }
}

bool
Parser::parseValue(JsonValue &out)
{
    skipWs();
    if (atEnd())
        return fail("unexpected end of input");
    switch (peek()) {
      case '{':
        return parseObject(out);
      case '[':
        return parseArray(out);
      case '"': {
        std::string s;
        if (!parseString(s))
            return false;
        out = JsonValue::makeString(std::move(s));
        return true;
      }
      case 't':
        if (!literal("true", 4))
            return false;
        out = JsonValue::makeBool(true);
        return true;
      case 'f':
        if (!literal("false", 5))
            return false;
        out = JsonValue::makeBool(false);
        return true;
      case 'n':
        if (!literal("null", 4))
            return false;
        out = JsonValue::makeNull();
        return true;
      default:
        return parseNumber(out);
    }
}

} // namespace

std::optional<JsonValue>
parseJson(const std::string &text, std::string *error)
{
    Parser p{text, 0, {}};
    JsonValue out;
    if (!p.parseValue(out)) {
        if (error)
            *error = p.error;
        return std::nullopt;
    }
    p.skipWs();
    if (!p.atEnd()) {
        p.fail("trailing garbage after document");
        if (error)
            *error = p.error;
        return std::nullopt;
    }
    return out;
}

std::optional<JsonValue>
parseJsonFile(const std::string &path, std::string *error)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        if (error)
            *error = "cannot open " + path;
        return std::nullopt;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    return parseJson(buf.str(), error);
}

// ------------------------------------------------------------- writers

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

std::string
formatNumber(double value)
{
    if (!std::isfinite(value))
        return "0";
    if (value == std::nearbyint(value) &&
        std::fabs(value) < 9007199254740992.0) { // 2^53
        std::ostringstream os;
        os << static_cast<long long>(value);
        return os.str();
    }
    std::ostringstream os;
    os << std::setprecision(17) << value;
    return os.str();
}

} // namespace pmodv::common
