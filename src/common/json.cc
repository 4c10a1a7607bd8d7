#include "common/json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace dlw
{

JsonWriter &
JsonWriter::beginObject()
{
    return open('{');
}

JsonWriter &
JsonWriter::endObject()
{
    return close('}');
}

JsonWriter &
JsonWriter::beginArray()
{
    return open('[');
}

JsonWriter &
JsonWriter::endArray()
{
    return close(']');
}

JsonWriter &
JsonWriter::open(char bracket)
{
    separate();
    out_ += bracket;
    nonempty_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::close(char bracket)
{
    nonempty_.pop_back();
    out_ += bracket;
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    str(k);
    out_ += ':';
    after_key_ = true;
    return *this;
}

JsonWriter &
JsonWriter::str(std::string_view s)
{
    separate();
    out_ += '"';
    for (const char c : s) {
        switch (c) {
          case '"':
            out_ += "\\\"";
            break;
          case '\\':
            out_ += "\\\\";
            break;
          case '\n':
            out_ += "\\n";
            break;
          case '\r':
            out_ += "\\r";
            break;
          case '\t':
            out_ += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out_ += buf;
            } else {
                out_ += c;
            }
        }
    }
    out_ += '"';
    return *this;
}

JsonWriter &
JsonWriter::num(double v)
{
    separate();
    out_ += formatNumber(v);
    return *this;
}

JsonWriter &
JsonWriter::fixed(double v, int decimals)
{
    separate();
    char buf[64];
    const int n = std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    if (n < static_cast<int>(sizeof(buf))) {
        out_ += buf;
        return *this;
    }
    // Magnitudes past ~1e60 print more digits than the fast buffer.
    std::string wide(static_cast<std::size_t>(n) + 1, '\0');
    std::snprintf(wide.data(), wide.size(), "%.*f", decimals, v);
    wide.pop_back();
    out_ += wide;
    return *this;
}

JsonWriter &
JsonWriter::boolean(bool v)
{
    separate();
    out_ += v ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    separate();
    out_ += "null";
    return *this;
}

JsonWriter &
JsonWriter::raw(std::string_view json)
{
    separate();
    out_ += json;
    return *this;
}

void
JsonWriter::separate()
{
    if (after_key_) {
        after_key_ = false;
        return;
    }
    if (!nonempty_.empty()) {
        if (nonempty_.back())
            out_ += ',';
        nonempty_.back() = true;
    }
}

std::string
formatNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

namespace
{

/**
 * Recursive-descent parser over the JSON subset our exporters emit.
 * Depth-limited so corrupt input cannot blow the stack.
 */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    StatusOr<JsonValue>
    parse()
    {
        JsonValue v;
        Status s = parseValue(v, 0);
        if (!s.ok())
            return s;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after document");
        return v;
    }

  private:
    static constexpr std::size_t kMaxDepth = 64;

    Status
    fail(const std::string &what) const
    {
        return Status::invalidArgument(
            "json: " + what + " at offset " + std::to_string(pos_));
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    Status
    parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected '\"'");
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return Status();
            if (c == '\\') {
                if (pos_ >= text_.size())
                    break;
                const char e = text_[pos_++];
                switch (e) {
                  case '"':
                    out += '"';
                    break;
                  case '\\':
                    out += '\\';
                    break;
                  case '/':
                    out += '/';
                    break;
                  case 'n':
                    out += '\n';
                    break;
                  case 't':
                    out += '\t';
                    break;
                  case 'r':
                    out += '\r';
                    break;
                  case 'b':
                    out += '\b';
                    break;
                  case 'f':
                    out += '\f';
                    break;
                  case 'u': {
                    if (pos_ + 4 > text_.size())
                        return fail("truncated \\u escape");
                    // Our exporters only escape control bytes; fold
                    // anything else to '?' rather than decode UTF-16.
                    const unsigned long cp = std::strtoul(
                        text_.substr(pos_, 4).c_str(), nullptr, 16);
                    out += cp < 0x80 ? static_cast<char>(cp) : '?';
                    pos_ += 4;
                    break;
                  }
                  default:
                    return fail("unknown escape");
                }
            } else {
                out += c;
            }
        }
        return fail("unterminated string");
    }

    Status
    parseValue(JsonValue &out, std::size_t depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        const char c = text_[pos_];
        if (c == '{')
            return parseObject(out, depth);
        if (c == '[')
            return parseArray(out, depth);
        if (c == '"') {
            out.type = JsonValue::Type::kString;
            return parseString(out.str);
        }
        if (c == 't' || c == 'f')
            return parseKeyword(out);
        if (c == 'n')
            return parseKeyword(out);
        return parseNumber(out);
    }

    Status
    parseKeyword(JsonValue &out)
    {
        static const struct
        {
            const char *word;
            JsonValue::Type type;
            bool value;
        } kWords[] = {
            {"true", JsonValue::Type::kBool, true},
            {"false", JsonValue::Type::kBool, false},
            {"null", JsonValue::Type::kNull, false},
        };
        for (const auto &w : kWords) {
            const std::size_t n = std::strlen(w.word);
            if (text_.compare(pos_, n, w.word) == 0) {
                out.type = w.type;
                out.boolean = w.value;
                pos_ += n;
                return Status();
            }
        }
        return fail("unknown keyword");
    }

    Status
    parseNumber(JsonValue &out)
    {
        const char *start = text_.c_str() + pos_;
        char *end = nullptr;
        const double v = std::strtod(start, &end);
        if (end == start)
            return fail("expected a value");
        if (!std::isfinite(v))
            return fail("non-finite number");
        out.type = JsonValue::Type::kNumber;
        out.number = v;
        pos_ += static_cast<std::size_t>(end - start);
        return Status();
    }

    Status
    parseObject(JsonValue &out, std::size_t depth)
    {
        consume('{');
        out.type = JsonValue::Type::kObject;
        skipWs();
        if (consume('}'))
            return Status();
        for (;;) {
            skipWs();
            std::string key;
            Status s = parseString(key);
            if (!s.ok())
                return s;
            skipWs();
            if (!consume(':'))
                return fail("expected ':'");
            JsonValue child;
            s = parseValue(child, depth + 1);
            if (!s.ok())
                return s;
            out.members.emplace_back(std::move(key),
                                     std::move(child));
            skipWs();
            if (consume(','))
                continue;
            if (consume('}'))
                return Status();
            return fail("expected ',' or '}'");
        }
    }

    Status
    parseArray(JsonValue &out, std::size_t depth)
    {
        consume('[');
        out.type = JsonValue::Type::kArray;
        skipWs();
        if (consume(']'))
            return Status();
        for (;;) {
            JsonValue child;
            Status s = parseValue(child, depth + 1);
            if (!s.ok())
                return s;
            out.items.push_back(std::move(child));
            skipWs();
            if (consume(','))
                continue;
            if (consume(']'))
                return Status();
            return fail("expected ',' or ']'");
        }
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // anonymous namespace

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &[k, v] : members) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

StatusOr<JsonValue>
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

double
jsonNumberAt(const JsonValue *obj, const std::string &key,
             double fallback)
{
    const JsonValue *v = obj != nullptr ? obj->find(key) : nullptr;
    return (v != nullptr && v->type == JsonValue::Type::kNumber)
        ? v->number
        : fallback;
}

std::string
jsonStringAt(const JsonValue *obj, const std::string &key)
{
    const JsonValue *v = obj != nullptr ? obj->find(key) : nullptr;
    return (v != nullptr && v->type == JsonValue::Type::kString)
        ? v->str
        : std::string();
}

} // namespace dlw
