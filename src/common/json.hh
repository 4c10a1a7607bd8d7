/**
 * @file
 * The one JSON module: a small streaming writer and a minimal reader.
 *
 * Every JSON byte dlw emits (the metrics exporters, Chrome traces,
 * characterization and session reports, the daemon's HTTP bodies)
 * goes through JsonWriter, so string escaping and number formatting
 * have exactly one definition:
 *
 *   strings  '"' '\\' '\n' '\r' '\t' as two-character escapes, other
 *            control bytes as \u00XX, everything else verbatim
 *            (UTF-8 passes through byte for byte)
 *   num      integers in decimal, doubles as %.12g
 *   fixed    doubles with a fixed number of decimals (%.1f, %.3f)
 *   raw      a pre-rendered JSON fragment, inserted as one value
 *
 * The writer has no policy for non-finite doubles: callers decide
 * (the metrics exporters clamp to 0, the characterization emits
 * null) before handing it a value.
 *
 * The reader is a depth-limited recursive descent over objects,
 * arrays, strings, numbers, bools and null; `dlwtool bench-diff`,
 * `dlwtool top`, the trace re-projection and the tests use it.
 */

#ifndef DLW_COMMON_JSON_HH
#define DLW_COMMON_JSON_HH

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.hh"

namespace dlw
{

/**
 * Appends compact JSON to a string, inserting commas between
 * siblings.  Methods chain:
 *
 *   JsonWriter w(out);
 *   w.beginObject().key("n").num(3).key("s").str("x").endObject();
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::string &out) : out_(out) {}

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Member name; the next call writes its value. */
    JsonWriter &key(std::string_view k);

    /** Escaped string value. */
    JsonWriter &str(std::string_view s);

    /** Integer value. */
    template <std::integral T>
        requires(!std::same_as<T, bool>)
    JsonWriter &
    num(T v)
    {
        separate();
        out_ += std::to_string(v);
        return *this;
    }

    /** Double value as %.12g; the caller has dealt with non-finite. */
    JsonWriter &num(double v);

    /** Double value with `decimals` fixed decimals (%.*f). */
    JsonWriter &fixed(double v, int decimals);

    JsonWriter &boolean(bool v);
    JsonWriter &null();

    /** A pre-rendered JSON value, inserted verbatim. */
    JsonWriter &raw(std::string_view json);

  private:
    /** Comma before a sibling; nothing right after a key. */
    void separate();

    JsonWriter &open(char bracket);
    JsonWriter &close(char bracket);

    std::string &out_;
    /** Per open container: has it written a member yet? */
    std::vector<bool> nonempty_;
    bool after_key_ = false;
};

/** A double as %.12g (the writer's num form), for non-JSON text too. */
std::string formatNumber(double v);

/**
 * One parsed JSON value (tree).
 */
struct JsonValue
{
    enum class Type
    {
        kNull,
        kBool,
        kNumber,
        kString,
        kObject,
        kArray,
    };

    Type type = Type::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    /** Object members in source order. */
    std::vector<std::pair<std::string, JsonValue>> members;
    std::vector<JsonValue> items;

    /** Member lookup (objects only); nullptr when absent. */
    const JsonValue *find(const std::string &key) const;
};

/** Parse a complete JSON document (trailing junk is an error). */
StatusOr<JsonValue> parseJson(const std::string &text);

/** Number member `key` of `obj`, or `fallback` (null obj allowed). */
double jsonNumberAt(const JsonValue *obj, const std::string &key,
                    double fallback = 0.0);

/** String member `key` of `obj`, or "" (null obj allowed). */
std::string jsonStringAt(const JsonValue *obj, const std::string &key);

} // namespace dlw

#endif // DLW_COMMON_JSON_HH
