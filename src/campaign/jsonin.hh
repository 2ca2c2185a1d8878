/**
 * @file
 * Minimal recursive-descent JSON reader for the campaign engine.
 *
 * The simulator only ever *writes* JSON (src/sim/json.hh); the
 * campaign layer also has to *read* it: campaign specs, journal
 * records, and the nifdy-report-1 documents workers hand back. The
 * reader is strict -- trailing garbage, truncated documents and
 * malformed escapes are parse errors, never silently accepted --
 * because the supervisor uses "does it parse" as the integrity check
 * for worker reports (a killed worker must not leave a file that
 * parses as a complete report; see DESIGN.md section 11).
 *
 * Numbers keep their raw source token so a value can be re-rendered
 * byte-identically into the aggregate (no double round-trip), and
 * object members preserve source order for the same reason.
 */

#ifndef NIFDY_CAMPAIGN_JSONIN_HH
#define NIFDY_CAMPAIGN_JSONIN_HH

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nifdy
{

class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    /** Raw source token for Kind::Number (verbatim re-render). */
    std::string number;
    /** Decoded text for Kind::String. */
    std::string text;
    std::vector<JsonValue> items;
    /** Members in source order (worker reports emit sorted keys). */
    std::vector<std::pair<std::string, JsonValue>> members;

    bool isNull() const { return kind == Kind::Null; }
    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isNumber() const { return kind == Kind::Number; }

    /** Member lookup (nullptr when absent or not an object). */
    const JsonValue *find(std::string_view key) const;

    /** The member as a string; @p fallback when absent. Numbers and
     * bools render to their source token ("3", "true"). */
    std::string getString(std::string_view key,
                          const std::string &fallback = "") const;

    double asDouble() const;
    long asInt() const;

    /** Re-render this value as JSON (numbers verbatim, object
     * members in stored order). */
    std::string render() const;
};

/**
 * Parse @p text as exactly one JSON document. On failure the
 * returned value is Null and @p err (if non-null) describes the
 * problem and its byte offset; on success @p err is cleared.
 */
JsonValue parseJson(std::string_view text, std::string *err = nullptr);

/** parseJson() over a whole file; missing files are parse errors. */
JsonValue parseJsonFile(const std::string &path,
                        std::string *err = nullptr);

} // namespace nifdy

#endif // NIFDY_CAMPAIGN_JSONIN_HH
