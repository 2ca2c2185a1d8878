/**
 * @file
 * Minimal streaming JSON writer for telemetry output.
 *
 * Every number is rendered with std::to_chars, so the output is
 * locale-independent and byte-for-byte reproducible across hosts --
 * a requirement for the diffable run reports and the byte-identity
 * CI check. The writer is append-only: callers open objects/arrays,
 * emit fields, and take the finished string.
 */

#ifndef NIFDY_SIM_JSON_HH
#define NIFDY_SIM_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace nifdy
{

class JsonWriter
{
  public:
    JsonWriter() = default;

    //! @name Structure
    //! @{
    void beginObject();
    void endObject();
    void beginArray();
    void endArray();
    /** Emit an object key; the next value call supplies its value. */
    void key(std::string_view k);
    //! @}

    //! @name Values
    //! @{
    void value(std::string_view s);
    void value(const char *s) { value(std::string_view(s)); }
    void value(double v);
    void value(std::int64_t v);
    void value(std::uint64_t v);
    void value(int v) { value(static_cast<std::int64_t>(v)); }
    void value(unsigned v) { value(static_cast<std::uint64_t>(v)); }
    void value(bool v);
    void valueNull();
    /** Splice pre-rendered JSON in value position. */
    void raw(std::string_view json);
    //! @}

    //! @name Key + value shorthands
    //! @{
    template <typename T>
    void field(std::string_view k, T v)
    {
        key(k);
        value(v);
    }
    //! @}

    const std::string &str() const { return out_; }
    std::string take() { return std::move(out_); }

    /** JSON-escape @p s (without surrounding quotes). */
    static std::string escape(std::string_view s);
    /** Locale-independent shortest-round-trip rendering of @p v. */
    static std::string numStr(double v);
    static std::string numStr(std::uint64_t v);
    static std::string numStr(std::int64_t v);

  private:
    /** Insert a separating comma if a value already sits at the
     * current nesting level. */
    void separate();
    void noteValue();

    std::string out_;
    /** One entry per open container: true once it holds a value. */
    std::vector<bool> hasValue_;
    bool afterKey_ = false;
};

/**
 * The output file name for a telemetry sink asked to write @p path:
 * @p path itself on its first use in the process, then "name.2.ext",
 * "name.3.ext", ... on later uses. The tracer and the metric stream
 * both name their files through this, so a bench that builds several
 * experiments never clobbers an earlier experiment's file.
 */
std::string uniquifyPath(const std::string &path);

} // namespace nifdy

#endif // NIFDY_SIM_JSON_HH
