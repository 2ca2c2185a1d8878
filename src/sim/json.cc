#include "sim/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>

namespace nifdy
{

namespace
{

template <typename T>
std::string
toCharsStr(T v)
{
    char buf[64];
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    (void)ec; // 64 bytes always suffice for arithmetic types
    return std::string(buf, end);
}

} // namespace

std::string
JsonWriter::numStr(double v)
{
    // JSON has no NaN/Inf; pin them to null-adjacent sentinels that
    // still parse (tests assert finite values anyway).
    if (!std::isfinite(v))
        return "0";
    return toCharsStr(v);
}

std::string
JsonWriter::numStr(std::uint64_t v)
{
    return toCharsStr(v);
}

std::string
JsonWriter::numStr(std::int64_t v)
{
    return toCharsStr(v);
}

std::string
JsonWriter::escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

void
JsonWriter::separate()
{
    if (afterKey_)
        return; // key() already placed the comma
    if (!hasValue_.empty() && hasValue_.back())
        out_ += ',';
}

void
JsonWriter::noteValue()
{
    afterKey_ = false;
    if (!hasValue_.empty())
        hasValue_.back() = true;
}

void
JsonWriter::beginObject()
{
    separate();
    out_ += '{';
    hasValue_.push_back(false);
    afterKey_ = false;
}

void
JsonWriter::endObject()
{
    out_ += '}';
    hasValue_.pop_back();
    noteValue();
}

void
JsonWriter::beginArray()
{
    separate();
    out_ += '[';
    hasValue_.push_back(false);
    afterKey_ = false;
}

void
JsonWriter::endArray()
{
    out_ += ']';
    hasValue_.pop_back();
    noteValue();
}

void
JsonWriter::key(std::string_view k)
{
    if (!hasValue_.empty() && hasValue_.back())
        out_ += ',';
    out_ += '"';
    out_ += escape(k);
    out_ += "\":";
    afterKey_ = true;
}

void
JsonWriter::value(std::string_view s)
{
    separate();
    out_ += '"';
    out_ += escape(s);
    out_ += '"';
    noteValue();
}

void
JsonWriter::value(double v)
{
    separate();
    out_ += numStr(v);
    noteValue();
}

void
JsonWriter::value(std::int64_t v)
{
    separate();
    out_ += numStr(v);
    noteValue();
}

void
JsonWriter::value(std::uint64_t v)
{
    separate();
    out_ += numStr(v);
    noteValue();
}

void
JsonWriter::value(bool v)
{
    separate();
    out_ += v ? "true" : "false";
    noteValue();
}

void
JsonWriter::valueNull()
{
    separate();
    out_ += "null";
    noteValue();
}

void
JsonWriter::raw(std::string_view json)
{
    separate();
    out_ += json;
    noteValue();
}

std::string
uniquifyPath(const std::string &path)
{
    // nifdy:static-ok(process-wide output-path dedup; file naming only, never behavioral)
    static std::map<std::string, int> uses;
    int n = ++uses[path];
    if (n == 1)
        return path;
    std::string suffix = "." + JsonWriter::numStr(std::int64_t(n));
    std::size_t dot = path.rfind('.');
    std::size_t slash = path.rfind('/');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return path + suffix;
    return path.substr(0, dot) + suffix + path.substr(dot);
}

} // namespace nifdy
