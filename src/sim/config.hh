/**
 * @file
 * Run-time configuration: key=value arguments bound to typed fields.
 *
 * The paper's simulator takes "most simulation parameters ... at run
 * time, allowing easy exploration of the design space". Each knob is
 * declared exactly once, where it is read: a binding call names the
 * key, the field it fills and a one-line doc, and takes the listed
 * default from the field's current value. The bindings a binary makes
 * are its knob listing (--help, --list-knobs), and one closing call
 * per binary rejects every argument that no binding read, so a
 * mistyped knob never runs a silently different experiment.
 */

#ifndef NIFDY_SIM_CONFIG_HH
#define NIFDY_SIM_CONFIG_HH

#include <charconv>
#include <initializer_list>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace nifdy
{

/**
 * Typed key/value configuration with "key=value" CLI parsing.
 *
 * Values are read only through the binding calls (knob(), choice(),
 * flag()), which also record what the binary accepts. Binding is
 * logically const: it fills the caller's fields and marks the key
 * consumed, so readers such as experimentFromConfig() take a const
 * Config and hand-built configs in tests need no closing call. That
 * bookkeeping is unsynchronized: bind one Config from one thread.
 */
class Config
{
  public:
    Config() = default;

    /** Set (or overwrite) a value. */
    void set(const std::string &key, const std::string &value);
    void set(const std::string &key, long value);
    void set(const std::string &key, double value);
    void set(const std::string &key, bool value);

    /** True iff the key was given. */
    bool has(const std::string &key) const;

    /**
     * Parse argv: "key=value" tokens become values, every other
     * token is kept for the flag() bindings.
     */
    void parseArgs(int argc, char **argv);

    /**
     * Bind knob @p name to @p field: list it with the field's current
     * value as its default, and when the key was given parse its
     * value with the field's own type. Integers are decimal and must
     * fit the field (no negatives into unsigned fields); doubles must
     * be finite; booleans are true/1/yes/on or false/0/no/off.
     * Anything else is fatal().
     */
    template <typename T>
    void knob(const std::string &name, T &field,
              const std::string &doc) const;

    /**
     * knob() for an integer with a lower bound, such as a count that
     * cannot run at zero: a given value below @p min is fatal(),
     * naming the knob, and --help and --list-knobs show the bound
     * after the doc.
     */
    template <typename T>
    void knob(const std::string &name, T &field, const std::string &doc,
              std::type_identity_t<T> min) const;

    /**
     * Bind an enumerated knob: @p spellings maps every accepted word
     * to its field value (aliases allowed); the listed default is the
     * first word for the field's current value.
     */
    template <typename T>
    void choice(const std::string &name, T &field,
                std::initializer_list<std::pair<const char *, T>>
                    spellings,
                const std::string &doc) const;

    /** Bind flag @p name (e.g. "--resume"); true iff it was given. */
    bool flag(const std::string &name, const std::string &doc) const;

    /** Bind flag @p name that takes the next token as its value
     * (e.g. "--dir DIR"); true iff it was given. */
    bool flag(const std::string &name, std::string &value,
              const std::string &doc) const;

    /** One "name<TAB>default<TAB>doc" line per bound knob. */
    std::string knobList() const;

    /** Human-readable reference of every bound knob and flag. */
    std::string help() const;

    /**
     * The closing call, once every reader has bound its knobs: on
     * --list-knobs print knobList(), on --help (or help=true) print
     * help(), and exit 0; otherwise fatal() on every key or argument
     * that no binding consumed, suggesting the nearest bound name.
     */
    void close() const;

    /** All keys, sorted (for dumping). */
    std::vector<std::string> keys() const;

    /** Render as "key=value" lines. */
    std::string toString() const;

  private:
    /** The report's config echo is the one raw reader of values. */
    friend class RunReport;

    /** One listing row: a knob, or a flag (listed by help() only). */
    struct Binding
    {
        std::string name;
        std::string def;
        std::string doc;
        bool isFlag;
    };

    /** Record a binding (first one wins) and mark @p name consumed;
     * returns the given value, or nullptr when the key is unset. */
    const std::string *bind(const std::string &name, std::string def,
                            std::string doc, bool isFlag) const;

    /** fatal(): @p value of @p name is not @p want. */
    [[noreturn]] static void reject(const std::string &name,
                                    const std::string &value,
                                    const std::string &want);

    static std::string render(bool v) { return v ? "true" : "false"; }
    static std::string render(const std::string &v) { return v; }
    static std::string render(double v);
    template <typename T>
    static std::string render(T v)
    {
        static_assert(std::is_integral_v<T>, "unsupported knob type");
        return std::to_string(v);
    }

    static bool parseBool(const std::string &name,
                          const std::string &v);
    static double parseDouble(const std::string &name,
                              const std::string &v);

    template <typename T>
    static T parse(const std::string &name, const std::string &v);

    /** Raw value of a given key (RunReport's echo). */
    std::string getString(const std::string &key) const;

    std::map<std::string, std::string> values_;
    /** argv tokens that are not key=value assignments. */
    std::vector<std::string> args_;
    mutable std::set<std::string> consumed_;
    mutable std::vector<bool> argConsumed_;
    mutable std::vector<Binding> bindings_;
};

template <typename T>
T
Config::parse(const std::string &name, const std::string &v)
{
    if constexpr (std::is_same_v<T, bool>) {
        return parseBool(name, v);
    } else if constexpr (std::is_same_v<T, std::string>) {
        return v;
    } else if constexpr (std::is_floating_point_v<T>) {
        return static_cast<T>(parseDouble(name, v));
    } else {
        static_assert(std::is_integral_v<T>, "unsupported knob type");
        T out{};
        const char *end = v.data() + v.size();
        auto [ptr, ec] = std::from_chars(v.data(), end, out, 10);
        if (ec != std::errc() || ptr != end)
            reject(name, v,
                   "a decimal integer in [" +
                       std::to_string(std::numeric_limits<T>::min()) +
                       ", " +
                       std::to_string(std::numeric_limits<T>::max()) +
                       "]");
        return out;
    }
}

template <typename T>
void
Config::knob(const std::string &name, T &field,
             const std::string &doc) const
{
    if (const std::string *v = bind(name, render(field), doc, false))
        field = parse<T>(name, *v);
}

template <typename T>
void
Config::knob(const std::string &name, T &field, const std::string &doc,
             std::type_identity_t<T> min) const
{
    static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>,
                  "a knob minimum needs an integer field");
    const std::string bound = ">= " + render(min);
    const std::string *v =
        bind(name, render(field), doc + " (" + bound + ")", false);
    if (!v)
        return;
    T value = parse<T>(name, *v);
    if (value < min)
        reject(name, *v, "an integer " + bound);
    field = value;
}

template <typename T>
void
Config::choice(const std::string &name, T &field,
               std::initializer_list<std::pair<const char *, T>>
                   spellings,
               const std::string &doc) const
{
    std::string def;
    std::string words;
    for (const auto &[word, value] : spellings) {
        if (def.empty() && value == field)
            def = word;
        words += (words.empty() ? "" : ", ") + std::string(word);
    }
    const std::string *v = bind(name, def, doc + ": " + words, false);
    if (!v)
        return;
    for (const auto &[word, value] : spellings) {
        if (*v == word) {
            field = value;
            return;
        }
    }
    reject(name, *v, "one of " + words);
}

} // namespace nifdy

#endif // NIFDY_SIM_CONFIG_HH
