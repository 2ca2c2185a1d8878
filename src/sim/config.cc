#include "sim/config.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "sim/log.hh"

namespace nifdy
{

namespace
{

/** Case-insensitive edit distance (typo distance between keys). */
std::size_t
editDistance(const std::string &a, const std::string &b)
{
    auto fold = [](char c) {
        return std::tolower(static_cast<unsigned char>(c));
    };
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            std::size_t up = row[j];
            std::size_t sub = diag + (fold(a[i - 1]) != fold(b[j - 1]));
            row[j] = std::min({up + 1, row[j - 1] + 1, sub});
            diag = up;
        }
    }
    return row[b.size()];
}

} // namespace

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

void
Config::set(const std::string &key, long value)
{
    values_[key] = std::to_string(value);
}

void
Config::set(const std::string &key, double value)
{
    std::ostringstream os;
    os << value;
    values_[key] = os.str();
}

void
Config::set(const std::string &key, bool value)
{
    values_[key] = value ? "true" : "false";
}

bool
Config::has(const std::string &key) const
{
    return values_.count(key) != 0;
}

std::string
Config::getString(const std::string &key) const
{
    auto it = values_.find(key);
    fatal_if(it == values_.end(), "missing config key '%s'", key.c_str());
    return it->second;
}

void
Config::parseArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string tok(argv[i]);
        auto eq = tok.find('=');
        if (eq == std::string::npos || eq == 0) {
            args_.push_back(tok);
            argConsumed_.push_back(false);
            continue;
        }
        set(tok.substr(0, eq), tok.substr(eq + 1));
    }
}

const std::string *
Config::bind(const std::string &name, std::string def, std::string doc,
             bool isFlag) const
{
    bool listed = std::any_of(
        bindings_.begin(), bindings_.end(),
        [&](const Binding &b) { return b.name == name; });
    if (!listed)
        bindings_.push_back({name, std::move(def), std::move(doc), isFlag});
    consumed_.insert(name);
    auto it = values_.find(name);
    return it == values_.end() ? nullptr : &it->second;
}

void
Config::reject(const std::string &name, const std::string &value,
               const std::string &want)
{
    fatal("config key '%s' has value '%s'; want %s", name.c_str(),
          value.c_str(), want.c_str());
}

std::string
Config::render(double v)
{
    char buf[32];
    auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

bool
Config::parseBool(const std::string &name, const std::string &v)
{
    if (v == "true" || v == "1" || v == "yes" || v == "on")
        return true;
    if (v == "false" || v == "0" || v == "no" || v == "off")
        return false;
    reject(name, v, "a boolean (true/1/yes/on or false/0/no/off)");
}

double
Config::parseDouble(const std::string &name, const std::string &v)
{
    double out = 0;
    const char *end = v.data() + v.size();
    auto [ptr, ec] = std::from_chars(v.data(), end, out);
    if (ec != std::errc() || ptr != end || !std::isfinite(out))
        reject(name, v, "a finite number");
    return out;
}

bool
Config::flag(const std::string &name, const std::string &doc) const
{
    bind(name, "", doc, true);
    bool given = false;
    for (std::size_t i = 0; i < args_.size(); ++i) {
        if (!argConsumed_[i] && args_[i] == name) {
            argConsumed_[i] = true;
            given = true;
        }
    }
    return given;
}

bool
Config::flag(const std::string &name, std::string &value,
             const std::string &doc) const
{
    bind(name, "VALUE", doc, true);
    bool given = false;
    for (std::size_t i = 0; i < args_.size(); ++i) {
        if (argConsumed_[i] || args_[i] != name)
            continue;
        fatal_if(i + 1 == args_.size(), "%s needs a value",
                 name.c_str());
        argConsumed_[i] = argConsumed_[i + 1] = true;
        value = args_[++i];
        given = true;
    }
    return given;
}

std::string
Config::knobList() const
{
    std::string out;
    for (const Binding &b : bindings_)
        if (!b.isFlag)
            out += b.name + "\t" + b.def + "\t" + b.doc + "\n";
    return out;
}

std::string
Config::help() const
{
    std::string knobs = "keys (key=value; default shown):\n";
    std::string flags = "flags:\n";
    for (const Binding &b : bindings_) {
        std::string lhs = b.name + (b.isFlag ? " " : "=") + b.def;
        lhs.resize(std::max<std::size_t>(lhs.size() + 1, 28), ' ');
        (b.isFlag ? flags : knobs) += "  " + lhs + b.doc + "\n";
    }
    return knobs + flags;
}

void
Config::close() const
{
    bool list = flag("--list-knobs",
                     "print name<TAB>default<TAB>doc per knob and exit");
    bool wantHelp = flag("--help", "print this reference and exit");
    auto it = values_.find("help");
    if (it != values_.end()) {
        consumed_.insert("help");
        wantHelp = wantHelp || parseBool("help", it->second);
    }
    if (list || wantHelp) {
        printRaw(list ? knobList() : help());
        std::exit(0);
    }

    // Every unconsumed argument, with the nearest bound name of the
    // same kind when it is a plausible typo: a few edits away, or a
    // truncation of the name (--list for --list-knobs).
    auto describe = [&](const std::string &what, const std::string &tok,
                        bool isFlag) {
        std::string best;
        std::size_t bestDist = tok.size() / 4 + 2;
        for (const Binding &b : bindings_) {
            std::size_t d = tok.size() > 2 && b.name.rfind(tok, 0) == 0
                                ? 1
                                : editDistance(tok, b.name);
            if (b.isFlag == isFlag && d < bestDist) {
                best = b.name;
                bestDist = d;
            }
        }
        return "unknown " + what + " '" + tok + "'" +
               (best.empty() ? "" : " (did you mean '" + best + "'?)");
    };
    std::string bad;
    for (const auto &kv : values_)
        if (!consumed_.count(kv.first))
            bad += (bad.empty() ? "" : "; ") +
                   describe("key", kv.first, false);
    for (std::size_t i = 0; i < args_.size(); ++i)
        if (!argConsumed_[i])
            bad += (bad.empty() ? "" : "; ") +
                   describe("argument", args_[i], true);
    fatal_if(!bad.empty(), "%s (see --help)", bad.c_str());
}

std::vector<std::string>
Config::keys() const
{
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto &kv : values_)
        out.push_back(kv.first);
    return out;
}

std::string
Config::toString() const
{
    std::ostringstream os;
    for (const auto &kv : values_)
        os << kv.first << "=" << kv.second << "\n";
    return os.str();
}

} // namespace nifdy
