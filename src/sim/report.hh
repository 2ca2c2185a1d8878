/**
 * @file
 * Machine-readable run reports.
 *
 * A RunReport is the single source of truth for what a bench or
 * harness run produced: the stdout tables, the scalar summary
 * metrics (goodput, latency percentiles, fault/retransmission
 * accounting), the config echo, and any recorded time series all
 * live in one object, which renders either as the familiar aligned
 * text (print()) or as a schema-versioned JSON document
 * (writeJson(), the `--json <path>` bench flag). Schema changes bump
 * reportSchema; see DESIGN.md section 8 for the version policy.
 */

#ifndef NIFDY_SIM_REPORT_HH
#define NIFDY_SIM_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/table.hh"

namespace nifdy
{

class Config;
class TimeSeries;

inline constexpr const char *reportSchema = "nifdy-report-1";

/**
 * Write @p content to @p path atomically: write + fsync a
 * pid-unique temporary in the same directory, then rename() over the
 * destination. A reader (or a crash) never observes a truncated
 * file -- it sees either the old bytes or the new bytes, which is
 * what lets the campaign engine treat any unparsable worker report
 * as a worker fault rather than a torn write.
 */
void writeFileAtomic(const std::string &path,
                     const std::string &content);

class RunReport
{
  public:
    /** @p tool names the producing bench/harness binary. */
    explicit RunReport(std::string tool);

    //! @name Content
    //! @{
    /** Echo one config key (taken verbatim into the JSON). */
    void echoConfig(const std::string &key, const std::string &value);
    /** Echo every key of @p conf. */
    void echoConfig(const Config &conf);

    /** Attach a result table (also printed by print()). */
    void addTable(Table table);

    /** Scalar summary metrics; names follow the DESIGN.md section 8
     * taxonomy (component.noun[.verb]). */
    void addMetric(const std::string &name, double v);
    void addMetric(const std::string &name, std::uint64_t v);
    void addMetric(const std::string &name, std::int64_t v);

    /**
     * Host-time figures for the nondeterministic "profile" section
     * (wall-clock nanoseconds, rates). The section is rendered with
     * a leading "nondeterministic": true marker and is excluded by
     * json(false), the byte-identity comparison form; everything
     * deterministic belongs in addMetric instead. See DESIGN.md
     * section 12.
     */
    void addProfile(const std::string &name, double v);
    void addProfile(const std::string &name, std::uint64_t v);

    /** Attach a recorded time series (serialized in full). */
    void addSeries(const TimeSeries &ts);

    /** Free-form note, printed after the tables. */
    void addNote(std::string note);
    //! @}

    //! @name Rendering
    //! @{
    /** Print tables (aligned text, or CSV when @p csv) and notes to
     * stdout through the log funnel. */
    void print(bool csv = false) const;

    /**
     * The JSON document. @p includeProfile false omits the
     * nondeterministic "profile" section -- the form byte-identity
     * comparisons (tests, CI's byte-identity steps) must use.
     */
    std::string json(bool includeProfile = true) const;

    /** Write json() to @p path. */
    void writeJson(const std::string &path) const;
    //! @}

    const std::vector<Table> &tables() const { return tables_; }

  private:
    std::string tool_;
    std::map<std::string, std::string> config_;
    /** Metric values pre-rendered as JSON number strings (keeps one
     * map regardless of arithmetic type, deterministic order). */
    std::map<std::string, std::string> metrics_;
    /** Nondeterministic host-time figures (the "profile" section). */
    std::map<std::string, std::string> profile_;
    std::vector<Table> tables_;
    std::vector<std::string> seriesJson_;
    std::vector<std::string> notes_;
};

} // namespace nifdy

#endif // NIFDY_SIM_REPORT_HH
