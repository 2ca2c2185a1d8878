/**
 * @file
 * Host-cost profiler: where does the simulator's *host* time go?
 *
 * The simulated side of a run is fully observable (metrics, trace,
 * latency anatomy); this layer does the same for the simulator
 * itself, as the measurement basis for the "make the kernel fast"
 * roadmap item. It attributes host nanoseconds to every registered
 * Steppable -- rolled up by component class (router / nifdy-nic /
 * plain-nic / proc / fault-driver) and by kernel phase (the probe
 * bus's end-of-cycle slot, trace emit, kernel self time) -- and
 * keeps an idle-work account: the fraction of step() calls that
 * made no observable progress per component, the number that
 * quantifies the idle-skipping headroom directly.
 *
 * Cost model: the profiler is attached to the experiment's probe bus
 * (sim/probes.hh) but takes no events; the kernel's hot loop pays
 * one pointer test while none is attached (profile.enabled defaults
 * to off), so profile-off runs produce byte-identical reports. When
 * attached, progress/idle counters run every cycle (they are
 * deterministic and appear in the normal report metrics), but the
 * host clock is only read on every profile.interval-th cycle
 * ("timed cycles"), bounding the overhead.
 *
 * Timed cycles use a chained clock: one read at loop entry, one
 * after each component, one after the end-of-cycle slot, one at
 * loop exit. Each delta is charged to exactly one component or
 * phase, so the per-component and per-phase nanoseconds telescope to
 * the measured loop time *exactly* -- the conservation invariant
 * checked by tests/test_profile.cc. Trace emit happens outside the
 * step loop (file close), so its phase account is additional to, not
 * part of, the loop conservation sum.
 *
 * Determinism quarantine: host-time figures are nondeterministic by
 * nature and are confined to the report's clearly-marked "profile"
 * section (RunReport::addProfile), which byte-identity comparisons
 * exclude (RunReport::json(false)). The step/idle counters are pure
 * functions of the simulation and live in the normal metrics
 * section. See DESIGN.md section 12.
 */

#ifndef NIFDY_SIM_PROFILE_HH
#define NIFDY_SIM_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace nifdy
{

class RunReport;
class Steppable;

/**
 * The kernel's end-of-cycle slot (and the out-of-loop trace emit)
 * charged separately from the per-component step costs. `self` is
 * the kernel's own loop overhead on a timed cycle: idle bookkeeping,
 * cycle advance, and the profiler's final clock read.
 */
enum class ProfPhase : int
{
    probes,    //!< the probe bus's end-of-cycle slot (Probes::endCycle)
    traceEmit, //!< trace buffer rendering + write (Tracer::close)
    self       //!< kernel loop overhead outside any component
};

inline constexpr int numProfPhases = 3;

/** Short slugs, report-key suffixes ("host.phase.<slug>.ns"). */
inline constexpr const char *profPhaseSlugs[numProfPhases] = {
    "probes",
    "trace",
    "self",
};

/** Runtime knobs (CLI: profile.enabled / profile.interval). */
struct ProfileConfig
{
    /** Master switch; off = the kernel loop pays one pointer test. */
    bool enabled = false;
    /** Cycles between host-clock samples (timed cycles); the
     * deterministic step/idle counters always run every cycle. */
    Cycle interval = 32;

    /** Fatal on out-of-range knobs. */
    void validate() const;
};

/**
 * The host-cost sink. The kernel drives it while it is attached to
 * the kernel's probe bus; host work outside the loop (the trace file
 * write) charges it through ScopedPhase.
 */
class Profiler
{
  public:
    explicit Profiler(const ProfileConfig &cfg);
    Profiler(const Profiler &) = delete;
    Profiler &operator=(const Profiler &) = delete;

    /** Monotonic host clock, integer nanoseconds. */
    static std::uint64_t hostNowNs();

    /**
     * (Re)bind the per-component accounts to the kernel's component
     * list; cheap size check per cycle, allocation only when the
     * registry actually changed (before steady state).
     */
    void sync(const std::vector<Steppable *> &objects);

    /** Is @p now a host-clock-sampled cycle? */
    bool timedCycle(Cycle now) const
    {
        return now % cfg_.interval == 0;
    }

    //! @name Kernel driving (Kernel::stepProfiled)
    //! @{
    /** Deterministic account only (untimed cycles). */
    void componentStep(std::size_t i, bool progressed);
    /** Counter update + chained clock read (timed cycles). */
    void componentTimed(std::size_t i, bool progressed);
    /** Open the timed-cycle clock chain. */
    void beginTimed();
    /** Close the open segment into @p ph (the end-of-cycle slot). */
    void phaseTimed(ProfPhase ph);
    /** Close the chain: residue -> self, total -> loop time. */
    void endTimed();
    /** One profiled cycle completed (timed or not). */
    void countCycle() { ++cycles_; }
    //! @}

    /** Charge @p ns to phase @p ph directly (ScopedPhase). */
    void addPhaseNs(ProfPhase ph, std::uint64_t ns)
    {
        phaseNs_[static_cast<int>(ph)] += ns;
    }

    /**
     * RAII scope charging its lifetime to phase @p ph of @p p, for
     * host work outside the kernel loop (trace emit). Does nothing
     * when @p p is null.
     */
    class ScopedPhase
    {
      public:
        ScopedPhase(Profiler *p, ProfPhase ph)
            : p_(p), ph_(ph), t0_(p_ ? hostNowNs() : 0)
        {
        }
        ~ScopedPhase()
        {
            if (p_)
                p_->addPhaseNs(ph_, hostNowNs() - t0_);
        }
        ScopedPhase(const ScopedPhase &) = delete;
        ScopedPhase &operator=(const ScopedPhase &) = delete;

      private:
        Profiler *p_;
        ProfPhase ph_;
        std::uint64_t t0_;
    };

    //! @name Aggregates
    //! @{
    /** Cycles executed with the profiler attached. */
    std::uint64_t cycles() const { return cycles_; }
    /** Cycles on which the host clock was sampled. */
    std::uint64_t timedCycles() const { return timedCycles_; }
    /** Total measured loop time over all timed cycles. */
    std::uint64_t loopNs() const { return loopNs_; }
    std::uint64_t phaseNs(ProfPhase ph) const
    {
        return phaseNs_[static_cast<int>(ph)];
    }
    /** Component classes in first-seen registration order. */
    const std::vector<std::string> &classes() const
    {
        return classes_;
    }
    /** Host ns charged to components of class @p c (timed cycles). */
    std::uint64_t classNs(std::size_t c) const;
    /** step() calls on components of class @p c (every cycle; a
     * sleeping component takes none). */
    std::uint64_t classSteps(std::size_t c) const;
    /** ...of which made no observable progress. */
    std::uint64_t classIdleSteps(std::size_t c) const;
    //! @}

    /**
     * Add the account to @p rep: the deterministic step/idle counters
     * as "profile.<scope>..." metrics, the host-time figures as
     * "host.<scope>..." entries of the nondeterministic profile
     * section. @p scope is empty for a run report, "<tag>." for a
     * bench's per-configuration group.
     */
    void reportMetrics(RunReport &rep, const std::string &scope) const;

  private:
    /** Cold rebuild of the per-component accounts. */
    void attach(const std::vector<Steppable *> &objects);

    struct Comp
    {
        std::uint64_t steps = 0;
        std::uint64_t idleSteps = 0;
        std::uint64_t ns = 0;
        std::size_t cls = 0; //!< index into classes_
    };

    ProfileConfig cfg_;
    std::vector<Comp> comps_;
    std::vector<std::string> classes_;
    std::uint64_t cycles_ = 0;
    std::uint64_t timedCycles_ = 0;
    std::uint64_t loopNs_ = 0;
    std::uint64_t phaseNs_[numProfPhases] = {0, 0, 0};
    /** Timed-cycle clock chain: loop entry and last segment close. */
    std::uint64_t chainBegin_ = 0;
    std::uint64_t chainLast_ = 0;
};

/**
 * Per-cycle hot-path pieces, defined out of class so nifdylint's
 * hot-alloc rule covers them: pure counter arithmetic on storage
 * preallocated by attach(), no heap traffic (verified by the
 * allocation gate in tests/test_profile.cc).
 */

NIFDY_HOT inline void
Profiler::sync(const std::vector<Steppable *> &objects)
{
    if (comps_.size() != objects.size()) [[unlikely]]
        attach(objects);
}

NIFDY_HOT inline void
Profiler::componentStep(std::size_t i, bool progressed)
{
    Comp &c = comps_[i];
    ++c.steps;
    if (!progressed)
        ++c.idleSteps;
}

NIFDY_HOT inline void
Profiler::componentTimed(std::size_t i, bool progressed)
{
    Comp &c = comps_[i];
    ++c.steps;
    if (!progressed)
        ++c.idleSteps;
    std::uint64_t t = hostNowNs();
    c.ns += t - chainLast_;
    chainLast_ = t;
}

} // namespace nifdy

#endif // NIFDY_SIM_PROFILE_HH
