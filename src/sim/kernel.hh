/**
 * @file
 * Cycle-synchronous simulation kernel.
 *
 * Every component implements Steppable and is advanced at most once
 * per simulated cycle. Inter-component communication goes through
 * Channel objects whose contents only become visible at a later
 * cycle, so the order in which components step within one cycle is
 * immaterial -- this mirrors the paper's fully synchronous simulator
 * ("Each cycle is simulated explicitly and synchronously by all
 * objects"). A component may sleep until the cycle of its next
 * possible work: the kernel skips the steps before it, which would
 * have changed nothing, so the result is the same as stepping every
 * component every cycle. Observers are not components: they watch
 * the loop through the kernel's probe bus (sim/probes.hh), whose
 * endCycle() slot runs once per cycle after every component has
 * stepped.
 */

#ifndef NIFDY_SIM_KERNEL_HH
#define NIFDY_SIM_KERNEL_HH

#include <functional>
#include <vector>

#include "sim/probes.hh"
#include "sim/types.hh"

namespace nifdy
{

/** Anything advanced by the Kernel, once per cycle while awake. */
class Steppable
{
  public:
    virtual ~Steppable() = default;

    /**
     * Advance one cycle. @param now the cycle being executed. The
     * kernel calls it on every cycle from wake() on; a component that
     * never sleeps is stepped every cycle.
     */
    virtual void step(Cycle now) = 0;

    /**
     * Component-class label for the host-cost profiler's roll-up
     * (sim/profile.hh): "router", "nifdy-nic", "plain-nic", "proc",
     * "fault-driver". Must be a string constant, stable for the
     * component's lifetime.
     */
    virtual const char *profileClass() const { return "other"; }

    /**
     * Cycles before this one count as activity for the kernel's
     * watchdog, stepped or not (a processor's busy time). The kernel
     * reads it only when a component reports that its busy time
     * ended early (Kernel::busyHorizonDropped()).
     */
    virtual Cycle busyUntil() const { return 0; }

    //! @name Sleep
    //! @{
    /** The first cycle the kernel steps this component again. */
    Cycle wake() const { return wake_; }

    /** Step by cycle @p at at the latest: an event that may give the
     * component work then reached it (a flit or credit in flight). */
    void wakeBy(Cycle at)
    {
        if (at < wake_)
            wake_ = at;
    }

    /** Step on the next cycle the kernel executes: an outside call
     * changed the component's state. */
    void wakeNow() { wake_ = 0; }
    //! @}

  protected:
    /**
     * Skip the steps before cycle @p at, none of which would act.
     * Called from step() once its work is done; a later wakeBy() or
     * wakeNow() lowers the wake again.
     */
    void sleepUntil(Cycle at) { wake_ = at; }

  private:
    Cycle wake_ = 0;
};

/**
 * The simulation engine: a registry of Steppable components and a
 * run loop with a no-progress watchdog.
 */
class Kernel
{
  public:
    Kernel() = default;
    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    /** Register a component (non-owning; must outlive the kernel). */
    void add(Steppable *obj);

    /** Current simulated cycle (the next one to execute). */
    Cycle now() const { return now_; }

    /** Execute exactly one cycle: step every awake component. */
    void step();

    /**
     * Run until @p done returns true or @p maxCycles have executed.
     * @return the cycle count at exit.
     *
     * If no component reports activity or is busy (noteBusyUntil())
     * for setWatchdogLimit() cycles while the predicate is still
     * false, the kernel panics,
     * naming the cycle and the component count -- this catches
     * protocol or routing deadlocks in simulations that should
     * otherwise make progress.
     */
    Cycle run(Cycle maxCycles,
              const std::function<bool()> &done = nullptr);

    /**
     * Components call this whenever they make observable progress
     * (move a flit, deliver a packet, start a busy period). Feeds
     * the deadlock watchdog, and -- via before/after comparisons of
     * the event counter around each step() call -- the profiler's
     * per-component idle-work account.
     */
    void noteActivity() { ++activityEvents_; }

    /**
     * A component is busy until cycle @p until (a processor charged
     * a software overhead): the watchdog counts every cycle before
     * it as active, while the component sleeps through them.
     */
    void noteBusyUntil(Cycle until)
    {
        if (until > busyHorizon_)
            busyHorizon_ = until;
    }

    /** A component's busy time ended early (a processor went
     * offline): rebuild the horizon from every busyUntil(). */
    void busyHorizonDropped();

    /** step() calls executed so far, over both loops. */
    std::uint64_t steps() const { return steps_; }

    /** Cycles of global inactivity tolerated before panicking. */
    void setWatchdogLimit(Cycle limit) { watchdogLimit_ = limit; }

    /**
     * The experiment's probe bus (sim/probes.hh). Components get a
     * pointer to it at wiring time; whoever owns the observers
     * attaches them here and detaches them before freeing them. Its
     * endCycle() slot runs at the end of every cycle, after all
     * components have stepped; while a profiler is attached, step()
     * takes the profiled path.
     */
    Probes &probes() { return probes_; }
    const Probes &probes() const { return probes_; }

  private:
    /** Build and raise the deadlock-watchdog panic message (cold:
     * keeps string formatting out of the hot run loop). */
    [[noreturn]] void watchdogPanic() const;

    /** step() with the attached profiler's accounts active. */
    void stepProfiled();

    /** Close cycle now_ for the watchdog and advance: @p before is
     * the activity count it opened with. */
    void closeCycle(std::uint64_t before);

    Cycle now_ = 0;
    /** Monotone count of noteActivity() calls. */
    std::uint64_t activityEvents_ = 0;
    /** The cycles before it are active (noteBusyUntil()). */
    Cycle busyHorizon_ = 0;
    std::uint64_t steps_ = 0;
    Cycle idleCycles_ = 0;
    Cycle watchdogLimit_ = 200000;
    std::vector<Steppable *> objects_;
    Probes probes_;
};

} // namespace nifdy

#endif // NIFDY_SIM_KERNEL_HH
