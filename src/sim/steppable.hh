/**
 * @file
 * The component interface the simulation kernel steps. Kept apart
 * from kernel.hh so observers that are themselves components (the
 * congestion observatory) can be declared by the probe bus the
 * Kernel owns without an include cycle.
 */

#ifndef NIFDY_SIM_STEPPABLE_HH
#define NIFDY_SIM_STEPPABLE_HH

#include "sim/types.hh"

namespace nifdy
{

/** Anything advanced once per cycle by the Kernel. */
class Steppable
{
  public:
    virtual ~Steppable() = default;

    /** Advance one cycle. @param now the cycle being executed. */
    virtual void step(Cycle now) = 0;

    /**
     * Component-class label for the host-cost profiler's roll-up
     * (sim/profile.hh): "router", "nifdy-nic", "plain-nic", "proc",
     * "fault-driver". Must be a string constant, stable for the
     * component's lifetime.
     */
    virtual const char *profileClass() const { return "other"; }
};

} // namespace nifdy

#endif // NIFDY_SIM_STEPPABLE_HH
