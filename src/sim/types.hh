/**
 * @file
 * Fundamental scalar types shared by every simulation component.
 */

#ifndef NIFDY_SIM_TYPES_HH
#define NIFDY_SIM_TYPES_HH

#include <cstdint>
#include <limits>

namespace nifdy
{

/**
 * Marks a function as part of the simulator's per-cycle hot path.
 *
 * The annotation has two audiences: the compiler (branch/layout hint)
 * and tools/nifdylint, whose hot-path rules reject heap allocation
 * inside NIFDY_HOT function bodies unless the statement carries a
 * `// nifdy:alloc-ok(<reason>)` justification. The allocation gate
 * (tests/allocgate.cc) enforces the same contract at run time. See
 * DESIGN.md section 10.
 */
#define NIFDY_HOT __attribute__((hot))

/** Simulated time, in cycles. The whole simulator is cycle-accurate. */
using Cycle = std::uint64_t;

/** Identifier of a processing node (0 .. P-1). */
using NodeId = std::int32_t;

/** Identifier used for anything that is "not a node". */
constexpr NodeId invalidNode = -1;

/** Sentinel for "no cycle" / "never". */
constexpr Cycle neverCycle = std::numeric_limits<Cycle>::max();

/** Word size used throughout the paper's packet accounting (bytes). */
constexpr int bytesPerWord = 4;

/**
 * The two logically independent networks every topology provides in
 * order to break fetch deadlock (paper, Section 3). NIFDY acks for a
 * packet travel on the opposite class from the packet itself.
 */
enum class NetClass : std::uint8_t { request = 0, reply = 1 };

constexpr int numNetClasses = 2;

/** The class an ack must use, given the class of the data packet. */
constexpr NetClass
oppositeClass(NetClass c)
{
    return c == NetClass::request ? NetClass::reply : NetClass::request;
}

constexpr const char *
netClassName(NetClass c)
{
    return c == NetClass::request ? "request" : "reply";
}

} // namespace nifdy

#endif // NIFDY_SIM_TYPES_HH
