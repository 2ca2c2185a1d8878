/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Each traffic source owns a dedicated Rng seeded from a (global
 * seed, stream id) pair, so that the generated workload is identical
 * regardless of which network or NIC configuration is simulated
 * (paper, Section 3: "Dedicated state for each pseudo-random number
 * generator ensures that the same sequence of bursts is generated
 * regardless of network and NIFDY configuration used").
 */

#ifndef NIFDY_SIM_RNG_HH
#define NIFDY_SIM_RNG_HH

#include <cstdint>

namespace nifdy
{

/**
 * xoshiro256** generator with SplitMix64 seeding. Small, fast, and
 * high quality; one instance per independent stream.
 */
class Rng
{
  public:
    /** Seed from a global seed and a stream identifier. */
    explicit Rng(std::uint64_t seed = 1, std::uint64_t stream = 0);

    /** Uniform 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound). bound must be > 0. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t range(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli trial with probability p of returning true. */
    bool chance(double p);

  private:
    std::uint64_t s_[4];
};

/**
 * Deterministic subset selection by id: keeps an id when the
 * SplitMix64 finalizer of (id ^ seed) falls in the first @p rate of
 * the u64 range. The tracer and the latency anatomy sample whole
 * packet lifecycles with it, keyed on Packet::rootId().
 */
class IdSampler
{
  public:
    /** @p rate in [0, 1]; 1 keeps every id, 0 none. */
    IdSampler(double rate, std::uint64_t seed);

    bool keep(std::uint64_t id) const;

  private:
    std::uint64_t threshold_;
    std::uint64_t seed_;
};

} // namespace nifdy

#endif // NIFDY_SIM_RNG_HH
