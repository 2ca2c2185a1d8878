#include "sim/rng.hh"

#include "sim/log.hh"

namespace nifdy
{

namespace
{

constexpr std::uint64_t golden = 0x9e3779b97f4a7c15ULL;

/** The SplitMix64 finalizer: a deterministic 64-bit mix. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += golden;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
splitmix64(std::uint64_t &x)
{
    std::uint64_t z = mix64(x);
    x += golden;
    return z;
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

IdSampler::IdSampler(double rate, std::uint64_t seed)
    : threshold_(rate >= 1.0   ? ~std::uint64_t(0)
                 : rate <= 0.0 ? 0
                               : std::uint64_t(
                                     rate * double(~std::uint64_t(0)))),
      seed_(seed)
{
}

bool
IdSampler::keep(std::uint64_t id) const
{
    if (threshold_ == ~std::uint64_t(0))
        return true;
    if (threshold_ == 0)
        return false;
    return mix64(id ^ seed_) <= threshold_;
}

Rng::Rng(std::uint64_t seed, std::uint64_t stream)
{
    // Mix the stream id into the seed so distinct streams are
    // decorrelated even with adjacent ids.
    std::uint64_t x = seed ^ (stream * golden + 1);
    for (auto &s : s_)
        s = splitmix64(x);
    // xoshiro must not start from the all-zero state.
    if (!(s_[0] | s_[1] | s_[2] | s_[3]))
        s_[0] = 1;
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    panic_if(bound == 0, "Rng::nextBounded with zero bound");
    // Rejection sampling to remove modulo bias.
    std::uint64_t threshold = -bound % bound;
    for (;;) {
        std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::int64_t
Rng::range(std::int64_t lo, std::int64_t hi)
{
    panic_if(lo > hi, "Rng::range with lo > hi");
    return lo + static_cast<std::int64_t>(
        nextBounded(static_cast<std::uint64_t>(hi - lo) + 1));
}

double
Rng::nextDouble()
{
    return (next() >> 11) * 0x1.0p-53;
}

bool
Rng::chance(double p)
{
    return nextDouble() < p;
}

} // namespace nifdy
