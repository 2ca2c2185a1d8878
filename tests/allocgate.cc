/**
 * @file
 * The allocation gate: the hot path's allocation-free steady state,
 * checked at run time (DESIGN.md section 10).
 *
 * The determinism contract promises that the post-warmup simulation
 * loop allocates nothing: every hot-path queue is a Ring that has
 * grown to its high-water mark, every pool has reached steady state.
 * nifdylint checks that statically inside NIFDY_HOT regions; this
 * file checks it dynamically. It replaces the global operator
 * new/delete family with counting versions, then counts the heap
 * allocations of six warmed-up windows: the fig2 heavy hot loop,
 * the same loop on a torus and on the adaptive mesh, the fat tree's
 * loop under the armed profiler, the offloaded collective steady
 * state and the congestion observatory's steady state.
 *
 * It builds into a test binary of its own, nifdy_allocgate_tests. A
 * replacement operator new serves every allocation in the binary
 * that defines it, so the interposer stays out of src/ (a library
 * member would be pulled into every bench) and out of nifdy_tests,
 * whose sanitizer builds keep their own operator new and its
 * new/delete mismatch checks.
 *
 * The gate measures the unaudited loop. NIFDY_AUDIT=1 attaches the
 * audit to every experiment, and its lifecycle checker adds a map
 * node for each new packet id by design, so the five experiment
 * windows skip under it.
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "net/channel.hh"
#include "net/packet.hh"
#include "sim/audit.hh"
#include "sim/config.hh"
#include "sim/congestion.hh"
#include "traffic/collective.hh"
#include "traffic/synthetic.hh"

namespace
{

std::atomic<bool> gateArmed{false};
std::atomic<std::uint64_t> gateAllocs{0};
std::atomic<std::uint64_t> gateBytes{0};

void
noteAlloc(std::size_t n)
{
    if (!gateArmed.load(std::memory_order_relaxed))
        return;
    gateAllocs.fetch_add(1, std::memory_order_relaxed);
    gateBytes.fetch_add(n, std::memory_order_relaxed);
}

void *
gateAllocate(std::size_t n)
{
    void *p = std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    noteAlloc(n);
    return p;
}

void *
gateAllocateNothrow(std::size_t n) noexcept
{
    void *p = std::malloc(n ? n : 1);
    if (p)
        noteAlloc(n);
    return p;
}

void *
gateAllocateAligned(std::size_t n, std::size_t align)
{
    void *p = std::aligned_alloc(align, (n + align - 1) / align * align);
    if (!p)
        throw std::bad_alloc();
    noteAlloc(n);
    return p;
}

} // namespace

// Replacing the global allocation functions is the documented,
// standard-sanctioned interposition point ([new.delete] "replaceable
// allocation functions"); every form forwards to the helpers above so
// counting stays consistent across new/new[]/nothrow/aligned.

void *
operator new(std::size_t n)
{
    return gateAllocate(n);
}

void *
operator new[](std::size_t n)
{
    return gateAllocate(n);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return gateAllocateNothrow(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return gateAllocateNothrow(n);
}

void *
operator new(std::size_t n, std::align_val_t align)
{
    return gateAllocateAligned(n, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t n, std::align_val_t align)
{
    return gateAllocateAligned(n, static_cast<std::size_t>(align));
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace nifdy
{
namespace
{

constexpr const char *auditedSkip =
    "NIFDY_AUDIT attaches the audit, whose per-packet maps allocate";

/** Runs @p window with the gate armed and expects it to allocate
 * nothing; @p what names the window in the failure message. */
template <typename Window>
void
expectNoAllocations(const char *what, Window &&window)
{
    gateAllocs.store(0, std::memory_order_relaxed);
    gateBytes.store(0, std::memory_order_relaxed);
    gateArmed.store(true, std::memory_order_relaxed);
    window();
    gateArmed.store(false, std::memory_order_relaxed);
    const std::uint64_t n = gateAllocs.load(std::memory_order_relaxed);
    EXPECT_EQ(n, 0u) << what << " allocated " << n << " times ("
                     << gateBytes.load(std::memory_order_relaxed)
                     << " bytes); hot-path queues and accounts must "
                        "pre-size to their high-water mark";
}

/** The bench_fig2_heavy shape at unit-test size on @p topology,
 * heavy synthetic traffic through the best-parameter NIFDY unit,
 * after @p warmup cycles that grow every ring to its high-water
 * mark, bring the packet pool to steady state and fill the protocol
 * maps. */
std::unique_ptr<Experiment>
warmHeavy(const std::string &topology, Cycle warmup, bool profiled)
{
    Config conf;
    conf.set("topology", topology);
    conf.set("nodes", 16L);
    conf.set("nic", std::string("nifdy"));
    conf.set("seed", 3L);
    if (profiled) {
        conf.set("profile.enabled", true);
        conf.set("profile.interval", 1L);
    }
    ExperimentConfig cfg = experimentFromConfig(conf);
    auto exp = std::make_unique<Experiment>(cfg);
    for (NodeId n = 0; n < exp->numNodes(); ++n)
        exp->setWorkload(n, std::make_unique<SyntheticWorkload>(
                                exp->proc(n), exp->msg(n),
                                exp->barrier(), exp->numNodes(),
                                SyntheticParams::heavy(), cfg.seed));
    exp->runFor(warmup);
    return exp;
}

TEST(Allocgate, SteadyStateHotLoopDoesNotAllocate)
{
    if (Audit::envEnabled())
        GTEST_SKIP() << auditedSkip;
    auto exp = warmHeavy("fattree", 20000, false);
    expectNoAllocations("the post-warmup hot loop",
                        [&] { exp->runFor(5000); });
}

/** Mesh routers compute the destination's coordinates on every
 * route() call. The mesh windows warm up longer: a ring on a rarely
 * saturated link reaches its high-water mark late. */
TEST(Allocgate, TorusHotLoopDoesNotAllocate)
{
    if (Audit::envEnabled())
        GTEST_SKIP() << auditedSkip;
    auto exp = warmHeavy("torus2d", 80000, false);
    expectNoAllocations("the torus hot loop", [&] { exp->runFor(5000); });
}

/** The same with credit-gated adaptive allocation, which retries a
 * blocked head every cycle. */
TEST(Allocgate, AdaptiveMeshHotLoopDoesNotAllocate)
{
    if (Audit::envEnabled())
        GTEST_SKIP() << auditedSkip;
    auto exp = warmHeavy("mesh2d-adaptive", 80000, false);
    expectNoAllocations("the adaptive mesh hot loop",
                        [&] { exp->runFor(5000); });
}

/** The armed profiler's counters and clock chain, with every cycle
 * timed: its accounts are preallocated at attach. */
TEST(Profile, ArmedSteadyStateHotLoopDoesNotAllocate)
{
    if (Audit::envEnabled())
        GTEST_SKIP() << auditedSkip;
    auto exp = warmHeavy("fattree", 20000, true);
    expectNoAllocations("the armed profiler hot path",
                        [&] { exp->runFor(5000); });
}

/** An effectively endless offloaded barrier stream: outbox rings,
 * slot children and the packet pool at their high-water marks. */
TEST(CollAllocgate, OffloadSteadyStateDoesNotAllocate)
{
    if (Audit::envEnabled())
        GTEST_SKIP() << auditedSkip;
    ExperimentConfig cfg;
    cfg.topology = "fattree";
    cfg.numNodes = 16;
    cfg.nicKind = NicKind::nifdy;
    cfg.seed = 7;
    cfg.coll.offload = true;
    cfg.coll.timeout = 300;
    cfg.coll.maxTimeout = 2400;
    cfg.coll.maxRetries = 4;
    cfg.coll.probeTimeout = 600;
    cfg.coll.maxProbes = 3;
    Experiment exp(cfg);
    CollectiveParams cp;
    cp.phases = 1000000;
    for (NodeId n = 0; n < exp.numNodes(); ++n)
        exp.setWorkload(n, std::make_unique<CollectiveWorkload>(
                               exp.proc(n), exp.msg(n), exp.barrier(),
                               exp.numNodes(), cp, cfg.seed));
    exp.runFor(20000);
    expectNoAllocations("the offloaded collective steady state",
                        [&] { exp.runFor(5000); });
}

/** A saturated link with a fixed flow set and a permanently open
 * episode: after warmup every key exists, and a window close only
 * zeroes and folds. */
TEST(CongestionAllocgate, SteadyStateObservationDoesNotAllocate)
{
    CongestionConfig cfg;
    cfg.enabled = true;
    cfg.window = 64;
    Channel ch{ChannelParams{}};
    CongestionObserver co(cfg, 8);
    co.attachChannels({&ch}, {"L"}, 4);
    auto dataPacket = [](NodeId src) {
        Packet p;
        p.src = src;
        p.dst = 0;
        p.type = PacketType::scalar;
        p.netClass = NetClass::request;
        p.sizeBytes = 32;
        return p;
    };
    Packet pa = dataPacket(1);
    Packet pb = dataPacket(2);
    Cycle now = 0;
    auto spin = [&](int windows) {
        for (int w = 0; w < windows; ++w) {
            for (Cycle c = 0; c < cfg.window; ++c, ++now) {
                co.onLinkStall(&ch, now);
                Flit f;
                f.pkt = (c & 1) ? &pa : &pb;
                co.onLinkFlit(&ch, f, now);
                co.onInject(pa, now);
                co.onDeliver(pa, now + 10);
                co.step(now);
            }
        }
    };
    spin(10);
    ASSERT_EQ(co.openEpisodes(), 1);
    expectNoAllocations("the congestion steady state", [&] { spin(10); });
    EXPECT_EQ(co.openEpisodes(), 1); // still the same episode
}

} // namespace
} // namespace nifdy
