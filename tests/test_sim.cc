/**
 * @file
 * Unit tests for the simulation kernel layer: RNG, config, stats,
 * kernel stepping and watchdog, table printing.
 */

#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "nicharness.hh"
#include "sim/config.hh"
#include "sim/kernel.hh"
#include "sim/log.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/table.hh"

namespace nifdy
{
namespace
{

class QuietEnv : public ::testing::Environment
{
  public:
    void SetUp() override { setQuiet(true); }
};

const auto *quietEnv =
    ::testing::AddGlobalTestEnvironment(new QuietEnv);

TEST(Rng, Deterministic)
{
    Rng a(42, 7);
    Rng b(42, 7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, StreamsDiffer)
{
    Rng a(42, 1);
    Rng b(42, 2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1, 0);
    Rng b(2, 0);
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, BoundedInRange)
{
    Rng r(3, 0);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.nextBounded(17), 17u);
}

TEST(Rng, BoundedCoversAllValues)
{
    Rng r(5, 0);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 4000; ++i)
        ++seen[r.nextBounded(8)];
    for (int v : seen)
        EXPECT_GT(v, 0);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9, 1);
    bool sawLo = false;
    bool sawHi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = r.range(3, 6);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 6);
        sawLo |= v == 3;
        sawHi |= v == 6;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(11, 0);
    for (int i = 0; i < 1000; ++i) {
        double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng r(13, 0);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceRoughlyCalibrated)
{
    Rng r(17, 0);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ZeroBoundPanics)
{
    Rng r(1, 0);
    EXPECT_THROW(r.nextBounded(0), std::logic_error);
}

TEST(Config, SetGetRoundTrip)
{
    Config c;
    c.set("alpha", std::string("hello"));
    c.set("beta", 42L);
    c.set("gamma", 2.5);
    c.set("delta", true);
    std::string alpha;
    long beta = 0;
    double gamma = 0;
    bool delta = false;
    c.knob("alpha", alpha, "a string");
    c.knob("beta", beta, "an integer");
    c.knob("gamma", gamma, "a double");
    c.knob("delta", delta, "a boolean");
    EXPECT_EQ(alpha, "hello");
    EXPECT_EQ(beta, 42);
    EXPECT_DOUBLE_EQ(gamma, 2.5);
    EXPECT_TRUE(delta);
    EXPECT_NO_THROW(c.close());
}

TEST(Config, Fallbacks)
{
    // An absent key leaves the field alone, and the field's value is
    // what the listing shows as the default.
    Config c;
    int n = 7;
    std::string s = "x";
    bool b = false;
    double d = 1.5;
    c.knob("n", n, "an int");
    c.knob("s", s, "a string");
    c.knob("b", b, "a bool");
    c.knob("d", d, "a double");
    EXPECT_EQ(n, 7);
    EXPECT_EQ(s, "x");
    EXPECT_FALSE(b);
    EXPECT_DOUBLE_EQ(d, 1.5);
    EXPECT_EQ(c.knobList(), "n\t7\tan int\n"
                            "s\tx\ta string\n"
                            "b\tfalse\ta bool\n"
                            "d\t1.5\ta double\n");
}

TEST(Config, KnobMinimumIsFatalAndListed)
{
    Config c;
    c.set("phases", 0L);
    int phases = 32;
    EXPECT_THROW(c.knob("phases", phases, "phases per run", 1),
                 std::runtime_error);
    EXPECT_EQ(phases, 32);
    EXPECT_EQ(c.knobList(), "phases\t32\tphases per run (>= 1)\n");
    EXPECT_NE(c.help().find("phases=32"), std::string::npos);
    EXPECT_NE(c.help().find("phases per run (>= 1)"), std::string::npos);

    Config at;
    at.set("phases", 1L);
    at.knob("phases", phases, "phases per run", 1);
    EXPECT_EQ(phases, 1);
}

TEST(Config, MissingKeyFatal)
{
    // A key that no binding reads fails the closing call.
    Config c;
    c.set("nope", 1L);
    int other = 0;
    c.knob("other", other, "");
    EXPECT_THROW(c.close(), std::runtime_error);
}

TEST(Config, MalformedValueFatal)
{
    Config c;
    c.set("x", std::string("notanumber"));
    int i = 0;
    bool b = false;
    double d = 0;
    EXPECT_THROW(c.knob("x", i, ""), std::runtime_error);
    EXPECT_THROW(c.knob("x", b, ""), std::runtime_error);
    EXPECT_THROW(c.knob("x", d, ""), std::runtime_error);
    for (const char *v : {"nan", "inf", "1.5x", ""}) {
        c.set("x", std::string(v));
        EXPECT_THROW(c.knob("x", d, ""), std::runtime_error) << v;
    }
}

TEST(Config, ParseArgs)
{
    Config c;
    const char *argv[] = {"prog", "nodes=64", "net=mesh2d", "stray",
                          "deep.key=1"};
    c.parseArgs(5, const_cast<char **>(argv));
    int nodes = 0;
    std::string net;
    int deep = 0;
    c.knob("nodes", nodes, "");
    c.knob("net", net, "");
    c.knob("deep.key", deep, "");
    EXPECT_EQ(nodes, 64);
    EXPECT_EQ(net, "mesh2d");
    EXPECT_EQ(deep, 1);
    // The stray token is an argument nothing bound.
    EXPECT_THROW(c.close(), std::runtime_error);
}

TEST(Config, BooleanSpellings)
{
    Config c;
    bool v = false;
    for (const char *t : {"true", "1", "yes", "on"}) {
        c.set("k", std::string(t));
        c.knob("k", v, "");
        EXPECT_TRUE(v) << t;
    }
    for (const char *f : {"false", "0", "no", "off"}) {
        c.set("k", std::string(f));
        c.knob("k", v, "");
        EXPECT_FALSE(v) << f;
    }
}

/** experimentFromConfig() over a single key=value. */
ExperimentConfig
bindOne(const char *key, const char *value)
{
    Config c;
    c.set(key, std::string(value));
    return experimentFromConfig(c);
}

TEST(Config, NegativeUnsignedKnobsAreFatal)
{
    // -1 must not wrap to 2^64-1 in a Cycle or std::uint64_t field.
    for (const char *key :
         {"profile.interval", "congestion.window", "barrierLatency",
          "watchdog", "metrics.interval", "lossy.retxTimeout",
          "coll.timeout", "node.crashSpan", "trace.maxEvents"})
        EXPECT_THROW(bindOne(key, "-1"), std::runtime_error) << key;
}

TEST(Config, OutOfRangeIntegerIsFatal)
{
    // 2^32 + 16 must not truncate to a 16-node run.
    EXPECT_THROW(bindOne("nodes", "4294967312"), std::runtime_error);
    std::uint64_t seed = 0;
    Config c;
    c.set("seed", std::string("18446744073709551616"));
    EXPECT_THROW(c.knob("seed", seed, ""), std::runtime_error);
}

TEST(Config, IntegersAreDecimal)
{
    EXPECT_EQ(bindOne("nodes", "010").numNodes, 10);
    EXPECT_THROW(bindOne("nodes", "0x10"), std::runtime_error);
}

TEST(Config, ChoiceSpellings)
{
    EXPECT_EQ(bindOne("nic", "nifdy-lossy").nicKind, NicKind::lossy);
    EXPECT_EQ(bindOne("nic", "lossy").nicKind, NicKind::lossy);
    EXPECT_EQ(bindOne("nic", "none").nicKind, NicKind::none);
    EXPECT_FALSE(bindOne("coll.offload", "software").coll.offload);
    EXPECT_TRUE(bindOne("coll.offload", "nic").coll.offload);
    EXPECT_THROW(bindOne("nic", "bogus"), std::runtime_error);
    EXPECT_THROW(bindOne("coll.offload", "on"), std::runtime_error);
}

TEST(Config, UnknownKeyNamesTheNearestKnob)
{
    Config c;
    c.set("congestion.onfrac", std::string("0.3"));
    experimentFromConfig(c);
    try {
        c.close();
        FAIL() << "unknown key accepted";
    } catch (const std::runtime_error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("'congestion.onfrac'"), std::string::npos);
        EXPECT_NE(msg.find("'congestion.onFrac'"), std::string::npos);
    }
}

TEST(Config, FlagsAreBoundLikeKeys)
{
    Config c;
    const char *argv[] = {"prog", "--dir", "out", "--resume", "--bogus"};
    c.parseArgs(5, const_cast<char **>(argv));
    std::string dir;
    EXPECT_TRUE(c.flag("--dir", dir, "directory"));
    EXPECT_EQ(dir, "out");
    EXPECT_TRUE(c.flag("--resume", "resume"));
    EXPECT_FALSE(c.flag("--spec", "spec"));
    // Flags are documented by help() but not listed as knobs.
    EXPECT_EQ(c.knobList(), "");
    EXPECT_NE(c.help().find("--resume"), std::string::npos);
    EXPECT_THROW(c.close(), std::runtime_error); // --bogus
}

TEST(Config, NifdyDefaultsFollowTheTopology)
{
    Config c;
    c.set("topology", std::string("mesh2d"));
    ExperimentConfig cfg = experimentFromConfig(c);
    EXPECT_FALSE(cfg.nifdyExplicit);
    EXPECT_NE(c.knobList().find("nifdy.window\t2\t"), std::string::npos);
    c.set("nifdy.opt", 6L);
    cfg = experimentFromConfig(c);
    EXPECT_TRUE(cfg.nifdyExplicit);
    EXPECT_EQ(cfg.nifdy.opt, 6);
    EXPECT_EQ(cfg.nifdy.pool, bestNifdyParams("mesh2d").pool);
    EXPECT_EQ(cfg.nifdy.window, bestNifdyParams("mesh2d").window);
}

TEST(Stats, DistributionMoments)
{
    Distribution d("lat");
    for (std::uint64_t v : {4u, 8u, 12u})
        d.sample(v);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_EQ(d.sum(), 24u);
    EXPECT_EQ(d.min(), 4u);
    EXPECT_EQ(d.max(), 12u);
    EXPECT_DOUBLE_EQ(d.mean(), 8.0);
}

TEST(Stats, DistributionBuckets)
{
    Distribution d("b");
    d.sample(0);
    d.sample(1);
    d.sample(2);
    d.sample(3);
    d.sample(1024);
    EXPECT_EQ(d.bucket(0), 2u);
    EXPECT_EQ(d.bucket(1), 2u);
    EXPECT_EQ(d.bucket(10), 1u);
    EXPECT_EQ(d.bucket(5), 0u);
}

TEST(Stats, DistributionPercentiles)
{
    Distribution e("empty");
    EXPECT_DOUBLE_EQ(e.percentile(0.50), 0.0);

    Distribution d("p");
    for (int i = 0; i < 100; ++i)
        d.sample(7);
    // All mass in one bucket: every percentile clamps to [min, max].
    EXPECT_DOUBLE_EQ(d.percentile(0.50), 7.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.99), 7.0);
    EXPECT_DOUBLE_EQ(d.percentile(-1.0), 7.0);
    EXPECT_DOUBLE_EQ(d.percentile(2.0), 7.0);

    Distribution u("u");
    for (std::uint64_t v = 1; v <= 100; ++v)
        u.sample(v);
    double p50 = u.percentile(0.50);
    double p95 = u.percentile(0.95);
    double p99 = u.percentile(0.99);
    EXPECT_GE(p50, 1.0);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_LE(p99, 100.0);
    EXPECT_GE(p95, 64.0);
}

TEST(Stats, DistributionMerge)
{
    Distribution a("lat");
    Distribution b("lat");
    a.sample(1);
    a.sample(2);
    b.sample(100);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.sum(), 103u);
    EXPECT_EQ(a.min(), 1u);
    EXPECT_EQ(a.max(), 100u);

    Distribution empty("lat");
    a.merge(empty);
    EXPECT_EQ(a.count(), 3u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 3u);
    EXPECT_EQ(empty.min(), 1u);
    EXPECT_EQ(empty.max(), 100u);
}

TEST(Stats, TimeSeriesSampling)
{
    TimeSeries ts("pend", 3, 100);
    EXPECT_TRUE(ts.due(0));
    ts.record(0, {1, 2, 3});
    EXPECT_FALSE(ts.due(99));
    EXPECT_TRUE(ts.due(100));
    ts.record(100, {4, 5, 6});
    ASSERT_EQ(ts.rows(), 2u);
    EXPECT_EQ(ts.row(1)[0], 4u);
    EXPECT_EQ(ts.rowTime(1), 100u);
}

TEST(Stats, TimeSeriesJson)
{
    TimeSeries ts("pend", 2, 50);
    ts.record(0, {1, 2});
    ts.record(50, {3, 4});
    std::string j = ts.json();
    EXPECT_EQ(j.front(), '{');
    EXPECT_NE(j.find("\"pend\""), std::string::npos);
    EXPECT_NE(j.find("\"width\":2"), std::string::npos);
    EXPECT_NE(j.find("\"interval\":50"), std::string::npos);
    EXPECT_NE(j.find("\"times\":[0,50]"), std::string::npos);
    EXPECT_NE(j.find("[3,4]"), std::string::npos);
}

/** A component that counts its steps and reports activity. */
class TickCounter : public Steppable
{
  public:
    explicit TickCounter(Kernel *k, bool active = true)
        : kernel_(k), active_(active)
    {}
    void
    step(Cycle now) override
    {
        last = now;
        ++ticks;
        if (active_ && kernel_)
            kernel_->noteActivity();
    }
    Kernel *kernel_;
    bool active_;
    Cycle last = 0;
    int ticks = 0;
};

TEST(Kernel, StepsAllObjectsOncePerCycle)
{
    Kernel k;
    TickCounter a(&k);
    TickCounter b(&k);
    k.add(&a);
    k.add(&b);
    k.run(10);
    EXPECT_EQ(a.ticks, 10);
    EXPECT_EQ(b.ticks, 10);
    EXPECT_EQ(k.now(), 10u);
    EXPECT_EQ(a.last, 9u);
}

TEST(Kernel, RunStopsOnPredicate)
{
    Kernel k;
    TickCounter a(&k);
    k.add(&a);
    Cycle n = k.run(1000, [&] { return a.ticks >= 5; });
    EXPECT_EQ(n, 5u);
}

TEST(Kernel, WatchdogPanicsOnDeadlock)
{
    Kernel k;
    TickCounter idle(nullptr, false);
    k.add(&idle);
    k.setWatchdogLimit(50);
    EXPECT_THROW(k.run(1000, [] { return false; }), std::logic_error);
}

TEST(Kernel, QuiescenceWithoutPredicateJustStops)
{
    Kernel k;
    TickCounter idle(nullptr, false);
    k.add(&idle);
    k.setWatchdogLimit(50);
    Cycle n = k.run(1000);
    EXPECT_EQ(n, 50u);
}

/** Sleeps @p period cycles after every step. */
class Napper : public Steppable
{
  public:
    explicit Napper(Cycle period) : period_(period) {}
    void
    step(Cycle now) override
    {
        steps.push_back(now);
        sleepUntil(now + period_);
    }
    std::vector<Cycle> steps;

  private:
    Cycle period_;
};

TEST(Kernel, SleepingComponentIsNotSteppedBeforeItsWake)
{
    Kernel k;
    Napper napper(5);
    TickCounter every(&k);
    k.add(&napper);
    k.add(&every);
    k.run(12);
    EXPECT_EQ(napper.steps, (std::vector<Cycle>{0, 5, 10}));
    EXPECT_EQ(napper.wake(), 15u);
    // An event due at cycle 13 pulls the wake in; a later one leaves
    // it alone.
    napper.wakeBy(13);
    napper.wakeBy(14);
    k.run(3); // cycles 12, 13, 14
    EXPECT_EQ(napper.steps, (std::vector<Cycle>{0, 5, 10, 13}));
    EXPECT_EQ(napper.wake(), 18u);
    // An outside call wakes it for the next cycle the kernel runs.
    napper.wakeNow();
    k.step();
    EXPECT_EQ(napper.steps.back(), 15u);
    EXPECT_EQ(every.ticks, 16);
    // The kernel counts the steps it ran, not the components.
    EXPECT_EQ(k.steps(), 5u + 16u);
}

/** Runs @p fn at every cycle, ahead of the components added after
 * it, as an experiment's node-fault schedule does. */
class Script : public Steppable
{
  public:
    explicit Script(std::function<void(Cycle)> fn) : fn_(std::move(fn)) {}
    void step(Cycle now) override { fn_(now); }

  private:
    std::function<void(Cycle)> fn_;
};

/** What the processor did before it slept: notes activity on every
 * cycle of its busy time, and forfeits it when taken offline. */
class BusyNoter : public Steppable
{
  public:
    explicit BusyNoter(Kernel &k) : k_(k) {}
    void
    step(Cycle now) override
    {
        if (!offline && now < until)
            k_.noteActivity();
    }
    Cycle until = 0;
    bool offline = false;

  private:
    Kernel &k_;
};

struct StopCycles
{
    Cycle quiet = 0;   //!< run() without a predicate returned
    Cycle panicAt = 0; //!< the watchdog fired at this cycle
};

/**
 * Two nodes busy over cycles [0, 500) and [0, 300), the first taken
 * offline at @p offlineAt, on an otherwise idle 4-node mesh with a
 * 100-cycle watchdog: where quiescence and the watchdog stop, with
 * real (sleeping) processors or with busy-noting stand-ins.
 */
StopCycles
stopCycles(bool sleeping, Cycle offlineAt)
{
    StopCycles out;
    for (bool predicate : {false, true}) {
        NifdyHarness h(NifdyConfig{});
        Kernel &k = h.kernel;
        k.setWatchdogLimit(100);
        Processor pa(0, h.nic(0), ProcParams{});
        Processor pb(1, h.nic(1), ProcParams{});
        pa.setKernel(&k);
        pb.setKernel(&k);
        BusyNoter na(k);
        BusyNoter nb(k);
        Script script([&](Cycle now) {
            if (now == 0) {
                if (sleeping) {
                    pa.compute(500, now);
                    pb.compute(300, now);
                } else {
                    na.until = 500;
                    nb.until = 300;
                    k.noteActivity();
                }
            }
            if (now == offlineAt) {
                if (sleeping)
                    pa.setOffline(true, now);
                else
                    na.offline = true;
            }
        });
        k.add(&script);
        if (sleeping) {
            k.add(&pa);
            k.add(&pb);
        } else {
            k.add(&na);
            k.add(&nb);
        }
        if (!predicate) {
            out.quiet = k.run(100000);
        } else {
            EXPECT_THROW(k.run(100000, [] { return false; }),
                         std::logic_error);
            out.panicAt = k.now();
        }
    }
    return out;
}

TEST(Kernel, BusyHorizonStopsQuiescenceAndWatchdogLikeBusySteps)
{
    const StopCycles noted = stopCycles(false, neverCycle);
    const StopCycles slept = stopCycles(true, neverCycle);
    // Busy through cycle 499, then 100 idle cycles.
    EXPECT_EQ(noted.quiet, 600u);
    EXPECT_EQ(slept.quiet, noted.quiet);
    EXPECT_EQ(slept.panicAt, noted.panicAt);
}

TEST(Kernel, BusyHorizonDropsWhenItsProcessorGoesOffline)
{
    // The first processor holds the horizon and goes offline at
    // cycle 200: the second one's busy time, through cycle 299, is
    // what is left.
    const StopCycles noted = stopCycles(false, 200);
    const StopCycles slept = stopCycles(true, 200);
    EXPECT_EQ(noted.quiet, 400u);
    EXPECT_EQ(slept.quiet, noted.quiet);
    EXPECT_EQ(slept.panicAt, noted.panicAt);
}

TEST(Kernel, NullObjectPanics)
{
    Kernel k;
    EXPECT_THROW(k.add(nullptr), std::logic_error);
}

TEST(Table, AlignedOutput)
{
    Table t("demo");
    t.header({"net", "pkts"});
    t.row({"mesh", "123"});
    t.row({"fattree-long", "4"});
    std::string s = t.str();
    EXPECT_NE(s.find("== demo =="), std::string::npos);
    EXPECT_NE(s.find("fattree-long"), std::string::npos);
    // Columns align: "pkts" appears after the longest name width.
    auto headerPos = s.find("net");
    ASSERT_NE(headerPos, std::string::npos);
}

TEST(Table, CsvOutput)
{
    Table t("demo");
    t.header({"a", "b"});
    t.row({"1", "2"});
    EXPECT_EQ(t.csv(), "a,b\n1,2\n");
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(42L), "42");
}

TEST(Log, PanicThrowsLogicError)
{
    EXPECT_THROW(panic("boom %d", 3), std::logic_error);
}

TEST(Log, FatalThrowsRuntimeError)
{
    EXPECT_THROW(fatal("bad config"), std::runtime_error);
}

} // namespace
} // namespace nifdy
