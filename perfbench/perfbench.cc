/**
 * @file
 * Simulator benchmark: how fast the NIFDY simulator runs on the host,
 * and what the modelled machine does, on four workloads. README.md in
 * this directory defines every metric, its layer and its source.
 *
 *   nifdy_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                   [--quick]
 *
 * A run derives K simulation seeds from --seed and simulates each of
 * them once per round, every repetition a fresh Experiment, for a
 * fixed number of rounds per workload (S only caps the run's length).
 * Every host time is scaled to a reference host speed by a probe
 * taken right after it (refNs), and host figures take, per seed, the
 * median over rounds (Run::medianPerSim). Simulated results pool the
 * K simulations, so a run's figures do not hang on one seed's luck.
 * --trace 0 times untraced repetitions and prints the end-to-end
 * metrics; --trace 1 pairs each untraced repetition with a profiled
 * one, adds one audited repetition, and prints the per-layer metrics.
 * Every repetition is checked (checkRep), and repeated simulations of
 * one seed must be identical, traced or not. The last stdout line is
 * one JSON object: {"correct", "attempted", "failed", "metrics"}.
 *
 * The benchmark adds no instrumentation to the simulator: it reads
 * public counters, the host-cost profiler (profile.enabled), and
 * spans it records around its own calls into the simulator.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hh"
#include "net/topology.hh"
#include "sim/fault.hh"
#include "sim/log.hh"
#include "sim/profile.hh"
#include "sim/report.hh"
#include "traffic/cshift.hh"
#include "traffic/synthetic.hh"

namespace nifdy
{
namespace
{

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Host speed probe: a chase of dependent loads around one fixed random
 * cycle of 256 KiB, which fits the core's private cache. Other tenants
 * of a shared machine change its speed over seconds to minutes, and
 * they slow the probe too, if somewhat less than the simulator
 * (README.md, "Steadiness"). The probe's code and data do not depend
 * on the simulator, so a change to the simulator does not move it.
 */
class SpeedProbe
{
  public:
    SpeedProbe() : next_(words)
    {
        // Fisher-Yates with a fixed splitmix64 stream: the same cycle
        // on every build and host.
        std::vector<std::uint32_t> order(words);
        for (std::uint32_t i = 0; i < words; ++i)
            order[i] = i;
        std::uint64_t s = 0x9e3779b97f4a7c15ull;
        for (std::uint32_t i = words - 1; i > 1; --i) {
            s += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = s;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            z ^= z >> 31;
            std::swap(order[i], order[1 + z % i]);
        }
        for (std::uint32_t i = 0; i < words; ++i)
            next_[order[i]] = order[(i + 1) % words];
        sampleNs(); // bring the cycle into the cache
    }

    /** Host ns of one probe: @c steps dependent loads. */
    std::uint64_t sampleNs()
    {
        std::uint64_t t0 = nowNs();
        std::uint32_t at = at_;
        for (int i = 0; i < steps; ++i)
            at = next_[at];
        at_ = at;
        return nowNs() - t0;
    }

  private:
    static constexpr std::uint32_t words = (256u << 10) / 4;
    static constexpr int steps = 300000;
    std::vector<std::uint32_t> next_;
    std::uint32_t at_ = 0;
};

/** One probe's host ns on the reference host: the 4-vCPU Xeon guest
 * of README.md, "Steadiness", in a quiet period. */
constexpr double probeRefNs = 2.5e6;

/**
 * @p ns of host time, scaled to the reference host speed by a probe
 * taken right after it: what the span would have taken on a host whose
 * probe takes probeRefNs.
 */
double
refNs(std::uint64_t ns)
{
    static SpeedProbe probe;
    return double(ns) * probeRefNs / double(probe.sampleNs());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
frac(std::uint64_t num, std::uint64_t den)
{
    return den ? double(num) / double(den) : 0.0;
}

enum class Load { heavy, light, cshift };

/** One benchmark workload: a machine, its traffic, and the span. */
struct WorkloadSpec
{
    const char *name;
    const char *topology;
    int nodes;
    NicKind nic;
    Load load;
    double dropProb; //!< in-fabric drop probability per hop
    Cycle warmup;    //!< untimed cycles before the measured span
    Cycle window;    //!< measured cycles; 0 = run to completion
    Cycle chunk;     //!< cycles per separately timed piece of the span
    int seeds;       //!< simulations (seeds) per round
    int rounds;      //!< rounds per run
};

// Window and seed counts are sized so the pooled simulated results of
// a run vary by a few percent from one --seed to the next, and rounds
// so an untraced run takes about 20 s on the reference host (README.md,
// "Steadiness"). A chunk takes some tens of milliseconds.
const WorkloadSpec workloadSpecs[] = {
    {"fig2-heavy", "fattree", 64, NicKind::nifdy, Load::heavy, 0.0,
     2000, 24000, 2000, 8, 3},
    {"bigtree-light", "fattree", 256, NicKind::nifdy, Load::light, 0.0,
     2000, 8000, 1000, 6, 3},
    {"cshift-cm5", "cm5", 64, NicKind::nifdy, Load::cshift, 0.0, 0, 0,
     4000, 1, 3},
    {"lossy-faults", "fattree", 16, NicKind::lossy, Load::heavy, 0.05,
     4000, 100000, 20000, 16, 3},
};

/** Payload words per pair of the cyclic shift (the Figure 6 size). */
constexpr int cshiftWords = 120;
/** Completion budget for the cyclic shift, as bench_fig6_cshift. */
constexpr Cycle cshiftMaxCycles = 40000000;

/** Workload sizes of one run; --quick shrinks them for the self-test. */
struct Scale
{
    bool quick = false;
    Cycle warmup(const WorkloadSpec &w) const
    {
        return quick ? w.warmup / 4 : w.warmup;
    }
    Cycle window(const WorkloadSpec &w) const
    {
        return quick ? w.window / 10 : w.window;
    }
    int seeds(const WorkloadSpec &w) const { return quick ? 2 : w.seeds; }
    int rounds(const WorkloadSpec &w) const { return quick ? 2 : w.rounds; }
    int words() const { return quick ? cshiftWords / 10 : cshiftWords; }
};

/** Simulation seed @p k of a run started with --seed @p seed; runs
 * with different --seed values simulate disjoint seed sets. */
std::uint64_t
simSeed(std::uint64_t seed, int k, int seeds)
{
    return seed * static_cast<std::uint64_t>(seeds) +
           static_cast<std::uint64_t>(k) + 1;
}

/** Cumulative public counters of one experiment; deltas of two
 * snapshots give the measured span's counts. */
struct Counters
{
    std::uint64_t cycle = 0;
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t words = 0;
    std::uint64_t flits = 0;          //!< flits switched by routers
    std::uint64_t linkFlitCycles = 0; //!< internal-link busy cycles
    std::uint64_t linkCycles = 0;     //!< internal links x cycles
    std::uint64_t filteredFlits = 0;  //!< flits into router inputs
    std::uint64_t acks = 0;
    std::uint64_t piggy = 0;
    std::uint64_t grants = 0;
    std::uint64_t rejects = 0;
    std::uint64_t retx = 0;
    std::uint64_t dups = 0;
    std::uint64_t abandoned = 0;
    std::uint64_t fabricDrops = 0;
    std::uint64_t busy = 0;
    std::uint64_t procCycles = 0; //!< processors x cycles
    std::uint64_t receives = 0;
    std::uint64_t emptyPolls = 0;
};

/** Every Counters field, for deltas, sums and the digest. */
const std::pair<const char *, std::uint64_t Counters::*> counterFields[] =
    {
        {"cycle", &Counters::cycle},
        {"sent", &Counters::sent},
        {"delivered", &Counters::delivered},
        {"words", &Counters::words},
        {"flits", &Counters::flits},
        {"linkFlitCycles", &Counters::linkFlitCycles},
        {"linkCycles", &Counters::linkCycles},
        {"filteredFlits", &Counters::filteredFlits},
        {"acks", &Counters::acks},
        {"piggy", &Counters::piggy},
        {"grants", &Counters::grants},
        {"rejects", &Counters::rejects},
        {"retx", &Counters::retx},
        {"dups", &Counters::dups},
        {"abandoned", &Counters::abandoned},
        {"fabricDrops", &Counters::fabricDrops},
        {"busy", &Counters::busy},
        {"procCycles", &Counters::procCycles},
        {"receives", &Counters::receives},
        {"emptyPolls", &Counters::emptyPolls},
};

/** a + sign * b, field by field (unsigned wrap-around makes sign -1
 * an exact subtraction of an earlier snapshot). */
Counters
combine(const Counters &a, const Counters &b, int sign)
{
    Counters d = a;
    for (const auto &[name, field] : counterFields)
        d.*field += static_cast<std::uint64_t>(sign) * (b.*field);
    return d;
}

Counters
snapshot(Experiment &exp)
{
    Counters c;
    c.cycle = exp.kernel().now();
    c.sent = exp.packetsSent();
    c.delivered = exp.packetsDelivered();
    c.words = exp.wordsDelivered();
    Network &net = exp.network();
    c.flits = net.totalFlitsSwitched();
    for (int i = 0; i < net.numInternalChannels(); ++i) {
        const Channel &ch = net.internalChannel(i);
        c.linkFlitCycles += ch.totalFlits() *
                            static_cast<std::uint64_t>(
                                ch.params().cyclesPerFlit);
        c.filteredFlits += ch.totalFlits();
    }
    c.linkCycles = c.cycle *
                   static_cast<std::uint64_t>(net.numInternalChannels());
    c.procCycles = c.cycle * static_cast<std::uint64_t>(exp.numNodes());
    for (NodeId n = 0; n < exp.numNodes(); ++n) {
        c.filteredFlits += net.nodePorts(n).inject->totalFlits();
        if (auto *nn = dynamic_cast<const NifdyNic *>(&exp.nic(n))) {
            c.acks += nn->acksSent();
            c.piggy += nn->acksPiggybacked();
            c.grants += nn->bulkGrants();
            c.rejects += nn->bulkRejects();
            c.abandoned += nn->packetsAbandoned();
        }
        if (auto *ln =
                dynamic_cast<const LossyNifdyNic *>(&exp.nic(n))) {
            c.retx += ln->retransmissions();
            c.dups += ln->duplicatesSeen();
        }
        const Processor &p = exp.proc(n);
        c.busy += p.cyclesBusy();
        c.receives += p.receives();
        c.emptyPolls += p.emptyPolls();
    }
    if (const FaultInjector *fi = exp.faults())
        c.fabricDrops = fi->packetsDroppedInFabric();
    return c;
}

/** Per-class host-cost profiler account. */
struct ClassAcct
{
    std::uint64_t ns = 0;
    std::uint64_t steps = 0;
    std::uint64_t idle = 0;
};

/** Host-cost profiler aggregates, cumulative or over a span. */
struct ProfSnap
{
    std::uint64_t cycles = 0;
    std::uint64_t timed = 0;
    std::uint64_t selfNs = 0;
    std::map<std::string, ClassAcct> cls;
};

ProfSnap
profSnap(const Profiler *p)
{
    ProfSnap s;
    if (!p)
        return s;
    s.cycles = p->cycles();
    s.timed = p->timedCycles();
    s.selfNs = p->phaseNs(ProfPhase::self);
    for (std::size_t c = 0; c < p->classes().size(); ++c)
        s.cls[p->classes()[c]] = {p->classNs(c), p->classSteps(c),
                                  p->classIdleSteps(c)};
    return s;
}

/** a + sign * b, account by account, as for Counters. */
ProfSnap
combine(const ProfSnap &a, const ProfSnap &b, int sign)
{
    auto u = static_cast<std::uint64_t>(sign);
    ProfSnap d = a;
    d.cycles += u * b.cycles;
    d.timed += u * b.timed;
    d.selfNs += u * b.selfNs;
    for (const auto &[name, acct] : b.cls) {
        ClassAcct &x = d.cls[name];
        x.ns += u * acct.ns;
        x.steps += u * acct.steps;
        x.idle += u * acct.idle;
    }
    return d;
}

enum class Mode { plain, traced, audited };

/** One repetition: a fresh experiment, set up, warmed, measured. */
struct Rep
{
    Mode mode = Mode::plain;
    int round = 0;
    int sim = 0; //!< which of the run's seeds
    // Host spans in reference ns (refNs), except the raw spanNs.
    double buildNs = 0;       //!< Experiment construction
    double trafficNs = 0;     //!< workload generators installed
    std::uint64_t spanNs = 0; //!< measured runFor/runUntilDone, raw
    double spanRefNs = 0;     //!< the same, chunk by chunk in refNs
    double reportNs = 0;      //!< fillReport
    Counters span;            //!< counts over the measured span
    Cycle totalCycles = 0;       //!< simulated cycles, warm-up included
    Distribution latency;        //!< every delivered packet's latency
    ProfSnap prof; //!< profiler account of the span (traced only)
    std::string failure; //!< first failed check; empty = passed
};

std::unique_ptr<Experiment>
buildExperiment(const WorkloadSpec &w, std::uint64_t seed, Mode mode)
{
    ExperimentConfig cfg;
    cfg.topology = w.topology;
    cfg.numNodes = w.nodes;
    cfg.nicKind = w.nic;
    cfg.seed = seed;
    // The synthetic benchmark's packet size, and Figure 6's.
    cfg.msg.packetWords = w.load == Load::cshift ? 6 : 8;
    cfg.fault.dropProb = w.dropProb;
    cfg.profile.enabled = mode == Mode::traced;
    cfg.audit = mode == Mode::audited;
    return std::make_unique<Experiment>(cfg);
}

/** Install the workload generators; returns the packets the run
 * must deliver (cyclic shift) or 0 (open-ended synthetic). */
std::uint64_t
installTraffic(Experiment &exp, const WorkloadSpec &w,
               std::uint64_t seed, const Scale &scale,
               std::unique_ptr<CShiftBoard> &board)
{
    std::uint64_t expected = 0;
    if (w.load == Load::cshift) {
        board = std::make_unique<CShiftBoard>(exp.numNodes());
        CShiftParams cp;
        cp.wordsPerPair = scale.words();
        for (NodeId n = 0; n < exp.numNodes(); ++n) {
            exp.nic(n).setInjectBoard(&board->injected);
            auto wl = std::make_unique<CShiftWorkload>(
                exp.proc(n), exp.msg(n), exp.barrier(), exp.numNodes(),
                cp, *board, seed);
            expected += static_cast<std::uint64_t>(wl->expectedPackets());
            exp.setWorkload(n, std::move(wl));
        }
        return expected;
    }
    SyntheticParams sp = w.load == Load::heavy ? SyntheticParams::heavy()
                                               : SyntheticParams::light();
    for (NodeId n = 0; n < exp.numNodes(); ++n)
        exp.setWorkload(n, std::make_unique<SyntheticWorkload>(
                               exp.proc(n), exp.msg(n), exp.barrier(),
                               exp.numNodes(), sp, seed));
    return 0;
}

/** Output checks on one finished repetition. */
std::string
checkRep(Experiment &exp, const WorkloadSpec &w, const Rep &r,
         std::uint64_t expected)
{
    if (r.span.delivered == 0 || r.span.flits == 0)
        return "nothing delivered in the measured span";
    if (exp.packetsDelivered() > exp.packetsSent())
        return "more packets delivered than sent";
    if (r.latency.count() != exp.packetsDelivered())
        return "latency samples != packets delivered";
    if (exp.totalDeadPeers() != 0 || r.span.abandoned != 0)
        return "a NIC declared a peer dead";
    if (w.load == Load::cshift) {
        if (!exp.allDone())
            return "cyclic shift did not finish";
        if (exp.packetsSent() != exp.packetsDelivered())
            return "cyclic shift: sent != delivered";
        if (exp.packetsDelivered() != expected)
            return "cyclic shift: delivered != expected packets";
    }
    if (w.dropProb > 0 && (r.span.fabricDrops == 0 || r.span.retx == 0))
        return "fault workload dropped or retransmitted nothing";
    return "";
}

Rep
runRep(const WorkloadSpec &w, std::uint64_t seed, Mode mode,
       const Scale &scale)
{
    Rep r;
    r.mode = mode;
    try {
        std::unique_ptr<CShiftBoard> board; // outlives the experiment
        std::uint64_t t0 = nowNs();
        std::unique_ptr<Experiment> exp = buildExperiment(w, seed, mode);
        r.buildNs = refNs(nowNs() - t0);
        std::uint64_t t1 = nowNs();
        std::uint64_t expected =
            installTraffic(*exp, w, seed, scale, board);
        r.trafficNs = refNs(nowNs() - t1);

        exp->runFor(scale.warmup(w));
        Counters c0 = snapshot(*exp);
        ProfSnap p0 = profSnap(exp->profiler());
        // The span runs, and is timed, in chunks, so the probe after
        // each chunk follows the host's speed through the span.
        const bool toCompletion = scale.window(w) == 0;
        Cycle left = toCompletion ? cshiftMaxCycles : scale.window(w);
        while (left > 0 && !(toCompletion && exp->allDone())) {
            Cycle n = std::min(left, w.chunk);
            std::uint64_t t = nowNs();
            if (toCompletion)
                exp->runUntilDone(n);
            else
                exp->runFor(n);
            std::uint64_t ns = nowNs() - t;
            r.spanNs += ns;
            r.spanRefNs += refNs(ns);
            left -= n;
        }
        r.span = combine(snapshot(*exp), c0, -1);
        r.prof = combine(profSnap(exp->profiler()), p0, -1);
        r.totalCycles = exp->kernel().now();

        RunReport report("perfbench");
        std::uint64_t t4 = nowNs();
        exp->fillReport(report);
        r.reportNs = refNs(nowNs() - t4);

        r.latency = exp->mergedLatency();
        r.failure = checkRep(*exp, w, r, expected);
    } catch (const std::exception &e) {
        // panic() throws std::logic_error: an audit violation, a
        // protocol invariant, or the deadlock watchdog.
        r.failure = std::string("panic: ") + e.what();
    }
    return r;
}

using Digest = std::vector<std::pair<std::string, std::uint64_t>>;

/** Deterministic facts of a repetition: must repeat exactly. */
Digest
digest(const Rep &r)
{
    Digest d;
    for (const auto &[name, field] : counterFields)
        d.emplace_back(name, r.span.*field);
    d.emplace_back("totalCycles", r.totalCycles);
    d.emplace_back("latCount", r.latency.count());
    d.emplace_back("latSum", r.latency.sum());
    d.emplace_back("latMax", r.latency.max());
    for (int b = 0; b < 64; ++b)
        d.emplace_back("latBucket" + std::to_string(b),
                       r.latency.bucket(b));
    return d;
}

/** The profiler's deterministic counts (traced repetitions only). */
Digest
profDigest(const Rep &r)
{
    Digest d;
    d.emplace_back("cycles", r.prof.cycles);
    d.emplace_back("timed", r.prof.timed);
    for (const auto &[name, acct] : r.prof.cls) {
        d.emplace_back(name + ".steps", acct.steps);
        d.emplace_back(name + ".idle", acct.idle);
    }
    return d;
}

/** The workload's network alone, built as Experiment builds it. */
std::unique_ptr<Network>
bareNetwork(const WorkloadSpec &w, std::uint64_t seed)
{
    NetworkParams np;
    np.numNodes = w.nodes;
    np.seed = seed;
    return makeNetwork(w.topology, np);
}

/**
 * Host ns per router step of the bare network: the workload's
 * topology from makeNetwork(), stepped by a Kernel with no NICs and
 * no traffic. Median of repeated timed samples.
 */
double
idleNsPerRouterStep(const WorkloadSpec &w, std::uint64_t seed,
                    const Scale &scale)
{
    std::unique_ptr<Network> net = bareNetwork(w, seed);
    Kernel kernel;
    net->addToKernel(kernel);
    const int steps = scale.quick ? 200 : 2000;
    const int samples = scale.quick ? 3 : 15;
    for (int i = 0; i < steps; ++i)
        kernel.step();
    std::vector<double> v;
    for (int s = 0; s < samples; ++s) {
        std::uint64_t t0 = nowNs();
        for (int i = 0; i < steps; ++i)
            kernel.step();
        v.push_back(refNs(nowNs() - t0) /
                    (double(steps) * net->numRouters()));
    }
    return median(v);
}

/**
 * Host ns per flit of the fault injector's router-input filter:
 * FaultInjector::filterArrival driven directly with 10-flit packets,
 * round-robin over every router input channel (internal links and
 * NIC injection links) of a twin of the workload's network, under
 * the workload's fault plan. Median of repeated timed samples.
 */
double
faultNsPerFlit(const WorkloadSpec &w, std::uint64_t seed,
               const Scale &scale)
{
    std::unique_ptr<Network> net = bareNetwork(w, seed);
    PacketPool pool;
    FaultPlan plan;
    plan.dropProb = w.dropProb;
    FaultInjector injector(plan, seed, pool);
    injector.attachNetwork(*net);
    std::vector<Channel *> inputs;
    for (int i = 0; i < net->numInternalChannels(); ++i)
        inputs.push_back(&net->internalChannel(i));
    for (NodeId n = 0; n < net->numNodes(); ++n)
        inputs.push_back(net->nodePorts(n).inject);

    constexpr int flitsPerPacket = 10;
    const int packets = scale.quick ? 500 : 5000;
    const int samples = scale.quick ? 3 : 15;
    std::size_t next = 0;
    Cycle now = 0;
    std::vector<double> v;
    for (int s = 0; s < samples; ++s) {
        std::uint64_t t0 = nowNs();
        for (int k = 0; k < packets; ++k, ++next, ++now) {
            Channel *ch = inputs[next % inputs.size()];
            int router = static_cast<int>(next % net->numRouters());
            Packet *pkt = pool.alloc();
            bool dropped = false;
            for (int f = 0; f < flitsPerPacket; ++f) {
                Flit flit;
                flit.pkt = pkt;
                flit.head = f == 0;
                flit.tail = f == flitsPerPacket - 1;
                bool swallowed =
                    injector.filterArrival(router, ch, flit, now);
                if (f == 0)
                    dropped = swallowed;
            }
            if (!dropped) // a dropped packet was released at its tail
                pool.release(pkt);
        }
        v.push_back(refNs(nowNs() - t0) /
                    (double(packets) * flitsPerPacket));
    }
    return median(v);
}

/** Host seconds to build the experiment and install its workloads,
 * torn down unrun: one set-up sample, in reference time. It is the
 * mean of a batch of set-ups, timed together, so that one sample is
 * long against the probe that scales it and most set-ups reuse heap
 * memory freed by the one before. */
double
setupSeconds(const WorkloadSpec &w, std::uint64_t seed,
             const Scale &scale)
{
    constexpr int batch = 8;
    std::uint64_t t0 = nowNs();
    for (int b = 0; b < batch; ++b) {
        std::unique_ptr<CShiftBoard> board;
        std::unique_ptr<Experiment> exp =
            buildExperiment(w, seed, Mode::plain);
        installTraffic(*exp, w, seed, scale, board);
    }
    return refNs(nowNs() - t0) * 1e-9 / batch;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** One benchmark run: its repetitions, then its metrics. */
struct Run
{
    const WorkloadSpec &w;
    std::uint64_t seed;
    Scale scale;
    std::vector<Rep> reps;
    std::vector<double> setupS; //!< set-up samples, spread over rounds
    std::vector<Metric> metrics;
    std::string note; //!< human-readable extra line

    int rounds() const
    {
        int n = 0;
        for (const Rep &r : reps)
            n = std::max(n, r.round + 1);
        return n;
    }

    /** The first of the run's simulation seeds. */
    std::uint64_t firstSeed() const
    {
        return simSeed(seed, 0, scale.seeds(w));
    }

    /**
     * Host time of one pass over the run's seeds: for each seed, the
     * median @p f over its @p mode repetitions (one per round), summed
     * over seeds. A run's rounds are fixed, so every commit takes the
     * same number of samples.
     */
    template <class F>
    double medianPerSim(Mode mode, F f) const
    {
        std::map<int, std::vector<double>> bySim;
        for (const Rep &r : reps)
            if (r.mode == mode)
                bySim[r.sim].push_back(f(r));
        double sum = 0;
        for (const auto &[sim, v] : bySim)
            sum += median(v);
        return sum;
    }

    /** Host reference ns of one pass over the run's seeds' spans. */
    double spanRefNs(Mode mode) const
    {
        return medianPerSim(mode, [](const Rep &r) { return r.spanRefNs; });
    }

    /** Round 0's repetitions of @p mode, one per seed. */
    std::vector<const Rep *> firstRound(Mode mode) const
    {
        std::vector<const Rep *> v;
        for (const Rep &r : reps)
            if (r.round == 0 && r.mode == mode)
                v.push_back(&r);
        return v;
    }
};

/** Simulate every seed once per round, in @p modes each, for the
 * workload's fixed number of rounds. A round that would end past
 * @p capSeconds is not started, so a run on a very slow host still
 * ends with a result. Each round also takes set-up samples, so their
 * median spans the whole run. */
void
repeat(Run &run, const std::vector<Mode> &modes, double capSeconds)
{
    constexpr int setupSamplesPerRound = 16;
    const int seeds = run.scale.seeds(run.w);
    std::uint64_t t0 = nowNs();
    for (int round = 0; round < run.scale.rounds(run.w); ++round) {
        double spent = double(nowNs() - t0) * 1e-9;
        if (round > 0 && spent + spent / round > capSeconds)
            break;
        for (int k = 0; k < seeds; ++k)
            for (Mode m : modes) {
                run.reps.push_back(runRep(
                    run.w, simSeed(run.seed, k, seeds), m, run.scale));
                run.reps.back().round = round;
                run.reps.back().sim = k;
            }
        for (int i = 0; i < setupSamplesPerRound; ++i)
            run.setupS.push_back(setupSeconds(
                run.w, simSeed(run.seed, i % seeds, seeds), run.scale));
    }
}

/** Repeated simulations of one seed must be identical, whether
 * untraced, profiled or audited. */
void
checkSameSimulation(Run &run)
{
    std::map<int, const Rep *> first;
    std::map<int, const Rep *> firstTraced;
    for (Rep &r : run.reps) {
        if (!r.failure.empty())
            continue;
        auto [it, fresh] = first.emplace(r.sim, &r);
        if (!fresh && digest(r) != digest(*it->second))
            r.failure = "simulation differs between repetitions";
        if (r.mode != Mode::traced || !r.failure.empty())
            continue;
        auto [tt, tfresh] = firstTraced.emplace(r.sim, &r);
        if (!tfresh && profDigest(r) != profDigest(*tt->second))
            r.failure = "profiler counts differ between repetitions";
    }
}

long
peakRssKiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

/** End-to-end metrics: host figures from spanRefNs(); simulated
 * figures pool round 0's simulations, one per seed. */
void
endToEnd(Run &run)
{
    double setupS = median(run.setupS);
    auto first = run.firstRound(Mode::plain);
    Counters s;
    Distribution lat;
    double cycles = 0;
    for (const Rep *r : first) {
        s = combine(s, r->span, 1);
        lat.merge(r->latency);
        cycles += double(r->totalCycles);
    }
    double wallNs = run.spanRefNs(Mode::plain);
    double rawNs = run.medianPerSim(
        Mode::plain, [](const Rep &r) { return double(r.spanNs); });
    std::size_t failed = 0;
    for (const Rep &r : run.reps)
        failed += !r.failure.empty();
    double sims = double(first.size());
    run.metrics = {
        {"setup_s", setupS, "s"},
        {"wall_s", wallNs * 1e-9 / sims, "s"},
        {"sim_cycles_per_s", double(s.cycle) / (wallNs * 1e-9),
         "cycles/s"},
        {"host_ns_per_flit", wallNs / double(s.flits), "ns/flit"},
        {"peak_rss_mib", double(peakRssKiB()) / 1024.0, "MiB"},
        {"sim_goodput_pkts_per_kcycle",
         double(s.delivered) * 1000.0 / double(s.cycle), "pkts/kcycle"},
        {"sim_latency_p50_cycles", lat.percentile(0.50), "cycles"},
        {"sim_latency_p99_cycles", lat.percentile(0.99), "cycles"},
        {"sim_completion_cycles", cycles / sims, "cycles"},
        {"pass_frac",
         double(run.reps.size() - failed) / double(run.reps.size()),
         "ratio"},
    };
    char unscaled[96];
    std::snprintf(unscaled, sizeof unscaled,
                  "; unscaled wall %.4f s (host at %.3f of reference speed)",
                  rawNs * 1e-9 / sims, wallNs / rawNs);
    run.note = "latency percentiles over " +
               std::to_string(lat.count()) + " packets from " +
               std::to_string(first.size()) + " simulations; " +
               std::to_string(run.rounds()) + " rounds timed" + unscaled;
}

/** Sum of the profiler classes whose name satisfies @p pick. */
template <class P>
ClassAcct
classSum(const ProfSnap &p, P pick)
{
    ClassAcct sum;
    for (const auto &[name, acct] : p.cls)
        if (pick(name)) {
            sum.ns += acct.ns;
            sum.steps += acct.steps;
            sum.idle += acct.idle;
        }
    return sum;
}

/** Per-layer metrics: counts pool round 0's traced simulations; host
 * figures come from medianPerSim(). */
void
perLayer(Run &run)
{
    Counters s;
    ProfSnap p;
    std::uint64_t latSamples = 0;
    for (const Rep *r : run.firstRound(Mode::traced)) {
        s = combine(s, r->span, 1);
        p = combine(p, r->prof, 1);
        latSamples += r->latency.count();
    }
    auto isRouter = [](const std::string &c) { return c == "router"; };
    auto isNic = [](const std::string &c) {
        return c.size() > 4 && c.compare(c.size() - 4, 4, "-nic") == 0;
    };
    auto isProc = [](const std::string &c) { return c == "proc"; };
    auto all = [](const std::string &) { return true; };
    // The profiler reads the host clock on timed cycles only, so host
    // ns per cycle is the ns over the (deterministic) timed cycles. Its
    // raw ns take the span's scaling to the reference speed.
    auto perTimedCycle = [&](auto nsOf) {
        return run.medianPerSim(Mode::traced,
                                [&](const Rep &r) {
                                    return nsOf(r) * r.spanRefNs /
                                           double(r.spanNs);
                                }) /
               std::max<double>(double(p.timed), 1.0);
    };
    auto nsPerCycle = [&](auto pick) {
        return perTimedCycle([&](const Rep &r) {
            return double(classSum(r.prof, pick).ns);
        });
    };
    double traceOverhead =
        run.spanRefNs(Mode::traced) / run.spanRefNs(Mode::plain) - 1.0;
    auto medianOfAll = [&](double Rep::*field) {
        std::vector<double> v;
        for (const Rep &r : run.reps)
            v.push_back(r.*field);
        return median(v);
    };
    ClassAcct allAcct = classSum(p, all);
    ClassAcct router = classSum(p, isRouter);
    ClassAcct nic = classSum(p, isNic);
    double routerNsPerCycle = nsPerCycle(isRouter);
    std::uint64_t seed0 = run.firstSeed();
    double filterNs = run.w.dropProb > 0
                          ? faultNsPerFlit(run.w, seed0, run.scale)
                          : 0.0;

    run.metrics = {
        {"sim.kernel.steps_per_cycle", frac(allAcct.steps, p.cycles),
         "steps/cycle"},
        {"sim.kernel.idle_step_frac", frac(allAcct.idle, allAcct.steps),
         "ratio"},
        {"sim.kernel.self_ns_per_cycle",
         perTimedCycle([](const Rep &r) { return double(r.prof.selfNs); }),
         "ns/cycle"},
        {"sim.trace_overhead_frac", traceOverhead, "ratio"},
        {"sim.latency_samples", double(latSamples), "count"},
        {"net.router.ns_per_cycle", routerNsPerCycle, "ns/cycle"},
        {"net.router.ns_per_flit",
         routerNsPerCycle / std::max(frac(s.flits, s.cycle), 1e-12),
         "ns/flit"},
        {"net.router.idle_step_frac", frac(router.idle, router.steps),
         "ratio"},
        {"net.flits_switched", double(s.flits), "count"},
        {"net.idle.ns_per_router_step",
         idleNsPerRouterStep(run.w, seed0, run.scale), "ns/step"},
        {"net.sim.link_util", frac(s.linkFlitCycles, s.linkCycles),
         "ratio"},
        {"nic.ns_per_cycle", nsPerCycle(isNic), "ns/cycle"},
        {"nic.idle_step_frac", frac(nic.idle, nic.steps), "ratio"},
        {"nic.acks_sent", double(s.acks), "count"},
        {"nic.ack_piggyback_frac", frac(s.piggy, s.acks + s.piggy),
         "ratio"},
        {"nic.bulk_grants", double(s.grants), "count"},
        {"nic.bulk_reject_frac", frac(s.rejects, s.grants + s.rejects),
         "ratio"},
        {"nic.retransmissions", double(s.retx), "count"},
        {"nic.duplicate_frac", frac(s.dups, s.delivered + s.dups),
         "ratio"},
        {"proc.ns_per_cycle", nsPerCycle(isProc), "ns/cycle"},
        {"proc.sim.busy_frac", frac(s.busy, s.procCycles), "ratio"},
        {"proc.empty_poll_frac",
         frac(s.emptyPolls, s.emptyPolls + s.receives), "ratio"},
        {"fault.ns_per_cycle", filterNs * frac(s.filteredFlits, s.cycle),
         "ns/cycle"},
        {"fault.packets_dropped", double(s.fabricDrops), "count"},
        {"harness.build_ns", medianOfAll(&Rep::buildNs), "ns"},
        {"traffic.setup_ns", medianOfAll(&Rep::trafficNs), "ns"},
        {"harness.report_ns", medianOfAll(&Rep::reportNs), "ns"},
    };
    run.note = std::to_string(run.rounds()) +
               " rounds of untraced + profiled repetitions, 1 audited";
}

void
printResult(const Run &run)
{
    std::size_t failed = 0;
    for (const Rep &r : run.reps) {
        if (!r.failure.empty()) {
            std::fprintf(stderr, "perfbench: repetition failed: %s\n",
                         r.failure.c_str());
            ++failed;
        }
    }
    std::printf("%s: %s\n", run.w.name, run.note.c_str());
    for (const Metric &m : run.metrics)
        std::printf("  %-32s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::string json = "{\"correct\": ";
    json += failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(run.reps.size());
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < run.metrics.size(); ++i) {
        const Metric &m = run.metrics[i];
        // A failed repetition can leave a 0/0; JSON has no NaN.
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : workloadSpecs)
        if (name == w.name)
            return &w;
    return nullptr;
}

int
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: nifdy_perfbench --workload NAME "
                 "--seed N --seconds S --trace 0|1 [--quick]\n",
                 why.c_str());
    return 2;
}

int
benchMain(int argc, char **argv)
{
    setQuiet(true);
    // The audit layer is switched on per repetition, never from the
    // environment, so untraced repetitions all measure one path.
    unsetenv("NIFDY_AUDIT");

    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    Scale scale;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        bool hasValue = i + 1 < argc;
        if (a == "--quick")
            scale.quick = true;
        else if (a == "--workload" && hasValue)
            workload = argv[++i];
        else if (a == "--seed" && hasValue)
            seed = std::strtoull(argv[++i], nullptr, 10);
        else if (a == "--seconds" && hasValue)
            seconds = std::strtod(argv[++i], nullptr);
        else if (a == "--trace" && hasValue)
            trace = std::atoi(argv[++i]);
        else
            return usage("unknown argument " + a);
    }
    const WorkloadSpec *w = findWorkload(workload);
    if (!w)
        return usage("unknown workload '" + workload + "'");
    if (!(seconds > 0) || (trace != 0 && trace != 1))
        return usage("--seconds must be > 0 and --trace 0 or 1");

    // Rounds are fixed per workload; --seconds only caps a run on a
    // host far slower than the reference, and run.py's timeout caps
    // that cap.
    const double capSeconds = std::min(3 * seconds, 120.0);
    Run run{*w, seed, scale, {}, {}, {}, {}};
    if (trace == 0) {
        repeat(run, {Mode::plain}, capSeconds);
        checkSameSimulation(run);
        endToEnd(run);
    } else {
        // Untraced and profiled repetitions alternate so both see the
        // same host conditions; one audited repetition checks the
        // protocol invariants on the first seed's simulation.
        repeat(run, {Mode::plain, Mode::traced}, capSeconds);
        run.reps.push_back(
            runRep(*w, run.firstSeed(), Mode::audited, scale));
        checkSameSimulation(run);
        perLayer(run);
    }
    printResult(run);
    return 0;
}

} // namespace
} // namespace nifdy

int
main(int argc, char **argv)
{
    return nifdy::benchMain(argc, argv);
}
