/**
 * @file
 * Congestion-observatory evaluation: incast traffic (many nodes
 * hammer one receiver; traffic/incast.hh) on a fat tree, comparing
 * the plain NIC against NIFDY. The observatory is always on here --
 * the bench exists to exercise it -- and each configuration's
 * per-link stall map, flow progress, and victim/aggressor episodes
 * land in the report under "congestion.<tag>.*" names for
 * `tools/analyze.py congestion`.
 *
 * The sender mix is deliberately asymmetric: the first
 * traffic.incast.heavy non-receiver nodes blast full-rate bursts
 * while the rest trickle light background messages at the same
 * receiver. The heavy flows dominate the traffic on the contended
 * links (aggressors); the light flows are slowed far beyond their
 * isolation baseline without being at fault (victims).
 *
 * Expected shape: with the plain NIC, the receiver's ejection path
 * saturates, episodes open on the links feeding it, the heavy
 * senders split the aggressor shares, and the light flows' slowdown
 * spikes. NIFDY's admission window caps the in-fabric pileup, so
 * the stalled fraction and the victim slowdown both drop.
 *
 * Args: cycles=150000 nodes=64 seed=1 topology=fattree csv=false
 *       traffic.incast.receiver=0 traffic.incast.lo=100
 *       traffic.incast.hi=300 traffic.incast.heavy=4
 *       traffic.incast.lightdiv=25
 * plus the congestion.* knobs (window, onFrac, offFrac,
 * aggressorShare, victimSlowdown) via BenchArgs::bindTelemetry(). The
 * aggressor-share default here is 0.10 -- lower than the harness's
 * 0.25 because the contended links carry many flows at once --
 * still overridable from the command line.
 */

#include <algorithm>

#include "benchutil.hh"
#include "traffic/incast.hh"

using namespace nifdy;

namespace
{

struct IncastMix
{
    IncastParams heavyParams;
    IncastParams lightParams;
    int heavySenders;
};

/** Incast with a heavy/light sender split (see file comment). */
std::unique_ptr<Experiment>
makeIncastExperiment(const std::string &topology, NicKind kind,
                     int nodes, const IncastMix &mix,
                     std::uint64_t seed, ExperimentConfig cfg)
{
    cfg.topology = topology;
    cfg.numNodes = nodes;
    cfg.nicKind = kind;
    cfg.seed = seed;
    cfg.msg.packetWords = 8;
    cfg.congestion.enabled = true; // the bench's whole point
    cfg.congestion.validate();
    auto exp = std::make_unique<Experiment>(cfg);
    int heavyLeft = mix.heavySenders;
    for (NodeId n = 0; n < exp->numNodes(); ++n) {
        const IncastParams *ip = &mix.lightParams;
        if (n != mix.heavyParams.receiver && heavyLeft > 0) {
            ip = &mix.heavyParams;
            --heavyLeft;
        }
        exp->setWorkload(n, std::make_unique<IncastWorkload>(
                                exp->proc(n), exp->msg(n),
                                exp->barrier(), exp->numNodes(), *ip,
                                seed));
    }
    return exp;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    BenchArgs args(argc, argv, 150000);
    args.base.congestion.aggressorShare = 0.10; // see file comment
    args.bindTelemetry();
    std::string topology = "fattree";
    args.conf.knob("topology", topology, "network topology");

    IncastMix mix;
    IncastParams &hp = mix.heavyParams;
    args.conf.knob("traffic.incast.receiver", hp.receiver,
                   "the node every sender targets", 0);
    args.conf.knob("traffic.incast.lo", hp.packetsPerPhaseLo,
                   "heavy sender packets per phase, lower bound", 1);
    args.conf.knob("traffic.incast.hi", hp.packetsPerPhaseHi,
                   "heavy sender packets per phase, upper bound", 1);
    mix.heavySenders = 4;
    args.conf.knob("traffic.incast.heavy", mix.heavySenders,
                   "senders that blast full-rate bursts");
    int lightDiv = 25;
    args.conf.knob("traffic.incast.lightdiv", lightDiv,
                   "light senders send 1/N of the heavy burst", 1);
    args.conf.close();
    fatal_if(hp.packetsPerPhaseHi < hp.packetsPerPhaseLo,
             "traffic.incast.hi %d is below traffic.incast.lo %d",
             hp.packetsPerPhaseHi, hp.packetsPerPhaseLo);
    mix.lightParams = hp;
    mix.lightParams.packetsPerPhaseLo =
        std::max(1, hp.packetsPerPhaseLo / lightDiv);
    mix.lightParams.packetsPerPhaseHi =
        std::max(mix.lightParams.packetsPerPhaseLo,
                 hp.packetsPerPhaseHi / lightDiv);

    Table t("Congestion extension: incast onto node " +
            std::to_string(hp.receiver) + ", " + topology + ", " +
            std::to_string(args.nodes) + " nodes (" +
            std::to_string(mix.heavySenders) + " heavy senders), " +
            std::to_string(args.cycles) + " cycles");
    t.header({"nic", "delivered", "stalled%", "episodes",
              "aggressors", "victims", "max slowdown"});

    for (NicKind kind : {NicKind::none, NicKind::nifdy}) {
        auto exp = makeIncastExperiment(topology, kind, args.nodes,
                                        mix, args.seed, args.base);
        exp->runFor(args.cycles);
        const std::string tag =
            "incast." + std::string(nicKindName(kind));
        recordCongestion(*exp, args, tag);
        CongestionObserver &co = *exp->congestion();
        const std::uint64_t cycles =
            co.totalBusy() + co.totalIdle() + co.totalStalled();
        const double stalled =
            cycles ? double(co.totalStalled()) / double(cycles) : 0;
        t.row({nicKindName(kind),
               Table::num(static_cast<long>(exp->packetsDelivered())),
               Table::num(stalled * 100.0, 2) + "%",
               Table::num(static_cast<long>(co.episodesOpened())),
               Table::num(static_cast<long>(co.aggressorFlows())),
               Table::num(static_cast<long>(co.victimFlows())),
               Table::num(co.maxSlowdown(), 2)});
    }
    args.emit(t);
    args.note("heavy incast senders split the aggressor shares on "
              "the links feeding the receiver; NIFDY's admission "
              "window keeps the pileup at the source, shrinking the "
              "stalled fraction and the worst victim slowdown.");
    return args.finish();
}
